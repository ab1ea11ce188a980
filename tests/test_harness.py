import os
from collections.abc import Mapping
from pathlib import Path

import pytest

from latentlab import harness, training
from latentlab.errors import ConfigError, TaskMismatchError
from latentlab.harness import (
    _run_one_seed,
    build_model,
    build_task,
    compare_runs,
    execute_run,
    parse_config,
    resolve_out_dir,
    resolved_text,
    write_report,
)

BASE = """
task:
  kind: tag
  n_prompts: 3
  n_responses: 6
  seed: 1
event: success
model:
  features: tabular
  init: uniform
algorithm: em
iterations: 2
seeds: [0]
estep:
  backend: exact
mstep:
  kind: closed_form
"""
# BASE without the estep and mstep sections, which only em reads
BASE_NO_STEPS = BASE[:BASE.index("estep:")]


def test_parse_fixed_point():
    cfg = parse_config(BASE)
    text = resolved_text(cfg)
    again = parse_config(text)
    assert resolved_text(again) == text


def test_parse_fills_defaults():
    cfg = parse_config(BASE.replace("init: uniform", "init: random"))
    assert cfg.data["model"]["scale"] == 0.5
    assert cfg.data["mstep"]["steps"] == 50
    assert cfg.data["event"] == "success"


def test_parse_rejects_unknown_key():
    with pytest.raises(ConfigError):
        parse_config(BASE + "\nbogus_key: 1\n")


def test_parse_rejects_unknown_algorithm():
    with pytest.raises(ConfigError):
        parse_config(BASE.replace("algorithm: em", "algorithm: sgd"))


def test_parse_rejects_bad_task_field():
    with pytest.raises(ConfigError):
        parse_config(BASE.replace("n_responses: 6", "n_responses: 6\n  digits: 1"))


def test_parse_rejects_duplicate_seeds():
    with pytest.raises(ConfigError):
        parse_config(BASE.replace("seeds: [0]", "seeds: [0, 0]"))


def test_parse_rejects_optimum_reference_without_closed_form():
    assert parse_config(BASE + "reference: optimum\n").data["reference"] == "optimum"
    with pytest.raises(ConfigError, match="tabular"):
        parse_config(BASE.replace("features: tabular", "features: ngram")
                     + "reference: optimum\n")


def test_parse_rejects_non_mapping():
    with pytest.raises(ConfigError):
        parse_config("- just\n- a\n- list\n")


@pytest.mark.parametrize("estep", [
    "{backend: bogus}",
    "{backend: exact, params: {beta: 1.0}}",
    "{backend: planning, params: {beta: -1}}",
    "{backend: planning, params: {beta: fast}}",
    "{backend: planning, params: {compare_exact: false}}",
    "{backend: rejection}",
    "{backend: rejection, params: {budget: 0}}",
    "{backend: rejection, params: {budget: 2.5}}",
    "{backend: policy_gradient, params: {iteratons: 5}}",
    "{backend: policy_gradient, params: {iterations: -1}}",
    "{backend: policy_gradient, params: {iterations: five}}",
    "{backend: policy_gradient, params: {baseline: none}}",
])
def test_parse_rejects_bad_estep_params(estep):
    with pytest.raises(ConfigError):
        parse_config(BASE.replace("estep:\n  backend: exact", f"estep: {estep}"))


@pytest.mark.parametrize("edit", [
    (BASE, "estep:\n  backend: exact",
     "estep: {backend: policy_gradient, params: {iterations: 2.5}}"),
    (BASE, "estep:\n  backend: exact",
     "estep: {backend: policy_gradient, params: {batch_size: true}}"),
    (BASE, "estep:\n  backend: exact",
     "estep: {backend: policy_gradient, params: {step_size: fast}}"),
    (BASE, "estep:\n  backend: exact",
     "estep: {backend: policy_gradient, params: {divergence_patience: 5.0}}"),
    (BASE_NO_STEPS, "algorithm: em", "algorithm: posterior_dpo\ndpo: {pg: {iterations: 1.5}}"),
    (BASE_NO_STEPS, "algorithm: em",
     "algorithm: posterior_dpo\ndpo: {pg: {reward_floor: false}}"),
    (BASE, "kind: closed_form", "kind: closed_form\n  steps: 2.5"),
    (BASE, "kind: closed_form", "kind: closed_form\n  rate: true"),
])
def test_parse_rejects_mistyped_spec_fields(edit):
    base, old, new = edit
    assert old in base
    with pytest.raises(ConfigError, match="must be an integer|must be a number"):
        parse_config(base.replace(old, new))


@pytest.mark.parametrize("dpo, pg", [
    ("", {}),
    ("dpo: {pg: {}}\n", {}),
    ("dpo: {pg: {step_size: 0.25}}\n", {"step_size": 0.25}),
], ids=["no-pg", "empty-pg", "pg-without-iterations"])
def test_parse_writes_the_sampler_iterations_for_posterior_dpo(dpo, pg):
    text = BASE_NO_STEPS.replace("algorithm: em", "algorithm: posterior_dpo") + dpo
    resolved = parse_config(text).data["dpo"]["pg"]
    assert resolved == {"iterations": training.SAMPLER_ITERATIONS, **pg}
    given = {"iterations": 25, **pg}
    text = (BASE_NO_STEPS.replace("algorithm: em", "algorithm: posterior_dpo")
            + f"dpo: {{pg: {given}}}\n")
    assert parse_config(text).data["dpo"]["pg"] == given


@pytest.mark.parametrize("estep", [
    "{backend: planning, params: {beta: 1}}",
    "{backend: rejection, params: {budget: 40}}",
    "{backend: policy_gradient, params: {iterations: 3, step_size: 0.1}}",
])
def test_valid_estep_params_reach_the_engine(estep, tmp_path):
    cfg = parse_config(BASE.replace("estep:\n  backend: exact", f"estep: {estep}"))
    execute_run(cfg, tmp_path / "run")
    assert (tmp_path / "run" / "record.seed0.tsv").exists()


class _Reads(Mapping):
    """A resolved config, or a section of one, that records the dotted path
    of every key read from it; copying or unpacking it reads every key."""

    def __init__(self, data: dict, seen: set, prefix: str = ""):
        self.data, self.seen, self.prefix = data, seen, prefix

    def __getitem__(self, key):
        value = self.data[key]
        self.seen.add(self.prefix + key)
        if isinstance(value, dict):
            return _Reads(value, self.seen, f"{self.prefix}{key}.")
        return value

    def __iter__(self):
        return iter(self.data)

    def __len__(self):
        return len(self.data)


def _paths(data: dict, prefix: str = ""):
    for key, value in data.items():
        yield prefix + key
        if isinstance(value, dict):
            yield from _paths(value, f"{prefix}{key}.")


# read around the per-seed worker: `execute_run` runs each seed, the command
# line picks the output directory
RUN_LEVEL = {"seeds", "out"}
TAG_RUN = ("task: {kind: tag, n_prompts: 2, n_responses: 5, seed: 1}\n"
           "iterations: 1\nseeds: [0]\ncheckpoint_every: 1\n")
RANDOM_INIT = "model: {init: random, scale: 0.6}\nreference: optimum\n"


# the settings each algorithm reads, one non-default value in each
SETTINGS = {
    "em": "estep: {backend: planning, params: {beta: 1.0}}\n"
          "mstep: {kind: gradient_ascent, steps: 2}\n",
    "filter_sft": "sample_budget: 20\n",
    "restem": "sample_budget: 20\n",
    "cond_sft": "sample_budget: 20\n",
    "iter_dpo": "dpo: {steps: 2, candidates: 4}\n",
    "posterior_dpo": "dpo: {steps: 2, candidates: 4, pg: {iterations: 3}}\n",
}
# model sections beside the random tabular one, whose settings the run reads
# only in part
MODELS = {
    "uniform-init": ("filter_sft", "model: {init: uniform}\nreference: optimum\n"),
    "ngram": ("em", "model: {features: ngram, ngram_n: 3, positional: false}\n"),
}


@pytest.mark.parametrize("algorithm, model", [
    *((algorithm, RANDOM_INIT) for algorithm in SETTINGS), *MODELS.values(),
], ids=[*SETTINGS, *MODELS])
def test_a_run_reads_every_resolved_setting(algorithm, model):
    text = f"algorithm: {algorithm}\n" + TAG_RUN + model + SETTINGS[algorithm]
    if algorithm == "restem":
        text = text.replace("seed: 1}", "seed: 1, evaluator: soft}")
    data = parse_config(text).data
    seen: set = set()
    _run_one_seed((_Reads(data, seen), 0))
    unread = sorted(set(_paths(data)) - seen - RUN_LEVEL)
    assert not unread, f"{algorithm} resolves settings its run never reads: {unread}"


def test_read_recorder_sees_an_unread_key():
    data = {"a": 1, "b": {"c": 2, "d": {"e": 3}}, "f": {"g": 4}}
    seen: set = set()
    reads = _Reads(data, seen)
    assert reads["b"]["c"] == 2 and dict(reads["f"]) == {"g": 4}
    assert sorted(set(_paths(data)) - seen) == ["a", "b.d", "b.d.e"]


def test_build_task_dispatch():
    carry_cfg = parse_config(
        BASE.replace(
            "task:\n  kind: tag\n  n_prompts: 3\n  n_responses: 6\n  seed: 1",
            "task:\n  kind: carry\n  digits: 1\n  base: 3\n  seed: 0",
        )
    )
    task = build_task(carry_cfg.data["task"])
    assert task.n_prompts == 9
    with pytest.raises(ConfigError):
        parse_config(BASE.replace("kind: tag", "kind: sudoku"))


def test_build_model_shapes():
    cfg = parse_config(BASE)
    task = build_task(cfg.data["task"])
    uni = build_model(cfg.data["model"], task, seed=0)
    assert (uni.theta == 0).all()
    rnd_cfg = parse_config(BASE.replace("init: uniform", "init: random"))
    rnd = build_model(rnd_cfg.data["model"], task, seed=0)
    assert (rnd.theta != 0).any()


def test_execute_run_artifacts(tmp_path):
    cfg = parse_config(BASE)
    out = tmp_path / "run"
    summary = execute_run(cfg, out)
    assert "algorithm=em" in summary
    assert (out / "config.resolved").read_text() == resolved_text(cfg)
    assert (out / "record.seed0.tsv").exists()
    assert (out / "summary.txt").exists()


def test_execute_run_deterministic(tmp_path):
    cfg = parse_config(BASE)
    a, b = tmp_path / "a", tmp_path / "b"
    execute_run(cfg, a)
    execute_run(cfg, b)
    assert (a / "record.seed0.tsv").read_bytes() == (b / "record.seed0.tsv").read_bytes()


def test_parallel_matches_serial(tmp_path):
    cfg = parse_config(BASE.replace("seeds: [0]", "seeds: [0, 1, 2]"))
    a, b = tmp_path / "serial", tmp_path / "par"
    execute_run(cfg, a, jobs=1)
    execute_run(cfg, b, jobs=3)
    for k in (0, 1, 2):
        assert (a / f"record.seed{k}.tsv").read_bytes() == (
            b / f"record.seed{k}.tsv"
        ).read_bytes()


def test_worker_processes_are_bounded_by_the_seed_count(tmp_path, monkeypatch):
    sizes = []

    class RecordingPool:
        """Records the worker count asked of the pool; maps in this process."""

        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(harness, "_process_pool", RecordingPool)
    for jobs, seeds, asked in ((64, 3, [3]), (2, 3, [2]), (4, 1, [])):
        sizes.clear()
        cfg = parse_config(BASE.replace("seeds: [0]", f"seeds: {list(range(seeds))}"))
        execute_run(cfg, tmp_path / f"j{jobs}-s{seeds}", jobs=jobs)
        assert sizes == asked, (jobs, seeds)


def test_checkpoints_written(tmp_path):
    cfg = parse_config(BASE + "checkpoint_every: 1\n")
    out = tmp_path / "run"
    execute_run(cfg, out)
    for t in (0, 1, 2):
        assert (out / f"checkpoint.seed0.t{t}.txt").exists()


def test_compare_runs(tmp_path):
    cfg_a = parse_config(BASE)
    cfg_b = parse_config(BASE_NO_STEPS.replace("algorithm: em", "algorithm: filter_sft"))
    a, b = tmp_path / "a", tmp_path / "b"
    execute_run(cfg_a, a)
    execute_run(cfg_b, b)
    table = compare_runs([a, b])
    assert "em" in table and "filter_sft" in table
    assert "wins=" in table


def test_compare_guards_task_mismatch(tmp_path):
    cfg_a = parse_config(BASE)
    cfg_b = parse_config(BASE.replace("n_responses: 6", "n_responses: 5"))
    a, b = tmp_path / "a", tmp_path / "b"
    execute_run(cfg_a, a)
    execute_run(cfg_b, b)
    with pytest.raises(TaskMismatchError):
        compare_runs([a, b])


def test_report_series(tmp_path):
    cfg = parse_config(BASE.replace("seeds: [0]", "seeds: [0, 1]"))
    out = tmp_path / "run"
    execute_run(cfg, out)
    files = write_report(out)
    names = {p.name for p in files}
    assert "series.objective.tsv" in names
    obj = Path(out, "series.objective.tsv").read_text().splitlines()
    assert obj[0] == "t\tseed0\tseed1\tmean"
    assert len(obj) == 1 + 3
    # a second report pass rewrites the same bytes
    before = Path(out, "series.objective.tsv").read_bytes()
    write_report(out)
    assert Path(out, "series.objective.tsv").read_bytes() == before


def test_resolve_out_dir_precedence(tmp_path, monkeypatch):
    cfg = parse_config(BASE)
    explicit = resolve_out_dir(cfg, str(tmp_path / "x"), "cfgname")
    assert explicit == tmp_path / "x"
    cfg_with_out = parse_config(BASE + f"out: {tmp_path / 'y'}\n")
    assert resolve_out_dir(cfg_with_out, None, "cfgname") == tmp_path / "y"
    monkeypatch.setenv("LATENTLAB_OUT", str(tmp_path / "env"))
    assert resolve_out_dir(cfg, None, "cfgname") == tmp_path / "env" / "cfgname"
    monkeypatch.delenv("LATENTLAB_OUT")
    assert resolve_out_dir(cfg, None, "cfgname") == Path("runs") / "cfgname"
