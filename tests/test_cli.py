from pathlib import Path

import pytest

from latentlab.cli import main

CONFIG = """
task:
  kind: tag
  n_prompts: 2
  n_responses: 5
  seed: 0
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


@pytest.fixture()
def config_path(tmp_path):
    p = tmp_path / "small.yaml"
    p.write_text(CONFIG)
    return p


def test_run_and_report(tmp_path, config_path, capsys):
    out = tmp_path / "run"
    assert main(["run", str(config_path), "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert str(out) in printed
    assert (out / "record.seed0.tsv").exists()
    assert main(["report", str(out)]) == 0
    assert (out / "series.objective.tsv").exists()


def test_compare(tmp_path, config_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["run", str(config_path), "--out", str(a)]) == 0
    assert main(["run", str(config_path), "--out", str(b)]) == 0
    capsys.readouterr()
    assert main(["compare", str(a), str(b)]) == 0
    assert "wins=" in capsys.readouterr().out


def test_run_missing_config(tmp_path, capsys):
    assert main(["run", str(tmp_path / "absent.yaml")]) == 2
    assert capsys.readouterr().err != ""


def test_run_bad_config(tmp_path, capsys):
    p = tmp_path / "bad.yaml"
    p.write_text(CONFIG + "\nbogus_key: 1\n")
    assert main(["run", str(p)]) == 2
    assert "bogus_key" in capsys.readouterr().err


@pytest.mark.parametrize("jobs", ["0", "-2"])
def test_run_refuses_jobs_below_one(tmp_path, config_path, capsys, jobs):
    out = tmp_path / "run"
    assert main(["run", str(config_path), "--out", str(out), "--jobs", jobs]) == 2
    assert capsys.readouterr().err == f"error: jobs must be >= 1, got {jobs}\n"
    assert not out.exists()


def test_verify_single_check(capsys):
    assert main(["verify", "--filter", "tasks.factory_counts"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "1/1" in out


def test_verify_fault_injection(capsys):
    code = main(
        ["verify", "--filter", "planner.shap*", "--inject-fault", "shaping-sign"]
    )
    assert code == 1
    out = capsys.readouterr().out
    assert "FAIL" in out


def test_verify_unknown_fault(capsys):
    assert main(["verify", "--inject-fault", "no-such-fault"]) == 2


def test_verify_no_match(capsys):
    assert main(["verify", "--filter", "zzz.*"]) == 2


TAG = "task:\n  kind: tag\n  n_prompts: 2\n  n_responses: 5\n"


SOFT = TAG + "  evaluator: soft\n"


# (algorithm, config body, start of the error line): a bad field value, or a
# task that the algorithm cannot train on or that its factory refuses
@pytest.mark.parametrize("algorithm, section, error", [
    pytest.param("em", TAG + "model:\n  init: random\n  scale: -1.0\n", "model.scale ",
                 id="negative-scale"),
    pytest.param("em", TAG + "model:\n  init: random\n  scale: .nan\n", "model.scale ",
                 id="nan-scale"),
    pytest.param("em", SOFT + "  soft_beta: -1.0\n", "task.soft_beta ",
                 id="negative-soft-beta"),
    pytest.param("em", SOFT + "  wrong_penalty: 2.0\n", "task.wrong_penalty ",
                 id="positive-wrong-penalty"),
    pytest.param("em", "task:\n  kind: carry\n  digits: 1\n  base: 1\n", "task.base ",
                 id="carry-base-1"),
    pytest.param("em", "task:\n  kind: automaton\n  num_states: 1\n  input_len: 2\n",
                 "task.num_states ", id="one-state-automaton"),
    pytest.param("em", "task:\n  kind: tag\n  n_prompts: 2\n  n_responses: 1\n",
                 "task.n_responses ", id="one-response-tag"),
    pytest.param("iter_dpo", TAG + "dpo:\n  beta: -1.0\n", "dpo.beta ",
                 id="negative-dpo-beta"),
    pytest.param("iter_dpo", TAG + "dpo:\n  rate: -1.0\n", "dpo.rate ",
                 id="negative-dpo-rate"),
    pytest.param("iter_dpo", TAG + "dpo:\n  beta: .nan\n", "dpo.beta ", id="nan-dpo-beta"),
    pytest.param("iter_dpo", TAG + "dpo:\n  rate: .inf\n", "dpo.rate ", id="inf-dpo-rate"),
    pytest.param("em", TAG + "estep: {backend: planning, params: {beta: .inf}}\n",
                 "estep.params.beta ", id="inf-planning-beta"),
    pytest.param("em", TAG + "estep: {backend: policy_gradient, params: {step_size: .inf}}\n",
                 "estep.params.step_size ", id="inf-pg-step-size"),
    pytest.param("em", TAG + "estep: {backend: policy_gradient, params: {reward_floor: -.inf}}\n",
                 "estep.params.reward_floor ", id="minus-inf-pg-reward-floor"),
    pytest.param("em", TAG + "estep: {backend: policy_gradient, params: {beta: .inf}}\n",
                 "estep.params.beta ", id="inf-pg-beta"),
    pytest.param("em", TAG + "mstep: {kind: gradient_ascent, rate: .inf}\n", "mstep.rate ",
                 id="inf-mstep-rate"),
    pytest.param("restem", TAG,
                 "expectation-weighted self-training needs a soft evaluator\n",
                 id="restem-binary"),
    pytest.param("iter_dpo", SOFT, "preference pairs need a binary evaluator\n",
                 id="iter-dpo-soft"),
    pytest.param("posterior_dpo", SOFT, "preference pairs need a binary evaluator\n",
                 id="posterior-dpo-soft"),
    pytest.param("filter_sft", SOFT,
                 "filtered fine-tuning needs a binary pass/fail evaluator\n",
                 id="filter-sft-soft"),
    pytest.param("cond_sft", "task:\n  kind: carry\n  digits: 1\n  base: 2\n",
                 "tag-conditioned training needs a two-tag latent space "
                 "and reference responses\n", id="cond-sft-carry"),
    pytest.param("em", "task: {kind: carry, digits: 4, base: 10}\n",
                 "|Z|*|Y| = 16000000000 exceeds cap ", id="carry-over-cap"),
    pytest.param("filter_sft", TAG + "event: full\n",
                 "event must be 'success' for algorithm 'filter_sft', ",
                 id="filter-sft-full-event"),
    pytest.param("restem", SOFT + "event: full\n",
                 "event must be 'success' for algorithm 'restem', ", id="restem-full-event"),
    pytest.param("cond_sft", TAG + "event: full\n",
                 "event must be 'success' for algorithm 'cond_sft', ", id="cond-sft-full-event"),
    pytest.param("iter_dpo", TAG + "event: full\n",
                 "event must be 'success' for algorithm 'iter_dpo', ", id="iter-dpo-full-event"),
    pytest.param("posterior_dpo", TAG + "event: full\n",
                 "event must be 'success' for algorithm 'posterior_dpo', ",
                 id="posterior-dpo-full-event"),
    pytest.param("em", TAG + "sample_budget: 10\n",
                 "sample_budget is not read by algorithm 'em', ", id="em-sample-budget"),
    pytest.param("em", TAG + "dpo: {steps: 3}\n",
                 "dpo is not read by algorithm 'em', ", id="em-dpo"),
    pytest.param("filter_sft", TAG + "estep: {backend: exact}\n",
                 "estep is not read by algorithm 'filter_sft', ", id="filter-sft-estep"),
    pytest.param("restem", SOFT + "mstep: {kind: closed_form}\n",
                 "mstep is not read by algorithm 'restem', ", id="restem-mstep"),
    pytest.param("cond_sft", TAG + "dpo: {steps: 3}\n",
                 "dpo is not read by algorithm 'cond_sft', ", id="cond-sft-dpo"),
    pytest.param("posterior_dpo", TAG + "sample_budget: 10\n",
                 "sample_budget is not read by algorithm 'posterior_dpo', ",
                 id="posterior-dpo-sample-budget"),
    pytest.param("iter_dpo", TAG + "dpo: {pg: {iterations: 3}}\n",
                 "dpo.pg is not read by algorithm 'iter_dpo', ", id="iter-dpo-pg"),
    pytest.param("em", TAG + "model: {init: uniform, scale: 0.6}\n",
                 "model.scale is read only with init: random, ", id="uniform-init-scale"),
    pytest.param("em", TAG + "model: {scale: 0.6}\n",
                 "model.scale is read only with init: random, ", id="default-init-scale"),
    pytest.param("em", TAG + "model: {features: tabular, ngram_n: 3}\n",
                 "model.ngram_n is read only with features: ngram, ", id="tabular-ngram-n"),
    pytest.param("filter_sft", TAG + "model: {positional: false}\n",
                 "model.positional is read only with features: ngram, ",
                 id="tabular-positional"),
    pytest.param("cond_sft", TAG + "model: {init: random, per_prompt: true}\n",
                 "model.per_prompt is read only with features: ngram, ",
                 id="tabular-per-prompt"),
])
def test_run_rejects_bad_values_before_making_a_run_directory(
    tmp_path, capsys, algorithm, section, error
):
    p = tmp_path / "bad.yaml"
    p.write_text(f"algorithm: {algorithm}\niterations: 1\nseeds: [0]\n" + section)
    out = tmp_path / "run"
    assert main(["run", str(p), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {error}")
    assert not out.exists()


def _edit_cell(run: Path, column: int, value: str | None) -> None:
    """Set one cell of the record's line 3 (the row t = 1) to `value`, or
    cut that line short before the cell when `value` is None."""
    path = run / "record.seed0.tsv"
    lines = path.read_text().splitlines()
    cells = lines[2].split("\t")
    lines[2] = "\t".join(cells[:column] if value is None else
                         cells[:column] + [value] + cells[column + 1:])
    path.write_text("\n".join(lines) + "\n")


# a damage to a run directory, the file the error line names and what it says
@pytest.mark.parametrize("damage, name, error", [
    pytest.param(lambda run: _edit_cell(run, 3, None), "record.seed0.tsv",
                 "line 3: 3 cells, expected ", id="short-row"),
    pytest.param(lambda run: _edit_cell(run, 2, "abc"), "record.seed0.tsv",
                 "line 3: could not convert string to float: 'abc'", id="non-numeric-cell"),
    pytest.param(lambda run: (run / "record.seed0-old.tsv").write_text(
                     (run / "record.seed0.tsv").read_text()),
                 "record.seed0-old.tsv", "not a per-seed record", id="stray-record"),
])
@pytest.mark.parametrize("command", ["report", "compare"])
def test_damaged_run_directory_prints_an_error_line(
    tmp_path, config_path, capsys, command, damage, name, error
):
    run = tmp_path / "run"
    assert main(["run", str(config_path), "--out", str(run)]) == 0
    damage(run)
    capsys.readouterr()
    # a comparison needs two run directories: the damaged one twice
    runs = [str(run)] * (2 if command == "compare" else 1)
    assert main([command, *runs]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {run / name}: {error}")
    assert "Traceback" not in err
