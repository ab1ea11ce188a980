"""Config-driven runs: one YAML document in, deterministic artifacts out.

A run directory holds the resolved config, one metric table per seed
(``record.seed<k>.tsv``), optional parameter checkpoints, and a timing
summary.  Everything except ``summary.txt`` is byte-deterministic:
rerunning the same config into a fresh directory reproduces those files
exactly, which is what makes results from different machines comparable.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, fields
from inspect import signature
from io import StringIO
from pathlib import Path

import numpy as np
import yaml

from .errors import (
    ConfigError,
    LatentLabError,
    RecordFormatError,
    TaskMismatchError,
    require_integer,
    require_real,
)
from .esteps import EStepSpec, PolicyGradConfig
from .models import (
    LogitModel,
    feature_map_from_descriptor,
    random_model,
    uniform_model,
    write_checkpoint,
)
from .rng import stream
from .tasks import (
    GenerativeTask,
    check_task_args,
    full_event,
    make_automaton_trace_task,
    make_carry_addition_task,
    make_reward_tag_task,
    success_event,
)
from .training import (
    SAMPLER_ITERATIONS,
    TSV_COLUMNS,
    MStepSpec,
    check_pref_fit,
    check_task_fits,
    record_from_tsv,
    reference_optimum,
    run_cond_sft,
    run_em,
    run_filter_sft,
    run_pref_loop,
    run_restem,
)

ALGORITHMS = (
    "em",
    "filter_sft",
    "restem",
    "cond_sft",
    "iter_dpo",
    "posterior_dpo",
)

_TASK_FACTORIES = {
    "carry": make_carry_addition_task,
    "automaton": make_automaton_trace_task,
    "tag": make_reward_tag_task,
}
_MODEL_DEFAULTS = {
    "features": "tabular",
    "init": "uniform",
    "scale": 0.5,
    "ngram_n": 2,
    "positional": True,
    "per_prompt": True,
}
# model settings read only when another setting has one value
_MODEL_NEEDS = {
    "scale": ("init", "random"),
    "ngram_n": ("features", "ngram"),
    "positional": ("features", "ngram"),
    "per_prompt": ("features", "ngram"),
}
_ESTEP_DEFAULTS = {"backend": "exact", "params": {}}
_DPO_DEFAULTS = {
    "steps": 100,
    "rate": 0.5,
    "beta": 1.0,
    "candidates": 16,
    "pg": None,
}
# the settings each algorithm reads besides those every run reads; a config
# that sets another one is refused, as a typo would be
_READS = {
    "em": ("estep", "mstep"),
    "filter_sft": ("sample_budget",),
    "restem": ("sample_budget",),
    "cond_sft": ("sample_budget",),
    "iter_dpo": ("dpo",),
    "posterior_dpo": ("dpo",),
}
_TOP_FIELDS = (
    "task",
    "event",
    "model",
    "algorithm",
    "iterations",
    "seeds",
    "sample_budget",
    "estep",
    "mstep",
    "dpo",
    "reference",
    "out",
    "checkpoint_every",
)


@dataclass(frozen=True)
class RunConfig:
    """A fully validated and default-filled config, ready to execute."""

    data: dict


def _reject_unknown(section: str, given: dict, allowed) -> None:
    unknown = sorted(set(given) - set(allowed))
    if unknown:
        field = "field" if len(unknown) == 1 else "fields"
        raise ConfigError(
            f"unknown {section} {field} {', '.join(repr(u) for u in unknown)}"
        )


def _section(name: str, raw, defaults: dict) -> dict:
    """A section given as a mapping or null, over its `defaults`; a field
    `defaults` does not name is an error."""
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise ConfigError(f"{name} must be a mapping")
    _reject_unknown(name, raw, defaults)
    return {**defaults, **raw}


def _defaults(spec) -> dict:
    """{field: default} of a dataclass whose every field has a default."""
    return {f.name: f.default for f in fields(spec)}


@contextmanager
def _fields_of(section: str):
    """Prefix the field that a `ConfigError` names with its section."""
    try:
        yield
    except ConfigError as exc:  # every message starts with the field name
        raise ConfigError(f"{section}.{exc}") from exc


def _normalize_task(raw) -> dict:
    if not isinstance(raw, dict):
        raise ConfigError("task must be a mapping with a 'kind'")
    kind = raw.get("kind")
    if kind not in _TASK_FACTORIES:
        raise ConfigError(
            f"task.kind must be one of {sorted(_TASK_FACTORIES)}, got {kind!r}"
        )
    # the sizes a factory takes have no default; its other arguments but the
    # enumeration cap are the optional task fields
    params = signature(_TASK_FACTORIES[kind]).parameters.values()
    required = [p.name for p in params if p.default is p.empty]
    optional = {p.name: p.default for p in params
                if p.default is not p.empty and p.name != "cap"}
    _reject_unknown("task", raw, ("kind", *required, *optional))
    for key in required:
        if key not in raw:
            raise ConfigError(f"task.{key} is required for kind {kind!r}")
    with _fields_of("task"):
        return check_task_args({**optional, **raw})


def _normalize_model(raw) -> dict:
    out = _section("model", raw, _MODEL_DEFAULTS)
    if out["features"] not in ("tabular", "ngram"):
        raise ConfigError(
            f"model.features must be 'tabular' or 'ngram', got {out['features']!r}"
        )
    if out["init"] not in ("uniform", "random"):
        raise ConfigError(
            f"model.init must be 'uniform' or 'random', got {out['init']!r}"
        )
    for key, (on, value) in _MODEL_NEEDS.items():
        if out[on] != value:
            if key in (raw or {}):
                raise ConfigError(
                    f"model.{key} is read only with {on}: {value}, got {on}: {out[on]}"
                )
            del out[key]
    if "scale" in out:
        out["scale"] = require_real("model.scale", out["scale"])
        if not 0 <= out["scale"] < np.inf:
            raise ConfigError(
                f"model.scale must be finite and >= 0, got {out['scale']!r}"
            )
    if "ngram_n" in out:
        out["ngram_n"] = require_integer("model.ngram_n", out["ngram_n"], 1)
        for key in ("positional", "per_prompt"):
            if not isinstance(out[key], bool):
                raise ConfigError(f"model.{key} must be true or false, got {out[key]!r}")
    return out


def parse_config(text: str) -> RunConfig:
    """Validate a YAML run description and fill in every default.

    Unknown fields are an error rather than a warning: a silently ignored
    typo (``mstpe:``) would run a different experiment than the one the
    config reads as describing.  For the same reason a setting the run
    never reads (`_READS`, `_MODEL_NEEDS`) is refused, and the resolved
    config holds only what the run reads.  Each section's values are checked by the
    object that uses them: the task factory, `EStepSpec`, `MStepSpec`,
    `check_pref_fit` and `PolicyGradConfig`; the task is built once, so its
    factory and `check_task_fits` see it before a run starts.
    """
    try:
        raw = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"config is not valid yaml: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a yaml mapping")
    _reject_unknown("config", raw, _TOP_FIELDS)

    if "task" not in raw:
        raise ConfigError("config needs a 'task' section")
    if "algorithm" not in raw:
        raise ConfigError("config needs an 'algorithm'")
    algorithm = raw["algorithm"]
    if algorithm not in ALGORITHMS:
        raise ConfigError(
            f"unknown algorithm {algorithm!r}; available: {', '.join(ALGORITHMS)}"
        )

    reads = _READS[algorithm]
    unread = sorted({key for keys in _READS.values() for key in keys} & set(raw) - set(reads))
    if unread:
        raise ConfigError(
            f"{unread[0]} is not read by algorithm {algorithm!r}, which reads "
            f"{' and '.join(reads)}"
        )
    data: dict = {"task": _normalize_task(raw["task"]), "algorithm": algorithm}

    event = raw.get("event", "success")
    if event not in ("success", "full"):
        raise ConfigError(f"event must be 'success' or 'full', got {event!r}")
    if event != "success" and algorithm != "em":
        raise ConfigError(
            f"event must be 'success' for algorithm {algorithm!r}, which trains "
            f"on the success event, got {event!r}"
        )
    data["event"] = event

    data["model"] = _normalize_model(raw.get("model"))
    data["iterations"] = require_integer("config.iterations",
                                         raw.get("iterations", 5), 0)

    seeds = raw.get("seeds", [0])
    if not isinstance(seeds, list) or not seeds:
        raise ConfigError("seeds must be a non-empty list of integers")
    data["seeds"] = [require_integer("config.seeds", s, 0) for s in seeds]
    if len(set(data["seeds"])) != len(data["seeds"]):
        raise ConfigError("seeds must not repeat")

    if "sample_budget" in reads:
        data["sample_budget"] = require_integer(
            "config.sample_budget", raw.get("sample_budget", 100), 1
        )

    if "estep" in reads:
        estep = _section("estep", raw.get("estep"), _ESTEP_DEFAULTS)
        with _fields_of("estep"):
            EStepSpec(**estep)
        data["estep"] = {"backend": estep["backend"], "params": dict(estep["params"])}

        mstep = _section("mstep", raw.get("mstep"), _defaults(MStepSpec))
        with _fields_of("mstep"):
            data["mstep"] = asdict(MStepSpec(**mstep))

    if "dpo" in reads:
        dpo = _section("dpo", raw.get("dpo"), _DPO_DEFAULTS)
        with _fields_of("dpo"):
            dpo.update(check_pref_fit(dpo["steps"], dpo["rate"], dpo["beta"],
                                      dpo["candidates"]))
        pg = dpo.pop("pg")
        if algorithm == "iter_dpo" and "pg" in (raw.get("dpo") or {}):
            raise ConfigError(
                "dpo.pg is not read by algorithm 'iter_dpo', whose candidates the "
                "model itself draws"
            )
        if algorithm == "posterior_dpo":
            given = _section("dpo.pg", pg, _defaults(PolicyGradConfig))
            with _fields_of("dpo.pg"):
                PolicyGradConfig(**given)
            # written out, so that config.resolved shows the iterations that run
            dpo["pg"] = {"iterations": SAMPLER_ITERATIONS, **(pg or {})}
        data["dpo"] = dpo

    reference = raw.get("reference", "none")
    if reference not in ("none", "optimum"):
        raise ConfigError(
            f"reference must be 'none' or 'optimum', got {reference!r}"
        )
    if reference == "optimum" and data["model"]["features"] != "tabular":
        raise ConfigError(
            "reference: optimum needs tabular features, which have a "
            "closed-form comparator"
        )
    data["reference"] = reference

    out = raw.get("out")
    if out is not None and not isinstance(out, str):
        raise ConfigError(f"out must be a path string, got {out!r}")
    data["out"] = out

    data["checkpoint_every"] = require_integer(
        "config.checkpoint_every", raw.get("checkpoint_every", 0), 0
    )
    # the factory's enumeration cap and the algorithm's needs of the task,
    # checked on one build before any run directory exists
    check_task_fits(algorithm, build_task(data["task"]))
    return RunConfig(data)


def resolved_text(cfg: RunConfig) -> str:
    """Canonical serialization; parsing it back is a fixed point."""
    return yaml.safe_dump(cfg.data, sort_keys=True, default_flow_style=False)


def build_task(tdata: dict) -> GenerativeTask:
    args = dict(tdata)
    return _TASK_FACTORIES[args.pop("kind")](**args)


def build_model(mdata: dict, task: GenerativeTask, seed: int) -> LogitModel:
    desc = {"kind": mdata["features"]}
    if desc["kind"] == "ngram":
        desc.update(n=mdata["ngram_n"], positional=mdata["positional"],
                    per_prompt=mdata["per_prompt"])
    features = feature_map_from_descriptor(task, desc)
    if mdata["init"] == "uniform":
        return uniform_model(task, features)
    return random_model(task, stream(seed, "init"), mdata["scale"], features)


def _run_one_seed(args: tuple[dict, int]) -> dict:
    """Worker body; takes plain data so process pools can ship it."""
    data, seed = args
    task = build_task(data["task"])
    model = build_model(data["model"], task, seed)
    event = success_event() if data["event"] == "success" else full_event()
    reference = None
    if data["reference"] == "optimum":
        reference = reference_optimum(model, task, event)

    checkpoints: list[tuple[str, str]] = []
    every = data["checkpoint_every"]

    def hook(t: int, m: LogitModel, row) -> None:
        if every > 0 and t % every == 0:
            buf = StringIO()
            write_checkpoint(m, buf)
            checkpoints.append((f"checkpoint.seed{seed}.t{t}.txt", buf.getvalue()))

    # each loop is read from this module when called, so a wrapper set on
    # the module's attribute sees the run
    algorithm = data["algorithm"]
    if algorithm == "em":
        loop = run_em
        inputs = (model, task, event,
                  EStepSpec(**data["estep"]), MStepSpec(**data["mstep"]))
        options = {}
    elif algorithm in ("iter_dpo", "posterior_dpo"):
        dpo = data["dpo"]
        loop, inputs = run_pref_loop, (model, task)
        options = {
            "candidates": dpo["candidates"],
            "sampler": "posterior" if algorithm == "posterior_dpo" else "model",
            "dpo_steps": dpo["steps"],
            "dpo_rate": dpo["rate"],
            "dpo_beta": dpo["beta"],
        }
        if algorithm == "posterior_dpo":
            options["pg_params"] = dpo["pg"]
    else:
        loop = {"filter_sft": run_filter_sft, "restem": run_restem,
                "cond_sft": run_cond_sft}[algorithm]
        inputs, options = (model, task), {"budget": data["sample_budget"]}
    started = time.perf_counter()
    _, record = loop(
        *inputs, **options, iterations=data["iterations"], seed=seed,
        reference=reference, on_iteration=hook,
    )
    wall_s = time.perf_counter() - started
    final = record.rows[-1]
    return {
        "seed": seed,
        "task": task.name,
        "algorithm": record.algorithm,
        "tsv": record.to_tsv(),
        "checkpoints": checkpoints,
        "flags": list(record.flags),
        "final_objective": final.objective,
        "final_acc_greedy": final.acc_greedy,
        "wall_s": wall_s,
    }


def _process_pool(workers: int):
    """A pool of `workers` processes; imported here, as a serial run needs
    none."""
    from concurrent.futures import ProcessPoolExecutor

    return ProcessPoolExecutor(max_workers=workers)


def execute_run(cfg: RunConfig, out_dir: str | Path, jobs: int = 1) -> str:
    """Run every seed of a config into `out_dir` and return the summary.

    At most `jobs` worker processes run, and never more than there are
    seeds.  Workers receive the config data, not live objects, because a
    task's evaluator closure does not pickle; results are written in seed
    order regardless of completion order so listings stay deterministic.
    """
    jobs = require_integer("jobs", jobs, 1)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "config.resolved").write_text(resolved_text(cfg))
    seeds = cfg.data["seeds"]
    work = [(cfg.data, seed) for seed in seeds]
    workers = min(jobs, len(seeds))
    if workers > 1:
        with _process_pool(workers) as pool:
            results = list(pool.map(_run_one_seed, work))
    else:
        results = [_run_one_seed(item) for item in work]

    lines = [
        f"algorithm={cfg.data['algorithm']} task={results[0]['task']} "
        f"iterations={cfg.data['iterations']} seeds={len(seeds)}"
    ]
    for res in results:
        (out / f"record.seed{res['seed']}.tsv").write_text(res["tsv"])
        for name, text in res["checkpoints"]:
            (out / name).write_text(text)
        flags = ",".join(res["flags"]) if res["flags"] else "-"
        lines.append(
            f"seed={res['seed']} final_objective={res['final_objective']:.6g} "
            f"final_acc_greedy={res['final_acc_greedy']:.4g} "
            f"flags={flags} wall_s={res['wall_s']:.2f}"
        )
    summary = "\n".join(lines) + "\n"
    (out / "summary.txt").write_text(summary)
    return summary


def _load_run(run_dir: Path) -> tuple[dict, dict[int, list]]:
    resolved = run_dir / "config.resolved"
    if not resolved.exists():
        raise ConfigError(f"{run_dir} has no config.resolved; not a run directory")
    try:
        data = parse_config(resolved.read_text()).data
    except LatentLabError as exc:
        raise type(exc)(f"{resolved}: {exc}") from None
    records = {}
    for p in sorted(run_dir.glob("record.seed*.tsv")):
        try:
            seed = int(p.stem.removeprefix("record.seed"))
        except ValueError:
            raise RecordFormatError(f"{p}: not a per-seed record.seed<k>.tsv") from None
        try:
            records[seed] = record_from_tsv(p.read_text())
        except (ConfigError, RecordFormatError) as exc:
            raise type(exc)(f"{p}: {exc}") from None
    if not records:
        raise ConfigError(f"{run_dir} holds no metric tables")
    return data, records


def compare_runs(run_dirs: list) -> str:
    """Align final metrics of several runs over one task and event.

    Comparing runs from different tasks or events would rank numbers that
    mean different things, so that is refused outright.
    """
    if len(run_dirs) < 2:
        raise ConfigError("comparison needs at least two run directories")
    loaded = [(Path(d), *_load_run(Path(d))) for d in run_dirs]
    base_dir, base_data, _ = loaded[0]
    for d, data, _ in loaded[1:]:
        if data["task"] != base_data["task"] or data["event"] != base_data["event"]:
            raise TaskMismatchError(
                f"{d} and {base_dir} describe different tasks or events"
            )
    lines = ["run\talgorithm\tseed\tobjective\tacc_greedy"]
    for d, data, records in loaded:
        for seed in sorted(records):
            final = records[seed][-1]
            lines.append(
                f"{d.name}\t{data['algorithm']}\t{seed}"
                f"\t{final.objective:.6g}\t{final.acc_greedy:.4g}"
            )
    base_records = loaded[0][2]
    for d, data, records in loaded[1:]:
        shared = sorted(set(records) & set(base_records))
        wins = sum(
            1 for s in shared
            if records[s][-1].acc_greedy > base_records[s][-1].acc_greedy
        )
        ties = sum(
            1 for s in shared
            if records[s][-1].acc_greedy == base_records[s][-1].acc_greedy
        )
        lines.append(
            f"{d.name} vs {base_dir.name}: wins={wins} ties={ties} "
            f"losses={len(shared) - wins - ties} "
            f"(final greedy accuracy over {len(shared)} shared seeds)"
        )
    return "\n".join(lines) + "\n"


def write_report(run_dir: str | Path) -> list[Path]:
    """Pivot per-seed records into one series file per metric.

    Output is a function of the records alone, so rewriting a report is
    idempotent.  The timing column is omitted: record rows intentionally
    zero it out, and real timing already lives in ``summary.txt``.
    """
    d = Path(run_dir)
    _, records = _load_run(d)
    seeds = sorted(records)
    lengths = {len(rows) for rows in records.values()}
    if len(lengths) != 1:
        raise ConfigError(f"seed records disagree on length: {sorted(lengths)}")
    n_rows = lengths.pop()
    written: list[Path] = []
    for metric in TSV_COLUMNS[1:-1]:
        lines = ["\t".join(["t"] + [f"seed{s}" for s in seeds] + ["mean"])]
        for t in range(n_rows):
            vals = [float(getattr(records[s][t], metric)) for s in seeds]
            cells = [str(t)] + [repr(v) for v in vals]
            cells.append(repr(float(np.mean(vals))))
            lines.append("\t".join(cells))
        path = d / f"series.{metric}.tsv"
        path.write_text("\n".join(lines) + "\n")
        written.append(path)
    return written


def resolve_out_dir(cfg: RunConfig, explicit: str | None, config_name: str) -> Path:
    """Output directory precedence: flag, config `out`, env root, ./runs."""
    if explicit:
        return Path(explicit)
    if cfg.data["out"]:
        return Path(cfg.data["out"])
    return Path(os.environ.get("LATENTLAB_OUT", "runs")) / config_name
