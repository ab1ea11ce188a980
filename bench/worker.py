"""One pass of one benchmark workload, in a fresh interpreter.

`run.py` starts this file once per pass, so every pass pays for interpreter
start and ``import latentlab`` the way a user's run does.  A pass sets up
(config parse, task and model build), runs the workload's fixed work,
checks the outputs and prints one JSON object on stdout:

    python3 bench/worker.py --workload plan-em-carry --seed 0 [--trace] [--setup-only]

The same work, checks and numbers are available in-process through
`run_pass`, which the benchmark's tests use.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import tempfile
import time
from contextlib import contextmanager
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import yaml  # noqa: E402

from latentlab import LatentLabError, success_event  # noqa: E402
from latentlab import harness, training  # noqa: E402
from latentlab.esteps import EStepSpec  # noqa: E402
from latentlab.training import MStepSpec  # noqa: E402

import spans  # noqa: E402

# Training workloads, as configs; the workload seed fills in task.seed and
# seeds.  Each pass runs the same fixed work, so passes can be pooled.
TRAINING = {
    "plan-em-carry": {
        "task": {"kind": "carry", "digits": 2, "base": 3, "prompt_limit": 1},
        "model": {"features": "tabular", "init": "random", "scale": 0.6},
        "algorithm": "em",
        "iterations": 15,
        "estep": {"backend": "planning"},
        "mstep": {"kind": "closed_form"},
    },
    "pg-em-automaton": {
        "task": {"kind": "automaton", "num_states": 3, "input_len": 4,
                 "prompt_limit": 4},
        "model": {"features": "ngram", "init": "random", "scale": 0.6},
        "algorithm": "em",
        "iterations": 15,
        "estep": {"backend": "policy_gradient", "params": {"iterations": 10}},
        "mstep": {"kind": "gradient_ascent", "steps": 10},
    },
    "filter-sample-carry": {
        "task": {"kind": "carry", "digits": 1, "base": 10, "prompt_limit": 2},
        "model": {"features": "tabular", "init": "random", "scale": 0.6},
        "algorithm": "filter_sft",
        "iterations": 15,
        "sample_budget": 2000,
    },
}
TAG_CONFIGS = "tag-configs"
WORKLOADS = (*TRAINING, TAG_CONFIGS)

# plan-em-carry: the planning E-step must match the exact posterior to this
# total variation, and EM with a closed-form M-step must never lose objective.
PLAN_TV_TOL = 1e-9


class IterationClock:
    """`on_iteration` hook: wall time and metric row of every iteration.

    An iteration runs from the end of the previous hook call to this one, so
    it covers the update and its metric row, not the benchmark's own work.
    """

    def __init__(self):
        self.seconds: list[float] = []
        self.rows: list = []
        self.prompt_updates = 0
        self._last = 0.0

    def __call__(self, t, model, row):
        now = time.perf_counter()
        if t > 0:
            self.seconds.append(now - self._last)
            self.prompt_updates += model.task.n_prompts
        self.rows.append(row)
        self._last = time.perf_counter()

    def chain(self, inner):
        if inner is None:
            return self

        def hook(t, model, row):
            inner(t, model, row)
            self(t, model, row)

        return hook


@contextmanager
def observe_harness_iterations(clock: IterationClock):
    """Time the iterations of runs that `harness.execute_run` drives."""
    originals = {name: getattr(harness, name) for name in spans.LOOPS}

    def observed(loop):
        def run(*args, on_iteration=None, **kwargs):
            return loop(*args, on_iteration=clock.chain(on_iteration), **kwargs)
        return run

    for name, loop in originals.items():
        setattr(harness, name, observed(loop))
    try:
        yield
    finally:
        for name, loop in originals.items():
            setattr(harness, name, loop)


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _describe(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


# -- training workloads --------------------------------------------------------


def setup_training(name: str, seed: int):
    raw = dict(TRAINING[name], seeds=[seed])
    raw["task"] = dict(raw["task"], seed=seed)
    cfg = harness.parse_config(yaml.safe_dump(raw))
    task = harness.build_task(cfg.data["task"])
    model = harness.build_model(cfg.data["model"], task, seed)
    return cfg, task, model


def _failed_iterations(name, rows, record, iterations, raised) -> set[int]:
    """Iterations that did not complete or failed an output check.

    A check over the whole run (an EM certificate) is charged to the last
    iteration.
    """
    failed = set(range(max(len(rows), 1), iterations + 1))
    if raised and not failed:
        failed.add(iterations)
    if name == "plan-em-carry":
        for t in range(1, len(rows)):
            if not rows[t].tv_estep <= PLAN_TV_TOL:
                failed.add(t)
            if not rows[t].objective >= rows[t - 1].objective:
                failed.add(t)
        if record is not None and not record.certificates["telescoping"]["holds"]:
            failed.add(iterations)
    return failed


def run_training(name: str, seed: int, state, result: dict) -> IterationClock:
    cfg, task, model = state
    data = cfg.data
    iterations = data["iterations"]
    clock = IterationClock()
    record = None
    raised = False
    try:
        if data["algorithm"] == "em":
            _, record = training.run_em(
                model, task, success_event(),
                EStepSpec(**data["estep"]), MStepSpec(**data["mstep"]),
                iterations=iterations, seed=seed, on_iteration=clock,
            )
        else:
            _, record = training.run_filter_sft(
                model, task, iterations=iterations, budget=data["sample_budget"],
                seed=seed, on_iteration=clock,
            )
    except (LatentLabError, AssertionError) as exc:
        raised = True
        result["errors"].append(_describe(exc))
    result["attempted"] += iterations
    result["failed"] += len(
        _failed_iterations(name, clock.rows, record, iterations, raised)
    )
    if record is not None:
        result["records"][f"record.seed{seed}.tsv"] = _sha256(record.to_tsv())
    return clock


# -- shipped configs through the harness ---------------------------------------


def setup_tag_configs(seed: int):
    configs = []
    for path in sorted((ROOT / "configs").glob("*.yaml")):
        raw = yaml.safe_load(path.read_text())
        raw["seeds"] = [seed]
        raw["task"]["seed"] = seed
        configs.append((path.stem, harness.parse_config(yaml.safe_dump(raw))))
    return configs


def run_tag_configs(seed: int, configs, result: dict) -> IterationClock:
    clock = IterationClock()
    scratch = ROOT / ".bench_runs"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp, \
            observe_harness_iterations(clock):
        for name, cfg in configs:
            iterations = cfg.data["iterations"]
            out = Path(tmp) / name
            label = f"{name}/record.seed{seed}.tsv"
            try:
                harness.execute_run(cfg, out, jobs=1)
                text = (out / f"record.seed{seed}.tsv").read_text()
                complete = len(training.record_from_tsv(text)) == iterations + 1
            except (LatentLabError, AssertionError, OSError) as exc:
                result["errors"].append(f"{name}: {_describe(exc)}")
                complete = False
            else:
                result["records"][label] = _sha256(text)
                if not complete:
                    result["errors"].append(f"{name}: record lacks rows")
            result["attempted"] += iterations
            result["failed"] += 0 if complete else iterations
            if out.is_dir():
                result["artifact_bytes"] += sum(
                    f.stat().st_size for f in out.iterdir() if f.is_file()
                )
    return clock


# -- one pass ------------------------------------------------------------------


def run_pass(
    workload: str,
    seed: int,
    *,
    trace: bool = False,
    setup_only: bool = False,
    started: float | None = None,
) -> dict:
    """Set up, run and check one pass; the numbers `run.py` pools.

    `started` is the `time.perf_counter()` reading at which the pass began
    (the parent's reading just before it started this interpreter); set-up
    time runs from there to the first timed step.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    started = time.perf_counter() if started is None else started
    tracer = spans.Tracer() if trace else None
    restore = spans.install(tracer) if trace else None
    try:
        if workload == TAG_CONFIGS:
            state = setup_tag_configs(seed)
        else:
            state = setup_training(workload, seed)
        ready = time.perf_counter()
        result = {"setup_s": ready - started, "attempted": 0, "failed": 0,
                  "errors": [], "records": {}, "artifact_bytes": 0}
        if setup_only:
            return result
        if workload == TAG_CONFIGS:
            clock = run_tag_configs(seed, state, result)
        else:
            clock = run_training(workload, seed, state, result)
        result["run_s"] = time.perf_counter() - ready
    finally:
        if restore is not None:
            restore()
    result["iter_ms"] = [s * 1e3 for s in clock.seconds]
    result["prompt_updates"] = clock.prompt_updates
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        result["layers"] = tracer.layer_metrics(
            sum(result["iter_ms"]), result["artifact_bytes"]
        )
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--started", type=float, default=None,
                        help="parent's time.perf_counter() when it started this pass")
    args = parser.parse_args(argv)
    result = run_pass(args.workload, args.seed, trace=args.trace,
                      setup_only=args.setup_only, started=args.started)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
