"""latentlab benchmark: one workload, one seed, every metric by name.

    python3 bench/run.py --workload plan-em-carry --seed 0 --seconds 20 --trace 0

Run from the root of a checkout.  Each pass of the workload runs in a fresh,
single-threaded interpreter (`worker.py`), one at a time, so set-up time
includes ``import latentlab`` and peak RSS belongs to one workload.  Passes
repeat the same work, fixed by the seed, until the next one would overrun
``--seconds``; timings are medians over passes and pooled iterations.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.  ``--trace
1`` runs one untraced and one traced pass and reports the per-layer metrics,
with the tracing overhead.  Human-readable lines come first; the last line
of stdout is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  Exits non-zero, printing no result, when a pass fails to run.

``--workload all`` runs every workload untraced and then traced, one after
the other, printing each run's lines and result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from hashlib import sha256
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
MIN_SETUPS = 9  # set-up samples per run; topped up with set-up-only passes
RUN_LIMIT_S = 170.0  # a run must end within 180 s
PINNED_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                  "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class BenchError(Exception):
    """The benchmark could not produce a result."""


def git_sha() -> str:
    """HEAD of the checkout's git repository, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unavailable"


def source_digest() -> str:
    """SHA-256 over the package and config sources, for checkouts without git."""
    h = sha256()
    for path in sorted([*(ROOT / "src").rglob("*.py"), *(ROOT / "configs").glob("*.yaml")]):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def provenance() -> list[str]:
    versions = []
    for dist in ("numpy", "scipy", "pyyaml"):
        try:
            versions.append(f"{dist}={metadata.version(dist)}")
        except metadata.PackageNotFoundError:
            versions.append(f"{dist}=missing")
    return [
        f"git_sha={git_sha()} source_sha256={source_digest()}",
        f"nproc={len(os.sched_getaffinity(0))} python={platform.python_version()} "
        + " ".join(versions)
        + " threads_per_process=1 jobs=1",
    ]


def run_worker(workload: str, seed: int, deadline: float, *flags: str) -> dict:
    """One pass in a fresh interpreter; its JSON result."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.update({name: "1" for name in PINNED_THREADS})
    remaining = deadline - time.perf_counter()
    if remaining <= 0:
        raise BenchError("out of time before the pass could start")
    cmd = [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed),
           *flags, "--started", repr(time.perf_counter())]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"pass of {workload} did not end in time") from exc
    if proc.returncode != 0:
        raise BenchError(f"pass of {workload} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(passes: list[dict], setups: list[float]) -> dict:
    """Metric name -> (value, samples) from the untraced passes."""
    iter_ms = [ms for p in passes for ms in p["iter_ms"]]
    if not iter_ms:
        raise BenchError("no training iteration completed")
    busy_s = sum(iter_ms) / 1e3
    p90 = statistics.quantiles(iter_ms, n=10)[8] if len(iter_ms) > 1 else iter_ms[0]
    return {
        "setup_s": (statistics.median(setups), len(setups)),
        "run_s": (statistics.median(p["run_s"] for p in passes), len(passes)),
        "iter_ms_p50": (statistics.median(iter_ms), len(iter_ms)),
        "iter_ms_p90": (p90, len(iter_ms)),
        "prompt_updates_per_s": (
            sum(p["prompt_updates"] for p in passes) / busy_s, len(iter_ms)
        ),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes), len(passes)),
    }


def timed_run(workload: str, seed: int, seconds: float, deadline: float):
    started = time.perf_counter()
    passes = []
    while True:
        begun = time.perf_counter()
        passes.append(run_worker(workload, seed, deadline))
        took = time.perf_counter() - begun
        if time.perf_counter() - started + took > seconds:
            break
    setups = [p["setup_s"] for p in passes]
    while len(setups) < MIN_SETUPS:
        setups.append(run_worker(workload, seed, deadline, "--setup-only")["setup_s"])
    return passes, end_to_end(passes, setups)


def traced_run(workload: str, seed: int, deadline: float):
    plain = run_worker(workload, seed, deadline)
    traced = run_worker(workload, seed, deadline, "--trace")
    layers = dict(traced["layers"])
    layers["trace.overhead_frac"] = traced["run_s"] / plain["run_s"] - 1.0
    samples = {}
    for name in layers:
        calls = name.rsplit(".", 1)[0] + ".calls"
        timed = name.endswith((".ms", ".self_ms")) and calls in layers
        samples[name] = layers[calls] if timed else 1
    return [plain, traced], {k: (v, samples[k]) for k, v in layers.items()}


def report(spec: dict, workload: str, seed: int, seconds: float, trace: int) -> int:
    """Run one workload in one mode and print its lines and JSON result."""
    deadline = time.perf_counter() + RUN_LIMIT_S
    try:
        if trace:
            passes, values = traced_run(workload, seed, deadline)
            wanted = spec["per_layer"]
        else:
            passes, values = timed_run(workload, seed, seconds, deadline)
            wanted = spec["end_to_end"]
        missing = [m["name"] for m in wanted if m["name"] not in values]
        if missing:
            raise BenchError(f"metrics not measured: {missing}")
    except BenchError as exc:
        print(exc, file=sys.stderr)
        return 1

    # traced and untraced passes, like repeated passes, must write the same bytes
    agree = all(p["records"] == passes[0]["records"] for p in passes)
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    print(f"# workload={workload} seed={seed} seconds={seconds:g} "
          f"trace={trace} passes={len(passes)}")
    for line in provenance():
        print(f"# {line}")
    for label, digest in sorted(passes[0]["records"].items()):
        print(f"# record {label} sha256={digest}")
    for p in passes:
        for error in p["errors"]:
            print(f"# error {error}")
    print(f"# records_identical_across_passes={agree}")
    print(f"metric failed_frac = {failed / attempted:.6g} ratio "
          f"(lower is better, n={attempted} iterations)")
    metrics = {}
    for m in wanted:
        value, n = values[m["name"]]
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"metric {m['name']} = {value:.6g} {m['unit']} "
              f"({m['better']} is better, n={n})")
    result = {"correct": failed == 0 and agree, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="a workload of BENCHMARK.json, or 'all' for every "
                        "workload untraced and traced")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # turn SIGTERM into SystemExit, so subprocess.run kills and reaps the pass
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        print(f"cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "latentlab" / "__init__.py").is_file():
        print(f"no latentlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = [w["name"] for w in spec["workloads"]]
    if args.workload == "all":
        runs = [(name, trace) for name in names for trace in (0, 1)]
    elif args.workload in names:
        runs = [(args.workload, args.trace)]
    else:
        print(f"unknown workload {args.workload!r}; expected one of {names} or 'all'",
              file=sys.stderr)
        return 2
    status = 0
    for workload, trace in runs:
        status = max(status, report(spec, workload, args.seed, args.seconds, trace))
    return status


if __name__ == "__main__":
    sys.exit(main())
