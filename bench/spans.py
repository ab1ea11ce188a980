"""Per-layer spans and counters, wrapped around latentlab from outside.

`install(tracer)` replaces functions and methods of the latentlab modules
with wrappers that either time each call (a span) or only count it (a
counter), and returns a function that puts every original back.  Names are
bound at import, so a function is wrapped in every module that imported it,
not only where it is defined.  Nothing inside the package changes, so a
traced run must write the same records as an untraced one.

A call of a layer made while that layer is already open (``log_sum_exp``
calling ``logsumexp``, say) belongs to the outer call and is not counted
again.  A span's self time is its busy time minus the time of the spans
opened directly inside it.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict

# training loops, imported by name into harness and the package root
LOOPS = ("run_em", "run_filter_sft", "run_restem", "run_cond_sft", "run_pref_loop")


class Tracer:
    """Span and counter totals, kept in memory for one pass."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.busy: defaultdict = defaultdict(float)  # seconds, outermost calls
        self.self_time: defaultdict = defaultdict(float)
        self.edges: Counter = Counter()  # (enclosing span, layer) -> calls
        self.extra: Counter = Counter()  # counts read off call results
        self.spans: set[str] = set()
        self._stack: list[list] = []  # [span name, seconds spent in child spans]
        self._open: set[str] = set()

    def span(self, name, fn, after=None):
        """Wrap `fn` to time it; `after(tracer, args, kwargs, result)` runs
        outside the timed region."""
        self.spans.add(name)
        self.calls[name] += 0
        stack, open_, clock = self._stack, self._open, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if name in open_:
                return fn(*args, **kwargs)
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            open_.add(name)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                open_.discard(name)
                self.calls[name] += 1
                self.edges[parent, name] += 1
                self.busy[name] += elapsed
                self.self_time[name] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
            if after is not None:
                after(self, args, kwargs, result)
            return result

        return wrapper

    def counter(self, name, fn):
        """Wrap `fn` to count its calls without timing them."""
        self.calls[name] += 0
        stack, open_ = self._stack, self._open

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if name in open_:
                return fn(*args, **kwargs)
            self.calls[name] += 1
            self.edges[stack[-1][0] if stack else None, name] += 1
            open_.add(name)
            try:
                return fn(*args, **kwargs)
            finally:
                open_.discard(name)

        return wrapper

    def layer_metrics(self, iteration_ms: float, artifact_bytes: int) -> dict:
        """Every per-layer number of the pass, by metric name.

        `iteration_ms` is the summed wall time of the training iterations
        the pass observed; `artifact_bytes` what the harness wrote.
        """
        out: dict[str, float] = {}
        for name, calls in self.calls.items():
            out[f"{name}.calls"] = calls
        for name in self.spans:
            out[f"{name}.ms"] = self.busy[name] * 1e3
            out[f"{name}.self_ms"] = self.self_time[name] * 1e3
        nodes = self.extra["models.conditional_tables.nodes"]
        out["models.conditional_tables.nodes"] = nodes
        pg_iterations = self.extra["esteps.policy_gradient.iterations"]
        out["esteps.policy_gradient.iterations"] = pg_iterations
        out["esteps.policy_gradient.evals_per_iter"] = (
            self.calls["esteps.objective"] / pg_iterations if pg_iterations else 0.0
        )
        drawn = self.extra["training.filter.drawn"]
        out["training.filter.acceptance"] = (
            self.extra["training.filter.kept"] / drawn if drawn else 0.0
        )
        out["training.reference_optimum.steps"] = self.edges[
            "training.reference_optimum", "graph.averaged_grad"
        ]
        out["training.row_ms"] = iteration_ms - out["training.update.ms"]
        out["harness.artifact_bytes"] = artifact_bytes
        return out


def _count_nodes(tracer, args, kwargs, view):
    tracer.extra["models.conditional_tables.nodes"] += len(view.prefixes())


def _count_pg_iterations(tracer, args, kwargs, result):
    tracer.extra["esteps.policy_gradient.iterations"] += result.extras["iterations_run"]


def _count_filter_draws(tracer, args, kwargs, result):
    report = result[1]
    if report.get("mode") != "sampled":
        return
    budget = kwargs["budget"] if "budget" in kwargs else args[2]
    acceptance = report["acceptance"].values()
    tracer.extra["training.filter.kept"] += round(sum(acceptance) * budget)
    tracer.extra["training.filter.drawn"] += len(acceptance) * budget


def install(tracer: Tracer):
    """Wrap every traced layer of latentlab; returns the undo function."""
    import latentlab
    from latentlab import (
        esteps,
        graph,
        harness,
        logspace,
        models,
        planner,
        tasks,
        training,
    )

    saved: list[tuple[object, str, object]] = []

    def wrap(make, *sites):
        """Replace each (owner, attribute) site, one wrapper per original."""
        made: dict[int, object] = {}
        for owner, attr in sites:
            original = vars(owner)[attr]
            if id(original) not in made:
                made[id(original)] = make(original)
            saved.append((owner, attr, original))
            setattr(owner, attr, made[id(original)])

    def span(name, *sites, after=None):
        wrap(lambda fn: tracer.span(name, fn, after), *sites)

    def count(name, *sites):
        wrap(lambda fn: tracer.counter(name, fn), *sites)

    # models
    span("models.joint_log_probs", (models.LogitModel, "joint_log_probs"))
    span("models.conditional_tables", (models.LogitModel, "conditional_tables"),
         after=_count_nodes)
    span("models.sample", (models.AutoregressiveView, "sample"))
    span("models.greedy", (models.AutoregressiveView, "greedy"))
    span("models.adjoint", (models.TabularFeatures, "adjoint"),
         (models.NgramFeatures, "adjoint"))

    # logspace: scipy's logsumexp at each import site, plus log_sum_exp
    count("logspace.logsumexp",
          (models, "logsumexp"), (planner, "logsumexp"),
          (training, "logsumexp"), (logspace, "logsumexp"),
          (logspace, "log_sum_exp"), (graph, "log_sum_exp"),
          (esteps, "log_sum_exp"))

    # tasks: evaluators are per-task closures, wrapped as each task is built
    post_init = vars(tasks.GenerativeTask)["__post_init__"]

    def counted_post_init(task):
        post_init(task)
        task.evaluator = tracer.counter("tasks.evaluator", task.evaluator)

    saved.append((tasks.GenerativeTask, "__post_init__", post_init))
    tasks.GenerativeTask.__post_init__ = counted_post_init

    # graph
    for method in ("exact_posterior", "averaged_event_logprob", "averaged_grad"):
        span(f"graph.{method}", (graph.JointModel, method))

    # planner
    span("planner.shape_rewards", (planner, "shape_rewards"),
         (esteps, "shape_rewards"), (latentlab, "shape_rewards"))
    span("planner.soft_value_iteration", (planner, "soft_value_iteration"),
         (esteps, "soft_value_iteration"), (latentlab, "soft_value_iteration"))
    span("planner.plan_posterior", (planner, "plan_posterior"),
         (esteps, "plan_posterior"))

    # esteps
    span("esteps.tv_to_exact", (esteps, "tv_to_exact"), (training, "tv_to_exact"))
    span("esteps.policy_gradient", (esteps, "estep_policy_gradient"),
         (training, "estep_policy_gradient"), after=_count_pg_iterations)
    count("esteps.objective", (esteps, "_regularized_objective"))

    def by_backend(run_estep):
        spans = {
            b: tracer.span(f"esteps.run_estep.{b}", run_estep) for b in esteps.BACKENDS
        }

        @functools.wraps(run_estep)
        def dispatch(jm, x_idx, event, spec, rng=None):
            return spans.get(spec.backend, run_estep)(jm, x_idx, event, spec, rng)

        return dispatch

    wrap(by_backend, (esteps, "run_estep"), (training, "run_estep"),
         (latentlab, "run_estep"))

    # training
    span("training.update", (training, "em_iterate"),
         (training, "restem_update"), (training, "conditional_sft_update"))
    span("training.update", (training, "filter_sft_update"), after=_count_filter_draws)
    span("training.mstep", (training, "mstep"))
    span("training.reference_optimum", (training, "reference_optimum"),
         (harness, "reference_optimum"))
    span("training.dpo_fit", (training, "dpo_fit"))
    for loop in LOOPS:
        span(f"training.{loop}", (training, loop), (harness, loop),
             (latentlab, loop))

    # harness
    for fn in ("parse_config", "execute_run", "build_task", "build_model"):
        span(f"harness.{fn}", (harness, fn))

    def restore():
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)

    return restore
