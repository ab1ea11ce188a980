"""Training loops: event-conditioned EM and the baseline family around it.

The centerpiece alternates an E-step (any engine from `esteps`) with an
M-step (closed form on tabular features, otherwise line-searched ascent on
the weighted-likelihood surrogate).  The baselines reuse the same M-step
machinery so the unification identities can be tested literally: filtered
fine-tuning and expectation-weighted self-training are the same update with
weights obtained a different way, and the preference loop trains against
pairwise logits of the same joint model.

Every loop emits `RunRecord` rows with one fixed metric schema, so runs of
different algorithms can be tabulated against each other byte for byte.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import (
    CertificateError,
    ConfigError,
    FeatureMapMismatchError,
    SurrogateDecreaseError,
    TaskMismatchError,
    UnseenTagError,
    ZeroMassEventError,
    ZeroProbabilityPairError,
)
from .esteps import (
    EStepSpec,
    PolicyGradConfig,
    estep_policy_gradient,
    run_estep,
    tv_to_exact,
)
from .graph import JointModel
# `bench/spans.py` counts `logsumexp` calls at this import site too
from .logspace import LOG_CLAMP, logsumexp, logsumexp_rows  # noqa: F401
from .models import LogitModel, kl_rows
from .rng import stream
from .tasks import (
    BAD_TAG,
    GOOD_TAG,
    EventSpec,
    GenerativeTask,
    compile_event,
    success_event,
)

# one prompt's weighting: int64 joint indices and aligned float64 weights
Weights = tuple[np.ndarray, np.ndarray]


# -- M-step ------------------------------------------------------------------


@dataclass
class MStepSpec:
    """How to turn per-prompt weights over joint outcomes into new parameters.

    ``closed_form`` writes log-weights straight into tabular logits;
    ``gradient_ascent`` line-searches the weighted-likelihood surrogate and
    works for any feature map; ``weighted_mle_from_samples`` picks whichever
    of the two the feature map supports.
    """

    kind: str = "closed_form"
    steps: int = 50
    rate: float = 0.5

    def __post_init__(self):
        kinds = ("closed_form", "gradient_ascent", "weighted_mle_from_samples")
        if self.kind not in kinds:
            raise ConfigError(f"mstep kind {self.kind!r} not in {kinds}")
        if self.steps < 1:
            raise ConfigError(f"mstep steps must be >= 1, got {self.steps}")
        if self.rate <= 0:
            raise ConfigError(f"mstep rate must be positive, got {self.rate}")


def mstep(
    model: LogitModel,
    posteriors: dict[int, Weights],
    spec: MStepSpec,
    rho: np.ndarray | None = None,
) -> LogitModel:
    """Maximize the weighted log likelihood of per-prompt (z, y) weights.

    Each prompt's weights are `(support, probs)`: joint indices and aligned
    weights, repeated indices adding.  Prompts absent from `posteriors` keep
    their current parameters (tabular) or simply contribute no term (shared
    features).
    """
    if not posteriors:
        return model
    task = model.task
    rho = np.asarray(task.rho if rho is None else rho, dtype=np.float64)
    q_vecs = {
        x: np.bincount(support, probs, task.n_joint)
        for x, (support, probs) in posteriors.items()
    }
    kind = spec.kind
    if kind == "weighted_mle_from_samples":
        kind = "closed_form" if model.features.supports_closed_form else "gradient_ascent"

    if kind == "closed_form":
        if not model.features.supports_closed_form:
            raise ConfigError(
                "closed_form update needs per-prompt tabular features"
            )
        theta = model.theta.copy()
        for x_idx, q in q_vecs.items():
            logits = np.full(task.n_joint, LOG_CLAMP)
            pos = q > 0.0
            logits[pos] = np.log(q[pos])
            off = model.features.offset(x_idx)
            theta[off : off + task.n_joint] = logits
        return model.with_theta(theta)

    # the weighted prompts as rows, in the order `posteriors` lists them
    xs = np.fromiter(q_vecs, np.int64, len(q_vecs))
    q = np.array(list(q_vecs.values()))
    w = rho[xs]

    def surrogate(theta: np.ndarray) -> float:
        logits = model.features.logits_all(theta)[xs]
        # a stack of 1 x J by J x 1 products is one dot product per row
        dots = np.matmul(q[:, None, :], logits[:, :, None])[:, 0, 0]
        return sum((w * (dots - logsumexp_rows(logits))).tolist(), 0.0)

    def gradient(theta: np.ndarray) -> np.ndarray:
        logits = model.features.logits_all(theta)[xs]
        with np.errstate(under="ignore"):
            p = np.exp(logits - logsumexp_rows(logits)[:, None])
        weights = np.zeros((task.n_prompts, task.n_joint))
        weights[xs] = w[:, None] * (q - p)
        return model.features.adjoint_all(weights)

    theta = model.theta.copy()
    start = value = surrogate(theta)
    # persistent growing rate: badly scaled problems (rho-weighted blocks,
    # tiny target masses) need steps far above any sensible fixed rate, and
    # the strict backtracking below keeps growth safe
    rate = spec.rate
    for _ in range(spec.steps):
        g = gradient(theta)
        if float(np.linalg.norm(g)) == 0.0:
            break
        trial = rate
        accepted = False
        for _ in range(40):
            candidate = theta + trial * g
            new_value = surrogate(candidate)
            if new_value >= value:
                theta, value, accepted = candidate, new_value, True
                rate = trial * 1.5
                break
            trial *= 0.5
        if not accepted:
            break
    if value < start - 1e-12:
        raise SurrogateDecreaseError(
            f"surrogate fell from {start:.12g} to {value:.12g}"
        )
    return model.with_theta(theta)


# -- one EM iteration ----------------------------------------------------------


@dataclass
class IterationReport:
    """What one E+M pass did: objectives around it, movement, engine notes."""

    iteration: int
    objective_before: float
    objective_after: float
    kl_step: float
    tv_mean: float
    skipped: tuple[int, ...] = ()
    flags: tuple[str, ...] = ()


def _averaged_kl(new: LogitModel, old: LogitModel, rho: np.ndarray) -> float:
    """rho-weighted KL(new || old), evaluated once per (new, old, rho) value."""
    key = ("kl", old.features, old.theta.tobytes(), rho.tobytes())
    return new.remember(key, lambda: float(sum((rho * kl_rows(new, old)).tolist())))


def em_iterate(
    model: LogitModel,
    task: GenerativeTask,
    event: EventSpec,
    estep_spec: EStepSpec,
    mstep_spec: MStepSpec,
    *,
    seed: int,
    iteration: int,
) -> tuple[LogitModel, IterationReport]:
    """One E-step across prompts followed by one M-step.

    Prompts whose engine returns empty-handed are skipped for this round;
    if every prompt is skipped the model comes back unchanged with the
    ``all_prompts_skipped`` flag.
    """
    jm = JointModel(model)
    posteriors: dict[int, Weights] = {}
    tvs: list[float] = []
    flags: set[str] = set()
    skipped: list[int] = []
    for x_idx in range(task.n_prompts):
        rng = stream(seed, "estep", estep_spec.backend, x_idx, iteration)
        result = run_estep(jm, x_idx, event, estep_spec, rng)
        flags.update(result.flags)
        if result.empty:
            skipped.append(x_idx)
            continue
        posteriors[x_idx] = (result.support, result.probs)
        if result.tv_error is not None:
            tvs.append(result.tv_error)

    objective_before = jm.averaged_event_logprob(event)
    tv_mean = float(np.mean(tvs)) if tvs else math.nan
    if not posteriors:
        report = IterationReport(
            iteration=iteration,
            objective_before=objective_before,
            objective_after=objective_before,
            kl_step=0.0,
            tv_mean=tv_mean,
            skipped=tuple(skipped),
            flags=tuple(sorted(flags | {"all_prompts_skipped"})),
        )
        return model, report

    new_model = mstep(model, posteriors, mstep_spec, rho=task.rho)
    report = IterationReport(
        iteration=iteration,
        objective_before=objective_before,
        objective_after=JointModel(new_model).averaged_event_logprob(event),
        kl_step=_averaged_kl(new_model, model, task.rho),
        tv_mean=tv_mean,
        skipped=tuple(skipped),
        flags=tuple(sorted(flags)),
    )
    return new_model, report


# -- metric rows ----------------------------------------------------------------

TSV_COLUMNS = (
    "t",
    "objective",
    "kl_step",
    "kl_to_ref",
    "tv_estep",
    "acc_greedy",
    "acc_sampled",
    "wall_ms",
)


@dataclass
class RunRow:
    t: int
    objective: float
    kl_step: float
    kl_to_ref: float
    tv_estep: float
    acc_greedy: float
    acc_sampled: float
    wall_ms: float


@dataclass
class RunRecord:
    """All rows of one run plus its provenance and any certificates."""

    algorithm: str
    seed: int
    rows: list[RunRow] = field(default_factory=list)
    flags: tuple[str, ...] = ()
    certificates: dict = field(default_factory=dict)

    def final(self) -> RunRow:
        return self.rows[-1]

    def to_tsv(self) -> str:
        # wall_ms is written as 0 so reruns of the same seed produce
        # byte-identical tables; measured timing lives in run summaries.
        lines = ["\t".join(TSV_COLUMNS)]
        for row in self.rows:
            cells = [str(row.t)]
            for name in TSV_COLUMNS[1:-1]:
                cells.append(repr(float(getattr(row, name))))
            cells.append("0")
            lines.append("\t".join(cells))
        return "\n".join(lines) + "\n"


def record_from_tsv(text: str) -> list[RunRow]:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or tuple(lines[0].split("\t")) != TSV_COLUMNS:
        raise ConfigError("metric table header does not match the fixed schema")
    rows = []
    for ln in lines[1:]:
        cells = ln.split("\t")
        rows.append(
            RunRow(
                t=int(cells[0]),
                **{
                    name: float(cells[i + 1])
                    for i, name in enumerate(TSV_COLUMNS[1:])
                },
            )
        )
    return rows


AccFn = Callable[[LogitModel, GenerativeTask, int, int], tuple[float, float]]


def _default_acc(
    model: LogitModel, task: GenerativeTask, seed: int, iteration: int
) -> tuple[float, float]:
    """Both accuracy columns from one conditional table per prompt."""
    if task.truth is None:
        return math.nan, math.nan
    greedy_hits = 0
    sampled_hits = 0
    for x in range(task.n_prompts):
        view = model.conditional_tables(x)
        target = task.truth[x][1]
        if view.greedy()[1] == target:
            greedy_hits += 1
        rng = stream(seed, "acc-sample", x, iteration)
        if view.sample(rng)[1] == target:
            sampled_hits += 1
    return greedy_hits / task.n_prompts, sampled_hits / task.n_prompts


def _make_row(
    t: int,
    model: LogitModel,
    prev: LogitModel | None,
    task: GenerativeTask,
    event: EventSpec,
    *,
    seed: int,
    reference: LogitModel | None,
    tv: float,
    wall_ms: float,
    acc_fn: AccFn,
) -> RunRow:
    acc_g, acc_s = acc_fn(model, task, seed, t)
    return RunRow(
        t=t,
        objective=JointModel(model).averaged_event_logprob(event),
        kl_step=_averaged_kl(model, prev, task.rho) if prev is not None else math.nan,
        kl_to_ref=(
            _averaged_kl(reference, model, task.rho)
            if reference is not None
            else math.nan
        ),
        tv_estep=tv,
        acc_greedy=acc_g,
        acc_sampled=acc_s,
        wall_ms=wall_ms,
    )


StepFn = Callable[[LogitModel, int], tuple[LogitModel, float, tuple[str, ...]]]


def _run_loop(
    algorithm: str,
    model: LogitModel,
    task: GenerativeTask,
    event: EventSpec,
    step_fn: StepFn,
    *,
    iterations: int,
    seed: int,
    reference: LogitModel | None = None,
    on_iteration=None,
    acc_fn: AccFn = _default_acc,
) -> tuple[LogitModel, RunRecord]:
    """Drive any per-iteration update into the fixed metric schema.

    Row 0 describes the initial model; row t describes the model after t
    updates.  `step_fn(model, t)` returns the updated model, a mean E-step
    total variation (nan when meaningless), and any flags.
    """
    record = RunRecord(algorithm=algorithm, seed=seed)
    flags: set[str] = set()
    row = _make_row(
        0, model, None, task, event,
        seed=seed, reference=reference, tv=math.nan, wall_ms=0.0, acc_fn=acc_fn,
    )
    record.rows.append(row)
    if on_iteration is not None:
        on_iteration(0, model, row)
    for t in range(1, iterations + 1):
        started = time.perf_counter()
        new_model, tv, step_flags = step_fn(model, t)
        flags.update(step_flags)
        wall_ms = (time.perf_counter() - started) * 1000.0
        row = _make_row(
            t, new_model, model, task, event,
            seed=seed, reference=reference, tv=tv, wall_ms=wall_ms, acc_fn=acc_fn,
        )
        record.rows.append(row)
        if on_iteration is not None:
            on_iteration(t, new_model, row)
        model = new_model
    record.flags = tuple(sorted(flags))
    return model, record


# -- the EM loop -----------------------------------------------------------------


def run_em(
    model: LogitModel,
    task: GenerativeTask,
    event: EventSpec,
    estep_spec: EStepSpec,
    mstep_spec: MStepSpec,
    *,
    iterations: int,
    seed: int,
    reference: LogitModel | None = None,
    on_iteration=None,
) -> tuple[LogitModel, RunRecord]:
    """Alternate E and M steps, recording metrics and step certificates.

    Two certificates are attached.  The telescoping one says the smallest
    per-step divergence cannot exceed the averaged objective gain per
    iteration; it is asserted only for exact E-steps with closed-form
    M-steps, where each update is an exact coordinate maximizer, and is
    reported informationally otherwise.  The second compares the best
    objective gap of the updated iterates theta_1 ... theta_T (not the
    initial model, which no 1/T bound covers) against the budget
    KL(reference || theta_0) / T.

    For exact E-steps, closed-form M-steps and the comparator of
    `reference_optimum` the bound is a theorem.  With m the event mass of each
    joint outcome at a prompt, the update is p_{t+1} proportional to
    p_t * m, so p_t is proportional to p_0 * m^t, and the gap of theta_t is
    g_t = -log E_{p_t}[m / max m].  The gaps do not increase (EM is
    monotone) and telescope: g_0 + ... + g_{T-1} =
    -log E_{p_0}[(m / max m)^T] <= -log p_0(A), where A is the argmax set
    of m and -log p_0(A) is KL(reference || theta_0) at that prompt.  So
    T * g_T <= g_1 + ... + g_T <= g_0 + ... + g_{T-1} <= -log p_0(A), and
    averaging over prompts gives the budget; at T = 1 and a binary event
    g_0 equals it.  Other routes and comparators have no such proof, so the
    certificate is asserted only when a first-order concavity probe along
    the reference direction passes at every iterate theta_0 ...
    theta_{T-1}.
    """
    models = [model]

    def step(current: LogitModel, t: int):
        new_model, report = em_iterate(
            current, task, event, estep_spec, mstep_spec, seed=seed, iteration=t
        )
        models.append(new_model)
        return new_model, report.tv_mean, report.flags

    final, record = _run_loop(
        "em", model, task, event, step,
        iterations=iterations, seed=seed, reference=reference,
        on_iteration=on_iteration,
    )

    if iterations > 0:
        gain = record.rows[-1].objective - record.rows[0].objective
        kl_steps = [row.kl_step for row in record.rows[1:]]
        lhs = min(kl_steps)
        rhs = gain / iterations
        exact_route = (
            estep_spec.backend == "exact" and mstep_spec.kind == "closed_form"
        )
        record.certificates["telescoping"] = {
            "min_kl_step": lhs,
            "mean_gain": rhs,
            "asserted": exact_route,
            "holds": bool(lhs <= rhs + 1e-9),
        }
        if exact_route and not lhs <= rhs + 1e-9:
            raise CertificateError(
                f"telescoping certificate failed: min kl {lhs:.12g} "
                f"> mean gain {rhs:.12g}"
            )

    if reference is not None and iterations > 0:
        ref_objective = JointModel(reference).averaged_event_logprob(event)
        probe_ok = True
        for m in models[:-1]:
            jm = JointModel(m)
            slope = float(
                np.dot(jm.averaged_grad(event), reference.theta - m.theta)
            )
            gap = ref_objective - jm.averaged_event_logprob(event)
            if slope < gap - 1e-9:
                probe_ok = False
                break
        best_gap = min(
            ref_objective - row.objective for row in record.rows[1:]
        )
        budget = _averaged_kl(reference, models[0], task.rho) / iterations
        record.certificates["reference_gap"] = {
            "best_gap": best_gap,
            "kl_budget": budget,
            "concavity_probe": probe_ok,
            "asserted": probe_ok,
            "holds": bool(best_gap <= budget + 1e-6),
        }
        if probe_ok and not best_gap <= budget + 1e-6:
            raise CertificateError(
                f"reference-gap certificate failed under a passing concavity "
                f"probe: gap {best_gap:.12g} > budget {budget:.12g}"
            )

    return final, record


def _argmax_sets(mass: np.ndarray) -> np.ndarray:
    """[prompts, joint] mask of each row's maximal entries, by exact equality."""
    return mass == mass.max(axis=1, keepdims=True)


def reference_optimum(
    model: LogitModel, task: GenerativeTask, event: EventSpec
) -> LogitModel:
    """The comparator of `run_em`'s 1/T certificate, built from `model`.

    With tabular features it is exact and closed form.  With m_x(j) the
    event mass of joint outcome j at prompt x, the averaged event log
    probability has supremum sum_x rho(x) log max_j m_x(j), attained by
    every distribution supported on the argmax sets A_x; the one closest to
    the model p_0 in KL(q || p_0) is p_0 conditioned on A_x.  Its row holds
    log p_0(j | x) - log p_0(A_x | x) on A_x and LOG_CLAMP elsewhere, the
    representation the closed-form M-step writes.  Other feature maps have
    no closed-form comparator, and raise `FeatureMapMismatchError`.
    """
    if not model.features.supports_closed_form:
        raise FeatureMapMismatchError(
            f"no closed-form comparator for {model.features.descriptor()['kind']} "
            "features; reference: optimum needs tabular features"
        )
    mass = compile_event(task, event).mass_all()
    zero = np.flatnonzero(mass.max(axis=1) == 0.0)
    if zero.size:
        raise ZeroMassEventError(
            f"event {event.describe()} has zero mass at prompt {zero[0]}"
        )
    top = _argmax_sets(mass)
    log_p = model.log_probs_all()
    log_top = logsumexp_rows(np.where(top, log_p, -np.inf))
    # conditioning keeps A_x clear of LOG_CLAMP even where p_0(A_x) is 0
    rows = np.where(top, log_p - log_top[:, None], LOG_CLAMP)
    # tabular theta is the [prompts, joint] logit matrix, row after row
    return model.with_theta(rows.ravel())


# -- filtered fine-tuning ---------------------------------------------------------


def _success(task: GenerativeTask, x_idx: int) -> np.ndarray:
    """P(o = 1 | x, z, y) for every joint outcome at one prompt."""
    return compile_event(task, success_event()).mass(x_idx)


def _weights_tv(
    model: LogitModel,
    task: GenerativeTask,
    event: EventSpec,
    report: dict,
) -> float:
    """Mean distance of an update's implied weights from the true posterior.

    Prompts that produced no usable weights count as maximal error: the
    update did nothing there, which is as far from the posterior as an
    approximation can be.
    """
    jm = JointModel(model)
    tvs = [
        tv_to_exact(jm, x_idx, event, support, probs)
        for x_idx, (support, probs) in report["weights"].items()
    ]
    tvs.extend(1.0 for _ in report["skipped"])
    return float(np.mean(tvs)) if tvs else math.nan


def filter_sft_update(
    model: LogitModel,
    task: GenerativeTask,
    budget: int,
    *,
    seed: int,
    iteration: int,
    exact_weights: bool = False,
    mstep_spec: MStepSpec | None = None,
) -> tuple[LogitModel, dict]:
    """Sample, keep verified draws, fit the kept set by weighted MLE.

    With ``exact_weights`` the empirical filter is replaced by its exact
    expectation: every verified pair weighted by its model probability.
    That limit is one EM iteration in disguise, which the verification
    suite checks parameter by parameter.
    """
    if task.evaluator_kind != "binary":
        raise TaskMismatchError(
            "filtered fine-tuning needs a binary pass/fail evaluator"
        )
    mstep_spec = mstep_spec or MStepSpec(kind="weighted_mle_from_samples")
    posteriors: dict[int, Weights] = {}
    acceptance: dict[int, float] = {}
    skipped: list[int] = []
    for x_idx in range(task.n_prompts):
        verified = _success(task, x_idx) == 1.0
        if exact_weights:
            ks = np.flatnonzero(verified)
            weights = model.joint_probs(x_idx)[ks]
            total = float(weights.sum())
            acceptance[x_idx] = total
        else:
            rng = stream(seed, "filter", x_idx, iteration)
            drawn = model.conditional_tables(x_idx).draws(rng, budget)
            kept = drawn[verified[drawn]]
            counts = np.bincount(kept, minlength=task.n_joint)
            ks = np.flatnonzero(counts)
            weights = counts[ks].astype(np.float64)
            total = float(weights.sum())
            acceptance[x_idx] = len(kept) / budget
        if total <= 0.0:
            skipped.append(x_idx)
            continue
        posteriors[x_idx] = (ks, weights / total)
    new_model = mstep(model, posteriors, mstep_spec, rho=task.rho)
    report = {
        "mode": "exact" if exact_weights else "sampled",
        "acceptance": acceptance,
        "skipped": tuple(skipped),
        "weights": posteriors,
    }
    return new_model, report


def run_filter_sft(
    model: LogitModel,
    task: GenerativeTask,
    *,
    iterations: int,
    budget: int,
    seed: int,
    exact_weights: bool = False,
    reference: LogitModel | None = None,
    on_iteration=None,
) -> tuple[LogitModel, RunRecord]:
    event = success_event()

    def step(current: LogitModel, t: int):
        new_model, report = filter_sft_update(
            current, task, budget,
            seed=seed, iteration=t, exact_weights=exact_weights,
        )
        flags = ("prompts_skipped",) if report["skipped"] else ()
        return new_model, _weights_tv(current, task, event, report), flags

    return _run_loop(
        "filter_sft", model, task, event, step,
        iterations=iterations, seed=seed, reference=reference,
        on_iteration=on_iteration,
    )


# -- expectation-weighted self-training --------------------------------------------


def restem_update(
    model: LogitModel,
    task: GenerativeTask,
    budget: int,
    *,
    seed: int,
    iteration: int,
    exact_expectation: bool = False,
    mstep_spec: MStepSpec | None = None,
) -> tuple[LogitModel, dict]:
    """Weight draws by the soft evaluator's success probability, then fit.

    With ``exact_expectation`` every pair is weighted by model probability
    times success probability, which again collapses to one EM iteration on
    the success event.  A prompt whose weights concentrate on one pair
    beyond 0.999 is flagged degenerate: the update has become a hard filter.
    """
    if task.evaluator_kind != "soft":
        raise TaskMismatchError(
            "expectation-weighted self-training needs a soft evaluator"
        )
    mstep_spec = mstep_spec or MStepSpec(kind="weighted_mle_from_samples")
    posteriors: dict[int, Weights] = {}
    degenerate: list[int] = []
    skipped: list[int] = []
    for x_idx in range(task.n_prompts):
        success = _success(task, x_idx)
        if exact_expectation:
            ks = np.arange(task.n_joint)
            weights = model.joint_probs(x_idx) * success
        else:
            rng = stream(seed, "restem", x_idx, iteration)
            drawn = model.conditional_tables(x_idx).draws(rng, budget)
            # bincount adds in draw order, as a running sum per outcome would
            sums = np.bincount(drawn, success[drawn], task.n_joint)
            ks = np.flatnonzero(sums > 0.0)
            weights = sums[ks]
        total = float(weights.sum())
        if total <= 0.0:
            skipped.append(x_idx)
            continue
        probs = weights / total
        if probs.size and float(probs.max()) > 0.999:
            degenerate.append(x_idx)
        posteriors[x_idx] = (ks, probs)
    new_model = mstep(model, posteriors, mstep_spec, rho=task.rho)
    report = {
        "mode": "exact" if exact_expectation else "sampled",
        "degenerate": tuple(degenerate),
        "skipped": tuple(skipped),
        "weights": posteriors,
    }
    return new_model, report


def run_restem(
    model: LogitModel,
    task: GenerativeTask,
    *,
    iterations: int,
    budget: int,
    seed: int,
    exact_expectation: bool = False,
    reference: LogitModel | None = None,
    on_iteration=None,
) -> tuple[LogitModel, RunRecord]:
    event = success_event()

    def step(current: LogitModel, t: int):
        new_model, report = restem_update(
            current, task, budget,
            seed=seed, iteration=t, exact_expectation=exact_expectation,
        )
        flags = ()
        if report["degenerate"]:
            flags += ("degenerate_weights",)
        if report["skipped"]:
            flags += ("prompts_skipped",)
        return new_model, _weights_tv(current, task, event, report), flags

    return _run_loop(
        "restem", model, task, event, step,
        iterations=iterations, seed=seed, reference=reference,
        on_iteration=on_iteration,
    )


# -- tag-conditioned fine-tuning -----------------------------------------------------


def _require_tag_task(task: GenerativeTask) -> None:
    if task.n_latents != 2 or task.truth is None:
        raise TaskMismatchError(
            "tag-conditioned training needs a two-tag latent space "
            "and reference responses"
        )


def build_tagged_corpus(
    model: LogitModel,
    task: GenerativeTask,
    budget: int,
    *,
    seed: int,
    iteration: int,
) -> list[tuple[int, int, int]]:
    """Sample responses and relabel the latent slot with a quality tag.

    The sampled latent is discarded; what the model said does not decide
    the tag, the reference response does.
    """
    _require_tag_task(task)
    corpus: list[tuple[int, int, int]] = []
    for x_idx in range(task.n_prompts):
        rng = stream(seed, "tag-corpus", x_idx, iteration)
        view = model.conditional_tables(x_idx)
        for _ in range(budget):
            _, y_idx = view.sample(rng)
            tag = GOOD_TAG if y_idx == task.truth[x_idx][1] else BAD_TAG
            corpus.append((x_idx, tag, y_idx))
    return corpus


def conditional_sft_update(
    model: LogitModel,
    task: GenerativeTask,
    corpus: list[tuple[int, int, int]],
    mstep_spec: MStepSpec | None = None,
) -> LogitModel:
    """Weighted MLE on (tag, response) pairs from a tagged corpus; each
    prompt's weights are its item counts, normalized."""
    _require_tag_task(task)
    mstep_spec = mstep_spec or MStepSpec(kind="weighted_mle_from_samples")
    items = np.array(corpus, dtype=np.int64).reshape(-1, 3)
    posteriors: dict[int, Weights] = {}
    for x_idx in dict.fromkeys(items[:, 0].tolist()):
        _, tags, ys = items[items[:, 0] == x_idx].T
        counts = np.bincount(task.zy_index(tags, ys), minlength=task.n_joint)
        ks = np.flatnonzero(counts)
        weights = counts[ks].astype(np.float64)
        posteriors[x_idx] = (ks, weights / weights.sum())
    return mstep(model, posteriors, mstep_spec, rho=task.rho)


def conditional_decode(
    model: LogitModel,
    task: GenerativeTask,
    x_idx: int,
    tag: int,
    rng: np.random.Generator | None = None,
) -> int:
    """Response under the model conditioned on emitting `tag` first.

    Greedy (argmax, lowest index on ties) without an rng, categorical with
    one.  Raises `UnseenTagError` when the tag has zero conditional mass.
    """
    row = model.joint_probs(x_idx)[task.zy_index(tag, np.arange(task.n_responses))]
    total = row.sum()
    if total <= 0.0:
        raise UnseenTagError(f"tag {tag} carries no mass at prompt {x_idx}")
    if rng is None:
        return int(np.argmax(row))
    return int(rng.choice(task.n_responses, p=row / total))


def run_cond_sft(
    model: LogitModel,
    task: GenerativeTask,
    *,
    iterations: int,
    budget: int,
    seed: int,
    reference: LogitModel | None = None,
    on_iteration=None,
) -> tuple[LogitModel, RunRecord]:
    """Tagged-corpus training, evaluated in its deployment mode.

    Accuracy columns condition generation on the good tag, because that is
    how a tag-trained model is meant to be used.
    """
    _require_tag_task(task)
    event = success_event()

    def tag_acc(m: LogitModel, tk: GenerativeTask, s: int, t: int) -> tuple[float, float]:
        greedy_hits = 0
        sampled_hits = 0
        for x in range(tk.n_prompts):
            target = tk.truth[x][1]
            try:
                if conditional_decode(m, tk, x, GOOD_TAG) == target:
                    greedy_hits += 1
                rng = stream(s, "acc-sample", x, t)
                if conditional_decode(m, tk, x, GOOD_TAG, rng) == target:
                    sampled_hits += 1
            except UnseenTagError:
                continue
        return greedy_hits / tk.n_prompts, sampled_hits / tk.n_prompts

    def step(current: LogitModel, t: int):
        corpus = build_tagged_corpus(current, task, budget, seed=seed, iteration=t)
        return conditional_sft_update(current, task, corpus), math.nan, ()

    return _run_loop(
        "cond_sft", model, task, event, step,
        iterations=iterations, seed=seed, reference=reference,
        on_iteration=on_iteration, acc_fn=tag_acc,
    )


# -- pairwise preference training ------------------------------------------------------


@dataclass(frozen=True)
class PreferencePair:
    """Preferred and rejected completions at one prompt, as joint indices."""

    x_idx: int
    pos: int
    neg: int


def latent_dpo_loss_and_grad(
    policy: LogitModel,
    reference: LogitModel,
    pairs: list[PreferencePair],
    beta: float = 1.0,
) -> tuple[float, np.ndarray]:
    """Pairwise logistic loss on full (z, y) completions and its gradient.

    The margin of a pair is beta times the policy-vs-reference log-ratio
    advantage of the preferred completion over the rejected one; the loss
    is the mean softplus of the negated margin.  Within one prompt the
    partition terms cancel, so the loss is invariant to per-prompt logit
    shifts.  Pairs whose completions sit on clamped (effectively zero
    probability) parameters are rejected loudly rather than silently
    saturating.
    """
    if not pairs:
        raise ConfigError("preference loss needs at least one pair")
    task = policy.task
    by_prompt: dict[int, list[PreferencePair]] = {}
    for pair in pairs:
        by_prompt.setdefault(pair.x_idx, []).append(pair)

    losses: list[float] = []
    grad = np.zeros(policy.features.dim)
    n = float(len(pairs))
    for x_idx, group in by_prompt.items():
        lp_pol = policy.joint_log_probs(x_idx)
        lp_ref = reference.joint_log_probs(x_idx)
        weight = np.zeros(task.n_joint)
        for pref in group:
            ip, ineg = pref.pos, pref.neg
            involved = (lp_pol[ip], lp_pol[ineg], lp_ref[ip], lp_ref[ineg])
            if min(involved) <= LOG_CLAMP / 2:
                raise ZeroProbabilityPairError(
                    f"pair at prompt {x_idx} touches a clamped completion"
                )
            margin = beta * (
                (lp_pol[ip] - lp_ref[ip]) - (lp_pol[ineg] - lp_ref[ineg])
            )
            losses.append(float(np.logaddexp(0.0, -margin)))
            # d loss / d margin = -sigmoid(-margin)
            coef = float(np.exp(-np.logaddexp(0.0, margin))) * beta / n
            weight[ip] -= coef
            weight[ineg] += coef
        grad += policy.features.adjoint(x_idx, weight)
    return float(np.mean(losses)), grad


def dpo_fit(
    reference: LogitModel,
    pairs: list[PreferencePair],
    *,
    steps: int = 100,
    rate: float = 0.5,
    beta: float = 1.0,
    init: LogitModel | None = None,
) -> tuple[LogitModel, list[float]]:
    """Line-searched descent on the pairwise loss, starting at the reference."""
    policy = init if init is not None else reference.with_theta(reference.theta)
    value, grad = latent_dpo_loss_and_grad(policy, reference, pairs, beta)
    history = [value]
    for _ in range(steps):
        if float(np.linalg.norm(grad)) == 0.0:
            break
        step = rate
        accepted = False
        for _ in range(40):
            candidate = policy.with_theta(policy.theta - step * grad)
            new_value, new_grad = latent_dpo_loss_and_grad(
                candidate, reference, pairs, beta
            )
            if new_value < value:
                policy, value, grad = candidate, new_value, new_grad
                accepted = True
                break
            step *= 0.5
        if not accepted:
            break
        history.append(value)
    return policy, history


def _pick_pair(
    task: GenerativeTask,
    x_idx: int,
    candidates: np.ndarray,
    lp: np.ndarray,
) -> PreferencePair | None:
    """Best verified versus worst unverified candidate joint index, or None
    if one-sided.

    Ties break deterministically: highest (then smallest index) for the
    preferred side, lowest (then smallest) for the rejected side.
    """
    ok = _success(task, x_idx)[candidates] == 1.0
    verified, unverified = candidates[ok], candidates[~ok]
    if not verified.size or not unverified.size:
        return None
    best = verified[np.lexsort((verified, -lp[verified]))[0]]
    worst = unverified[np.lexsort((unverified, lp[unverified]))[0]]
    return PreferencePair(x_idx=x_idx, pos=int(best), neg=int(worst))


def run_pref_loop(
    model: LogitModel,
    task: GenerativeTask,
    *,
    iterations: int,
    candidates: int,
    seed: int,
    sampler: str = "model",
    dpo_steps: int = 100,
    dpo_rate: float = 0.5,
    dpo_beta: float = 1.0,
    pg_params: dict | None = None,
    reference: LogitModel | None = None,
    on_iteration=None,
) -> tuple[LogitModel, RunRecord]:
    """Iterated preference training over verified/unverified candidate pairs.

    ``sampler`` picks where candidates come from: ``model`` draws from the
    current model itself; ``posterior`` first trains an inference sampler
    toward the success-event posterior and draws from that, which is what
    puts verified completions on the table when the model alone would
    almost never produce one.  Each round fits a fresh policy against the
    current model as reference, then adopts it.
    """
    if task.evaluator_kind != "binary":
        raise TaskMismatchError("preference pairs need a binary evaluator")
    if sampler not in ("model", "posterior"):
        raise ConfigError(f"sampler must be 'model' or 'posterior', got {sampler!r}")
    event = success_event()
    pg_cfg = PolicyGradConfig(**(pg_params or {"iterations": 60}))

    def step(current: LogitModel, t: int):
        jm = JointModel(current)
        pairs: list[PreferencePair] = []
        for x_idx in range(task.n_prompts):
            rng = stream(seed, "pref", sampler, x_idx, t)
            if sampler == "model":
                drawn = current.conditional_tables(x_idx).draws(rng, candidates)
            else:
                result = estep_policy_gradient(
                    jm, x_idx, event, cfg=pg_cfg, compare_exact=False
                )
                drawn = rng.choice(task.n_joint, size=candidates, p=result.probs)
            pair = _pick_pair(task, x_idx, drawn, current.joint_log_probs(x_idx))
            if pair is not None:
                pairs.append(pair)
        if not pairs:
            return current, math.nan, ("no_pairs",)
        policy, _ = dpo_fit(
            current, pairs, steps=dpo_steps, rate=dpo_rate, beta=dpo_beta
        )
        return policy, math.nan, ()

    algorithm = "posterior_dpo" if sampler == "posterior" else "iter_dpo"
    return _run_loop(
        algorithm, model, task, event, step,
        iterations=iterations, seed=seed, reference=reference,
        on_iteration=on_iteration,
    )
