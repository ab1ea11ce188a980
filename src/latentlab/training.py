"""Training loops: event-conditioned EM and the baseline family around it.

The centerpiece alternates an E-step (any engine from `esteps`) with an
M-step (closed form on tabular features, otherwise line-searched ascent on
the weighted-likelihood surrogate).  Filtered and reweighted self-training
are that EM step with the rejection E-step at `sample_budget` draws on the
success event; the preference loop trains against pairwise logits of the
same joint model.

Every loop emits `RunRecord` rows with one fixed metric schema, so runs of
different algorithms can be tabulated against each other byte for byte.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, fields
from typing import Callable, NamedTuple

import numpy as np

from .errors import (
    CertificateError,
    ConfigError,
    FeatureMapMismatchError,
    OutOfSpaceError,
    SurrogateDecreaseError,
    TaskMismatchError,
    UnnormalizedVariationalError,
    UnseenTagError,
    ZeroMassEventError,
    ZeroProbabilityPairError,
    require_integer,
    require_positive,
)
from .esteps import (
    EStepSpec,
    PolicyGradConfig,
    estep_policy_gradient,
    run_estep,
)
# `bench/spans.py` wraps `tv_to_exact` at this import site too
from .esteps import tv_to_exact  # noqa: F401
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


# -- M-step ------------------------------------------------------------------


@dataclass
class MStepSpec:
    """How to turn per-prompt weights over joint outcomes into new parameters.

    ``closed_form`` writes log-weights straight into tabular logits;
    ``gradient_ascent`` line-searches the weighted-likelihood surrogate and
    works for any feature map; ``weighted_mle_from_samples`` picks whichever
    of the two the feature map supports.  The fields are checked when the
    spec is built, and a `ConfigError` names the field at fault first.
    """

    kind: str = "closed_form"
    steps: int = 50
    rate: float = 0.5

    def __post_init__(self):
        kinds = ("closed_form", "gradient_ascent", "weighted_mle_from_samples")
        if self.kind not in kinds:
            raise ConfigError(f"kind must be one of {', '.join(kinds)}, got {self.kind!r}")
        self.steps = require_integer("steps", self.steps, 1)
        self.rate = require_positive("rate", self.rate)


def mstep(model: LogitModel, targets: np.ndarray, spec: MStepSpec) -> LogitModel:
    """Maximize the rho-weighted log likelihood of a [prompts, joint] target.

    Row x holds prompt x's finite, non-negative weights over joint
    outcomes.  An all-zero row leaves that prompt out: its parameters stay
    put (tabular) or it simply contributes no term (shared features).
    """
    task = model.task
    targets = np.asarray(targets)
    if targets.shape != (task.n_prompts, task.n_joint):
        raise TaskMismatchError(
            f"M-step target has shape {targets.shape}, the task needs "
            f"{(task.n_prompts, task.n_joint)}"
        )
    if not (np.isfinite(targets).all() and (targets >= 0.0).all()):
        raise UnnormalizedVariationalError(
            "M-step target weights must be finite and non-negative"
        )
    # the weighted prompts, in ascending order
    xs = np.flatnonzero(targets.any(axis=1))
    if not xs.size:
        return model
    q = targets[xs]
    kind = spec.kind
    if kind == "weighted_mle_from_samples":
        kind = "closed_form" if model.features.supports_closed_form else "gradient_ascent"

    if kind == "closed_form":
        if not model.features.supports_closed_form:
            raise ConfigError(
                "closed_form update needs per-prompt tabular features"
            )
        theta = model.theta.copy()
        logits = np.full(q.shape, LOG_CLAMP)
        pos = q > 0.0
        logits[pos] = np.log(q[pos])
        # tabular theta is the [prompts, joint] logit matrix, row after row
        theta.reshape(task.n_prompts, task.n_joint)[xs] = logits
        return model.with_theta(theta)

    w = task.rho[xs]

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
    """What one E+M pass did: the [prompts, joint] M-step target, the
    E-step's mean total variation, each prompt's acceptance rate (engines
    that sample only), the skipped prompts and the engines' notes.  The
    objective and the step KL are the metric row's to compute."""

    targets: np.ndarray
    tv_mean: float
    acceptance: dict[int, float] = field(default_factory=dict)
    skipped: tuple[int, ...] = ()
    flags: tuple[str, ...] = ()


def _averaged_kl(new: LogitModel, old: LogitModel, rho: np.ndarray) -> float:
    """rho-weighted KL(new || old)."""
    return float(sum((rho * kl_rows(new, old)).tolist()))


def em_iterate(
    model: LogitModel,
    task: GenerativeTask,
    event: EventSpec,
    estep_spec: EStepSpec,
    mstep_spec: MStepSpec,
    *,
    seed: int,
    iteration: int,
    streams: tuple[str, ...] | None = None,
) -> tuple[LogitModel, IterationReport]:
    """One E-step across prompts followed by one M-step.

    Each engine's row is its prompt's row of the M-step target.  Prompt x's
    engine draws from `stream(seed, *streams, x, iteration)`, with
    `streams` ("estep", backend) unless given.  Prompts whose engine returns
    empty-handed are skipped for this round and count as total variation 1
    in `tv_mean`; if every prompt is skipped the model comes back unchanged
    with the ``all_prompts_skipped`` flag.
    """
    streams = streams or ("estep", estep_spec.backend)
    jm = JointModel(model)
    targets = np.zeros((task.n_prompts, task.n_joint))
    tvs: list[float] = []
    acceptance: dict[int, float] = {}
    flags: set[str] = set()
    skipped: list[int] = []
    for x_idx in range(task.n_prompts):
        rng = stream(seed, *streams, x_idx, iteration)
        result = run_estep(jm, x_idx, event, estep_spec, rng)
        flags.update(result.flags)
        if result.acceptance_rate is not None:
            acceptance[x_idx] = result.acceptance_rate
        if result.empty:
            skipped.append(x_idx)
            continue
        targets[x_idx] = result.probs
        tvs.append(result.tv_error)

    tv_mean = float(np.mean(tvs + [1.0] * len(skipped)))
    if len(skipped) == task.n_prompts:
        flags.add("all_prompts_skipped")
    else:
        model = mstep(model, targets, mstep_spec)
    return model, IterationReport(
        targets, tv_mean, acceptance, tuple(skipped), tuple(sorted(flags))
    )


# -- metric rows ----------------------------------------------------------------

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


TSV_COLUMNS = tuple(f.name for f in fields(RunRow))


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
        for m, row in zip(models[:-1], record.rows):
            slope = float(
                np.dot(JointModel(m).averaged_grad(event), reference.theta - m.theta)
            )
            if slope < ref_objective - row.objective - 1e-9:
                probe_ok = False
                break
        best_gap = min(
            ref_objective - row.objective for row in record.rows[1:]
        )
        # row 0's kl_to_ref is KL(reference || theta_0)
        budget = record.rows[0].kl_to_ref / iterations
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


# -- what each algorithm needs of the task ------------------------------------------


def check_task_fits(algorithm: str, task: GenerativeTask) -> None:
    """Raise `TaskMismatchError` unless `algorithm` can train on `task`:
    filtered fine-tuning and preference pairs need a binary evaluator,
    expectation weighting a soft one, and tag conditioning a two-tag latent
    space with reference responses."""
    kind = task.evaluator_kind
    if algorithm == "filter_sft" and kind != "binary":
        raise TaskMismatchError("filtered fine-tuning needs a binary pass/fail evaluator")
    if algorithm == "restem" and kind != "soft":
        raise TaskMismatchError("expectation-weighted self-training needs a soft evaluator")
    if algorithm in ("iter_dpo", "posterior_dpo") and kind != "binary":
        raise TaskMismatchError("preference pairs need a binary evaluator")
    if algorithm == "cond_sft" and (task.n_latents != 2 or task.truth is None):
        raise TaskMismatchError(
            "tag-conditioned training needs a two-tag latent space "
            "and reference responses"
        )


# -- filtered and reweighted self-training ------------------------------------------


def _rejection_em_update(model: LogitModel, task: GenerativeTask, budget: int, label: str,
                         *, seed: int, iteration: int) -> tuple[LogitModel, dict]:
    """One EM step on the success event with the rejection E-step at
    `budget` draws per prompt from stream `label`, fitted by weighted MLE.

    Each prompt's weights are the success probabilities of its draws summed
    per outcome, normalized.  The report holds the [prompts, joint]
    weights, the E-step's mean total variation, the skipped (all-zero)
    prompts, each prompt's acceptance (the share of draws with positive
    success probability) and the prompts whose weights put more than 0.999
    on one outcome.
    """
    new_model, step = em_iterate(
        model, task, success_event(), EStepSpec("rejection", {"budget": budget}),
        MStepSpec(kind="weighted_mle_from_samples"),
        seed=seed, iteration=iteration, streams=(label,),
    )
    return new_model, {
        "mode": "sampled",
        "acceptance": step.acceptance,
        "skipped": step.skipped,
        "degenerate": tuple(np.flatnonzero(step.targets.max(axis=1) > 0.999).tolist()),
        "weights": step.targets,
        "tv_mean": step.tv_mean,
    }


def filter_sft_update(model: LogitModel, task: GenerativeTask, budget: int, *, seed: int,
                      iteration: int) -> tuple[LogitModel, dict]:
    """Sample, keep verified draws, fit the kept set by weighted MLE: one
    EM step whose E-step is rejection sampling (`_rejection_em_update`)."""
    check_task_fits("filter_sft", task)
    return _rejection_em_update(model, task, budget, "filter", seed=seed, iteration=iteration)


def restem_update(model: LogitModel, task: GenerativeTask, budget: int, *, seed: int,
                  iteration: int) -> tuple[LogitModel, dict]:
    """Weight draws by the soft evaluator's success probability, then fit:
    the same EM step with a self-normalized importance-weighted E-step.  A
    prompt whose weights concentrate on one pair beyond 0.999 is flagged
    degenerate: the update has become a hard filter."""
    check_task_fits("restem", task)
    return _rejection_em_update(model, task, budget, "restem", seed=seed, iteration=iteration)


def _run_rejection_em(algorithm, update, model, task, iterations, budget, seed,
                      reference, on_iteration) -> tuple[LogitModel, RunRecord]:
    """`update` once per iteration, in the loop of `run_filter_sft` and
    `run_restem`."""

    def step(current: LogitModel, t: int):
        new_model, report = update(current, task, budget, seed=seed, iteration=t)
        flags = ()
        # a filter's weights are a hard filter by design
        if algorithm == "restem" and report["degenerate"]:
            flags += ("degenerate_weights",)
        if report["skipped"]:
            flags += ("prompts_skipped",)
        return new_model, report["tv_mean"], flags

    return _run_loop(algorithm, model, task, success_event(), step, iterations=iterations,
                     seed=seed, reference=reference, on_iteration=on_iteration)


def run_filter_sft(
    model: LogitModel, task: GenerativeTask, *, iterations: int, budget: int, seed: int,
    reference: LogitModel | None = None, on_iteration=None,
) -> tuple[LogitModel, RunRecord]:
    return _run_rejection_em("filter_sft", filter_sft_update, model, task, iterations,
                             budget, seed, reference, on_iteration)


def run_restem(
    model: LogitModel, task: GenerativeTask, *, iterations: int, budget: int, seed: int,
    reference: LogitModel | None = None, on_iteration=None,
) -> tuple[LogitModel, RunRecord]:
    return _run_rejection_em("restem", restem_update, model, task, iterations,
                             budget, seed, reference, on_iteration)


# -- tag-conditioned fine-tuning -----------------------------------------------------


def build_tagged_corpus(
    model: LogitModel,
    task: GenerativeTask,
    budget: int,
    *,
    seed: int,
    iteration: int,
) -> np.ndarray:
    """Sample responses and relabel the latent slot with a quality tag.

    Returns `budget` items per prompt as an int64 [items, 3] array of
    (prompt, tag, response) rows.  The sampled latent is discarded; what the
    model said does not decide the tag, the reference response does.
    """
    check_task_fits("cond_sft", task)
    blocks = []
    for x_idx in range(task.n_prompts):
        rng = stream(seed, "tag-corpus", x_idx, iteration)
        # a joint index is z * n_responses + y; only the response is kept
        ys = model.conditional_tables(x_idx).draws(rng, budget) % task.n_responses
        tags = np.where(ys == task.truth[x_idx][1], GOOD_TAG, BAD_TAG)
        blocks.append(np.column_stack([np.full(budget, x_idx), tags, ys]))
    return np.concatenate(blocks)


def conditional_sft_update(
    model: LogitModel,
    task: GenerativeTask,
    corpus,
) -> LogitModel:
    """Weighted MLE on (tag, response) pairs from a tagged corpus of
    (prompt, tag, response) items; each prompt's weights are its item
    counts, normalized."""
    check_task_fits("cond_sft", task)
    items = np.asarray(corpus, dtype=np.int64).reshape(-1, 3)
    bounds = (task.n_prompts, task.n_latents, task.n_responses)
    outside = ((items < 0) | (items >= bounds)).any(axis=1)
    if outside.any():
        raise OutOfSpaceError(
            f"corpus item {items[outside][0].tolist()} outside the task's spaces"
        )
    xs, tags, ys = items.T
    shape = (task.n_prompts, task.n_joint)
    counts = np.bincount(
        xs * task.n_joint + task.zy_index(tags, ys), minlength=shape[0] * shape[1]
    ).reshape(shape)
    targets = counts / np.maximum(counts.sum(axis=1, keepdims=True), 1)
    return mstep(model, targets, MStepSpec(kind="weighted_mle_from_samples"))


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
    check_task_fits("cond_sft", task)
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


class PreferencePair(NamedTuple):
    """Preferred and rejected completions at one prompt, as joint indices;
    a list of pairs is one int [pairs, 3] array."""

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
    if len(pairs) == 0:
        raise ConfigError("preference loss needs at least one pair")
    xs, pos, neg = np.asarray(pairs, dtype=np.int64).reshape(-1, 3).T
    lp_pol, lp_ref = policy.log_probs_all(), reference.log_probs_all()
    involved = np.stack([lp_pol[xs, pos], lp_pol[xs, neg], lp_ref[xs, pos], lp_ref[xs, neg]])
    clamped = np.flatnonzero(involved.min(axis=0) <= LOG_CLAMP / 2)
    if clamped.size:
        raise ZeroProbabilityPairError(
            f"pair at prompt {xs[clamped[0]]} touches a clamped completion"
        )
    margin = beta * ((involved[0] - involved[2]) - (involved[1] - involved[3]))
    losses = np.logaddexp(0.0, -margin)
    # d loss / d margin = -sigmoid(-margin)
    coef = np.exp(-np.logaddexp(0.0, margin)) * beta / len(xs)
    # pair by pair, preferred side first, as a running sum per outcome adds
    weight = np.zeros((policy.task.n_prompts, policy.task.n_joint))
    np.add.at(
        weight,
        (np.repeat(xs, 2), np.column_stack([pos, neg]).ravel()),
        np.column_stack([-coef, coef]).ravel(),
    )
    return float(np.mean(losses)), policy.features.adjoint_all(weight)


def dpo_fit(
    reference: LogitModel,
    pairs: list[PreferencePair],
    *,
    steps: int = 100,
    rate: float = 0.5,
    beta: float = 1.0,
) -> tuple[LogitModel, list[float]]:
    """Line-searched descent on the pairwise loss, starting at the reference."""
    policy = reference.with_theta(reference.theta)
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
    ok = compile_event(task, success_event()).mass(x_idx)[candidates] == 1.0
    verified, unverified = candidates[ok], candidates[~ok]
    if not verified.size or not unverified.size:
        return None
    best = verified[np.lexsort((verified, -lp[verified]))[0]]
    worst = unverified[np.lexsort((unverified, lp[unverified]))[0]]
    return PreferencePair(x_idx=x_idx, pos=int(best), neg=int(worst))


def check_pref_fit(steps, rate, beta, candidates) -> dict:
    """The preference loop's fit settings as ints and floats; raise
    `ConfigError`, naming the field, unless `steps` is an integer >= 1,
    `rate` and `beta` are positive and finite, and `candidates` is an
    integer >= 2."""
    return {
        "steps": require_integer("steps", steps, 1),
        "rate": require_positive("rate", rate),
        "beta": require_positive("beta", beta),
        "candidates": require_integer("candidates", candidates, 2),
    }


# policy-gradient iterations of the posterior sampler when its parameters
# leave them out
SAMPLER_ITERATIONS = 60


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
    almost never produce one; ``pg_params`` are its `PolicyGradConfig`
    fields, with ``iterations`` `SAMPLER_ITERATIONS` unless given.  Each
    round fits a fresh policy against the current model as reference, then
    adopts it.
    """
    check_task_fits("iter_dpo", task)
    if sampler not in ("model", "posterior"):
        raise ConfigError(f"sampler must be 'model' or 'posterior', got {sampler!r}")
    check_pref_fit(dpo_steps, dpo_rate, dpo_beta, candidates)
    event = success_event()
    pg_cfg = PolicyGradConfig(**{"iterations": SAMPLER_ITERATIONS, **(pg_params or {})})

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
