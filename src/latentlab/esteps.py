"""Interchangeable engines for the posterior-inference half of training.

Each engine answers the same question at one prompt: given the current
sequence model and an event, what is (or approximately is) the conditional
distribution over (z, y) outcomes inside the event?  Four routes are
provided:

* ``exact``            enumeration of the posterior table,
* ``planning``         soft value iteration on shaped token rewards,
* ``rejection``        sampling from the model and keeping event hits,
* ``policy_gradient``  entropy-regularized ascent toward the posterior.

All engines return an `EStepResult` whose `probs` is the prompt's row of
the M-step target, a distribution over joint indices `task.zy_index(z, y)`,
plus diagnostics (total variation against the exact posterior, sample
counts, engine-specific extras).  An `EStepSpec` names an engine and its
parameters, and checks them when it is built.
"""

from __future__ import annotations

import time
from collections.abc import Mapping
from dataclasses import dataclass, field, fields
from types import MappingProxyType

import numpy as np

from .errors import (
    ConfigError,
    DivergenceError,
    EStepResultError,
    UnreachableEventError,
    require_integer,
    require_positive,
    require_real,
)
from .graph import JointModel
from .logspace import log_sum_exp, total_variation
from .planner import plan_posterior, shape_rewards, soft_value_iteration
from .tasks import EventSpec, compile_event


@dataclass
class EStepResult:
    """One engine's answer at one prompt.

    `probs` is the prompt's row of the M-step target: non-negative weights
    over every joint outcome that sum to 1, or all zero when the engine came
    back empty-handed (flagged ``zero_acceptance``; the caller must skip the
    prompt).  `tv_error` is the total variation distance to the exact
    posterior marginal, `None` when undefined.
    """

    backend: str
    probs: np.ndarray
    tv_error: float | None = None
    samples_used: int = 0
    acceptance_rate: float | None = None
    wall_time_s: float = 0.0
    flags: tuple[str, ...] = ()
    extras: dict = field(default_factory=dict)

    def __post_init__(self):
        self.probs = np.asarray(self.probs, dtype=np.float64)
        if self.probs.ndim != 1 or not (np.isfinite(self.probs) & (self.probs >= 0.0)).all():
            raise EStepResultError("probs must be a 1-D row of finite, non-negative weights")
        total = float(self.probs.sum())
        if "zero_acceptance" in self.flags:
            if total != 0.0:
                raise EStepResultError("zero-acceptance results must have an all-zero row")
        elif abs(total - 1.0) > 1e-9:
            raise EStepResultError(f"probs sum to {total:.12g}, expected 1")

    @property
    def empty(self) -> bool:
        return "zero_acceptance" in self.flags


def tv_to_exact(jm: JointModel, x_idx: int, event: EventSpec, row: np.ndarray) -> float:
    """Total variation between a candidate row over joint outcomes and the
    posterior; mass outside the event counts against the candidate."""
    return total_variation(row, jm.exact_posterior(x_idx, event))


# -- exact enumeration -----------------------------------------------------


def estep_exact(jm: JointModel, x_idx: int, event: EventSpec) -> EStepResult:
    """Posterior over (z, y) by direct enumeration of the event."""
    return EStepResult(backend="exact", probs=jm.exact_posterior(x_idx, event), tv_error=0.0)


# -- soft planning ---------------------------------------------------------


def estep_planning(
    jm: JointModel,
    x_idx: int,
    event: EventSpec,
    beta: float = 1.0,
) -> EStepResult:
    """Posterior via soft value iteration on shaped token rewards.

    At ``beta = 1`` the induced trajectory distribution matches the exact
    posterior up to clamp leakage; other temperatures give a deliberately
    sharpened or flattened variant (useful as a diagnostic, not an E-step).
    """
    require_positive("beta", beta)
    mdp = shape_rewards(jm, x_idx, event, beta=beta)
    plan = soft_value_iteration(mdp)
    support, probs = plan_posterior(plan, jm.task, x_idx, event)
    row = np.zeros(jm.task.n_joint)
    row[support] = probs
    return EStepResult(
        backend="planning",
        probs=row,
        tv_error=tv_to_exact(jm, x_idx, event, row),
        extras={"beta": beta, "root_value": plan.root_value()},
    )


# -- rejection / importance sampling ---------------------------------------


def estep_rejection(
    jm: JointModel,
    x_idx: int,
    event: EventSpec,
    budget: int,
    rng: np.random.Generator,
) -> EStepResult:
    """Sample (z, y) from the model; keep draws by event observation mass.

    Binary evaluators make this plain rejection (weights are 0 or 1).  Soft
    evaluators yield fractional weights, turning the estimate into
    self-normalized importance sampling; the result is flagged
    ``importance_weighted``.  A budget that produces no usable draw returns
    the empty, ``zero_acceptance``-flagged result.
    """
    require_integer("budget", budget, 1)
    task = jm.task
    compiled = compile_event(task, event)
    drawn = jm.seq.conditional_tables(x_idx).draws(rng, budget)
    mass = compiled.mass(x_idx)[drawn]
    # bincount adds in draw order, as a running sum per outcome would
    weights = np.bincount(drawn, mass, task.n_joint)
    hits = int(np.count_nonzero(mass))

    flags: tuple[str, ...] = ()
    if task.evaluator_kind == "soft":
        flags += ("importance_weighted",)
    total = float(weights[compiled.pair_joint].sum())  # weights are 0 outside the event
    if total == 0.0:
        return EStepResult(
            backend="rejection",
            probs=np.zeros(task.n_joint),
            tv_error=None,
            samples_used=budget,
            acceptance_rate=0.0,
            flags=flags + ("zero_acceptance",),
        )
    probs = weights / total
    return EStepResult(
        backend="rejection",
        probs=probs,
        tv_error=tv_to_exact(jm, x_idx, event, probs),
        samples_used=budget,
        acceptance_rate=hits / budget,
        flags=flags,
    )


# -- entropy-regularized policy gradient ------------------------------------


@dataclass
class PolicyGradConfig:
    """Knobs for `estep_policy_gradient`.

    ``batch_size = 0`` requests exact gradients of the regularized return
    (no sampling, line-searched and therefore monotone); a positive batch
    size switches to score-function estimates.  ``reward_floor`` caps how
    negative the terminal event bonus may get: the floor keeps gradients
    bounded while leaking only exp(reward_floor) probability outside the
    event, far below the fixed-point tolerances checked downstream.
    """

    step_size: float = 0.25
    batch_size: int = 0
    iterations: int = 200
    beta: float = 1.0
    reward_floor: float = -30.0
    divergence_patience: int = 50

    def __post_init__(self):
        require_positive("step_size", self.step_size)
        require_integer("batch_size", self.batch_size, 0)
        require_integer("iterations", self.iterations, 0)
        require_positive("beta", self.beta)
        require_real("reward_floor", self.reward_floor)
        if not -np.inf < self.reward_floor < 0:  # nan too
            raise ConfigError(
                f"reward_floor must be negative and finite, got {self.reward_floor}"
            )
        require_integer("divergence_patience", self.divergence_patience, 1)


# exact-mode ascent: stop "converged" at gap <= CONVERGED_GAP max(1, |soft
# value|), "stalled" at an accepted gain <= STALLED_GAIN max(1, |J|); the
# Fisher solve adds FISHER_RIDGE tr F to the diagonal, which only makes the
# singular F invertible (see `_fisher_step` for its null-space part)
CONVERGED_GAP = 1e-12
STALLED_GAIN = 1e-13
FISHER_RIDGE = 1e-13
MAX_HALVINGS = 40


def _event_reward_vector(
    jm: JointModel, x_idx: int, event: EventSpec, floor: float
) -> np.ndarray:
    """Total reward per joint outcome: reference log prob plus floored bonus.

    The bonus is the log evaluator mass of the event's observations, floored
    (rather than clamped to an effective -inf) so gradient magnitudes stay
    usable.  Raises if no outcome carries positive event mass.
    """
    mass = compile_event(jm.task, event).mass(x_idx)
    if not np.any(mass > 0.0):
        raise UnreachableEventError(
            f"event {event.describe()} has zero evaluator mass at prompt {x_idx}"
        )
    with np.errstate(divide="ignore"):
        bonus = np.maximum(np.log(mass), floor)
    return jm.seq.joint_log_probs(x_idx) + bonus


def _regularized_objective(
    logits: np.ndarray, rewards: np.ndarray, beta: float
) -> tuple[float, np.ndarray, np.ndarray]:
    """J(l) = E_p[R] + beta H(p), with p = softmax of the logit vector l.

    Returns (J, p, log p).  log p stays finite even where p underflows, so
    advantage-like quantities built from it are safe.
    """
    log_p = logits - log_sum_exp(logits)
    with np.errstate(under="ignore"):
        p = np.exp(log_p)
    mask = p > 0.0
    c = rewards - beta * log_p
    return float(np.dot(p[mask], c[mask])), p, log_p


def _fisher_step(block: np.ndarray):
    """The Fisher move of one prompt, as a function of (p, advantage A).

    `block` holds Phi_x over the prompt's own feature columns.  The move is
    Phi_x w with (F + lambda I) w = Phi_x^T (p * A), where
    F = sum_j p_j (phi_j - phibar)(phi_j - phibar)^T is the Fisher matrix of
    the softmax at p and lambda = FISHER_RIDGE tr F: the natural-gradient
    step of entropy-regularized policy gradient (Kakade 2001; Cen et al.
    2021), i.e. the p-weighted least-squares fit of A by the features.  It
    is returned minus its p-mean, phibar . w: the tiny ridge leaves w
    large along directions that shift every logit alike, which move no
    probability but would cost the logits their low bits.
    """
    eye = np.eye(block.shape[1])

    def move(p: np.ndarray, advantage: np.ndarray) -> np.ndarray:
        centered = block - p @ block
        fisher = centered.T @ (p[:, None] * centered)
        ridge = FISHER_RIDGE * np.trace(fisher)
        w = np.linalg.solve(fisher + ridge * eye, block.T @ (p * advantage))
        return centered @ w

    return move


def estep_policy_gradient(
    jm: JointModel,
    x_idx: int,
    event: EventSpec,
    cfg: PolicyGradConfig | None = None,
    rng: np.random.Generator | None = None,
    compare_exact: bool = True,
) -> EStepResult:
    """Train a sampler toward the posterior by entropy-regularized ascent.

    The sampler is warm-started at the current model and climbs
    J(psi) = E_psi[R] + beta H(psi) where R sums the reference log
    probability and the floored event bonus; the maximizer of J is the
    softmax of R / beta, i.e. the posterior up to floor leakage.  The ascent
    moves the prompt's logit vector l = Phi_x theta only, and returns the
    final sampler distribution.

    Exact mode (``batch_size = 0``) takes the advantage A = R - beta log p - J
    and tries two moves of l: Phi_x Phi_x^T A (`FeatureMap.project`), and, for
    maps without a closed form, the Fisher move of `_fisher_step` (through a
    tabular map the two coincide: both are A, and a step of 1/beta along A
    lands on softmax(R / beta)).  A move whose exact slope
    sum_j p_j A_j m_j is not positive is skipped; each other move is
    line-searched from its own persistent rate (grown 1.5x on acceptance,
    halved on every failed trial, at most MAX_HALVINGS times), and the
    better accepted trial is taken, so J never decreases.  The ascent stops ``converged`` once the exact gap
    soft_value - J = beta KL(p || softmax(R / beta)) is at most
    CONVERGED_GAP max(1, |soft_value|), ``stalled`` when no move improves J
    or the accepted gain is at most STALLED_GAIN max(1, |J|), and ``cap``
    when `iterations` run out.

    Sampled mode moves l by Phi_x Phi_x^T times a REINFORCE estimate with a
    mean-return baseline, stops ``stalled`` when that move vanishes, and
    raises `DivergenceError` after `divergence_patience` consecutive drops
    of the exactly-evaluated objective.

    The returned row keeps the sliver of mass that conditioning by reward
    shaping leaves outside the event: hiding it would misreport what the
    sampler actually does.
    """
    cfg = cfg if cfg is not None else PolicyGradConfig()
    if cfg.batch_size > 0 and rng is None:
        raise ConfigError("sampled policy-gradient mode needs an rng")
    task = jm.task
    features = jm.seq.features
    beta = cfg.beta
    rewards = _event_reward_vector(jm, x_idx, event, cfg.reward_floor)
    soft_value = beta * log_sum_exp(rewards / beta)
    tolerance = CONVERGED_GAP * max(1.0, abs(soft_value))
    fisher_move = None
    if cfg.batch_size == 0 and not features.supports_closed_form:
        fisher_move = _fisher_step(features.own_block(x_idx))

    value, p, log_p = _regularized_objective(
        features.logits(x_idx, jm.seq.theta), rewards, beta
    )
    rates = [cfg.step_size, cfg.step_size]
    drops = 0
    samples_used = 0
    iterations_run = 0
    reason = "converged" if soft_value - value <= tolerance else "cap"
    while reason == "cap" and iterations_run < cfg.iterations:
        iterations_run += 1
        if cfg.batch_size == 0:
            advantage = rewards - beta * log_p - value
            moves = [features.project(x_idx, advantage)]
            if fisher_move is not None:
                moves.append(fisher_move(p, advantage))
            best = None
            for k, move in enumerate(moves):
                if float(np.dot(p * advantage, move)) <= 0.0:
                    continue
                rate = rates[k]
                for _ in range(MAX_HALVINGS):
                    trial = _regularized_objective(log_p + rate * move, rewards, beta)
                    if trial[0] > value:
                        rate *= 1.5
                        if best is None or trial[0] > best[0]:
                            best = trial
                        break
                    rate *= 0.5
                rates[k] = rate
            if best is None:
                reason = "stalled"
                break
            gain = best[0] - value
            value, p, log_p = best
            if gain <= STALLED_GAIN * max(1.0, abs(value)):
                reason = "stalled"
        else:
            draws = rng.choice(task.n_joint, size=cfg.batch_size, p=p)
            returns = rewards[draws] - beta * log_p[draws]
            advantage = returns - returns.mean()
            step_flat = np.zeros(task.n_joint)
            np.add.at(step_flat, draws, advantage)
            step_flat = step_flat / cfg.batch_size - p * advantage.mean()
            samples_used += cfg.batch_size
            move = features.project(x_idx, step_flat)
            if not move.any():
                reason = "stalled"
                break
            new_value, p, log_p = _regularized_objective(
                log_p + cfg.step_size * move, rewards, beta
            )
            drops = drops + 1 if new_value < value else 0
            if drops >= cfg.divergence_patience:
                raise DivergenceError(
                    f"objective fell for {drops} consecutive steps "
                    f"(last {value:.6g} -> {new_value:.6g})"
                )
            value = new_value
        if soft_value - value <= tolerance:
            reason = "converged"

    probs = p / p.sum()
    tv = tv_to_exact(jm, x_idx, event, probs) if compare_exact else None
    off_event = float(probs[~compile_event(task, event).inside].sum())
    return EStepResult(
        backend="policy_gradient",
        probs=probs,
        tv_error=tv,
        samples_used=samples_used,
        extras={
            "final_objective": value,
            "soft_value": soft_value,
            "iterations_run": iterations_run,
            "stop_reason": reason,
            "gap": soft_value - value,
            "off_event_mass": off_event,
        },
    )


# -- dispatch ----------------------------------------------------------------

# the keyword parameters each backend takes
BACKEND_PARAMS = {
    "exact": (),
    "planning": ("beta",),
    "rejection": ("budget",),
    "policy_gradient": tuple(f.name for f in fields(PolicyGradConfig)),
}
BACKENDS = tuple(BACKEND_PARAMS)


@dataclass(frozen=True)
class EStepSpec:
    """Backend name plus keyword parameters for `run_estep`, checked with
    the engines' own checks when built (see `BACKEND_PARAMS`), then kept
    read-only.  A `ConfigError` names the field at fault first."""

    backend: str
    params: Mapping = field(default_factory=dict)
    # the policy-gradient backend's config, built once per spec
    pg: PolicyGradConfig | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.backend not in BACKENDS:
            raise ConfigError(
                f"backend must be one of {', '.join(BACKENDS)}, got {self.backend!r}"
            )
        if not isinstance(self.params, Mapping):
            raise ConfigError(f"params must be a mapping, got {self.params!r}")
        object.__setattr__(self, "params", MappingProxyType(dict(self.params)))
        allowed = BACKEND_PARAMS[self.backend]
        unknown = [name for name in self.params if name not in allowed]
        if unknown:
            raise ConfigError(
                f"params.{unknown[0]} is not a parameter of backend {self.backend!r}, "
                f"which takes {', '.join(allowed) or 'none'}"
            )
        try:
            if self.backend == "planning" and "beta" in self.params:
                require_positive("beta", self.params["beta"])
            elif self.backend == "rejection":
                if "budget" not in self.params:
                    raise ConfigError("budget is required for backend 'rejection'")
                require_integer("budget", self.params["budget"], 1)
            elif self.backend == "policy_gradient":
                object.__setattr__(self, "pg", PolicyGradConfig(**self.params))
        except ConfigError as exc:  # every message starts with the field name
            raise ConfigError(f"params.{exc}") from exc

    @property
    def draws(self) -> bool:
        """Whether the engine draws random numbers: rejection, and policy
        gradient with sampled gradients (`batch_size` > 0)."""
        return self.backend == "rejection" or (
            self.backend == "policy_gradient" and self.pg.batch_size > 0)


def run_estep(
    jm: JointModel,
    x_idx: int,
    event: EventSpec,
    spec: EStepSpec,
    rng: np.random.Generator | None = None,
) -> EStepResult:
    """Dispatch one E-step, check that its row covers the task's joint
    outcomes, and stamp its wall time on the result."""
    start = time.perf_counter()
    if spec.backend == "exact":
        result = estep_exact(jm, x_idx, event)
    elif spec.backend == "planning":
        result = estep_planning(jm, x_idx, event, **spec.params)
    elif spec.backend == "rejection":
        if rng is None:
            raise ConfigError("rejection backend needs an rng")
        result = estep_rejection(jm, x_idx, event, rng=rng, **spec.params)
    else:
        result = estep_policy_gradient(jm, x_idx, event, cfg=spec.pg, rng=rng)
    if result.probs.shape != (jm.task.n_joint,):
        raise EStepResultError(f"{spec.backend} returned a row of shape "
                               f"{result.probs.shape} for {jm.task.n_joint} joint outcomes")
    result.wall_time_s = time.perf_counter() - start
    return result
