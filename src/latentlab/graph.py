"""Joint distribution over (rationale, response, observation) and its
event-restricted log likelihood.

The graph factorizes as P(z, y, o | x) = P(z, y | x, theta) * P(o | x, z, y)
with the second factor fixed by the task's observation table.  The central
scalar is the log probability of an event (a restriction of the three
spaces); its exact posterior, evidence lower bound, and parameter gradient
are all available by enumeration.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import UnnormalizedVariationalError, ZeroMassEventError
from .logspace import entropy, log_sum_exp, logsumexp_rows
from .models import LogitModel
from .tasks import CompiledEvent, EventSpec, compile_event


def _joint_marginal(compiled: CompiledEvent, probs: np.ndarray) -> np.ndarray:
    """Triple weights `probs` ([triples] or [prompts, triples]) summed onto
    joint outcomes in triple order, one row per prompt."""
    n_joint = compiled.task.n_joint
    rows = probs.reshape(-1, len(compiled.triple_joint))
    bins = (np.arange(len(rows))[:, None] * n_joint + compiled.triple_joint).ravel()
    out = np.bincount(bins, rows.ravel(), len(rows) * n_joint)
    return out.reshape(probs.shape[:-1] + (n_joint,))


@dataclass
class PosteriorTable:
    """Exact conditional distribution over an event's triples.

    `probs` follows the triple order of `compiled` (the compiled event)
    and sums to 1.  `log_normalizer` is the event log probability that
    normalized the table.
    """

    probs: np.ndarray
    log_normalizer: float
    compiled: CompiledEvent = field(repr=False)

    def joint_marginal(self) -> np.ndarray:
        """Marginal over every joint outcome, observations summed out in
        enumeration order; 0 outside the event."""
        return _joint_marginal(self.compiled, self.probs)


@dataclass
class ElboReport:
    value: float
    log_likelihood: float

    @property
    def gap(self) -> float:
        return self.log_likelihood - self.value


class JointModel:
    """A sequence model coupled with a task's observation factor."""

    def __init__(self, seq: LogitModel):
        self.seq = seq
        self.task = seq.task

    def _event_terms(
        self, x_idx: int, event: EventSpec
    ) -> tuple[CompiledEvent, np.ndarray]:
        compiled = compile_event(self.task, event)
        lp_zy = self.seq.joint_log_probs(x_idx)
        with np.errstate(divide="ignore"):
            log_eval = np.log(compiled.triple_probs(x_idx))
        return compiled, lp_zy[compiled.triple_joint] + log_eval

    def exact_posterior(self, x_idx: int, event: EventSpec) -> PosteriorTable:
        """Q(z, y, o) proportional to P(z, y, o | x) restricted to the event."""
        compiled, terms = self._event_terms(x_idx, event)
        total = log_sum_exp(terms)
        if total == -np.inf:
            raise ZeroMassEventError(
                f"event {event.describe()} has zero mass at prompt {x_idx}"
            )
        with np.errstate(under="ignore"):
            probs = np.exp(terms - total)
        return PosteriorTable(probs=probs, log_normalizer=total, compiled=compiled)

    def elbo(self, x_idx: int, event: EventSpec, q: np.ndarray) -> ElboReport:
        """Evidence lower bound E_q[log P(z, y, o | x)] + H(q).

        `q` aligns with the event enumeration.  Equals the event log
        probability exactly when q is the exact posterior; never exceeds it.
        """
        _, terms = self._event_terms(x_idx, event)
        q = np.asarray(q, dtype=np.float64)
        if q.shape != terms.shape:
            raise UnnormalizedVariationalError(
                f"variational weights have shape {q.shape}, event has {len(terms)} triples"
            )
        if np.any(q < -1e-12) or abs(q.sum() - 1.0) > 1e-9:
            raise UnnormalizedVariationalError(
                f"variational weights sum to {q.sum():.12g}, expected 1"
            )
        mask = q > 0.0
        value = float(np.dot(q[mask], terms[mask])) + entropy(q)
        return ElboReport(value=value, log_likelihood=log_sum_exp(terms))

    def _all_event_terms(self, compiled: CompiledEvent) -> np.ndarray:
        """[prompts, triples] log P(z, y, o | x) over the event's triples."""
        with np.errstate(divide="ignore"):
            log_eval = np.log(compiled.triple_probs_all())
        # `take` gathers columns several times faster than `[:, index]`
        return np.take(self.seq.log_probs_all(), compiled.triple_joint, axis=1) + log_eval

    def averaged_event_logprob(self, event: EventSpec) -> float:
        """rho-weighted event log probability across all prompts."""
        rows = logsumexp_rows(self._all_event_terms(compile_event(self.task, event)))
        return float(sum((self.task.rho * rows).tolist()))

    def averaged_grad(self, event: EventSpec) -> np.ndarray:
        """rho-weighted d/dtheta log P(event | x): posterior minus model
        feature means, all prompts in one adjoint product."""
        compiled = compile_event(self.task, event)
        terms = self._all_event_terms(compiled)
        totals = logsumexp_rows(terms)
        zero = np.flatnonzero(totals == -np.inf)
        if zero.size:
            raise ZeroMassEventError(
                f"event {event.describe()} has zero mass at prompt {zero[0]}"
            )
        with np.errstate(under="ignore"):
            q = _joint_marginal(compiled, np.exp(terms - totals[:, None]))
            p = np.exp(self.seq.log_probs_all())
        return self.seq.features.adjoint_all(self.task.rho[:, None] * (q - p))
