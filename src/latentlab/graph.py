"""Joint distribution over (rationale, response, observation) and its
event-restricted log likelihood.

The graph factorizes as P(z, y, o | x) = P(z, y | x, theta) * P(o | x, z, y)
with the second factor fixed by the task's observation table.  The
observation is summed out: an event's term at joint outcome (z, y) is
log P(z, y | x) + log m_x(z, y), m_x the compiled event's mass row.  The
central scalar is the log probability of an event, the log-sum-exp of its
terms; its exact posterior, evidence lower bound, and parameter gradient
are all available by enumeration.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import UnnormalizedVariationalError, ZeroMassEventError
from .logspace import entropy, log_sum_exp, logsumexp_rows
from .models import LogitModel
from .tasks import CompiledEvent, EventSpec, compile_event


def _posterior_rows(terms: np.ndarray, totals) -> np.ndarray:
    """Posterior rows exp(terms - totals) of event terms and their log totals."""
    with np.errstate(under="ignore"):
        return np.exp(terms - np.expand_dims(totals, -1))


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

    def _event_terms(self, x_idx: int, event: EventSpec) -> np.ndarray:
        """log P(z, y | x) + log m_x(z, y) for every joint outcome; -inf
        outside the event and where its mass is 0."""
        compiled = compile_event(self.task, event)
        with np.errstate(divide="ignore"):
            return self.seq.joint_log_probs(x_idx) + np.log(compiled.mass(x_idx))

    def exact_posterior(self, x_idx: int, event: EventSpec) -> np.ndarray:
        """The posterior row P(z, y | x, o in the event) over every joint
        outcome; 0 outside the event."""
        terms = self._event_terms(x_idx, event)
        total = log_sum_exp(terms)
        if total == -np.inf:
            raise ZeroMassEventError(
                f"event {event.describe()} has zero mass at prompt {x_idx}"
            )
        return _posterior_rows(terms, total)

    def elbo(self, x_idx: int, event: EventSpec, q: np.ndarray) -> ElboReport:
        """Evidence lower bound E_q[log P(z, y | x) + log m_x(z, y)] + H(q),
        the observation summed out.

        `q` is a distribution over every joint outcome.  The bound equals
        the event log probability exactly when q is the exact posterior and
        never exceeds it; mass outside the event gives -inf.
        """
        terms = self._event_terms(x_idx, event)
        q = np.asarray(q, dtype=np.float64)
        if q.shape != terms.shape:
            raise UnnormalizedVariationalError(
                f"variational weights have shape {q.shape}, event has {len(terms)} outcomes"
            )
        if not np.isfinite(q).all() or np.any(q < -1e-12) or abs(q.sum() - 1.0) > 1e-9:
            raise UnnormalizedVariationalError(
                f"variational weights sum to {q.sum():.12g}, expected 1 and finite weights"
            )
        mask = q > 0.0
        value = float(np.dot(q[mask], terms[mask])) + entropy(q)
        return ElboReport(value=value, log_likelihood=log_sum_exp(terms))

    def _all_event_terms(self, compiled: CompiledEvent) -> np.ndarray:
        """[prompts, joint] `_event_terms` of every prompt."""
        with np.errstate(divide="ignore"):
            return self.seq.log_probs_all() + np.log(compiled.mass_all())

    def averaged_event_logprob(self, event: EventSpec) -> float:
        """rho-weighted event log probability across all prompts."""
        rows = logsumexp_rows(self._all_event_terms(compile_event(self.task, event)))
        return float(sum((self.task.rho * rows).tolist()))

    def averaged_grad(self, event: EventSpec) -> np.ndarray:
        """rho-weighted d/dtheta log P(event | x): posterior minus model
        feature means, all prompts in one adjoint product."""
        terms = self._all_event_terms(compile_event(self.task, event))
        totals = logsumexp_rows(terms)
        zero = np.flatnonzero(totals == -np.inf)
        if zero.size:
            raise ZeroMassEventError(
                f"event {event.describe()} has zero mass at prompt {zero[0]}"
            )
        q = _posterior_rows(terms, totals)
        with np.errstate(under="ignore"):
            p = np.exp(self.seq.log_probs_all())
        return self.seq.features.adjoint_all(self.task.rho[:, None] * (q - p))
