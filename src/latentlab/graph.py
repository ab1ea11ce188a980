"""Joint distribution over (rationale, response, observation) and its
event-restricted log likelihood.

The graph factorizes as P(z, y, o | x) = P(z, y | x, theta) * P(o | x, z, y)
with the second factor fixed by the task's success table.  The
observation is summed out: an event's term at joint outcome (z, y) is
log P(z, y | x) + log m_x(z, y), m_x the compiled event's mass row.  The
central scalar is the log probability of an event, the log-sum-exp of its
terms; its exact posterior, evidence lower bound, and parameter gradient
are all available by enumeration.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import UnnormalizedVariationalError, ZeroMassEventError
# `bench/spans.py` counts `log_sum_exp` calls at this import site too
from .logspace import entropy, log_sum_exp, logsumexp_rows  # noqa: F401
from .models import LogitModel
from .tasks import CompiledEvent, EventSpec, _remember, compile_event

# most event tables a model keeps, oldest dropped first
EVENT_TABLES_SIZE = 8


def _posterior_rows(terms: np.ndarray, totals) -> np.ndarray:
    """Posterior rows exp(terms - totals) of event terms and their log totals."""
    with np.errstate(under="ignore"):
        return np.exp(terms - np.expand_dims(totals, -1))


class _EventTable:
    """One model's event terms for one compiled event at every prompt: the
    [prompts, joint] `terms` log P(z, y | x) + log m_x(z, y) (-inf outside
    the event and where its mass is 0), their per-prompt log-sum-exp
    `totals`, and, on first use, the posterior `rows`.  Read-only."""

    def __init__(self, log_probs: np.ndarray, compiled: CompiledEvent):
        with np.errstate(divide="ignore"):
            self.terms = log_probs + np.log(compiled.mass_all())
        self.totals = logsumexp_rows(self.terms)
        self.terms.flags.writeable = False
        self.totals.flags.writeable = False

    @cached_property
    def rows(self) -> np.ndarray:
        # a zero-mass prompt's row is nan; readers raise before reading it
        with np.errstate(invalid="ignore"):
            rows = _posterior_rows(self.terms, self.totals)
        rows.flags.writeable = False
        return rows


@dataclass
class ElboReport:
    value: float
    log_likelihood: float

    @property
    def gap(self) -> float:
        return self.log_likelihood - self.value


class JointModel:
    """A sequence model coupled with a task's observation factor.

    Every quantity of an event is read from one table per model and
    compiled event (`_EventTable`), built for all prompts at once on first
    use and kept in the model's bounded `event_tables`, so it is freed
    with the model: the per-prompt posteriors of the E-steps and the
    averages of the metric row share one computation.
    """

    def __init__(self, seq: LogitModel):
        self.seq = seq
        self.task = seq.task

    def _table(self, event: EventSpec) -> _EventTable:
        compiled = compile_event(self.task, event)
        table = self.seq.event_tables.get(compiled)
        if table is None:
            table = _EventTable(self.seq.log_probs_all(), compiled)
            _remember(self.seq.event_tables, compiled, table, EVENT_TABLES_SIZE)
        return table

    def exact_posterior(self, x_idx: int, event: EventSpec) -> np.ndarray:
        """The posterior row P(z, y | x, o in the event) over every joint
        outcome, read-only; 0 outside the event."""
        self.task.check_prompt(x_idx)
        table = self._table(event)
        if table.totals[x_idx] == -np.inf:
            raise ZeroMassEventError(
                f"event {event.describe()} has zero mass at prompt {x_idx}"
            )
        return table.rows[x_idx]

    def elbo(self, x_idx: int, event: EventSpec, q: np.ndarray) -> ElboReport:
        """Evidence lower bound E_q[log P(z, y | x) + log m_x(z, y)] + H(q),
        the observation summed out.

        `q` is a distribution over every joint outcome.  The bound equals
        the event log probability exactly when q is the exact posterior and
        never exceeds it; mass outside the event gives -inf.
        """
        self.task.check_prompt(x_idx)
        table = self._table(event)
        terms = table.terms[x_idx]
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
        return ElboReport(value=value, log_likelihood=float(table.totals[x_idx]))

    def averaged_event_logprob(self, event: EventSpec) -> float:
        """rho-weighted event log probability across all prompts."""
        totals = self._table(event).totals
        return float(sum((self.task.rho * totals).tolist()))

    def averaged_grad(self, event: EventSpec) -> np.ndarray:
        """rho-weighted d/dtheta log P(event | x): posterior minus model
        feature means, all prompts in one adjoint product."""
        table = self._table(event)
        zero = np.flatnonzero(table.totals == -np.inf)
        if zero.size:
            raise ZeroMassEventError(
                f"event {event.describe()} has zero mass at prompt {zero[0]}"
            )
        with np.errstate(under="ignore"):
            p = np.exp(self.seq.log_probs_all())
        return self.seq.features.adjoint_all(self.task.rho[:, None] * (table.rows - p))
