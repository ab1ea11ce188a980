"""Log-space probability arithmetic.

All probability mass in this package is combined in log space with
max-subtracted log-sum-exp; densities are exponentiated only at interfaces
that report plain probabilities.
"""

from __future__ import annotations

import numpy as np

# Additive stand-in for log(0) inside shaped rewards and closed-form weight
# updates.  exp(LOG_CLAMP) underflows to exactly 0.0 in float64, so clamped
# outcomes carry no probability mass after normalization.
LOG_CLAMP = -1.0e6


def logsumexp(a) -> np.float64:
    """log(sum(exp(a))) over every element of a real array.

    The same arithmetic as ``scipy.special.logsumexp(a)``, so the same bits,
    without its array-API dispatch, which cost about ten times the
    arithmetic on the short vectors used here: the maximal elements are
    taken out of the shifted sum and added back through ``log1p``, and a
    non-finite result falls back to the direct ``log(sum(exp(a)))``.
    """
    a = np.asarray(a, dtype=np.float64)
    if a.size == 0:
        return np.float64(-np.inf)
    a_max = a.max()
    if np.isfinite(a_max):
        top = a == a_max
        count = np.float64(np.count_nonzero(top))
        rest = np.exp(np.where(top, -np.inf, a) - a_max).sum()
        if rest != 0:
            rest = rest / count
        out = np.log1p(rest) + np.log(count) + a_max
        if np.isfinite(out):
            return out
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return np.log(np.exp(a).sum())


def log_sum_exp(values) -> float:
    """Stable log(sum(exp(values))); -inf for an empty or all -inf input."""
    return float(logsumexp(values))


def safe_log(p: float) -> float:
    """log(p) with log(0) = -inf instead of a domain error."""
    if p < 0.0:
        raise ValueError(f"negative probability: {p}")
    if p == 0.0:
        return -np.inf
    return float(np.log(p))


def total_variation(p, q) -> float:
    """0.5 * L1 distance between two aligned probability vectors."""
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if p.shape != q.shape:
        raise ValueError(f"shape mismatch: {p.shape} vs {q.shape}")
    return 0.5 * float(np.abs(p - q).sum())


def entropy(p) -> float:
    """Shannon entropy in nats; 0 log 0 = 0."""
    p = np.asarray(p, dtype=np.float64)
    mask = p > 0.0
    return -float(np.sum(p[mask] * np.log(p[mask])))

