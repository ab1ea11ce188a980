"""Log-space probability arithmetic.

All probability mass in this package is combined in log space with
max-subtracted log-sum-exp; densities are exponentiated only at interfaces
that report plain probabilities.
"""

from __future__ import annotations

import numpy as np
from scipy.special import logsumexp

# Additive stand-in for log(0) inside shaped rewards and closed-form weight
# updates.  exp(LOG_CLAMP) underflows to exactly 0.0 in float64, so clamped
# outcomes carry no probability mass after normalization.
LOG_CLAMP = -1.0e6


def log_sum_exp(values) -> float:
    """Stable log(sum(exp(values))); -inf for an empty or all -inf input."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.size == 0:
        return -np.inf
    return float(logsumexp(arr))


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

