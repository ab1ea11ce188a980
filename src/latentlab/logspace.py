"""Log-space probability arithmetic.

All probability mass in this package is combined in log space with
max-subtracted log-sum-exp; densities are exponentiated only at interfaces
that report plain probabilities.
"""

from __future__ import annotations

import numpy as np

from .errors import TaskDefinitionError

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


def logsumexp_rows(a) -> np.ndarray:
    """`logsumexp` of every row of a 2-D array, with the same bits per row.

    A single row is handed to `logsumexp`, which costs less on one vector.
    A reduction along the last axis of a C-contiguous array adds in the
    order of the 1-D kernel; a fancy-indexed gather need not be laid out
    that way, so the input is made contiguous first.  A row whose maximum
    is not finite, or whose result is not, takes the direct formula.
    """
    a = np.ascontiguousarray(a, dtype=np.float64)
    if len(a) == 1:
        return np.array([logsumexp(a[0])])
    if a.shape[-1] == 0:
        return np.full(a.shape[0], -np.inf)
    a_max = a.max(axis=-1)
    top = a == a_max[:, None]
    # a NaN row has no maximal element; the direct formula handles it below
    count = np.maximum(top.sum(axis=-1, dtype=np.float64), 1.0)
    shift = np.where(np.isfinite(a_max), a_max, 0.0)
    rest = np.exp(np.where(top, -np.inf, a) - shift[:, None]).sum(axis=-1)
    out = np.log1p(rest / count) + np.log(count) + a_max
    bad = ~np.isfinite(out)
    if bad.any():
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            out[bad] = np.log(np.exp(a[bad]).sum(axis=-1))
    return out


def masked_row_sums(values: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """`values[x][mask[x]].sum()` for every row x, with the bits of that sum.

    The selected entries, packed row after row, are summed one contiguous
    row at a time: as one block when every row selects the same number of
    entries, else one slice per row.
    """
    counts = np.count_nonzero(mask, axis=1)
    packed = values[mask]
    if (counts == counts[0]).all():
        return packed.reshape(len(counts), counts[0]).sum(axis=1)
    ends = np.cumsum(counts).tolist()
    return np.array([packed[e - m : e].sum() for e, m in zip(ends, counts.tolist())])


def log_sum_exp(values) -> float:
    """Stable log(sum(exp(values))); -inf for an empty or all -inf input."""
    return float(logsumexp(values))


def total_variation(p, q) -> float:
    """0.5 * L1 distance between two aligned probability vectors."""
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if p.shape != q.shape:
        raise TaskDefinitionError(f"shape mismatch: {p.shape} vs {q.shape}")
    return 0.5 * float(np.abs(p - q).sum())


def entropy(p) -> float:
    """Shannon entropy in nats; 0 log 0 = 0."""
    p = np.asarray(p, dtype=np.float64)
    mask = p > 0.0
    return -float(np.sum(p[mask] * np.log(p[mask])))

