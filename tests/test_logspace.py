"""`logspace.logsumexp` against `scipy.special.logsumexp`, bit for bit,
and the row kernels against their one-row forms, bit for bit.

Every model, planner and M-step normalizer goes through the numpy version,
so records stay byte-identical only if it repeats scipy's arithmetic
exactly, including ties at the maximum and infinite or empty inputs.  The
per-prompt and all-prompt posteriors agree only because
`logsumexp_rows` and `masked_row_sums` give each row the bits of the
one-row computation.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.special import logsumexp as scipy_logsumexp

from latentlab.logspace import log_sum_exp, logsumexp, logsumexp_rows, masked_row_sums


def _bits(value) -> bytes:
    return np.float64(value).tobytes()


VALUES = st.one_of(st.just(-math.inf), st.floats(-800.0, 800.0),
                   st.sampled_from([0.0, 1.0, -2.5]))


@settings(max_examples=200, deadline=None)
@given(st.lists(VALUES, min_size=1, max_size=40))
def test_matches_scipy_bits(values):
    a = np.array(values)
    ours = logsumexp(a)
    assert isinstance(ours, np.float64)
    assert _bits(ours) == _bits(scipy_logsumexp(a))


@pytest.mark.parametrize("values", [
    [], [-math.inf] * 3, [math.inf, 1.0], [-math.inf, math.inf], [math.nan, 0.0],
    [1e308, 1e308], [-1e6, -1e6, 0.0], [[0.5, -1.0], [2.0, 2.0]],
])
def test_edge_cases_match_scipy(values):
    with np.errstate(all="ignore"):
        expected = scipy_logsumexp(np.array(values, dtype=np.float64))
    assert _bits(logsumexp(values)) == _bits(expected)
    assert _bits(log_sum_exp(values)) == _bits(expected)


@st.composite
def matrices(draw):
    """(matrix, mask): -inf entries, all -inf rows, ties at a row's maximum,
    and, half the time, a column-permuted copy, which is not C-contiguous.
    The mask selects either the same number of entries in every row or any
    number."""
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 24))
    a = draw(arrays(np.float64, (rows, cols), elements=VALUES))
    for i in draw(st.sets(st.integers(0, rows - 1), max_size=2)):
        a[i] = -math.inf
    for i, j in draw(st.lists(st.tuples(st.integers(0, rows - 1),
                                        st.integers(0, cols - 1)), max_size=4)):
        a[i, j] = a[i].max()
    if draw(st.booleans()):
        a = a[:, draw(st.permutations(range(cols)))]
        assert cols == 1 or rows == 1 or not a.flags.c_contiguous
    if draw(st.booleans()):
        k = draw(st.integers(0, cols))
        mask = np.argsort(draw(arrays(np.float64, (rows, cols), elements=st.floats(0, 1))),
                          axis=1) < k
    else:
        mask = draw(arrays(np.bool_, (rows, cols)))
    return a, mask


@settings(max_examples=200, deadline=None)
@given(matrices())
def test_row_kernels_match_their_one_row_forms_bit_for_bit(case):
    a, mask = case
    rows = logsumexp_rows(a)
    sums = masked_row_sums(a, mask)
    assert rows.shape == sums.shape == (len(a),)
    for i in range(len(a)):
        assert _bits(rows[i]) == _bits(logsumexp(a[i]))
        assert _bits(sums[i]) == _bits(a[i][mask[i]].sum())
