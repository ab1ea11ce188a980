"""`logspace.logsumexp` against `scipy.special.logsumexp`, bit for bit.

Every model, planner and M-step normalizer goes through the numpy version,
so records stay byte-identical only if it repeats scipy's arithmetic
exactly, including ties at the maximum and infinite or empty inputs.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp as scipy_logsumexp

from latentlab.logspace import log_sum_exp, logsumexp


def _bits(value) -> bytes:
    return np.float64(value).tobytes()


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(st.just(-math.inf), st.floats(-800.0, 800.0),
                          st.sampled_from([0.0, 1.0, -2.5])),
                min_size=1, max_size=40))
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
