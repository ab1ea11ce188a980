"""Property tests of the flat trie against brute-force enumeration.

The array build is compared node for node with the sorted-prefix oracle,
and each kind of bad trajectory set with its typed error.  Random
prefix-free token sets carry random leaf log probabilities (some of
them -inf) or random edge rewards.  Conditionals and the sampler are
compared with plain-Python oracles that enumerate the sequences directly;
soft planning is compared with the softmax of summed rewards, which runs
no value recursion.
"""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

from latentlab.errors import LatentLabError, OutOfSpaceError, TrajectorySetError
from latentlab.models import AutoregressiveView
from latentlab.planner import soft_value_iteration
from latentlab.trie import Trie
from latentlab.verification import (
    conditional,
    from_sequences,
    prefix_nodes,
    softmax_total_rewards,
    sorted_prefix_trie,
    trajectory_distribution,
)

EXAMPLES = settings(max_examples=60, deadline=None)


def _drop_prefixes(seqs):
    """Keep the sequences that are not a proper prefix of another."""
    return [s for s in seqs if not any(len(t) > len(s) and t[: len(s)] == s for t in seqs)]


token_sets = (
    st.sets(st.lists(st.integers(0, 3), min_size=1, max_size=4).map(tuple),
            min_size=1, max_size=12)
    .map(lambda s: _drop_prefixes(sorted(s)))
    .flatmap(st.permutations)
)

# every sequence of one length, so every leaf sits at the same depth
level_sets = st.integers(1, 4).flatmap(
    lambda d: st.sets(st.lists(st.integers(0, 3), min_size=d, max_size=d).map(tuple),
                      min_size=1, max_size=12)
).map(sorted).flatmap(st.permutations)


@st.composite
def weighted_sets(draw, sets=token_sets):
    """A prefix-free set in random order with normalized leaf log probs."""
    seqs = draw(sets)
    raw = draw(st.lists(st.one_of(st.just(-math.inf), st.floats(-30.0, 5.0)),
                        min_size=len(seqs), max_size=len(seqs))
               .filter(lambda v: max(v) > -math.inf))
    raw = np.array(raw)
    return seqs, raw - logsumexp(raw)


def _view(seqs, log_probs):
    # the two things a view reads from its task: the trie and joint index -> pair
    task = SimpleNamespace(trie=Trie(seqs), zy_unindex=lambda k: (k, 0),
                           zy_index=lambda z, y: z)
    return AutoregressiveView(task, log_probs)


def _below(seqs, prefix):
    return [k for k, s in enumerate(seqs) if s[: len(prefix)] == prefix]


def _oracle_sample(seqs, log_probs, rng):
    """Inverse CDF over each node's children in token order, one draw per
    node; a draw past the last running sum takes the last live child."""
    prefix = ()
    while prefix not in seqs:
        acts = sorted({seqs[k][len(prefix)] for k in _below(seqs, prefix)})
        with np.errstate(divide="ignore"):
            mass = np.array([logsumexp(log_probs[_below(seqs, prefix + (a,))])
                             for a in acts])
            probs = np.exp(mass - logsumexp(mass))
        j = int(np.searchsorted(np.cumsum(probs), rng.random(), side="right"))
        if j == len(acts):
            j = int(np.flatnonzero(probs > 0.0)[-1])
        prefix += (acts[j],)
    return seqs.index(prefix)


@settings(max_examples=200, deadline=None)
@given(st.one_of(token_sets, level_sets))
def test_array_build_matches_the_sorted_prefix_oracle(seqs):
    trie, oracle = Trie(seqs), sorted_prefix_trie(seqs)
    for name in ("parent", "token", "leaf_node", "level_start", "child_lo", "child_hi"):
        got = getattr(trie, name)
        assert got.dtype == np.int64, name
        assert got.tolist() == oracle[name], name
    assert trie.prefixes == oracle["prefixes"]
    assert trie.depth.tolist() == [len(p) for p in oracle["prefixes"]]
    assert trie.node_seq[trie.leaf_node].tolist() == list(range(len(seqs)))


@pytest.mark.parametrize("seqs, message", [
    ([], "empty trajectory set or empty trajectory"),
    ([(0, 1), ()], "empty trajectory set or empty trajectory"),
    ([(0, 1), (2,), (0, 1)], "duplicate trajectories"),
    ([(2, 0), (0,), (0, 1)],
     r"trajectory \(0,\) is a prefix of another; set is not prefix-free"),
])
def test_bad_trajectory_sets_raise_typed_errors(seqs, message):
    with pytest.raises(TrajectorySetError, match=f"^{message}$") as raised:
        Trie(seqs)
    assert isinstance(raised.value, LatentLabError)
    assert isinstance(raised.value, ValueError)


def test_prefix_error_names_the_first_prefix_in_input_order():
    with pytest.raises(TrajectorySetError, match=r"trajectory \(1,\) is a prefix"):
        Trie([(1, 2), (1,), (0,), (0, 3)])


def test_level_slots_are_cut_to_each_level():
    trie = Trie([(0, 0, 5), (0, 1, 5), (1, 0, 5), (2, 2, 5)])
    assert [slots.shape for slots in trie.level_slots] == [(1, 3), (3, 2), (4, 1)]
    # node 2's children: one, then a -1 pad to the level's width of 2
    assert trie.level_slots[1].tolist() == [[4, 5], [6, -1], [7, -1]]


@EXAMPLES
@given(weighted_sets())
def test_conditionals_chain_to_leaf_log_probs(case):
    seqs, log_probs = case
    view = _view(seqs, log_probs)
    index = prefix_nodes(view.trie)
    for k, seq in enumerate(seqs):
        chain = sum(view.logp[index[seq[: j + 1]]] for j in range(len(seq)))
        if log_probs[k] == -math.inf:
            assert chain == -math.inf
        else:
            assert abs(chain - log_probs[k]) <= 1e-10


@EXAMPLES
@given(weighted_sets())
def test_positive_mass_conditionals_normalize(case):
    seqs, log_probs = case
    view = _view(seqs, log_probs)
    for prefix in view.prefixes():
        live = any(log_probs[k] > -math.inf for k in _below(seqs, prefix))
        if not live:
            with pytest.raises(OutOfSpaceError):
                conditional(view, prefix)
            continue
        _, logp = conditional(view, prefix)
        assert abs(float(np.exp(logp).sum()) - 1.0) <= 1e-10


@EXAMPLES
@given(token_sets, st.floats(0.1, 10.0), st.integers(0, 2**32 - 1))
def test_trajectory_distribution_is_reward_softmax(seqs, beta, seed):
    rng = np.random.default_rng(seed)
    mdp = from_sequences(seqs, lambda p, a: rng.normal(0.0, 2.0), beta)
    plan = soft_value_iteration(mdp)
    for start in {(), seqs[0][:1]}:
        got_seq, got = trajectory_distribution(plan, start)
        ref_seq, ref = softmax_total_rewards(mdp, start)
        assert got_seq == ref_seq
        assert float(np.abs(got - ref).max()) <= 1e-9


@EXAMPLES
@given(weighted_sets(), st.integers(0, 2**32 - 1))
def test_sampler_matches_inverse_cdf_oracle(case, seed):
    seqs, log_probs = case
    view = _view(seqs, log_probs)
    rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(20):
        k, _ = view.sample(rng)
        assert k == _oracle_sample(seqs, log_probs, oracle_rng)
    assert log_probs[view.greedy()[0]] > -math.inf


@EXAMPLES
@given(st.one_of(weighted_sets(), weighted_sets(level_sets)), st.integers(0, 2**32 - 1))
def test_draws_are_successive_samples(case, seed):
    seqs, log_probs = case
    view = _view(seqs, log_probs)
    rng, sample_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    drawn = view.draws(rng, 50)
    assert drawn.dtype == np.int64
    assert drawn.tolist() == [view.sample(sample_rng)[0] for _ in range(50)]
    assert rng.bit_generator.state == sample_rng.bit_generator.state


def test_draw_past_last_running_sum_takes_last_live_child():
    # cum at the root is [1.0, 1.0]; a draw of 1.0 overshoots it and must not
    # land on the zero-mass second child
    view = _view([(0,), (1,)], np.array([0.0, -math.inf]))
    assert view.sample(SimpleNamespace(random=lambda: 1.0)) == (0, 0)


def test_draws_break_ties_and_overshoots_like_sample():
    # running sums at the root are [0.5, 1.0, 1.0]: a draw equal to the first
    # goes to the second child, and a draw past the last takes the last live one
    view = _view([(0,), (1,), (2,)], np.array([math.log(0.5), math.log(0.5), -math.inf]))
    for u in (view.cum[1], 1.0):
        fixed = SimpleNamespace(random=lambda shape=None: u if shape is None else np.full(shape, u))
        assert view.draws(fixed, 2).tolist() == [view.sample(fixed)[0]] * 2 == [1, 1]
