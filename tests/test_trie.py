"""Property tests of the flat trie against brute-force enumeration.

The array build is compared node for node with the sorted-prefix oracle,
and each kind of bad trajectory set with its typed error.  Random
prefix-free token sets carry random leaf log probabilities (some of
them -inf) or random edge rewards.  Conditionals and the sampler are
compared with plain-Python oracles that enumerate the sequences directly;
soft planning is compared with the softmax of summed rewards, which runs
no value recursion.  The stacked all-prompt kernels, and the posterior
rows of a task built on such a set, are compared bit for bit with their
one-row oracles.
"""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

from latentlab.errors import (
    LatentLabError,
    OutOfSpaceError,
    TrajectorySetError,
    ZeroMassEventError,
)
from latentlab.graph import JointModel
from latentlab.logspace import LOG_CLAMP
from latentlab.models import AutoregressiveView, LogitModel, TabularFeatures
from latentlab.planner import soft_value_iteration
from latentlab.tasks import (
    EventSpec,
    GenerativeTask,
    TokenSequence,
    Vocabulary,
    success_event,
)
from latentlab.trie import Trie
from latentlab.verification import (
    conditional,
    from_sequences,
    prefix_nodes,
    row_posterior,
    row_token_tables,
    row_upward,
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


LEAF = st.one_of(st.just(-math.inf), st.floats(-30.0, 5.0))


@st.composite
def stacked_rows(draw, sets=st.one_of(token_sets, level_sets)):
    """A prefix-free set and a [1-5, leaves] matrix of leaf log probs: rows
    with -inf leaves, point masses (one leaf 0, the rest -inf) and a row
    that is -inf throughout."""
    seqs = draw(sets)
    rows = []
    for _ in range(draw(st.integers(1, 5))):
        kind = draw(st.sampled_from(["random", "point", "dead"]))
        if kind == "random":
            rows.append(draw(st.lists(LEAF, min_size=len(seqs), max_size=len(seqs))))
        else:
            row = [-math.inf] * len(seqs)
            if kind == "point":
                row[draw(st.integers(0, len(seqs) - 1))] = 0.0
            rows.append(row)
    return seqs, np.array(rows)


@settings(max_examples=150, deadline=None)
@given(stacked_rows(), st.floats(0.1, 5.0), st.integers(0, 2**32 - 1))
def test_stacked_kernels_match_the_row_oracle_bit_for_bit(case, beta, seed):
    seqs, rows = case
    task = SimpleNamespace(trie=Trie(seqs))
    trie = task.trie
    views = AutoregressiveView.stacked(task, rows)
    single = [AutoregressiveView(task, row) for row in rows]
    edge = np.random.default_rng(seed).normal(0.0, 2.0, (len(rows), trie.n_nodes))
    soft = trie.upward(np.zeros(rows.shape), edge, beta)
    assert soft.shape == edge.shape
    for x, row in enumerate(rows):
        logp, cum = row_token_tables(trie, row)
        for view in (views[x], single[x]):
            assert view.logp.tobytes() == logp.tobytes()
            assert view.cum.tobytes() == cum.tobytes()
        assert views[x].logp.base is views[0].logp.base
        assert soft[x].tobytes() == row_upward(trie, np.zeros(len(seqs)), edge[x], beta).tobytes()


@st.composite
def prompt_tasks(draw):
    """A task whose latents are a prefix-free token set (each closed by the
    eos token 4), with two responses, 1-5 prompts and success
    probabilities in {0, 1/3, 1}, and a tabular model on it that is
    random, clamped to a point mass, or mixed, prompt by prompt."""
    seqs = draw(token_sets)
    latents = tuple(TokenSequence(s + (4,)) for s in seqs)
    responses = (TokenSequence((0, 4)), TokenSequence((4,)))
    n_prompts = draw(st.integers(1, 5))
    joint = len(latents) * len(responses)
    success = np.array(draw(st.lists(st.sampled_from([0.0, 1 / 3, 1.0]),
                                     min_size=n_prompts * joint, max_size=n_prompts * joint)))
    success = success.reshape(n_prompts, len(latents), len(responses))
    task = GenerativeTask(
        name="stacked", vocab=Vocabulary(size=5, eos=4),
        prompts=tuple(f"p{x}" for x in range(n_prompts)), rho=np.full(n_prompts, 1 / n_prompts),
        latents=latents, responses=responses, evaluator=lambda x, z, y: success[x, z, y],
        evaluator_kind="soft", horizon=max(map(len, latents)) + 2,
    )
    theta = np.array(draw(st.lists(st.floats(-8.0, 8.0), min_size=n_prompts * joint,
                                   max_size=n_prompts * joint)))
    for x in draw(st.sets(st.integers(0, n_prompts - 1))):
        block = np.full(joint, LOG_CLAMP)
        block[draw(st.integers(0, joint - 1))] = 0.0
        theta[x * joint:(x + 1) * joint] = block
    return task, LogitModel(TabularFeatures(task), theta)


@settings(max_examples=100, deadline=None)
@given(prompt_tasks())
def test_posterior_rows_match_the_one_row_oracle_bit_for_bit(case):
    task, model = case
    for event in (success_event(), EventSpec(obs=(0,)), EventSpec(latents=(0,))):
        jm = JointModel(model)
        for x in range(task.n_prompts):
            with np.errstate(invalid="ignore"):
                oracle = row_posterior(jm, x, event)
            if np.isnan(oracle).all():  # the event has no mass at x
                with pytest.raises(ZeroMassEventError, match=f"at prompt {x}$"):
                    jm.exact_posterior(x, event)
                continue
            row = jm.exact_posterior(x, event)
            assert row.tobytes() == oracle.tobytes()
            assert not row.flags.writeable
    for x in range(task.n_prompts):
        logp, cum = row_token_tables(task.trie, model.joint_log_probs(x))
        assert model.conditional_tables(x).logp.tobytes() == logp.tobytes()
        assert model.conditional_tables(x).cum.tobytes() == cum.tobytes()
