import math

import numpy as np
import pytest

from latentlab.errors import ClampLeakError, ConfigError, HorizonViolationError
from latentlab.graph import JointModel
from latentlab.models import uniform_model
from latentlab.planner import plan_posterior, shape_rewards, soft_value_iteration
from latentlab.rng import stream
from latentlab.tasks import make_reward_tag_task, success_event
from latentlab.verification import (
    _negated_bonus_rewards,
    children,
    from_sequences,
    random_policy,
    random_shaped_mdp,
    regularized_return,
    softmax_total_rewards,
    trajectory_distribution,
)


@pytest.fixture(scope="module")
def mdp():
    return random_shaped_mdp(stream(1, "mdp"), horizon=4, n_actions=3, beta=1.0)


def test_policy_rows_normalize(mdp):
    plan = soft_value_iteration(mdp)
    for node in mdp.trie.internal:
        logp = plan.log_policy[children(mdp.trie, node)]
        assert np.exp(logp).sum() == pytest.approx(1.0, abs=1e-12)


def test_trajectory_matches_reward_softmax(mdp):
    plan = soft_value_iteration(mdp)
    suff_a, p_a = trajectory_distribution(plan)
    suff_b, p_b = softmax_total_rewards(mdp)
    assert suff_a == suff_b
    assert np.abs(p_a - p_b).max() < 1e-12


def test_trajectory_matches_from_interior(mdp):
    plan = soft_value_iteration(mdp)
    start = mdp.trie.prefixes[1]
    suff_a, p_a = trajectory_distribution(plan, start)
    suff_b, p_b = softmax_total_rewards(mdp, start)
    assert suff_a == suff_b
    assert np.abs(p_a - p_b).max() < 1e-12


def test_soft_policy_maximizes_regularized_return(mdp):
    plan = soft_value_iteration(mdp)
    best = regularized_return(mdp, plan.log_policy)
    assert best == pytest.approx(plan.root_value(), abs=1e-10)
    rng = stream(2, "pol")
    for _ in range(20):
        other = regularized_return(mdp, random_policy(mdp, rng))
        assert other <= best + 1e-10


def test_beta_limits():
    rng = stream(4, "beta")
    cold = random_shaped_mdp(rng, horizon=3, n_actions=3, beta=1e-3)
    _, p = trajectory_distribution(soft_value_iteration(cold))
    # near-zero temperature puts almost all mass on the argmax trajectory
    assert p.max() > 0.999
    hot = random_shaped_mdp(stream(4, "beta2"), horizon=3, n_actions=3, beta=1e4)
    _, p_hot = trajectory_distribution(soft_value_iteration(hot))
    assert np.abs(p_hot - 1.0 / len(p_hot)).max() < 1e-3


def test_degenerate_tree_sizes():
    one = random_shaped_mdp(stream(0, "d"), horizon=1, n_actions=1, beta=1.0)
    plan = soft_value_iteration(one)
    suff, p = trajectory_distribution(plan)
    assert suff == [(0,)]
    assert p[0] == pytest.approx(1.0, abs=1e-15)


def test_shaped_mdp_follows_posterior(tag_model, tag_task):
    jm = JointModel(tag_model)
    ev = success_event()
    mdp1 = shape_rewards(jm, 0, ev, beta=1.0)
    pairs, probs = plan_posterior(soft_value_iteration(mdp1), tag_task, 0, ev)
    ref = jm.exact_posterior(0, ev)
    for pair, p in zip(pairs, probs):
        assert p == pytest.approx(ref[pair], abs=1e-9)


def test_shaping_terminal_fault_breaks_match():
    # the deliberate sign fault must visibly corrupt the distribution on a
    # soft-evaluator instance, where terminal bonuses vary across pairs
    soft = make_reward_tag_task(3, 5, seed=2, evaluator="soft")
    model = JointModel(uniform_model(soft))
    ev = success_event()
    good = shape_rewards(model, 0, ev, beta=1.0)
    bad = _negated_bonus_rewards(model, 0, ev, beta=1.0)
    _, p_good = plan_posterior(soft_value_iteration(good), soft, 0, ev)
    _, p_bad = plan_posterior(soft_value_iteration(bad), soft, 0, ev)
    assert 0.5 * np.abs(p_good - p_bad).sum() > 1e-3


def test_clamp_leak_raises_typed_error():
    # on a binary task the flipped bonus moves all mass onto clamped pairs
    binary = make_reward_tag_task(3, 5, seed=2)
    jm = JointModel(uniform_model(binary))
    ev = success_event()
    bad = _negated_bonus_rewards(jm, 0, ev)
    with pytest.raises(ClampLeakError):
        plan_posterior(soft_value_iteration(bad), binary, 0, ev)


def test_rejects_bad_tree_args():
    with pytest.raises(ValueError):
        random_shaped_mdp(stream(0, "x"), horizon=0, n_actions=2, beta=1.0)
    with pytest.raises(KeyError):
        plan = soft_value_iteration(
            random_shaped_mdp(stream(0, "y"), horizon=2, n_actions=2, beta=1.0)
        )
        trajectory_distribution(plan, (9, 9, 9))

    def zero(prefix, action):
        return 0.0

    with pytest.raises(HorizonViolationError):
        from_sequences([(0, 1), (1,)], zero, beta=1.0, horizon=1)
    for bad in ([(0,), (0,)], [(0,), (0, 1)], [(), (1,)], []):
        with pytest.raises(ValueError):
            from_sequences(bad, zero, beta=1.0)


@pytest.mark.parametrize("beta", [math.nan, math.inf, 0.0, -1.0])
def test_shaped_mdp_refuses_a_bad_beta(beta):
    # nan and inf would otherwise plan a nan root value or nan log-policy
    with pytest.raises(ConfigError, match="beta must be positive and finite"):
        from_sequences([(0,), (1, 0), (1, 1)], lambda prefix, action: 0.5, beta=beta)
