import numpy as np
import pytest

from latentlab.errors import UnnormalizedVariationalError, ZeroMassEventError
from latentlab.graph import JointModel
from latentlab.models import uniform_model
from latentlab.rng import stream
from latentlab.tasks import (
    EventSpec,
    full_event,
    make_carry_addition_task,
    success_event,
)
from latentlab.verification import (
    _event_triples,
    evaluator_prob,
    event_logprob,
    joint_logprob,
    triple_logprob,
)


@pytest.fixture(scope="module")
def jm(tag_model):
    return JointModel(tag_model)


def test_triple_prob_factorizes(jm, tag_task):
    # P(z, y, o | x) = P(z, y | x) * P(o | x, z, y)
    x, z, y = 1, 0, 2
    for o in (0, 1):
        expected = np.exp(joint_logprob(jm.seq, x, z, y)) * evaluator_prob(
            tag_task, x, z, y, o
        )
        assert np.exp(triple_logprob(jm, x, z, y, o)) == pytest.approx(expected, abs=1e-14)


def test_full_event_logprob_is_zero(jm, tag_task):
    for x in range(tag_task.n_prompts):
        assert event_logprob(jm, x, full_event()) == pytest.approx(0.0, abs=1e-10)


def test_posterior_normalizes(jm, tag_task):
    post = jm.exact_posterior(0, success_event())
    assert post.shape == (tag_task.n_joint,)
    assert post.sum() == pytest.approx(1.0, abs=1e-12)
    assert event_logprob(jm, 0, success_event()) == pytest.approx(
        np.log(sum(np.exp(triple_logprob(jm, 0, z, y, o))
                   for z, y, o in _event_triples(tag_task, success_event()))), abs=1e-12
    )


def test_posterior_matches_bayes(jm, tag_task):
    # brute-force Bayes rule over the event enumeration
    ev = success_event()
    post = jm.exact_posterior(1, ev)
    raw = np.zeros(tag_task.n_joint)
    for z, y, o in _event_triples(tag_task, ev):
        raw[tag_task.zy_index(z, y)] += np.exp(triple_logprob(jm, 1, z, y, o))
    assert np.allclose(post, raw / raw.sum(), atol=1e-12)


def test_zy_marginal_sums_obs(jm):
    # under the full event the observation sums out to the model itself
    marg = jm.exact_posterior(0, full_event())
    assert marg.shape == (jm.task.n_joint,)
    assert marg.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(marg, jm.seq.joint_probs(0), rtol=0, atol=1e-15)


def test_zero_mass_event(tag_task):
    model = uniform_model(tag_task)
    jm0 = JointModel(model)
    # observation value 1 is unreachable when no pair at all verifies; build
    # one by demanding success from latents that never match the truth tag
    wrong = 1 - tag_task.truth[0][0]
    ev = EventSpec(latents=(wrong,), responses=(tag_task.truth[0][1],), obs=(1,))
    if all(
        evaluator_prob(tag_task, 0, wrong, y, 1) == 0.0
        for y in range(tag_task.n_responses)
    ):
        with pytest.raises(ZeroMassEventError):
            jm0.exact_posterior(0, ev)


def test_elbo_tight_at_posterior(jm):
    ev = success_event()
    post = jm.exact_posterior(2, ev)
    rep = jm.elbo(2, ev, post)
    assert rep.gap == pytest.approx(0.0, abs=1e-10)
    assert rep.value <= rep.log_likelihood + 1e-10


def test_elbo_below_evidence(jm):
    ev = success_event()
    post = jm.exact_posterior(0, ev)
    rng = stream(3, "elbo-unit")
    live = post > 0
    for _ in range(50):
        q = np.zeros_like(post)
        q[live] = rng.dirichlet(np.ones(int(live.sum())))
        rep = jm.elbo(0, ev, q)
        assert rep.value <= rep.log_likelihood + 1e-10


def test_elbo_rejects_bad_q(jm):
    ev = success_event()
    n = jm.task.n_joint
    with pytest.raises(UnnormalizedVariationalError):
        jm.elbo(0, ev, np.ones(n))
    with pytest.raises(UnnormalizedVariationalError):
        jm.elbo(0, ev, np.ones(n + 1) / (n + 1))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_elbo_rejects_non_finite_q(jm, bad):
    # a nan entry makes the sum nan, which no tolerance test catches
    q = jm.exact_posterior(0, success_event()).copy()
    q[0] = bad
    with pytest.raises(UnnormalizedVariationalError):
        jm.elbo(0, success_event(), q)


def test_grad_matches_finite_differences(tag_task, tag_model):
    jm1 = JointModel(tag_model)
    ev = success_event()
    grad = jm1.averaged_grad(ev)
    rng = stream(5, "fd")
    # probe a handful of random coordinates with central differences
    for k in rng.choice(tag_model.theta.size, size=6, replace=False):
        h = 1e-6
        up = tag_model.theta.copy()
        up[k] += h
        down = tag_model.theta.copy()
        down[k] -= h
        fd = (
            JointModel(tag_model.with_theta(up)).averaged_event_logprob(ev)
            - JointModel(tag_model.with_theta(down)).averaged_event_logprob(ev)
        ) / (2 * h)
        assert grad[k] == pytest.approx(fd, abs=1e-5)


def test_averaged_is_rho_mixture(jm, tag_task):
    ev = success_event()
    direct = sum(
        tag_task.rho[x] * event_logprob(jm, x, ev) for x in range(tag_task.n_prompts)
    )
    assert jm.averaged_event_logprob(ev) == pytest.approx(float(direct), abs=1e-12)


def test_carry_posterior_concentrates_on_truth():
    # with a binary evaluator, success mass only lands on verified pairs
    task = make_carry_addition_task(1, 3)
    jm0 = JointModel(uniform_model(task))
    post = jm0.exact_posterior(0, success_event())
    assert post[task.zy_index(*task.truth[0])] > 0
    for k in np.flatnonzero(post):
        assert evaluator_prob(task, 0, *task.zy_unindex(int(k)), 1) == 1.0
