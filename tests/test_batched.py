"""Property tests of the all-prompt model matrices against per-prompt oracles.

A model's log probabilities are one [prompts, joint] matrix, and the
averaged objective, gradient and KL are array expressions over it.  Random
tabular and n-gram models on tag, carry and automaton tasks are compared
with the prompt-by-prompt loops kept in `verification.py`: bit for bit,
except the n-gram gradient, whose stacked adjoint adds prompts in another
order and must agree within 1e-12.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latentlab.errors import ZeroMassEventError
from latentlab.graph import JointModel
from latentlab.logspace import LOG_CLAMP
from latentlab.models import LogitModel, NgramFeatures, TabularFeatures
from latentlab.tasks import (
    EventSpec,
    make_automaton_trace_task,
    make_carry_addition_task,
    make_reward_tag_task,
    success_event,
)
from latentlab.training import _averaged_kl
from latentlab.verification import (
    _looped_grad,
    _looped_kl,
    _looped_log_probs,
    _looped_objective,
)

TASKS = (
    make_reward_tag_task(4, 5, seed=3),
    make_reward_tag_task(3, 4, seed=1, evaluator="soft", soft_beta=2.0),
    make_carry_addition_task(1, 3),
    make_automaton_trace_task(2, 3),
)


@st.composite
def models(draw):
    """(task, two models on one feature map, event, n-gram or not)."""
    task = draw(st.sampled_from(TASKS))
    ngram = draw(st.booleans())
    if ngram:
        features = NgramFeatures(
            task, draw(st.integers(1, 2)),
            positional=draw(st.booleans()), per_prompt=draw(st.booleans()),
        )
    else:
        features = TabularFeatures(task)
    seed = draw(st.integers(0, 2**32 - 1))
    scale = draw(st.sampled_from([0.1, 1.0, 4.0]))
    clamped = draw(st.sampled_from([0.0, 0.3]))
    rng = np.random.default_rng(seed)

    def model():
        # clamped weights, as a closed-form M-step writes them, give
        # outcomes of probability exactly 0
        theta = rng.normal(0.0, scale, features.dim)
        theta[rng.random(features.dim) < clamped] = LOG_CLAMP
        return LogitModel(features, theta)

    a, b = model(), model()
    zs = draw(st.sets(st.integers(0, task.n_latents - 1), min_size=1))
    ys = draw(st.sets(st.integers(0, task.n_responses - 1), min_size=1))
    obs = draw(st.sets(st.sampled_from(task.obs_values), min_size=1))
    event = draw(st.sampled_from([
        success_event(), EventSpec(latents=tuple(zs), responses=tuple(ys), obs=tuple(obs)),
    ]))
    return task, a, b, event, ngram


def _bits(value) -> bytes:
    return np.asarray(value, dtype=np.float64).tobytes()


@settings(max_examples=80, deadline=None)
@given(models())
def test_batched_averages_match_per_prompt_oracles(case):
    task, a, b, event, ngram = case
    rows = a.log_probs_all()
    assert rows.shape == (task.n_prompts, task.n_joint)
    for x in range(task.n_prompts):
        assert _bits(rows[x]) == _bits(_looped_log_probs(a, x))
    assert _bits(_averaged_kl(a, b, task.rho)) == _bits(_looped_kl(a, b, task.rho))
    jm = JointModel(a)
    assert _bits(jm.averaged_event_logprob(event)) == _bits(_looped_objective(jm, event))
    try:
        expected = _looped_grad(jm, event)
    except ZeroMassEventError:
        with pytest.raises(ZeroMassEventError):
            jm.averaged_grad(event)
        return
    got = jm.averaged_grad(event)
    if ngram:
        assert float(np.max(np.abs(got - expected))) <= 1e-12
    else:
        assert _bits(got) == _bits(expected)


def test_stacked_adjoint_matches_per_prompt_adjoints():
    task = make_automaton_trace_task(3, 3)
    rng = np.random.default_rng(7)
    for per_prompt in (True, False):
        features = NgramFeatures(task, 2, per_prompt=per_prompt)
        weights = rng.normal(size=(task.n_prompts, task.n_joint))
        looped = sum(features.adjoint(x, weights[x]) for x in range(task.n_prompts))
        assert np.max(np.abs(features.adjoint_all(weights) - looped)) <= 1e-12
        theta = rng.normal(size=features.dim)
        logits = features.logits_all(theta)
        for x in range(task.n_prompts):
            assert _bits(logits[x]) == _bits(features.logits(x, theta))
