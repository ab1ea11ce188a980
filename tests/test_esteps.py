import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latentlab import EStepResultError, LatentLabError
from latentlab.errors import ConfigError
from latentlab.esteps import (
    BACKENDS,
    CONVERGED_GAP,
    EStepResult,
    EStepSpec,
    PolicyGradConfig,
    estep_exact,
    estep_planning,
    estep_policy_gradient,
    estep_rejection,
    run_estep,
    tv_to_exact,
)
from latentlab.graph import JointModel
from latentlab.models import LogitModel, NgramFeatures, TabularFeatures, uniform_model
from latentlab.rng import stream
from latentlab.tasks import (
    full_event,
    make_automaton_trace_task,
    make_reward_tag_task,
    success_event,
)


@pytest.fixture(scope="module")
def jm(tag_model):
    return JointModel(tag_model)


def test_exact_has_zero_tv(jm, tag_task):
    for x in range(tag_task.n_prompts):
        res = estep_exact(jm, x, success_event())
        assert res.backend == "exact"
        assert res.tv_error == 0.0
        assert res.probs.sum() == pytest.approx(1.0, abs=1e-12)


def test_planning_matches_exact(jm, tag_task):
    for x in range(tag_task.n_prompts):
        res = estep_planning(jm, x, success_event())
        assert res.tv_error is not None and res.tv_error < 1e-9


def test_rejection_converges(jm):
    res = estep_rejection(jm, 0, success_event(), budget=6000, rng=stream(8, "rej"))
    assert res.tv_error is not None and res.tv_error < 0.05
    assert 0 < res.acceptance_rate <= 1.0
    assert res.samples_used == 6000


def test_rejection_zero_budget_rejected(jm):
    with pytest.raises(ConfigError):
        estep_rejection(jm, 0, success_event(), budget=0, rng=stream(0, "z"))


@pytest.mark.parametrize("engine, kwargs", [
    (estep_planning, {"beta": -1}),
    (estep_planning, {"beta": 0.0}),
    (estep_planning, {"beta": float("nan")}),
    (estep_planning, {"beta": True}),
    (estep_rejection, {"budget": 2.5}),
    (estep_rejection, {"budget": True}),
    (estep_rejection, {"budget": "10"}),
], ids=["beta-negative", "beta-zero", "beta-nan", "beta-bool",
        "budget-fractional", "budget-bool", "budget-string"])
def test_bad_engine_arguments_raise_config_error(jm, engine, kwargs):
    if engine is estep_rejection:
        kwargs = {**kwargs, "rng": stream(0, "bad-args")}
    with pytest.raises(ConfigError):
        engine(jm, 0, success_event(), **kwargs)


def test_rejection_zero_acceptance(jm):
    # one draw at budget 1 essentially never lands in the event for this model
    rng = stream(13, "tiny")
    hits = 0
    for _ in range(40):
        res = estep_rejection(jm, 0, success_event(), budget=1, rng=rng)
        if res.empty:
            hits += 1
            assert res.support.size == 0 and len(res.probs) == 0
    assert hits > 0


def test_soft_rejection_is_importance_weighted():
    soft = make_reward_tag_task(3, 5, seed=2, evaluator="soft")
    jms = JointModel(uniform_model(soft))
    res = estep_rejection(jms, 0, success_event(), budget=500, rng=stream(1, "iw"))
    assert "importance_weighted" in res.flags


def test_policy_gradient_exact_mode(jm):
    cfg = PolicyGradConfig(iterations=60, batch_size=0, step_size=0.5)
    res = estep_policy_gradient(jm, 0, success_event(), cfg, rng=stream(0, "pg"))
    assert res.tv_error is not None and res.tv_error < 1e-3


def test_tv_helper_agrees_with_direct(jm, tag_task):
    res = estep_planning(jm, 1, success_event())
    tv = tv_to_exact(jm, 1, success_event(), res.support, res.probs)
    assert tv == pytest.approx(res.tv_error, abs=1e-12)


def test_run_estep_dispatch(jm):
    for backend in BACKENDS:
        params = {}
        if backend == "rejection":
            params = {"budget": 300}
        if backend == "policy_gradient":
            params = {"iterations": 5, "batch_size": 0}
        res = run_estep(
            jm, 0, success_event(), EStepSpec(backend, params), rng=stream(3, "d")
        )
        assert res.backend == backend
        assert res.wall_time_s >= 0.0


def test_run_estep_unknown_backend(jm):
    with pytest.raises(ConfigError):
        run_estep(jm, 0, success_event(), EStepSpec("oracle", {}))


def test_rejection_needs_rng(jm):
    with pytest.raises(ConfigError):
        run_estep(jm, 0, success_event(), EStepSpec("rejection", {"budget": 10}))


@pytest.mark.parametrize("support, probs, flags", [
    ([0, 1], [0.2, 0.2], ()),
    ([0, 1], [1.0], ()),
    ([3], [1.0], ("zero_acceptance",)),
])
def test_malformed_result_raises_typed_error(support, probs, flags):
    with pytest.raises(EStepResultError) as info:
        EStepResult(backend="exact", support=np.array(support), probs=probs, flags=flags)
    assert isinstance(info.value, LatentLabError)
    assert isinstance(info.value, ValueError)


PG_TASKS = (
    make_reward_tag_task(3, 4, seed=1),
    make_reward_tag_task(3, 4, seed=2, evaluator="soft", soft_beta=2.0),
    make_automaton_trace_task(2, 3),
)


@settings(max_examples=40, deadline=None)
@given(task=st.sampled_from(PG_TASKS), ngram=st.booleans(),
       event=st.sampled_from((success_event(), full_event())),
       beta=st.sampled_from((0.5, 1.0, 2.0)), seed=st.integers(0, 2**32 - 1),
       data=st.data())
def test_exact_policy_gradient_ascent_properties(task, ngram, event, beta, seed, data):
    features = NgramFeatures(task, n=2) if ngram else TabularFeatures(task)
    model = LogitModel(features, np.random.default_rng(seed).normal(0.0, 0.8, features.dim))
    jm = JointModel(model)
    x = data.draw(st.integers(0, task.n_prompts - 1))
    cap = 8
    previous = -np.inf
    for k in range(cap + 1):
        res = estep_policy_gradient(jm, x, event, PolicyGradConfig(iterations=k, beta=beta),
                                    compare_exact=False)
        extras = res.extras
        # a run of k iterations is the first k iterations of a longer one
        assert extras["final_objective"] >= previous
        previous = extras["final_objective"]
        assert extras["gap"] == extras["soft_value"] - extras["final_objective"]
        assert extras["gap"] >= -1e-9
        assert extras["iterations_run"] <= k
        reason = extras["stop_reason"]
        assert reason in ("converged", "stalled", "cap")
        if reason == "converged":
            assert extras["gap"] <= CONVERGED_GAP * max(1.0, abs(extras["soft_value"]))
        if reason == "cap":
            assert extras["iterations_run"] == k
        if k == 0:
            warm = model.joint_probs(x)
            assert np.array_equal(res.probs, warm / warm.sum())
