import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latentlab import EStepResultError, LatentLabError, esteps
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
from latentlab.models import (
    LogitModel,
    NgramFeatures,
    TabularFeatures,
    random_model,
    uniform_model,
)
from latentlab.rng import stream
from latentlab.tasks import (
    compile_event,
    full_event,
    make_automaton_trace_task,
    make_reward_tag_task,
    success_event,
)
from latentlab.verification import instance_by_name


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
            assert res.probs.shape == (jm.task.n_joint,) and not res.probs.any()
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
    tv = tv_to_exact(jm, 1, success_event(), res.probs)
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


@pytest.mark.parametrize("backend, params, field", [
    ("oracle", {}, "backend"),
    ("planning", {"betta": 2}, "params.betta"),
    ("policy_gradient", {"bogus": 1}, "params.bogus"),
    ("exact", {"beta": 1.0}, "params.beta"),
    ("rejection", {}, "params.budget"),
    ("exact", None, "params"),
    ("planning", {"beta": -1}, "params.beta"),
    ("planning", {"beta": "fast"}, "params.beta"),
    ("rejection", {"budget": 2.5}, "params.budget"),
    ("rejection", {"budget": 0}, "params.budget"),
    ("policy_gradient", {"iterations": -1}, "params.iterations"),
    ("policy_gradient", {"batch_size": True}, "params.batch_size"),
    ("planning", {"beta": float("inf")}, "params.beta"),
], ids=["unknown-backend", "planning-typo", "pg-unknown", "exact-takes-none",
        "budget-missing", "params-not-a-mapping", "beta-negative", "beta-string",
        "budget-fractional", "budget-zero", "iterations-negative", "batch-size-bool",
        "beta-infinite"])
def test_spec_checks_backend_and_params_when_built(backend, params, field):
    with pytest.raises(ConfigError, match=rf"^{re.escape(field)} "):
        EStepSpec(backend, params)


def test_spec_holds_its_policy_gradient_config_read_only():
    params = {"iterations": 5, "step_size": 0.1}
    spec = EStepSpec("policy_gradient", params)
    assert spec.pg == PolicyGradConfig(iterations=5, step_size=0.1)
    assert EStepSpec("planning", {"beta": 2}).pg is None
    # what was checked is what runs: the spec keeps its own read-only copy
    params["iterations"] = -1
    assert spec.params["iterations"] == 5
    with pytest.raises(TypeError):
        spec.params["iterations"] = 1
    with pytest.raises(dataclasses.FrozenInstanceError):
        spec.backend = "exact"


# one spec per engine, and the same engine called directly
ENGINES = {
    "exact": (EStepSpec("exact"), lambda jm, x, ev, rng: estep_exact(jm, x, ev)),
    "planning": (EStepSpec("planning"), lambda jm, x, ev, rng: estep_planning(jm, x, ev)),
    "rejection": (EStepSpec("rejection", {"budget": 300}),
                  lambda jm, x, ev, rng: estep_rejection(jm, x, ev, 300, rng)),
    "policy_gradient": (
        EStepSpec("policy_gradient", {"iterations": 20}),
        lambda jm, x, ev, rng: estep_policy_gradient(
            jm, x, ev, PolicyGradConfig(iterations=20), rng)),
}


@pytest.mark.parametrize("name", ["tag-4-5", "automaton-2-3"])
@pytest.mark.parametrize("backend", BACKENDS)
def test_every_engine_returns_its_prompts_row(name, backend):
    inst = instance_by_name(name)
    task, event = inst.task, inst.events[0]
    jm = JointModel(random_model(task, stream(5, "rows", name), scale=0.8))
    inside = compile_event(task, event).inside
    spec, direct = ENGINES[backend]
    for x in range(task.n_prompts):
        row = run_estep(jm, x, event, spec, stream(5, "rows", x)).probs
        assert row.shape == (task.n_joint,)
        assert np.array_equal(direct(jm, x, event, stream(5, "rows", x)).probs, row)
        assert (row >= 0.0).all()
        assert row.sum() == pytest.approx(1.0, abs=1e-12)
        if backend != "policy_gradient":  # its shaped rewards leave a sliver outside
            assert not row[~inside].any()


def test_run_estep_rejects_a_row_of_the_wrong_length(jm, monkeypatch):
    short = EStepResult(backend="exact", probs=np.full(4, 0.25))
    monkeypatch.setattr(esteps, "estep_exact", lambda *args: short)
    with pytest.raises(EStepResultError, match="joint outcomes"):
        run_estep(jm, 0, success_event(), EStepSpec("exact"))


def test_rejection_needs_rng(jm):
    with pytest.raises(ConfigError):
        run_estep(jm, 0, success_event(), EStepSpec("rejection", {"budget": 10}))


@pytest.mark.parametrize("probs, flags", [
    ([0.2, 0.2, 0.0], ()),
    ([[0.5, 0.5]], ()),
    ([1.0], ("zero_acceptance",)),
    ([1.5, -0.5, 0.0], ()),
    ([np.nan, 1.0], ()),
    ([np.inf, 0.0], ("zero_acceptance",)),
], ids=["sum-0.4", "two-dimensional", "zero-acceptance-with-mass", "negative",
        "nan", "infinite"])
def test_malformed_result_raises_typed_error(probs, flags):
    with pytest.raises(EStepResultError) as info:
        EStepResult(backend="exact", probs=probs, flags=flags)
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
