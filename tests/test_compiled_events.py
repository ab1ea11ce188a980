"""Property tests of compiled events against brute-force enumeration.

Random non-empty subsets of the latent, response and observation spaces of
small factory tasks are compiled once per value.  Their index arrays are
compared with a nested-loop enumeration sorted by token ids, and their
per-prompt event mass with evaluator calls, one entry at a time.  Under
random models, the posterior row, total variation and closed-form
M-step built on them are compared with the same computations in (z, y)
pair form, and the closed-form comparator of the 1/T certificate with the
argmax sets of the same evaluator calls.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from latentlab import tasks
from latentlab.errors import OutOfSpaceError, ZeroMassEventError
from latentlab.esteps import EStepSpec, tv_to_exact
from latentlab.graph import JointModel
from latentlab.logspace import LOG_CLAMP
from latentlab.models import random_model, uniform_model
from latentlab.tasks import (
    OBSERVATIONS,
    SPEC_EVENTS_SIZE,
    EventSpec,
    compile_event,
    make_automaton_trace_task,
    make_carry_addition_task,
    make_reward_tag_task,
    materialize_event,
    success_event,
)
from latentlab.training import (
    MStepSpec,
    _averaged_kl,
    mstep,
    reference_optimum,
    run_em,
)
from latentlab.verification import (
    _posterior_pairs,
    _union_tv,
    evaluator_entry,
    event_logprob,
    joint_logprob,
)

TASKS = (
    make_reward_tag_task(3, 4, seed=1),
    make_reward_tag_task(3, 4, seed=1, evaluator="soft", soft_beta=2.0),
    make_carry_addition_task(1, 3),
    make_automaton_trace_task(2, 3),
)


@st.composite
def events(draw):
    """(task, index-form event, mixed-form event, z, y, obs subsets)."""
    task = draw(st.sampled_from(TASKS))
    zs = draw(st.sets(st.integers(0, task.n_latents - 1), min_size=1))
    ys = draw(st.sets(st.integers(0, task.n_responses - 1), min_size=1))
    obs = draw(st.sets(st.sampled_from(OBSERVATIONS), min_size=1))
    z_seqs = {task.latents[i] for i in zs}
    y_seqs = {task.responses[i] for i in ys}
    as_predicate = draw(st.tuples(st.booleans(), st.booleans(), st.booleans()))
    mixed = EventSpec(
        latents=(lambda s: s in z_seqs) if as_predicate[0] else tuple(zs),
        responses=(lambda s: s in y_seqs) if as_predicate[1] else tuple(ys),
        obs=(lambda o: o in obs) if as_predicate[2] else tuple(obs),
    )
    index_form = EventSpec(latents=tuple(zs), responses=tuple(ys), obs=tuple(obs))
    return task, index_form, mixed, zs, ys, obs


@settings(max_examples=60, deadline=None)
@given(events())
def test_compiled_event_matches_brute_force(case):
    task, index_form, mixed, zs, ys, obs = case
    compiled = compile_event(task, mixed)
    assert compile_event(task, index_form) is compiled

    triples = sorted(
        ((z, y, o) for z in zs for y in ys for o in obs),
        key=lambda t: (task.latents[t[0]].ids, task.responses[t[1]].ids, t[2]),
    )
    pairs = list(dict.fromkeys((z, y) for z, y, _ in triples))
    assert compiled.obs == tuple(sorted(obs))
    assert compiled.pair_joint.tolist() == [task.zy_index(z, y) for z, y in pairs]

    in_event = {task.zy_index(z, y) for z, y in pairs}
    for x in range(task.n_prompts):
        row = compiled.mass(x)
        for z, y in pairs:
            assert row[task.zy_index(z, y)] == sum(evaluator_entry(task, x, z, y, o) for o in obs)
        assert all(row[k] == 0.0 for k in range(task.n_joint) if k not in in_event)
    assert np.array_equal(compiled.mass_all(),
                          [compiled.mass(x) for x in range(task.n_prompts)])


def test_event_cache_is_keyed_by_value():
    task = make_reward_tag_task(2, 3, seed=5)
    jm = JointModel(uniform_model(task))
    for _ in range(1000):
        event_logprob(jm, 0, success_event())
    assert len(task.compiled_events) == 1


def test_spec_lookup_skips_materialization(monkeypatch):
    task = make_reward_tag_task(2, 3, seed=5)
    calls = []

    def counted(task, event):
        calls.append(event)
        return materialize_event(task, event)

    monkeypatch.setattr(tasks, "materialize_event", counted)
    first = compile_event(task, success_event())
    assert compile_event(task, success_event()) is first
    assert len(calls) == 1
    # predicates hash by identity and lists not at all: both materialize
    for event in (EventSpec(obs=lambda o: o == 1), EventSpec(obs=[1])):
        assert compile_event(task, event) is first
        assert compile_event(task, event) is first
    assert len(calls) == 5
    for k in range(SPEC_EVENTS_SIZE + 10):
        assert compile_event(task, EventSpec(obs=(1,) * (k + 1))) is first
    assert len(task.spec_events) == SPEC_EVENTS_SIZE
    assert len(task.compiled_events) == 1


def test_compiled_events_are_bounded_and_recompile_correctly():
    task = make_carry_addition_task(1, 10)
    assert task.n_responses == 100
    first = compile_event(task, EventSpec(responses=(0,)))
    for k in range(1, 70):
        compile_event(task, EventSpec(responses=(k,)))
    assert len(task.compiled_events) <= SPEC_EVENTS_SIZE
    assert len(task.spec_events) <= SPEC_EVENTS_SIZE
    # the first event was dropped from both caches: compiling it again
    # builds its arrays afresh
    compiled = compile_event(task, EventSpec(responses=(0,)))
    assert compiled is not first
    joint = [task.zy_index(z, 0) for z in range(task.n_latents)]
    assert compiled.pair_joint.tolist() == joint
    assert np.flatnonzero(compiled.inside).tolist() == joint


def test_compiled_arrays_are_read_only():
    compiled = compile_event(TASKS[0], success_event())
    for array in (compiled.pair_joint, compiled.inside):
        with pytest.raises(ValueError):
            array[0] = array[0]


def test_mass_rows_are_rows_of_one_table():
    task = make_reward_tag_task(3, 4, seed=1)
    compiled = compile_event(task, success_event())
    table = compiled.mass_all()
    assert compiled.mass_all() is table
    with pytest.raises(ValueError):
        table[0, 0] = table[0, 0]
    for x in range(task.n_prompts):
        row = compiled.mass(x)
        assert np.shares_memory(row, table)
        assert row.tobytes() == table[x].tobytes()
    for x in (-1, task.n_prompts):
        with pytest.raises(OutOfSpaceError, match="prompt index"):
            compiled.mass(x)


@st.composite
def modelled_events(draw):
    """A random tabular model, a prompt and an event of positive mass."""
    task, _, event, *_ = draw(events())
    seed = draw(st.integers(0, 2**32 - 1))
    x = draw(st.integers(0, task.n_prompts - 1))
    jm = JointModel(random_model(task, np.random.default_rng(seed), scale=1.0))
    assume(event_logprob(jm, x, event) > -math.inf)
    return jm, x, event


@settings(max_examples=60, deadline=None)
@given(modelled_events())
def test_joint_marginal_matches_pair_oracle(case):
    jm, x, event = case
    task = jm.task
    pairs, pair_probs = _posterior_pairs(jm, x, event)
    expected = dict(zip(pairs, pair_probs))
    dense = jm.exact_posterior(x, event)
    for k in range(task.n_joint):
        assert dense[k] == pytest.approx(expected.get(task.zy_unindex(k), 0.0),
                                         rel=1e-12, abs=1e-15)
    compiled = compile_event(task, event)
    assert [task.zy_unindex(int(k)) for k in compiled.pair_joint] == pairs
    assert not dense[~compiled.inside].any()


@st.composite
def candidates(draw):
    """A modelled event plus a candidate weighting over joint indices,
    repeated indices allowed."""
    jm, x, event = draw(modelled_events())
    n = draw(st.integers(1, 12))
    support = np.array(draw(st.lists(st.integers(0, jm.task.n_joint - 1),
                                     min_size=n, max_size=n)), dtype=np.int64)
    raw = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=n, max_size=n)))
    return jm, x, event, support, raw / raw.sum()


@settings(max_examples=60, deadline=None)
@given(candidates())
def test_tv_to_exact_matches_union_tv(case):
    jm, x, event, support, probs = case
    task = jm.task
    exact_support = compile_event(task, event).pair_joint
    as_pairs = [task.zy_unindex(int(k)) for k in support]
    exact_pairs = [task.zy_unindex(int(k)) for k in exact_support]
    expected = _union_tv(as_pairs, probs, exact_pairs,
                         jm.exact_posterior(x, event)[exact_support])
    row = np.bincount(support, probs, task.n_joint)
    assert abs(tv_to_exact(jm, x, event, row) - expected) <= 1e-15


@settings(max_examples=60, deadline=None)
@given(candidates())
def test_closed_form_mstep_matches_pair_accumulation(case):
    jm, x, _, support, probs = case
    task, model = jm.task, jm.seq
    q = np.zeros(task.n_joint)
    for (z, y), p in zip((task.zy_unindex(int(k)) for k in support), probs):
        q[task.zy_index(z, y)] += p
    logits = np.full(task.n_joint, LOG_CLAMP)
    logits[q > 0.0] = np.log(q[q > 0.0])
    theta = model.theta.copy()
    off = model.features.offset(x)
    theta[off:off + task.n_joint] = logits
    target = np.zeros((task.n_prompts, task.n_joint))
    target[x] = np.bincount(support, probs, task.n_joint)
    updated = mstep(model, target, MStepSpec("closed_form"))
    assert np.array_equal(updated.theta, theta)


@settings(max_examples=60, deadline=None)
@given(events(), st.floats(0.1, 3.0), st.integers(0, 2**32 - 1), st.integers(1, 6))
def test_closed_form_comparator_certifies_one_over_t(case, scale, seed, iterations):
    task, _, event, zs, ys, obs = case
    model = random_model(task, np.random.default_rng(seed), scale=scale)
    supremum = kl_to_init = 0.0
    for x in range(task.n_prompts):
        mass = {
            task.zy_index(z, y): sum(evaluator_entry(task, x, z, y, o) for o in obs)
            for z in zs
            for y in ys
        }
        top = max(mass.values())
        if top == 0.0:
            with pytest.raises(ZeroMassEventError, match=f"prompt {x}"):
                reference_optimum(model, task, event)
            return
        p_top = sum(math.exp(joint_logprob(model, x, *task.zy_unindex(k)))
                    for k, m in mass.items() if m == top)
        supremum += task.rho[x] * math.log(top)
        kl_to_init -= task.rho[x] * math.log(p_top)

    ref = reference_optimum(model, task, event)
    objective = JointModel(ref).averaged_event_logprob(event)
    assert objective == pytest.approx(supremum, rel=0, abs=1e-12)
    ascent = model
    for _ in range(200):  # a weaker comparator: unit gradient steps
        ascent = ascent.with_theta(ascent.theta + JointModel(ascent).averaged_grad(event))
    assert objective >= JointModel(ascent).averaged_event_logprob(event) - 1e-12
    assert _averaged_kl(ref, model, task.rho) == pytest.approx(
        kl_to_init, rel=1e-12, abs=1e-12)

    _, record = run_em(model, task, event, EStepSpec("exact"), MStepSpec("closed_form"),
                       iterations=iterations, seed=seed, reference=ref)
    best_gap = min(supremum - row.objective for row in record.rows[1:])
    assert best_gap <= kl_to_init / iterations + 1e-9
    assert record.certificates["reference_gap"]["holds"]
