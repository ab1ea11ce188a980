"""Property tests of compiled events against brute-force enumeration.

Random non-empty subsets of the latent, response and observation spaces of
small factory tasks are compiled once per value.  Their triples, pairs and
index arrays are compared with a nested-loop enumeration sorted by token
ids, and their per-prompt event mass with direct evaluator calls.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from latentlab.graph import JointModel
from latentlab.models import uniform_model
from latentlab.tasks import (
    EventSpec,
    compile_event,
    make_automaton_trace_task,
    make_carry_addition_task,
    make_reward_tag_task,
    success_event,
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
    obs = draw(st.sets(st.sampled_from(task.obs_values), min_size=1))
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
    assert list(compiled.triples) == triples
    assert list(compiled.pairs) == pairs
    assert compiled.triple_joint.tolist() == [task.zy_index(z, y) for z, y, _ in triples]
    assert compiled.triple_obs.tolist() == [task.obs_values.index(o) for *_, o in triples]
    assert compiled.pair_joint.tolist() == [task.zy_index(z, y) for z, y in pairs]

    in_event = {task.zy_index(z, y) for z, y in pairs}
    for x in range(task.n_prompts):
        row = compiled.mass(x)
        for z, y in pairs:
            assert row[task.zy_index(z, y)] == sum(task.evaluator(x, z, y, o) for o in obs)
        assert all(row[k] == 0.0 for k in range(task.n_joint) if k not in in_event)
        assert compiled.triple_probs(x).tolist() == [
            task.evaluator(x, z, y, o) for z, y, o in triples
        ]


def test_event_cache_is_keyed_by_value():
    task = make_reward_tag_task(2, 3, seed=5)
    jm = JointModel(uniform_model(task))
    for _ in range(1000):
        jm.event_logprob(0, success_event())
    assert len(task.compiled_events) == 1
