import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latentlab.errors import (
    CapExceededError,
    ConfigError,
    EmptyEventError,
    HorizonViolationError,
    LatentLabError,
    OutOfSpaceError,
    TaskDefinitionError,
)
from latentlab.logspace import total_variation
from latentlab.tasks import (
    OBSERVATIONS,
    EventSpec,
    GenerativeTask,
    TokenSequence,
    Vocabulary,
    compile_event,
    full_event,
    make_automaton_trace_task,
    make_carry_addition_task,
    make_reward_tag_task,
    materialize_event,
    success_event,
)
from latentlab.harness import build_task, parse_config, resolved_text
from latentlab.verification import _event_triples, evaluator_prob, factory_success


def test_carry_counts():
    task = make_carry_addition_task(1, 3)
    assert (task.n_prompts, task.n_latents, task.n_responses) == (9, 6, 9)
    assert task.n_joint == 54


def test_automaton_counts():
    task = make_automaton_trace_task(2, 3)
    assert (task.n_prompts, task.n_latents, task.n_responses) == (8, 8, 2)


@pytest.mark.parametrize("make, args, kwargs, field", [
    (make_carry_addition_task, (0, 3), {}, "digits"),
    (make_reward_tag_task, (2, 1), {}, "n_responses"),
    (make_carry_addition_task, (1, 3), {"prompt_limit": 0}, "prompt_limit"),
    (make_automaton_trace_task, (2, 2), {"prompt_limit": 0}, "prompt_limit"),
    (make_reward_tag_task, (2, 3), {"evaluator": "bogus"}, "evaluator"),
    (make_automaton_trace_task, (2, 2), {"evaluator": "soft", "soft_beta": 0.0},
     "soft_beta"),
], ids=["no-digits", "one-response", "carry-no-prompts", "automaton-no-prompts",
        "unknown-evaluator", "zero-soft-beta"])
def test_factories_raise_config_error_naming_the_field(make, args, kwargs, field):
    with pytest.raises(ConfigError, match=rf"^{field} "):
        make(*args, **kwargs)


def test_tag_counts():
    task = make_reward_tag_task(3, 4)
    assert (task.n_prompts, task.n_latents, task.n_responses) == (3, 2, 4)


def test_prompt_limit_truncates():
    task = make_carry_addition_task(1, 10, prompt_limit=4)
    assert task.n_prompts == 4
    assert task.n_joint == 2000


def test_rho_normalized(tag_task):
    assert tag_task.rho.sum() == pytest.approx(1.0, abs=1e-15)


def test_evaluator_rows_normalize(tag_task):
    # P(o = 0) + P(o = 1) is the mass row of the full event
    for task in (tag_task, make_reward_tag_task(2, 3, evaluator="soft")):
        assert np.abs(compile_event(task, full_event()).mass_all() - 1.0).max() <= 1e-12


def test_truth_is_verified(tag_task):
    for x, (z, y) in tag_task.truth.items():
        assert evaluator_prob(tag_task, x, z, y, 1) == 1.0


def test_event_enumeration_order(tag_task):
    compiled = compile_event(tag_task, full_event())
    triples = _event_triples(tag_task, full_event())
    seen = list(dict.fromkeys(tag_task.zy_index(z, y) for z, y, _ in triples))
    assert seen == compiled.pair_joint.tolist()


def test_success_event_support(tag_task):
    support = [tag_task.zy_unindex(int(k))
               for k in compile_event(tag_task, success_event()).pair_joint]
    assert all(evaluator_prob(tag_task, 0, z, y, 1) in (0.0, 1.0) for z, y in support)
    # success support holds every pair that can emit the success observation
    verified = [(z, y) for z, y in support if evaluator_prob(tag_task, 0, z, y, 1) > 0]
    assert len(verified) == tag_task.n_responses


def test_predicate_event(tag_task):
    ev = EventSpec(latents=lambda z: z.ids[0] == 1)
    z_idx, _, _ = materialize_event(tag_task, ev)
    assert all(tag_task.latents[i].ids[0] == 1 for i in z_idx)


def test_empty_event_raises(tag_task):
    with pytest.raises(EmptyEventError):
        materialize_event(tag_task, EventSpec(latents=()))


def test_out_of_space_raises(tag_task):
    with pytest.raises(OutOfSpaceError):
        materialize_event(tag_task, EventSpec(latents=(99,)))
    with pytest.raises(OutOfSpaceError):
        materialize_event(tag_task, EventSpec(obs=(7,)))
    # table reads must not wrap a negative prompt index
    for x in (-1, tag_task.n_prompts):
        with pytest.raises(OutOfSpaceError):
            evaluator_prob(tag_task, x, 0, 0, 1)
        with pytest.raises(OutOfSpaceError):
            evaluator_prob(tag_task, x, 0, 0, 0)


@pytest.mark.parametrize("event", [
    EventSpec(latents=(0.7,)),
    EventSpec(obs=(1.9,)),
    EventSpec(responses=("1",)),
    EventSpec(latents=(True,)),
], ids=["float-latent", "float-obs", "string-response", "bool-latent"])
def test_event_entries_must_be_integers(event):
    task = make_reward_tag_task(3, 5, seed=2)
    # the integer events these entries would be mistaken for, compiled first
    for same in (EventSpec(latents=(0,)), EventSpec(latents=(1,)), EventSpec(obs=(1,)),
                 EventSpec(responses=(1,))):
        compile_event(task, same)
    with pytest.raises(OutOfSpaceError, match="are not integer indices$"):
        compile_event(task, event)


def test_event_entries_accept_numpy_integers(tag_task):
    event = EventSpec(latents=(np.int64(1),), responses=tuple(np.arange(2)),
                      obs=(np.int32(1),))
    assert materialize_event(tag_task, event) == ((1,), (0, 1), (1,))
    assert compile_event(tag_task, event) is compile_event(
        tag_task, EventSpec(latents=(1,), responses=(0, 1), obs=(1,)))


def test_cap_enforced():
    with pytest.raises(CapExceededError):
        make_carry_addition_task(2, 10, cap=10_000)


def test_document_roundtrip(tag_task):
    # the task section of config.resolved is the task's serialized form
    cfg = parse_config("task: {kind: tag, n_prompts: 3, n_responses: 5, seed: 2}\n"
                       "algorithm: em\n")
    again = build_task(parse_config(resolved_text(cfg)).data["task"])
    assert again.name == tag_task.name
    assert again.truth == tag_task.truth
    assert np.array_equal(again.rho, tag_task.rho)
    assert again.success.tobytes() == tag_task.success.tobytes()


def test_seed_changes_truth():
    a = make_reward_tag_task(6, 9, seed=3)
    b = make_reward_tag_task(6, 9, seed=4)
    assert a.truth != b.truth


def test_rebuild_is_identical():
    a = make_automaton_trace_task(3, 2, seed=1)
    b = make_automaton_trace_task(3, 2, seed=1)
    assert a.prompts == b.prompts and a.truth == b.truth
    assert np.array_equal(a.success, b.success)


def test_joint_sequence_beyond_the_horizon_raises_typed_error():
    z, y = TokenSequence((0, 3)), TokenSequence((1, 3))
    with pytest.raises(HorizonViolationError, match="length 4 > horizon 3"):
        GenerativeTask(
            name="probe", vocab=Vocabulary(size=4, eos=3), prompts=("p",),
            rho=np.array([1.0]), latents=(z,), responses=(y,),
            evaluator=lambda x, zi, yi: 1.0, evaluator_kind="binary",
            horizon=3,
        )


def test_horizon_pairs_the_longest_latent_with_the_longest_response():
    # the longest latent comes last and the longest response first, so no
    # single (z, y) position pairs them
    latents = (TokenSequence((3,)), TokenSequence((0, 1, 3)))
    responses = (TokenSequence((1, 3)), TokenSequence((3,)))

    def build(horizon):
        return GenerativeTask(
            name="probe", vocab=Vocabulary(size=4, eos=3), prompts=("p",),
            rho=np.array([1.0]), latents=latents, responses=responses,
            evaluator=lambda x, zi, yi: 1.0, evaluator_kind="binary",
            horizon=horizon,
        )

    with pytest.raises(HorizonViolationError, match="length 5 > horizon 4"):
        build(4)
    task = build(5)
    assert max(map(len, task.joint_sequences)) == 5


@pytest.mark.parametrize("rho", [[np.nan, 1.0], [np.inf, 1.0], [1.5, -0.5], [0.5, 0.4]])
def test_rho_must_be_a_finite_distribution(rho):
    z, y = TokenSequence((0, 3)), TokenSequence((1, 3))
    with pytest.raises(TaskDefinitionError, match="rho must be a probability distribution"):
        GenerativeTask(
            name="probe", vocab=Vocabulary(size=4, eos=3), prompts=("p", "q"),
            rho=np.array(rho), latents=(z,), responses=(y,),
            evaluator=lambda x, zi, yi: 1.0, evaluator_kind="binary",
            horizon=4,
        )


def _probe_task(**overrides):
    z, y = TokenSequence((0, 3)), TokenSequence((1, 3))
    fields = dict(
        name="probe", vocab=Vocabulary(size=4, eos=3), prompts=("p",), rho=np.array([1.0]),
        latents=(z,), responses=(y,),
        evaluator=lambda x, zi, yi: 1.0, evaluator_kind="binary", horizon=4,
    )
    fields.update(overrides)
    return GenerativeTask(**fields)


@pytest.mark.parametrize("build, message", [
    (lambda: Vocabulary(size=2, eos=5), "eos id 5 outside vocabulary of size 2"),
    (lambda: _probe_task(latents=(TokenSequence(()),)), r"sequence length 0 outside \[1, 4\]"),
    (lambda: _probe_task(latents=(TokenSequence((0, 1)),)),
     r"sequence \(0, 1\) does not end with eos"),
    (lambda: _probe_task(latents=(TokenSequence((3, 3)),)),
     r"sequence \(3, 3\) contains eos before its final position"),
    (lambda: _probe_task(latents=(TokenSequence((9, 3)),)),
     r"sequence \(9, 3\) contains out-of-vocabulary tokens"),
    (lambda: _probe_task(rho=np.array([0.5, 0.5])), "rho must have one weight per prompt"),
    (lambda: _probe_task(rho=np.array([0.5])), "rho must be a probability distribution over prompts"),
    (lambda: _probe_task(latents=(TokenSequence((0, 3)),) * 2), "duplicate latent sequences"),
    (lambda: _probe_task(responses=(TokenSequence((1, 3)),) * 2), "duplicate response sequences"),
    (lambda: total_variation([0.5, 0.5], [1.0]), r"shape mismatch: \(2,\) vs \(1,\)"),
    (lambda: _probe_task(evaluator=lambda x, z, y: np.ones(7)).success,
     r"evaluator returned shape \(7,\), which does not broadcast to \(1, 1, 1\)"),
    (lambda: _probe_task(evaluator=lambda x, z, y: np.nan + x).success,
     "evaluator returned a non-finite success probability"),
    (lambda: _probe_task(evaluator=lambda x, z, y: 1.5 - z).success,
     r"evaluator returned a success probability outside \[0, 1\]"),
])
def test_malformed_definitions_raise_typed_errors(build, message):
    with pytest.raises(TaskDefinitionError, match=f"^{message}$") as raised:
        build()
    assert isinstance(raised.value, LatentLabError)
    assert isinstance(raised.value, ValueError)


@st.composite
def factory_tasks(draw):
    """A small factory task of any kind, binary or soft, with the soft
    arguments it was built with."""
    kind = draw(st.sampled_from(["carry", "automaton", "tag"]))
    kwargs = dict(
        seed=draw(st.integers(0, 2**16)),
        evaluator=draw(st.sampled_from(["binary", "soft"])),
        soft_beta=draw(st.floats(0.05, 5.0)),
        wrong_penalty=draw(st.floats(-10.0, 0.0)),
    )
    if kind != "tag":
        kwargs["prompt_limit"] = draw(st.none() | st.integers(1, 6))
    if kind == "carry":
        digits = draw(st.integers(1, 2))
        task = make_carry_addition_task(digits, draw(st.integers(2, 4 if digits == 1 else 2)),
                                        **kwargs)
    elif kind == "automaton":
        task = make_automaton_trace_task(draw(st.integers(2, 3)), draw(st.integers(1, 3)),
                                         **kwargs)
    else:
        task = make_reward_tag_task(draw(st.integers(1, 5)), draw(st.integers(2, 6)), **kwargs)
    return task, kwargs["soft_beta"], kwargs["wrong_penalty"]


@settings(max_examples=60, deadline=None)
@given(factory_tasks(), st.data())
def test_success_table_and_mass_rows_match_the_truth_oracle(case, data):
    task, beta, penalty = case
    oracle = np.array([
        [factory_success(task, x, z, y, beta, penalty)
         for z in range(task.n_latents) for y in range(task.n_responses)]
        for x in range(task.n_prompts)
    ])
    assert task.success.shape == (task.n_prompts, task.n_joint)
    assert task.success.tobytes() == oracle.tobytes()
    assert not task.success.flags.writeable
    zs = data.draw(st.sets(st.integers(0, task.n_latents - 1), min_size=1))
    ys = data.draw(st.sets(st.integers(0, task.n_responses - 1), min_size=1))
    inside = np.zeros((task.n_latents, task.n_responses), dtype=bool)
    inside[np.ix_(sorted(zs), sorted(ys))] = True
    inside = inside.ravel()
    expected = {(1,): oracle, (0,): 1.0 - oracle, OBSERVATIONS: (1.0 - oracle) + oracle}
    for obs, rows in expected.items():
        mass = compile_event(task, EventSpec(latents=tuple(zs), responses=tuple(ys),
                                             obs=obs)).mass_all()
        assert mass[:, inside].tobytes() == rows[:, inside].tobytes()
        assert not mass[:, ~inside].any()
