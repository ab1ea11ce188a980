import numpy as np
import pytest

from latentlab.errors import (
    CapExceededError,
    ConfigError,
    EmptyEventError,
    HorizonViolationError,
    OutOfSpaceError,
)
from latentlab.tasks import (
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
from latentlab.verification import evaluator_normalization_gap, evaluator_prob


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
    assert evaluator_normalization_gap(tag_task) <= 1e-12
    soft = make_reward_tag_task(2, 3, evaluator="soft")
    assert evaluator_normalization_gap(soft) <= 1e-12


def test_truth_is_verified(tag_task):
    for x, (z, y) in tag_task.truth.items():
        assert evaluator_prob(tag_task, x, z, y, 1) == 1.0


def test_event_enumeration_order(tag_task):
    compiled = compile_event(tag_task, full_event())
    seen = list(dict.fromkeys(compiled.triple_joint.tolist()))
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
    for x in range(tag_task.n_prompts):
        for z in range(tag_task.n_latents):
            for y in range(tag_task.n_responses):
                for o in tag_task.obs_values:
                    assert again.evaluator(x, z, y, o) == tag_task.evaluator(x, z, y, o)


def test_seed_changes_truth():
    a = make_reward_tag_task(6, 9, seed=3)
    b = make_reward_tag_task(6, 9, seed=4)
    assert a.truth != b.truth


def test_rebuild_is_identical():
    a = make_automaton_trace_task(3, 2, seed=1)
    b = make_automaton_trace_task(3, 2, seed=1)
    assert a.prompts == b.prompts and a.truth == b.truth
    assert np.array_equal(a.obs_probs, b.obs_probs)


def test_joint_sequence_beyond_the_horizon_raises_typed_error():
    z, y = TokenSequence((0, 3)), TokenSequence((1, 3))
    with pytest.raises(HorizonViolationError, match="length 4 > horizon 3"):
        GenerativeTask(
            name="probe", vocab=Vocabulary(size=4, eos=3), prompts=("p",),
            rho=np.array([1.0]), latents=(z,), responses=(y,), obs_values=(0, 1),
            evaluator=lambda x, zi, yi, o: float(o == 1), evaluator_kind="binary",
            horizon=3,
        )
