import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latentlab import graph, training
from latentlab.errors import (
    CertificateError,
    ConfigError,
    FeatureMapMismatchError,
    OutOfSpaceError,
    TaskMismatchError,
    UnnormalizedVariationalError,
    UnseenTagError,
    ZeroMassEventError,
)
from latentlab.esteps import EStepSpec, PolicyGradConfig, run_estep
from latentlab.graph import JointModel
from latentlab.logspace import LOG_CLAMP
from latentlab.models import NgramFeatures, random_model, uniform_model
from latentlab.rng import stream
from latentlab.tasks import (
    EventSpec,
    compile_event,
    make_automaton_trace_task,
    make_carry_addition_task,
    make_reward_tag_task,
    success_event,
)
from latentlab.training import (
    MStepSpec,
    PreferencePair,
    RunRecord,
    RunRow,
    _default_acc,
    build_tagged_corpus,
    conditional_decode,
    conditional_sft_update,
    dpo_fit,
    em_iterate,
    filter_sft_update,
    latent_dpo_loss_and_grad,
    mstep,
    record_from_tsv,
    reference_optimum,
    restem_update,
    run_cond_sft,
    run_em,
    run_filter_sft,
    run_pref_loop,
    run_restem,
)
from latentlab.verification import (
    evaluator_entry,
    evaluator_prob,
    preference_loss_by_prompt,
    success_weights,
    truth_one_hot,
)

EXACT = EStepSpec("exact")
CLOSED = MStepSpec("closed_form")


def _em(model, task, iterations, seed=0):
    return run_em(
        model,
        task,
        success_event(),
        EXACT,
        CLOSED,
        iterations=iterations,
        seed=seed,
    )


def test_em_objective_monotone(tag_task, tag_model):
    _, record = _em(tag_model, tag_task, iterations=8)
    objs = [row.objective for row in record.rows]
    assert all(b >= a - 1e-12 for a, b in zip(objs, objs[1:]))
    assert record.certificates["telescoping"]["holds"]


@pytest.mark.parametrize("evaluator", ["binary", "soft"])
def test_reference_gap_bounds_the_updated_iterate_at_one_iteration(evaluator):
    # at T = 1 the 1/T bound covers theta_1; the initial model's gap to a
    # weak (5-step) reference exceeds the budget and must not be the one
    # certified
    event = success_event()
    for seed in range(6):
        task = make_reward_tag_task(3, 4, seed=seed, evaluator=evaluator)
        model = random_model(task, np.random.default_rng(seed), scale=0.5)
        ref = model
        for _ in range(5):  # a weak comparator: five unit gradient steps
            ref = ref.with_theta(ref.theta + JointModel(ref).averaged_grad(event))
        _, record = run_em(model, task, event, EXACT, CLOSED,
                           iterations=1, seed=seed, reference=ref)
        cert = record.certificates["reference_gap"]
        ref_objective = JointModel(ref).averaged_event_logprob(event)
        assert ref_objective - record.rows[0].objective > cert["kl_budget"]
        assert cert["best_gap"] == ref_objective - record.rows[1].objective
        assert cert["asserted"] and cert["holds"]


def test_reference_gap_budget_is_tight_at_one_iteration_for_binary_events():
    # for a binary event the initial gap -log p_0(A) is the whole budget
    # KL(ref || theta_0), and one exact step lands on the comparator
    event = success_event()
    for seed in range(6):
        task = make_reward_tag_task(3, 4, seed=seed)
        model = random_model(task, np.random.default_rng(seed), scale=0.5)
        ref = reference_optimum(model, task, event)
        _, record = run_em(model, task, event, EXACT, CLOSED,
                           iterations=1, seed=seed, reference=ref)
        cert = record.certificates["reference_gap"]
        initial_gap = JointModel(ref).averaged_event_logprob(event) - record.rows[0].objective
        assert abs(initial_gap - cert["kl_budget"]) <= 1e-12
        assert abs(cert["best_gap"]) <= 1e-12
        assert cert["asserted"] and cert["holds"]


def test_closed_form_reference_rejects_a_zero_mass_prompt():
    task = make_reward_tag_task(3, 4, seed=1)
    event = EventSpec(latents=(0,), responses=(2,), obs=(1,))
    zero = np.flatnonzero(compile_event(task, event).mass_all().max(axis=1) == 0.0)
    assert zero.size
    model = random_model(task, np.random.default_rng(0), scale=0.5)
    with pytest.raises(ZeroMassEventError, match=f"prompt {zero[0]}"):
        reference_optimum(model, task, event)
    with pytest.raises(ZeroMassEventError, match=f"prompt {zero[0]}"):
        JointModel(model).averaged_grad(event)


def test_reference_optimum_needs_a_closed_form():
    task = make_reward_tag_task(3, 4, seed=1)
    model = uniform_model(task, NgramFeatures(task, n=2))
    with pytest.raises(FeatureMapMismatchError, match="ngram"):
        reference_optimum(model, task, success_event())


def test_reference_optimum_conditions_on_a_set_the_model_clamps():
    # a closed-form M-step can leave the whole argmax set at LOG_CLAMP; the
    # comparator must still put all its mass there
    task = make_reward_tag_task(3, 4, seed=1)
    event = success_event()
    mass = compile_event(task, event).mass_all()
    theta = np.where(mass == 1.0, LOG_CLAMP, 0.0).ravel()
    model = uniform_model(task).with_theta(theta)
    ref = reference_optimum(model, task, event)
    assert JointModel(ref).averaged_event_logprob(event) == 0.0
    assert np.array_equal(ref.log_probs_all() > LOG_CLAMP / 2, mass == 1.0)


@pytest.mark.parametrize("kl, certificate", [(1e9, "telescoping"), (-1e9, "reference-gap")])
def test_failed_certificate_raises_typed_error(tag_task, tag_model, monkeypatch, kl, certificate):
    monkeypatch.setattr(training, "_averaged_kl", lambda new, old, rho: kl)
    with pytest.raises(CertificateError, match=certificate):
        run_em(tag_model, tag_task, success_event(), EXACT, CLOSED,
               iterations=2, seed=0, reference=uniform_model(tag_task))


def test_objective_and_kl_are_evaluated_once_per_model(monkeypatch):
    task = make_reward_tag_task(3, 4, seed=1)
    model = random_model(task, stream(3, "count"), scale=0.8)
    objectives: Counter = Counter()
    kls: Counter = Counter()
    event_table = graph._EventTable
    kl_rows = training.kl_rows

    def counted_table(log_probs, compiled):
        objectives[id(log_probs)] += 1
        return event_table(log_probs, compiled)

    def counted_kl(a, b):
        kls[id(a), id(b)] += 1
        return kl_rows(a, b)

    monkeypatch.setattr(graph, "_EventTable", counted_table)
    monkeypatch.setattr(training, "kl_rows", counted_kl)
    seen = []
    run_em(model, task, success_event(), EXACT, CLOSED, iterations=5, seed=0,
           on_iteration=lambda t, m, row: seen.append(m))
    assert len({id(m) for m in seen}) == 6
    assert objectives == Counter(id(m.log_probs_all()) for m in seen)
    assert kls == Counter((id(new), id(old)) for old, new in zip(seen, seen[1:]))


@pytest.mark.parametrize("spec, draws", [
    (EStepSpec("exact"), False),
    (EStepSpec("planning"), False),
    (EStepSpec("policy_gradient", {"iterations": 3}), False),
    (EStepSpec("policy_gradient", {"iterations": 3, "batch_size": 8}), True),
    (EStepSpec("rejection", {"budget": 40}), True),
], ids=["exact", "planning", "pg-exact", "pg-sampled", "rejection"])
def test_em_iterate_gives_streams_only_to_engines_that_draw(tag_model, tag_task, spec, draws,
                                                           monkeypatch):
    rngs = []

    def spy(jm, x_idx, event, estep_spec, rng=None):
        rngs.append(rng)
        return run_estep(jm, x_idx, event, estep_spec, rng)

    monkeypatch.setattr(training, "run_estep", spy)
    em_iterate(tag_model, tag_task, success_event(), spec, CLOSED, seed=4, iteration=2)
    assert spec.draws is draws
    assert [rng is not None for rng in rngs] == [draws] * tag_task.n_prompts


@pytest.mark.parametrize("spec", [
    EStepSpec("rejection", {"budget": 40}),
    EStepSpec("policy_gradient", {"iterations": 3, "batch_size": 8}),
], ids=lambda spec: spec.backend)
def test_engines_that_draw_refuse_to_run_without_a_stream(tag_model, spec):
    with pytest.raises(ConfigError, match="needs an rng"):
        run_estep(JointModel(tag_model), 0, success_event(), spec)


def test_gradient_mstep_reuses_the_accepted_evaluation(monkeypatch):
    task = make_automaton_trace_task(2, 3, prompt_limit=3)
    model = random_model(task, stream(7, "reuse"), scale=0.6, features=NgramFeatures(task, 2))
    jm = JointModel(model)
    targets = np.stack([jm.exact_posterior(x, success_event()) for x in range(task.n_prompts)])
    features = model.features
    calls, thetas = [], []
    logits_all, adjoint_all = features.logits_all, features.adjoint_all

    def counted_logits(theta):
        calls.append("L")
        thetas.append(theta.tobytes())
        return logits_all(theta)

    def counted_adjoint(weights):
        calls.append("G")
        return adjoint_all(weights)

    monkeypatch.setattr(features, "logits_all", counted_logits)
    monkeypatch.setattr(features, "adjoint_all", counted_adjoint)
    mstep(model, targets, MStepSpec("gradient_ascent", steps=10))
    # one evaluation of the start, then per step one gradient, read off the
    # last accepted evaluation, and one logits_all call per trial step size
    steps = "".join(calls).split("G")
    assert steps[0] == "L" and len(steps) == 11
    assert all(set(trials) == {"L"} for trials in steps[1:])
    assert thetas[0] == model.theta.tobytes()
    assert len(set(thetas)) == len(thetas)


def test_em_fixed_point(tag_task, tag_model):
    final, _ = _em(tag_model, tag_task, iterations=40)
    again, record = _em(final, tag_task, iterations=1)
    # at a fixed point one more iteration moves essentially nothing
    assert record.rows[-1].kl_step < 1e-8


def test_em_closed_vs_gradient_agree(tag_task, tag_model):
    ev = success_event()
    m_closed, _ = em_iterate(
        tag_model, tag_task, ev, EXACT, CLOSED, seed=0, iteration=0
    )
    m_grad, _ = em_iterate(
        tag_model,
        tag_task,
        ev,
        EXACT,
        MStepSpec("gradient_ascent", steps=800, rate=0.5),
        seed=0,
        iteration=0,
    )
    ja = JointModel(m_closed).averaged_event_logprob(ev)
    jb = JointModel(m_grad).averaged_event_logprob(ev)
    # the target here has zeros, so the gradient route approaches the
    # boundary optimum at a 1/steps rate rather than hitting it exactly
    assert ja - 1e-3 < jb <= ja + 1e-12


def test_mstep_empty_posteriors_noop(tag_model):
    task = tag_model.task
    out = mstep(tag_model, np.zeros((task.n_prompts, task.n_joint)), CLOSED)
    assert out is tag_model


@pytest.mark.parametrize("target", [
    np.ones((5, 10)), np.ones((3, 9)), np.ones((3, 10, 1)), np.ones(()),
    {0: (np.array([1]), np.array([1.0]))},
], ids=["prompts", "joint", "3d", "scalar", "per-prompt-dict"])
def test_mstep_rejects_a_target_of_the_wrong_shape(tag_model, target):
    # tag_model's task has 3 prompts and 10 joint outcomes
    with pytest.raises(TaskMismatchError, match="shape"):
        mstep(tag_model, target, CLOSED)


def _full_except(value: float) -> np.ndarray:
    """A uniform [3, 10] target with one entry set to `value`."""
    target = np.full((3, 10), 0.1)
    target[1, 2] = value
    return target


@pytest.mark.parametrize("kind", ["closed_form", "gradient_ascent"])
@pytest.mark.parametrize("target", [
    -np.ones((3, 10)),
    _full_except(-0.1),
    np.full((3, 10), np.nan),
    _full_except(np.nan),
    _full_except(np.inf),
], ids=["all-negative", "one-negative", "all-nan", "one-nan", "one-inf"])
def test_mstep_rejects_negative_or_non_finite_targets(tag_model, kind, target):
    with pytest.raises(UnnormalizedVariationalError, match="finite and non-negative"):
        mstep(tag_model, target, MStepSpec(kind))


@pytest.mark.parametrize("spec", [
    EStepSpec("planning"), EStepSpec("rejection", {"budget": 40}),
    EStepSpec("policy_gradient", {"iterations": 3, "batch_size": 8}),
], ids=lambda spec: spec.backend)
def test_em_target_rows_are_the_engines_rows(tag_model, tag_task, spec, monkeypatch):
    seen = []

    def spy(model, targets, mstep_spec):
        seen.append(targets.copy())
        return mstep(model, targets, mstep_spec)

    monkeypatch.setattr(training, "mstep", spy)
    em_iterate(tag_model, tag_task, success_event(), spec, CLOSED, seed=4, iteration=2)
    jm = JointModel(tag_model)
    rows = [run_estep(jm, x, success_event(), spec,
                      stream(4, "estep", spec.backend, x, 2)).probs
            for x in range(tag_task.n_prompts)]
    assert np.array_equal(seen[0], np.stack(rows))


def test_em_counts_a_skipped_prompt_as_total_variation_one():
    # the dead event of check_esteps_rejection_soundness: prompt 0's truth
    # latent with a wrong response, verified, which no draw can hit
    task = make_carry_addition_task(1, 2)
    truth = task.truth[0]
    dead = EventSpec(latents=(truth[0],),
                     responses=((truth[1] + 1) % task.n_responses,), obs=(1,))
    model = uniform_model(task)
    spec = EStepSpec("rejection", {"budget": 200})
    _, report = em_iterate(model, task, dead, spec, CLOSED, seed=0, iteration=1)
    assert 0 in report.skipped
    jm = JointModel(model)
    results = [run_estep(jm, x, dead, spec, stream(0, "estep", "rejection", x, 1))
               for x in range(task.n_prompts)]
    live = [r.tv_error for r in results if not r.empty]
    assert report.tv_mean == float(np.mean(live + [1.0] * len(report.skipped)))


@pytest.mark.parametrize("make", [
    lambda: make_carry_addition_task(1, 10),
    lambda: make_carry_addition_task(2, 3),
    lambda: make_automaton_trace_task(3, 4),
    lambda: make_carry_addition_task(1, 3, evaluator="soft", soft_beta=2.0),
], ids=["carry-d1-b10", "carry-d2-b3", "automaton-3-4", "carry-d1-b3-soft"])
def test_gold_sft_is_the_comparator_when_the_truth_is_the_only_argmax(make):
    # each prompt's argmax set of success mass is its reference (z, y), so
    # p_0 conditioned on it is the one-hot gold target, to the bit
    task = make()
    model = random_model(task, stream(5, "gold-sft"), scale=1.0)
    gold = mstep(model, truth_one_hot(task), MStepSpec("closed_form"))
    ref = reference_optimum(model, task, success_event())
    assert np.array_equal(ref.theta, gold.theta)


def test_gold_sft_is_not_the_comparator_on_a_tied_argmax_set():
    # on the tag task the reference (good tag, right response) and the four
    # (bad tag, wrong response) pairs share the top success mass, so the
    # comparator spreads p_0 over five pairs while gold SFT picks one
    task = make_reward_tag_task(4, 5)
    mass = compile_event(task, success_event()).mass_all()
    assert ((mass == mass.max(axis=1, keepdims=True)).sum(axis=1) == 5).all()
    model = random_model(task, stream(5, "gold-sft"), scale=1.0)
    gold = mstep(model, truth_one_hot(task), MStepSpec("closed_form"))
    ref = reference_optimum(model, task, success_event())
    assert not np.array_equal(ref.theta, gold.theta)


@pytest.mark.parametrize("spec, kwargs", [
    (MStepSpec, {"steps": 2.5}),
    (MStepSpec, {"steps": True}),
    (MStepSpec, {"steps": "3"}),
    (MStepSpec, {"rate": "x"}),
    (MStepSpec, {"rate": True}),
    (MStepSpec, {"rate": None}),
    (PolicyGradConfig, {"step_size": "a"}),
    (PolicyGradConfig, {"step_size": True}),
    (PolicyGradConfig, {"iterations": 2.5}),
    (PolicyGradConfig, {"iterations": True}),
    (PolicyGradConfig, {"batch_size": True}),
    (PolicyGradConfig, {"batch_size": 1.0}),
    (PolicyGradConfig, {"divergence_patience": 3.0}),
    (PolicyGradConfig, {"beta": "1"}),
    (PolicyGradConfig, {"reward_floor": False}),
    (MStepSpec, {"rate": math.nan}),
    (PolicyGradConfig, {"step_size": math.nan}),
    (PolicyGradConfig, {"beta": math.nan}),
    (PolicyGradConfig, {"reward_floor": math.nan}),
    (MStepSpec, {"rate": math.inf}),
    (PolicyGradConfig, {"step_size": math.inf}),
    (PolicyGradConfig, {"beta": math.inf}),
    (PolicyGradConfig, {"reward_floor": -math.inf}),
    (MStepSpec, {"kind": "bogus"}),
    (MStepSpec, {"steps": 0}),
])
def test_spec_fields_reject_the_wrong_type_or_nan(spec, kwargs):
    (field,) = kwargs
    with pytest.raises(ConfigError, match=rf"^{field} .*must be"):
        spec(**kwargs)


def test_spec_fields_accept_numpy_and_integer_values():
    assert MStepSpec(steps=np.int64(3), rate=1).steps == 3
    cfg = PolicyGradConfig(step_size=1, iterations=np.int32(4), beta=np.float64(0.5))
    assert cfg.iterations == 4


def test_record_tsv_roundtrip(tag_task, tag_model):
    _, record = _em(tag_model, tag_task, iterations=3)
    rows = record_from_tsv(record.to_tsv())
    assert len(rows) == len(record.rows)
    for a, b in zip(rows, record.rows):
        assert a.t == b.t
        assert a.objective == b.objective
        # tv_estep is nan on the baseline row, so compare nan-safely
        assert np.array_equal([a.tv_estep], [b.tv_estep], equal_nan=True)


def test_record_tsv_bad_header():
    with pytest.raises(ConfigError):
        record_from_tsv("nope\tnope\n1\t2\n")


def test_accuracy_range(tag_task, tag_model):
    g, s = _default_acc(tag_model, tag_task, 0, 0)
    assert 0.0 <= g <= 1.0
    assert 0.0 <= s <= 1.0


def test_reference_optimum_improves(tag_task, tag_model):
    # the closed-form comparator attains the brute-force supremum exactly
    for o in (1, 0):
        ev = EventSpec(obs=(o,))
        supremum = sum(
            tag_task.rho[x] * math.log(max(
                evaluator_entry(tag_task, x, z, y, o)
                for z in range(tag_task.n_latents)
                for y in range(tag_task.n_responses)
            ))
            for x in range(tag_task.n_prompts)
        )
        ref = reference_optimum(tag_model, tag_task, ev)
        j0 = JointModel(tag_model).averaged_event_logprob(ev)
        assert j0 < supremum - 0.5
        assert JointModel(ref).averaged_event_logprob(ev) == pytest.approx(
            supremum, rel=0, abs=1e-12)


def test_filter_exact_weights_is_em_step(tag_task, tag_model):
    new_f = mstep(tag_model, success_weights(tag_model), CLOSED)
    new_em, _ = em_iterate(
        tag_model, tag_task, success_event(), EXACT, CLOSED, seed=0, iteration=0
    )
    for x in range(tag_task.n_prompts):
        assert np.abs(new_f.joint_probs(x) - new_em.joint_probs(x)).max() < 1e-10


def test_restem_exact_expectation_is_em_step(tag_task):
    soft = make_reward_tag_task(3, 5, seed=2, evaluator="soft")
    model = uniform_model(soft)
    new_r = mstep(model, success_weights(model), CLOSED)
    new_em, _ = em_iterate(
        model, soft, success_event(), EXACT, CLOSED, seed=0, iteration=0
    )
    for x in range(soft.n_prompts):
        assert np.abs(new_r.joint_probs(x) - new_em.joint_probs(x)).max() < 1e-10


def test_filter_sampled_improves(tag_task, tag_uniform):
    final, record = run_filter_sft(
        tag_uniform, tag_task, iterations=6, budget=400, seed=3
    )
    assert record.rows[-1].objective > record.rows[0].objective


def test_restem_runs():
    soft = make_reward_tag_task(3, 5, seed=2, evaluator="soft")
    final, record = run_restem(
        uniform_model(soft), soft, iterations=3, budget=300, seed=1
    )
    assert record.algorithm == "restem"
    assert len(record.rows) == 4


def test_restem_rejects_binary_task(tag_task, tag_uniform):
    from latentlab.errors import TaskMismatchError

    with pytest.raises(TaskMismatchError):
        run_restem(tag_uniform, tag_task, iterations=1, budget=10, seed=0)


def test_cond_sft_learns_tags(tag_task, tag_uniform):
    final, record = run_cond_sft(
        tag_uniform, tag_task, iterations=6, budget=400, seed=5
    )
    assert record.rows[-1].acc_greedy >= record.rows[0].acc_greedy
    # decoding conditioned on the good tag must be a valid response index
    y = conditional_decode(final, tag_task, 0, 1)
    assert 0 <= y < tag_task.n_responses


def test_tagged_corpus_tags_match_reference(tag_task, tag_model):
    corpus = build_tagged_corpus(tag_model, tag_task, 50, seed=0, iteration=0)
    for x, tag, y in corpus:
        assert tag == (1 if y == tag_task.truth[x][1] else 0)


def test_tagged_corpus_is_successive_samples(tag_task, tag_model):
    corpus = build_tagged_corpus(tag_model, tag_task, 30, seed=4, iteration=2)
    expected = []
    for x in range(tag_task.n_prompts):
        rng = stream(4, "tag-corpus", x, 2)
        view = tag_model.conditional_tables(x)
        for _ in range(30):
            _, y = view.sample(rng)
            expected.append((x, int(y == tag_task.truth[x][1]), y))
    assert corpus.dtype == np.int64
    assert corpus.tolist() == [list(item) for item in expected]


@pytest.mark.parametrize("item", [(3, 0, 0), (-1, 0, 0), (0, 2, 0), (0, 0, 5), (0, 1, -1)])
def test_conditional_sft_rejects_an_item_outside_the_task(tag_task, tag_uniform, item):
    # (0, 0, 5) would otherwise land on joint index 5, the pair (1, 0)
    with pytest.raises(OutOfSpaceError, match="outside"):
        conditional_sft_update(tag_uniform, tag_task, [(0, 1, 2), item])


def test_filter_weights_are_the_verified_draw_counts(tag_task, tag_model):
    _, report = filter_sft_update(tag_model, tag_task, 40, seed=6, iteration=1)
    success = compile_event(tag_task, success_event()).mass_all()
    for x in range(tag_task.n_prompts):
        rng = stream(6, "filter", x, 1)
        view = tag_model.conditional_tables(x)
        kept = [k for k in (tag_task.zy_index(*view.sample(rng)) for _ in range(40))
                if success[x, k] == 1.0]
        counts = np.bincount(np.array(kept, dtype=np.int64), minlength=tag_task.n_joint)
        assert report["acceptance"][x] == len(kept) / 40
        if kept:
            assert np.array_equal(report["weights"][x], counts / len(kept))
        else:
            assert x in report["skipped"] and not report["weights"][x].any()


def test_restem_weights_are_the_success_weighted_draw_counts():
    soft = make_reward_tag_task(3, 5, seed=2, evaluator="soft")
    model = random_model(soft, stream(2, "init"), scale=0.8)
    _, report = restem_update(model, soft, 40, seed=6, iteration=1)
    success = compile_event(soft, success_event()).mass_all()
    assert report["mode"] == "sampled"
    for x in range(soft.n_prompts):
        rng = stream(6, "restem", x, 1)
        view = model.conditional_tables(x)
        drawn = [soft.zy_index(*view.sample(rng)) for _ in range(40)]
        sums = np.zeros(soft.n_joint)
        for k in drawn:
            sums[k] += success[x, k]
        # the acceptance is the share of draws with positive success mass
        assert report["acceptance"][x] == sum(success[x, k] > 0.0 for k in drawn) / 40
        assert np.allclose(report["weights"][x], sums / sums.sum(), rtol=1e-15, atol=0.0)


def test_conditional_decode_unseen_tag(tag_task):
    # a model with zero mass on tag 1 cannot decode conditioned on it
    model = uniform_model(tag_task)
    theta = model.theta.copy()
    jm = JointModel(model)
    post = jm.exact_posterior(0, success_event())
    # clamp all tag-1 joints at every prompt via closed-form mstep
    weights = np.zeros((tag_task.n_prompts, tag_task.n_joint))
    weights[:, tag_task.zy_index(0, np.arange(tag_task.n_responses))] = (
        1.0 / tag_task.n_responses)
    clamped = mstep(model, weights, CLOSED)
    with pytest.raises(UnseenTagError):
        conditional_decode(clamped, tag_task, 0, 1)


def test_dpo_loss_at_reference_is_log2(tag_task, tag_model):
    pairs = [PreferencePair(0, tag_task.zy_index(1, tag_task.truth[0][1]),
                            tag_task.zy_index(0, 0))]
    value, grad = latent_dpo_loss_and_grad(tag_model, tag_model, pairs)
    assert value == pytest.approx(np.log(2.0), abs=1e-12)
    assert grad.shape == tag_model.theta.shape


@pytest.mark.parametrize("features", [
    None,
    lambda task: NgramFeatures(task, n=2),
    lambda task: NgramFeatures(task, n=1, positional=False),
], ids=["tabular", "ngram-per-prompt", "ngram-bag-per-prompt"])
def test_preference_loss_is_the_per_prompt_loop_to_the_bit(tag_task, features):
    feats = features(tag_task) if features else None
    policy = random_model(tag_task, stream(8, "dpo-policy"), 0.8, feats)
    ref = random_model(tag_task, stream(8, "dpo-ref"), 0.8, feats)
    k = tag_task.zy_index
    # several pairs per prompt, grouped by prompt, with a repeated outcome
    pairs = [PreferencePair(0, k(1, 2), k(0, 0)), PreferencePair(0, k(1, 2), k(0, 3)),
             PreferencePair(1, k(1, 4), k(1, 0)), PreferencePair(2, k(0, 1), k(1, 1)),
             PreferencePair(2, k(1, 1), k(0, 1)), PreferencePair(2, k(1, 3), k(0, 1))]
    for beta in (1.0, 0.7):
        loss, grad = latent_dpo_loss_and_grad(policy, ref, pairs, beta)
        oracle_loss, oracle_grad = preference_loss_by_prompt(policy, ref, pairs, beta)
        assert loss == oracle_loss
        assert np.array_equal(grad, oracle_grad)
    as_array = latent_dpo_loss_and_grad(policy, ref, np.array(pairs), 0.7)
    assert as_array[0] == loss and np.array_equal(as_array[1], grad)


def test_preference_loss_with_shared_features_matches_the_loop(tag_task):
    # shared n-gram columns sum over prompts in another order: low bits only
    feats = NgramFeatures(tag_task, n=2, per_prompt=False)
    policy = random_model(tag_task, stream(9, "dpo-policy"), 0.8, feats)
    ref = random_model(tag_task, stream(9, "dpo-ref"), 0.8, feats)
    k = tag_task.zy_index
    pairs = [PreferencePair(x, k(1, tag_task.truth[x][1]), k(0, 0)) for x in range(3)]
    loss, grad = latent_dpo_loss_and_grad(policy, ref, pairs)
    oracle_loss, oracle_grad = preference_loss_by_prompt(policy, ref, pairs)
    assert loss == oracle_loss
    assert np.allclose(grad, oracle_grad, rtol=1e-14, atol=1e-17)


def test_dpo_fit_decreases_loss(tag_task, tag_model):
    truth_y = tag_task.truth[0][1]
    pairs = [
        PreferencePair(0, tag_task.zy_index(1, truth_y),
                       tag_task.zy_index(0, (truth_y + 1) % tag_task.n_responses)),
        PreferencePair(1, tag_task.zy_index(1, tag_task.truth[1][1]), tag_task.zy_index(0, 0)),
    ]
    _, history = dpo_fit(tag_model, pairs, steps=50)
    assert history[-1] < history[0]
    assert history[0] == pytest.approx(np.log(2.0), abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 9), st.sampled_from([-1.0, -2.0, -3.0])),
                min_size=1, max_size=10))
def test_pick_pair_matches_pair_form_tie_break(tag_task, draws):
    # joint indices 0..9 are tag_task's (z, y) pairs; few distinct log
    # probabilities force ties, which break to the smallest pair
    task = tag_task
    lp = np.full(task.n_joint, -4.0)
    for k, value in draws:
        lp[k] = value
    candidates = [task.zy_unindex(k) for k, _ in draws]
    ok = [evaluator_prob(task, 1, z, y, 1) == 1.0 for z, y in candidates]
    verified = [c for c, good in zip(candidates, ok) if good]
    unverified = [c for c, good in zip(candidates, ok) if not good]
    picked = training._pick_pair(task, 1, np.array([k for k, _ in draws]), lp)
    if not verified or not unverified:
        assert picked is None
        return
    best = min(verified, key=lambda c: (-lp[task.zy_index(*c)], c))
    worst = min(unverified, key=lambda c: (lp[task.zy_index(*c)], c))
    assert picked == PreferencePair(1, task.zy_index(*best), task.zy_index(*worst))


def test_pref_loop_runs_both_samplers(tag_task, tag_uniform):
    for sampler in ("model", "posterior"):
        final, record = run_pref_loop(
            tag_uniform,
            tag_task,
            iterations=2,
            candidates=8,
            seed=0,
            sampler=sampler,
            dpo_steps=10,
            pg_params={"iterations": 3, "step_size": 0.05}
            if sampler == "posterior"
            else None,
        )
        assert len(record.rows) == 3
        assert record.algorithm in ("iter_dpo", "posterior_dpo")


@pytest.mark.parametrize("pg_params", [None, {}, {"step_size": 0.25}],
                         ids=["none", "empty", "default-step-size"])
def test_posterior_sampler_runs_the_default_iterations_unless_given(
    tag_task, tag_uniform, monkeypatch, pg_params
):
    # 0.25 is PolicyGradConfig's own step size, so naming it changes nothing
    iterations = []
    ascent = training.estep_policy_gradient

    def recorded(*args, cfg, **kwargs):
        iterations.append(cfg.iterations)
        return ascent(*args, cfg=cfg, **kwargs)

    monkeypatch.setattr(training, "estep_policy_gradient", recorded)
    run_pref_loop(tag_uniform, tag_task, iterations=1, candidates=4, seed=0,
                  sampler="posterior", dpo_steps=2, pg_params=pg_params)
    assert iterations == [training.SAMPLER_ITERATIONS] * tag_task.n_prompts


@pytest.mark.parametrize("option, field", [
    ({"dpo_beta": -1.0}, "beta"),
    ({"dpo_rate": -1.0}, "rate"),
    ({"dpo_beta": math.nan}, "beta"),
    ({"dpo_rate": math.inf}, "rate"),
    ({"dpo_steps": 0}, "steps"),
    ({"candidates": 1}, "candidates"),
], ids=["negative-beta", "negative-rate", "nan-beta", "inf-rate", "no-steps",
        "one-candidate"])
def test_pref_loop_rejects_bad_fit_settings(tag_task, tag_uniform, option, field):
    kwargs = {"iterations": 1, "candidates": 8, "seed": 0, **option}
    with pytest.raises(ConfigError, match=rf"^{field} "):
        run_pref_loop(tag_uniform, tag_task, **kwargs)


def test_run_record_final(tag_task, tag_model):
    _, record = _em(tag_model, tag_task, iterations=2)
    assert record.final() is record.rows[-1]
    assert record.rows[0].t == 0 and record.rows[-1].t == 2
