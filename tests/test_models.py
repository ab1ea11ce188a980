import numpy as np
import pytest

from latentlab import models
from latentlab.errors import ConfigError, OutOfSpaceError, RecordFormatError
from latentlab.graph import JointModel
from latentlab.models import (
    AutoregressiveView,
    LogitModel,
    NgramFeatures,
    TabularFeatures,
    random_model,
    read_checkpoint,
    uniform_model,
    write_checkpoint,
)
from latentlab.rng import stream
from latentlab.tasks import (
    make_automaton_trace_task,
    make_carry_addition_task,
    make_reward_tag_task,
    success_event,
)
from latentlab.verification import dense_features, joint_logprob, prefix_nodes


def test_uniform_joint_is_flat(tag_task, tag_uniform):
    probs = tag_uniform.joint_probs(0)
    assert np.allclose(probs, 1.0 / tag_task.n_joint, atol=1e-15)


def test_joint_probs_normalize(tag_model, tag_task):
    for x in range(tag_task.n_prompts):
        assert tag_model.joint_probs(x).sum() == pytest.approx(1.0, abs=1e-12)


def test_joint_logprob_matches_table(tag_model, tag_task):
    table = tag_model.joint_log_probs(1)
    for j in range(0, tag_task.n_joint, 3):
        z, y = tag_task.zy_unindex(j)
        assert joint_logprob(tag_model, 1, z, y) == pytest.approx(table[j], abs=1e-12)


def test_conditional_tables_factorize(tag_model, tag_task):
    # chain-rule product of token conditionals rebuilds every joint logprob
    view = tag_model.conditional_tables(2)
    table = tag_model.joint_log_probs(2)
    index = prefix_nodes(view.trie)
    for j in range(tag_task.n_joint):
        seq = tag_task.joint_sequences[j]
        nodes = [index[seq[: pos + 1]] for pos in range(len(seq))]
        assert view.logp[nodes].sum() == pytest.approx(table[j], abs=1e-10)


def test_conditional_tables_are_built_once_per_prompt(tag_task):
    model = random_model(tag_task, stream(3, "views"), scale=0.8)
    views = [model.conditional_tables(x) for x in range(tag_task.n_prompts)]
    assert all(model.conditional_tables(x) is view for x, view in enumerate(views))
    assert model.with_theta(model.theta).conditional_tables(0) is not views[0]
    for x, view in enumerate(views):
        fresh = AutoregressiveView(tag_task, model.joint_log_probs(x))
        assert view.logp.tobytes() == fresh.logp.tobytes()
        assert view.cum.tobytes() == fresh.cum.tobytes()
        assert view.cum.shape == (tag_task.trie.n_nodes + 1,) and view.cum[-1] == np.inf
        for array in (view.logp, view.cum):
            with pytest.raises(ValueError):
                array[0] = array[0]
    with pytest.raises(OutOfSpaceError, match="prompt index"):
        model.conditional_tables(tag_task.n_prompts)


def test_first_conditional_table_builds_every_prompt_in_one_pass(tag_task, monkeypatch):
    builds = []
    token_tables = models._token_tables

    def counted(trie, log_probs):
        builds.append(log_probs.shape)
        return token_tables(trie, log_probs)

    monkeypatch.setattr(models, "_token_tables", counted)
    model = random_model(tag_task, stream(4, "stacked"), scale=0.8)
    views = [model.conditional_tables(x) for x in reversed(range(tag_task.n_prompts))]
    assert builds == [(tag_task.n_prompts, tag_task.n_joint)]
    # every view's tables are rows of one [prompts, nodes] and one
    # [prompts, nodes + 1] table
    assert len({id(view.logp.base) for view in views}) == 1
    assert len({id(view.cum.base) for view in views}) == 1
    AutoregressiveView(tag_task, model.joint_log_probs(0))
    assert builds[1:] == [(1, tag_task.n_joint)]


def test_with_theta_is_functional(tag_model):
    theta2 = tag_model.theta + 1.0
    other = tag_model.with_theta(theta2)
    assert other is not tag_model
    assert np.array_equal(tag_model.theta + 1.0, other.theta)


def test_sample_joint_reproducible(tag_model):
    a = tag_model.conditional_tables(0).sample(stream(7, "s"))
    b = tag_model.conditional_tables(0).sample(stream(7, "s"))
    assert a == b


def test_sample_joint_frequencies(tag_task, tag_model):
    rng = stream(11, "freq")
    counts = np.zeros(tag_task.n_joint)
    n = 4000
    view = tag_model.conditional_tables(0)
    for _ in range(n):
        z, y = view.sample(rng)
        counts[tag_task.zy_index(z, y)] += 1
    assert np.abs(counts / n - tag_model.joint_probs(0)).max() < 0.05


def test_greedy_joint_is_argmax_path(tag_task, tag_model):
    z, y = tag_model.conditional_tables(0).greedy()
    assert joint_logprob(tag_model, 0, z, y) > -np.inf


def test_ngram_features_shape(tag_task):
    feats = NgramFeatures(tag_task, n=2)
    model = uniform_model(tag_task, features=feats)
    assert model.theta.shape == (feats.dim,)
    assert model.joint_probs(0).sum() == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("n", [0, -1, 2.5, True, "2", None])
def test_ngram_width_must_be_a_positive_integer(tag_task, n):
    with pytest.raises(ConfigError):
        NgramFeatures(tag_task, n=n)


def test_tabular_dim(tag_task):
    feats = TabularFeatures(tag_task)
    assert feats.dim > 0
    model = random_model(tag_task, stream(0, "m"), scale=0.3, features=feats)
    assert model.theta.shape == (feats.dim,)


def test_checkpoint_roundtrip(tmp_path, tag_model):
    p = tmp_path / "model.txt"
    with open(p, "w") as fh:
        write_checkpoint(tag_model, fh)
    with open(p) as fh:
        again = read_checkpoint(tag_model.task, fh)
    assert np.array_equal(again.theta, tag_model.theta)
    assert np.allclose(again.joint_log_probs(0), tag_model.joint_log_probs(0))


def test_checkpoint_wrong_task(tmp_path, tag_model):
    p = tmp_path / "model.txt"
    with open(p, "w") as fh:
        write_checkpoint(tag_model, fh)
    other = make_reward_tag_task(4, 5, seed=9)
    with open(p) as fh:
        with pytest.raises(RecordFormatError):
            read_checkpoint(other, fh)


def test_checkpoint_garbage(tmp_path, tag_task):
    p = tmp_path / "model.txt"
    p.write_text("not a checkpoint\n")
    with open(p) as fh:
        with pytest.raises(RecordFormatError):
            read_checkpoint(tag_task, fh)


def test_log_partition_consistent(tag_model, tag_task):
    # joint_probs must equal exp(logits - log_partition) summed over paths
    for x in range(tag_task.n_prompts):
        lp = tag_model.joint_log_probs(x)
        assert np.exp(lp).sum() == pytest.approx(1.0, abs=1e-12)


def test_theta_is_read_only(tag_model):
    with pytest.raises(ValueError):
        tag_model.theta[0] = 1.0
    source = np.zeros(tag_model.features.dim)
    model = tag_model.with_theta(source)
    source[0] = 5.0
    assert model.theta[0] == 0.0


def test_log_probs_all_is_computed_once_per_model(tag_task, monkeypatch):
    calls = []
    logits_all = TabularFeatures.logits_all

    def counted(self, theta):
        calls.append(1)
        return logits_all(self, theta)

    monkeypatch.setattr(TabularFeatures, "logits_all", counted)
    model = random_model(tag_task, stream(5, "once"), scale=0.8)
    rows = model.log_probs_all()
    assert not rows.flags.writeable
    jm = JointModel(model)
    jm.averaged_event_logprob(success_event())
    jm.averaged_grad(success_event())
    assert model.log_probs_all() is rows
    assert len(calls) == 1
    model.with_theta(model.theta).log_probs_all()
    assert len(calls) == 2


FEATURES = [TabularFeatures, lambda task: NgramFeatures(task, 2)]


@pytest.mark.parametrize("features", FEATURES, ids=["tabular", "ngram"])
def test_joint_log_probs_is_a_read_only_row_of_the_matrix(tag_task, features):
    model = random_model(tag_task, stream(6, "row"), scale=0.8, features=features(tag_task))
    rows = model.log_probs_all()
    for x in range(tag_task.n_prompts):
        row = model.joint_log_probs(x)
        assert np.shares_memory(row, rows)
        assert not row.flags.writeable
        assert row.tobytes() == rows[x].tobytes()


@pytest.mark.parametrize("features", FEATURES, ids=["tabular", "ngram"])
@pytest.mark.parametrize("x", [-1, 3])
def test_joint_log_probs_rejects_a_prompt_outside_the_task(tag_task, features, x):
    model = uniform_model(tag_task, features(tag_task))
    assert tag_task.n_prompts == 3
    with pytest.raises(OutOfSpaceError, match="prompt index"):
        model.joint_log_probs(x)


def _running_sums(entries, values, size: int) -> list[float]:
    """out[i] = 0.0 + c * values[j] + ... over (i, j, c) taken in the given
    order, one plain float addition at a time."""
    out = [0.0] * size
    for i, j, c in entries:
        out[i] += c * values[j]
    return out


@pytest.mark.parametrize("per_prompt", [True, False])
@pytest.mark.parametrize("positional", [True, False])
@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("make", [lambda: make_automaton_trace_task(2, 3),
                                  lambda: make_carry_addition_task(1, 3)],
                         ids=["automaton-2-3", "carry-d1-b3"])
def test_ngram_kernels_add_in_row_order_bit_for_bit(make, n, positional, per_prompt):
    # every kernel must equal a running sum over the nonzero entries of Phi
    # taken row by row (prompt-major over the stack), in the last bit
    task = make()
    features = NgramFeatures(task, n, positional=positional, per_prompt=per_prompt)
    phi = dense_features(features)
    n_joint, dim = task.n_joint, features.dim
    rng = stream(11, "bit-order", n)
    theta = rng.normal(size=dim)
    weights = rng.normal(size=(task.n_prompts, n_joint))
    # nonzero entries (x, joint, feature) in row-major order
    nonzero = [(x, k, f, phi[x, k, f].item()) for x, k, f in zip(*np.nonzero(phi))]
    th, w = theta.tolist(), weights.ravel().tolist()

    stacked = [(x * n_joint + k, f, c) for x, k, f, c in nonzero]
    want = np.array(_running_sums(stacked, th, task.n_prompts * n_joint))
    assert features.logits_all(theta).tobytes() == want.tobytes()
    want = np.array(_running_sums([(f, r, c) for r, f, c in stacked], w, dim))
    assert features.adjoint_all(weights).tobytes() == want.tobytes()
    for x in range(task.n_prompts):
        rows = [(k, f, c) for px, k, f, c in nonzero if px == x]
        want = np.array(_running_sums(rows, th, n_joint))
        assert features.logits(x, theta).tobytes() == want.tobytes()
        want = np.array(_running_sums([(f, k, c) for k, f, c in rows], w[x * n_joint:], dim))
        assert features.adjoint(x, weights[x]).tobytes() == want.tobytes()


@pytest.mark.parametrize("per_prompt", [True, False])
def test_ngram_own_block_is_one_read_only_array(per_prompt):
    task = make_automaton_trace_task(2, 3)
    features = NgramFeatures(task, 2, per_prompt=per_prompt)
    phi = dense_features(features)
    block = features.own_block(0)
    assert not block.flags.writeable
    assert block.shape == (task.n_joint, features.width)
    for x in range(task.n_prompts):
        assert features.own_block(x) is block
        assert np.array_equal(block, phi[x][:, phi[x].any(axis=0)])
