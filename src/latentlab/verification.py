"""Named self-checks and the acceptance battery.

Every check recomputes its target through a second, independent route:
closed forms worked out by hand, brute-force enumeration in plain Python,
central finite differences, or constants frozen from those calculations.
A check never trusts the code path it is checking.  ``run_checks`` backs
the command-line ``verify`` subcommand; the ``acceptance_*`` functions are
the release gate and are driven by the test suite, one line per criterion.
"""

from __future__ import annotations

import fnmatch
import io
import math
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, Sequence

import numpy as np
from scipy.stats import chisquare

from . import esteps as esteps_kernel
from . import graph as graph_kernel
from . import models as model_kernel
from . import planner as planner_kernel
from . import tasks as task_tables
from . import training as training_kernel
from . import trie as trie_kernel
from .errors import (
    CapExceededError,
    ConfigError,
    DivergenceError,
    EmptyEventError,
    FeatureMapMismatchError,
    HorizonViolationError,
    OutOfSpaceError,
    RecordFormatError,
    TaskDefinitionError,
    TaskMismatchError,
    UnnormalizedVariationalError,
    UnreachableEventError,
    UnseenTagError,
    ZeroMassEventError,
    ZeroProbabilityPairError,
)
from .esteps import (
    FISHER_RIDGE,
    EStepSpec,
    PolicyGradConfig,
    _event_reward_vector,
    _regularized_objective,
    estep_exact,
    estep_planning,
    estep_policy_gradient,
    estep_rejection,
    run_estep,
)
from .graph import JointModel
from .logspace import LOG_CLAMP, entropy, log_sum_exp, logsumexp, total_variation
from .models import (
    BOS,
    AutoregressiveView,
    LogitModel,
    NgramFeatures,
    TabularFeatures,
    kl_rows,
    random_model,
    read_checkpoint,
    uniform_model,
    write_checkpoint,
)
from .planner import ShapedMdp, SoftPlan, plan_posterior, soft_value_iteration
from .rng import stream
from .tasks import (
    GOOD_TAG,
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
from .training import (
    MStepSpec,
    PreferencePair,
    build_tagged_corpus,
    conditional_decode,
    conditional_sft_update,
    dpo_fit,
    em_iterate,
    filter_sft_update,
    latent_dpo_loss_and_grad,
    mstep,
    reference_optimum,
    restem_update,
    run_cond_sft,
    run_em,
    run_filter_sft,
    run_pref_loop,
    run_restem,
)
from .training import _averaged_kl
from .trie import Trie

SEED = 20260817


def _negated_bonus_rewards(
    jm: JointModel, x_idx: int, event: EventSpec, beta: float = 1.0
) -> ShapedMdp:
    """'shaping-sign': the shaped rewards with the terminal event bonus
    paid negated, after the clean shaping's own guards."""
    clean = _CLEAN["shaping-sign"](jm, x_idx, event, beta)
    with np.errstate(divide="ignore"):
        bonus = np.maximum(np.log(compile_event(jm.task, event).mass(x_idx)), LOG_CLAMP)
    reward = jm.seq.conditional_tables(x_idx).logp.copy()
    reward[clean.trie.leaf_node] -= bonus
    return ShapedMdp(trie=clean.trie, reward=reward, beta=beta)


def _misaligned_segment_sum(values: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """'trie-upward': the trie's run sums with each boundary one child late."""
    return np.add.reduceat(values, np.minimum(starts + 1, values.shape[-1] - 1), axis=-1)


def _next_prompt_success(task: GenerativeTask) -> np.ndarray:
    """'obs-table': the success table, prompt x reading prompt x + 1."""
    return np.roll(task.success, -1, axis=0)


def _rolled_posterior_rows(terms: np.ndarray, totals) -> np.ndarray:
    """'joint-marginal': the exact posterior rows, one joint index up."""
    return np.roll(_CLEAN["joint-marginal"](terms, totals), 1, axis=-1)


def _rolled_prompt_rows(logits: np.ndarray) -> np.ndarray:
    """'batched-rows': the [prompts, joint] log probabilities, one prompt down."""
    return np.roll(_CLEAN["batched-rows"](logits), 1, axis=0)


def _rolled_argmax_sets(mass: np.ndarray) -> np.ndarray:
    """'comparator-set': the comparator's argmax sets, one joint index up."""
    return np.roll(_CLEAN["comparator-set"](mass), 1, axis=1)


def _stale_fisher_step(block: np.ndarray):
    """'stale-fisher': the Fisher move with F frozen at the first p it is
    given, in an E-step the warm start's."""
    frozen: list[np.ndarray] = []

    def move(p: np.ndarray, advantage: np.ndarray) -> np.ndarray:
        if not frozen:
            frozen.append(p)
        centered = block - frozen[0] @ block
        fisher = centered.T @ (frozen[0][:, None] * centered)
        ridge = FISHER_RIDGE * np.trace(fisher)
        w = np.linalg.solve(fisher + ridge * np.eye(len(fisher)), block.T @ (p * advantage))
        return (block - p @ block) @ w

    return move


def _unit_count_entries(rows: np.ndarray, cols: np.ndarray) -> tuple[np.ndarray, ...]:
    """'ngram-counts': the n-gram entries with each repeated window merged
    into a count of 1."""
    rows, cols, counts = _CLEAN["ngram-counts"](rows, cols)
    return rows, cols, np.ones_like(counts)


def _short_slot_counts(run_sums: np.ndarray, u: np.ndarray) -> np.ndarray:
    """'level-walk': the batched walk's child counts one slot short, each
    run's first running sum left out."""
    return _CLEAN["level-walk"](run_sums[:, 1:], u)


def _next_row_leaves(leaf_values: np.ndarray, leaves, n_nodes: int) -> np.ndarray:
    """'stacked-offset': the [copies, nodes] leaf rows rolled down one row,
    each copy's leaf values written into the next copy's row (the last
    copy's into the first)."""
    return np.roll(_CLEAN["stacked-offset"](leaf_values, leaves, n_nodes), 1, axis=0)


# fault -> (module, attribute, faulty replacement): `run_checks` swaps one in
# to show that the checks catch a mutation of that kernel
FAULTS = {
    "shaping-sign": (planner_kernel, "shape_rewards", _negated_bonus_rewards),
    "trie-upward": (trie_kernel, "_segment_sum", _misaligned_segment_sum),
    "obs-table": (task_tables, "_success_table", _next_prompt_success),
    "joint-marginal": (graph_kernel, "_posterior_rows", _rolled_posterior_rows),
    "batched-rows": (model_kernel, "_normalized_rows", _rolled_prompt_rows),
    "comparator-set": (training_kernel, "_argmax_sets", _rolled_argmax_sets),
    "stale-fisher": (esteps_kernel, "_fisher_step", _stale_fisher_step),
    "ngram-counts": (model_kernel, "_merged_entries", _unit_count_entries),
    "level-walk": (model_kernel, "_slot_counts", _short_slot_counts),
    "stacked-offset": (trie_kernel, "_leaf_rows", _next_row_leaves),
}
FAULT_NAMES = tuple(FAULTS)
# the clean kernels, captured before any swap
_CLEAN = {fault: getattr(module, attr) for fault, (module, attr, _) in FAULTS.items()}


@dataclass(frozen=True)
class CheckResult:
    ok: bool
    detail: str = ""


def _ok(detail: str = "") -> CheckResult:
    return CheckResult(True, detail)


def _fail(detail: str) -> CheckResult:
    return CheckResult(False, detail)


def _expect_raises(exc: type[Exception], fn: Callable, *args, **kwargs) -> bool:
    try:
        fn(*args, **kwargs)
    except exc:
        return True
    return False


# -- standard instance suite ----------------------------------------------------


@dataclass(frozen=True)
class Instance:
    """One task plus the events its checks exercise (first one timed)."""

    name: str
    task: GenerativeTask
    events: tuple[EventSpec, ...]


_SUITE: list[Instance] | None = None


def standard_instances() -> list[Instance]:
    """Built-in posterior suite: small, mixed evaluators, mixed events.

    Every instance keeps |Z| * |Y| at or below ten thousand so exact
    enumeration stays the ground truth for all of them.  Restricted events
    that could have zero probability under some model are stated with an
    unrestricted observation axis, which keeps them positive for every
    strictly positive model.
    """
    global _SUITE
    if _SUITE is not None:
        return _SUITE

    succ = success_event()
    fail_obs = EventSpec(obs=(0,))
    corner = EventSpec(latents=(0,), responses=(0,))

    def inst(name: str, task: GenerativeTask, *events: EventSpec) -> Instance:
        return Instance(name=name, task=task, events=(succ,) + tuple(events))

    _SUITE = [
        inst("carry-d1-b2", make_carry_addition_task(1, 2),
             full_event(), corner, fail_obs),
        inst("carry-d1-b3", make_carry_addition_task(1, 3), corner),
        inst("carry-d1-b3-soft",
             make_carry_addition_task(1, 3, evaluator="soft", soft_beta=2.0),
             full_event()),
        inst("carry-d1-b4-lim", make_carry_addition_task(1, 4, prompt_limit=6)),
        inst("carry-d1-b5-lim", make_carry_addition_task(1, 5, prompt_limit=4)),
        inst("carry-d1-b10-lim", make_carry_addition_task(1, 10, prompt_limit=4)),
        inst("carry-d2-b2", make_carry_addition_task(2, 2)),
        inst("carry-d2-b3-lim", make_carry_addition_task(2, 3, prompt_limit=6)),
        inst("carry-d2-b3-soft-lim",
             make_carry_addition_task(
                 2, 3, evaluator="soft", soft_beta=1.5, prompt_limit=4)),
        inst("automaton-2-2", make_automaton_trace_task(2, 2),
             full_event(),
             EventSpec(latents=lambda z: z.ids[-2] == z.ids[0])),
        inst("automaton-2-3", make_automaton_trace_task(2, 3), corner),
        inst("automaton-2-4", make_automaton_trace_task(2, 4)),
        inst("automaton-3-2", make_automaton_trace_task(3, 2),
             EventSpec(latents=lambda z: z.ids[-2] == z.ids[0])),
        inst("automaton-3-3", make_automaton_trace_task(3, 3)),
        inst("automaton-4-2", make_automaton_trace_task(4, 2)),
        inst("automaton-5-2", make_automaton_trace_task(5, 2)),
        inst("automaton-3-4-soft",
             make_automaton_trace_task(3, 4, evaluator="soft"),
             full_event()),
        inst("automaton-2-5-soft",
             make_automaton_trace_task(2, 5, evaluator="soft", soft_beta=0.7)),
        inst("tag-4-5", make_reward_tag_task(4, 5), fail_obs, full_event()),
        inst("tag-3-8", make_reward_tag_task(3, 8), corner),
        inst("tag-5-4-soft",
             make_reward_tag_task(5, 4, evaluator="soft", soft_beta=2.0,
                                  wrong_penalty=-2.0)),
        inst("tag-2-25", make_reward_tag_task(2, 25),
             EventSpec(responses=lambda y: y.ids[0] % 2 == 0)),
    ]
    return _SUITE


def instance_by_name(name: str) -> Instance:
    for inst in standard_instances():
        if inst.name == name:
            return inst
    raise KeyError(f"no suite instance named {name!r}")


# -- small numeric helpers -------------------------------------------------------


def _central_fd(fn: Callable[[np.ndarray], float], theta: np.ndarray,
                h: float = 1e-5) -> np.ndarray:
    g = np.zeros_like(theta)
    for i in range(theta.size):
        up = theta.copy()
        dn = theta.copy()
        up[i] += h
        dn[i] -= h
        g[i] = (fn(up) - fn(dn)) / (2.0 * h)
    return g


def _rel_err(approx: np.ndarray, exact: np.ndarray) -> float:
    denom = max(float(np.linalg.norm(exact)), 1e-12)
    return float(np.linalg.norm(approx - exact)) / denom


def _union_tv(pairs_a, probs_a, pairs_b, probs_b) -> float:
    mass: dict[tuple[int, int], float] = {}
    for pair, p in zip(pairs_a, probs_a):
        mass[pair] = mass.get(pair, 0.0) + float(p)
    for pair, p in zip(pairs_b, probs_b):
        mass[pair] = mass.get(pair, 0.0) - float(p)
    return 0.5 * sum(abs(v) for v in mass.values())


def _event_triples(task: GenerativeTask, event: EventSpec) -> list[tuple[int, int, int]]:
    """The event's (z_idx, y_idx, o) triples, from `materialize_event` and
    sorted into the documented enumeration order: lexicographic in (latent
    tokens, response tokens, o).  Oracles enumerate events here, not
    through the compiled arrays they check."""
    z_idx, y_idx, obs = materialize_event(task, event)
    return sorted(
        ((zi, yi, o) for zi in z_idx for yi in y_idx for o in obs),
        key=lambda t: (task.latents[t[0]].ids, task.responses[t[1]].ids, t[2]),
    )


def _posterior_pairs(jm: JointModel, x_idx: int, event: EventSpec):
    """Brute-force event posterior over (z, y) pairs: every triple's joint
    probability times its evaluator mass, summed per pair and normalized."""
    task = jm.task
    mass: dict[tuple[int, int], float] = {}
    for zi, yi, o in _event_triples(task, event):
        w = math.exp(joint_logprob(jm.seq, x_idx, zi, yi)) * evaluator_entry(task, x_idx, zi, yi, o)
        mass[(zi, yi)] = mass.get((zi, yi), 0.0) + w
    total = sum(mass.values())
    return list(mass), np.array([w / total for w in mass.values()])


def _as_pairs(task: GenerativeTask, support) -> list[tuple[int, int]]:
    return [task.zy_unindex(int(k)) for k in support]


def joint_logprob(model: LogitModel, x_idx: int, z_idx: int, y_idx: int) -> float:
    """log P(z, y | x) of one pair, from its prompt's logits normalized on
    their own."""
    return float(_looped_log_probs(model, x_idx)[model.task.zy_index(z_idx, y_idx)])


def _given_success(s: float, o: int) -> float:
    """P(o | x, z, y) of an entry whose success probability is s."""
    if o not in (0, 1):
        raise OutOfSpaceError(f"observation {o!r} outside (0, 1)")
    return s if o == 1 else 1.0 - s


def evaluator_prob(task: GenerativeTask, x_idx: int, z_idx: int, y_idx: int, o: int) -> float:
    """P(o | x, z, y) of one triple, read from the success table."""
    if not 0 <= x_idx < task.n_prompts:
        raise OutOfSpaceError(f"prompt index {x_idx} outside [0, {task.n_prompts})")
    s = task_tables._success_table(task)[x_idx, task.zy_index(z_idx, y_idx)]
    return _given_success(float(s), o)


def evaluator_entry(task: GenerativeTask, x_idx: int, z_idx: int, y_idx: int,
                    o: int) -> float:
    """P(o | x, z, y) of one triple from one evaluator call on that entry
    alone, never read from the success table."""
    return _given_success(float(task.evaluator(x_idx, z_idx, y_idx)), o)


def factory_success(task: GenerativeTask, x_idx: int, z_idx: int, y_idx: int,
                    soft_beta: float = 1.0, wrong_penalty: float = -3.0) -> float:
    """s(x, z, y) of one entry of a factory task, rebuilt from `task.truth`
    and the factory's soft arguments alone: the tag task verifies the good
    tag on the correct response and the bad tag on every other, the carry
    and automaton tasks exactly the true pair; a soft task maps the verdict
    through exp(R / soft_beta), R = 0 if verified and wrong_penalty if not."""
    z_true, y_true = task.truth[x_idx]
    if task.name.startswith("reward-tag"):
        ok = (z_idx == GOOD_TAG) == (y_idx == y_true)
    else:
        ok = (z_idx, y_idx) == (z_true, y_true)
    if task.evaluator_kind == "binary":
        return 1.0 if ok else 0.0
    reward = 0.0 if ok else wrong_penalty
    return float(np.exp(reward / soft_beta))


def triple_logprob(jm: JointModel, x_idx: int, z_idx: int, y_idx: int, o: int) -> float:
    """log P(z, y, o | x), one triple at a time: the factorization whose
    observations the event terms sum out; -inf when the evaluator assigns o
    zero mass."""
    mass = evaluator_prob(jm.task, x_idx, z_idx, y_idx, o)
    return joint_logprob(jm.seq, x_idx, z_idx, y_idx) + (
        math.log(mass) if mass > 0.0 else -math.inf)


def prefix_nodes(trie: Trie) -> dict[tuple[int, ...], int]:
    """prefix -> node of every node of `trie`: the lookup oracles walk by."""
    return {prefix: node for node, prefix in enumerate(trie.prefixes)}


def sorted_prefix_trie(seqs: Sequence[Sequence[int]]) -> dict[str, object]:
    """The node arrays of the prefix tree of `seqs`, built from the sorted
    set of every prefix tuple: nodes in (length, prefix) order, each
    looked up by its prefix.  The oracle of `Trie`'s level-by-level build;
    `seqs` must be distinct, non-empty and prefix-free."""
    seqs = [tuple(s) for s in seqs]
    prefixes = sorted({s[:j] for s in seqs for j in range(len(s) + 1)},
                      key=lambda p: (len(p), p))
    index = {p: n for n, p in enumerate(prefixes)}
    kids: dict[int, list[int]] = {}
    for n, p in enumerate(prefixes[1:], 1):
        kids.setdefault(index[p[:-1]], []).append(n)
    child_lo, child_hi, level_start = [], [], []
    for n, p in enumerate(prefixes):
        run = kids.get(n, [])
        # a leaf's empty run sits where the children of the next parent begin
        lo = run[0] if run else 1 + sum(len(r) for m, r in kids.items() if m < n)
        child_lo.append(lo)
        child_hi.append(lo + len(run))
        if len(level_start) <= len(p):
            level_start.append(n)
    level_start.append(len(prefixes))
    return {
        "prefixes": prefixes,
        "parent": [-1] + [index[p[:-1]] for p in prefixes[1:]],
        "token": [-1] + [p[-1] for p in prefixes[1:]],
        "child_lo": child_lo,
        "child_hi": child_hi,
        "leaf_node": [index[s] for s in seqs],
        "level_start": level_start,
    }


def children(trie: Trie, node: int) -> range:
    """The node range of `node`'s children, one contiguous sibling run."""
    return range(trie.child_lo[node], trie.child_hi[node])


def _row_levels(trie: Trie) -> list[tuple]:
    """Deepest level first: each level's node range, the parents at its
    sibling-run starts, the run starts within it and each node's run."""
    levels = []
    for d in range(len(trie.level_start) - 2, 0, -1):
        lo, hi = int(trie.level_start[d]), int(trie.level_start[d + 1])
        par = trie.parent[lo:hi]
        new_run = np.r_[True, par[1:] != par[:-1]]
        levels.append((lo, hi, par[new_run], np.flatnonzero(new_run), np.cumsum(new_run) - 1))
    return levels


def row_upward(trie: Trie, leaf_values: np.ndarray, edge: np.ndarray | None = None,
               beta: float = 1.0) -> np.ndarray:
    """`Trie.upward` of one copy, one slice of node values per level: the
    oracle of the stacked kernel, with its arithmetic in its order."""
    v = np.zeros(trie.n_nodes)
    v[trie.leaf_node] = leaf_values
    with np.errstate(divide="ignore", under="ignore"):
        for lo, hi, owners, starts, run in _row_levels(trie):
            q = v[lo:hi] if edge is None else edge[lo:hi] + v[lo:hi]
            q = q / beta
            peak = np.maximum.reduceat(q, starts)
            peak[peak == -np.inf] = 0.0
            total = np.add.reduceat(np.exp(q - peak[run]), starts)
            v[owners] = beta * (peak + np.log(total))
    return v


def row_token_tables(trie: Trie, joint_log_probs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One prompt's token tables (`logp`, `cum`) from one row, node by
    node range: the oracle of the stacked all-prompt build."""
    v = row_upward(trie, joint_log_probs)
    logp = np.zeros(trie.n_nodes)
    with np.errstate(invalid="ignore"):
        logp[1:] = v[1:] - v[trie.parent[1:]]
    logp[np.isnan(logp)] = -np.inf
    with np.errstate(under="ignore"):
        cum = np.exp(logp)
    rank = np.arange(1, trie.n_nodes) - trie.child_lo[trie.parent[1:]]
    for k in range(1, int(rank.max()) + 1):
        nodes = np.flatnonzero(rank == k) + 1
        cum[nodes] += cum[nodes - 1]
    return logp, np.append(cum, np.inf)


def conditional(view: AutoregressiveView,
                prefix: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """(actions, conditional log probs) available after `prefix`, looked up
    one prefix at a time; `OutOfSpaceError` when it has no continuation
    mass."""
    node = prefix_nodes(view.trie).get(prefix)
    run = children(view.trie, node) if node is not None else range(0)
    # a zero-mass prefix gives every child a -inf conditional
    if not np.any(view.logp[run] > -np.inf):
        raise OutOfSpaceError(f"prefix {prefix} has no continuation mass")
    return view.trie.token[run], view.logp[run]


def success_weights(model: LogitModel) -> np.ndarray:
    """[prompts, joint] target of filtered and reweighted self-training at
    an unbounded budget, pair by pair: p(z, y | x) P(o = 1 | x, z, y),
    normalized per prompt.  It is the exact E-step's target on the success
    event."""
    task = model.task
    weights = np.array([
        [math.exp(joint_logprob(model, x, zi, yi)) * evaluator_entry(task, x, zi, yi, 1)
         for zi, yi in _as_pairs(task, range(task.n_joint))]
        for x in range(task.n_prompts)
    ])
    return weights / weights.sum(axis=1, keepdims=True)


def truth_one_hot(task: GenerativeTask) -> np.ndarray:
    """[prompts, joint] M-step target with all of each prompt's weight on its
    reference (z, y): the target of supervised fine-tuning on gold rationales."""
    target = np.zeros((task.n_prompts, task.n_joint))
    for x, (z, y) in task.truth.items():
        target[x, task.zy_index(z, y)] = 1.0
    return target


def kl_identity_form(a: LogitModel, b: LogitModel, x_idx: int) -> float:
    """KL(P_a || P_b) at one prompt via A_b - A_a + E_a[f_a - f_b]: the
    divergence from partition functions and logit expectations instead of
    probability ratios, an oracle for `kl_rows`."""
    fa = a.features.logits(x_idx, a.theta)
    fb = b.features.logits(x_idx, b.theta)
    p = a.joint_probs(x_idx)
    return float(logsumexp(fb) - logsumexp(fa) + np.dot(p, fa - fb))


def kl_between(a: LogitModel, b: LogitModel, x_idx: int) -> float:
    """KL(P_a(.,.|x) || P_b(.,.|x)) at one prompt, from its own log
    probabilities: the per-prompt form of `models.kl_rows`."""
    model_kernel._require_same_task(a, b)
    p = a.joint_probs(x_idx)
    diff = a.joint_log_probs(x_idx) - b.joint_log_probs(x_idx)
    mask = p > 0.0
    return float(np.sum(p[mask] * diff[mask]))


def _kl_form_gap(a: LogitModel, b: LogitModel, x_idx: int) -> float:
    """Largest gap between `kl_rows` and the identity form at one prompt,
    over both directions."""
    return max(abs(kl_rows(a, b)[x_idx] - kl_identity_form(a, b, x_idx)),
               abs(kl_rows(b, a)[x_idx] - kl_identity_form(b, a, x_idx)))


def _log_partition(model: LogitModel, x_idx: int) -> np.ndarray:
    """A(x, theta) as the model applies it: logits minus log probabilities,
    one rounded copy per joint outcome."""
    return model.features.logits(x_idx, model.theta) - model.joint_log_probs(x_idx)


def event_terms(jm: JointModel, x_idx: int, event: EventSpec) -> np.ndarray:
    """log P(z, y | x) + log m_x(z, y) at one prompt, from the model's row
    and the event's mass row alone."""
    with np.errstate(divide="ignore"):
        return jm.seq.joint_log_probs(x_idx) + np.log(compile_event(jm.task, event).mass(x_idx))


def event_logprob(jm: JointModel, x_idx: int, event: EventSpec) -> float:
    """log P(event | x, theta) at one prompt; -inf signals a zero-mass (not
    invalid) event."""
    return log_sum_exp(event_terms(jm, x_idx, event))


def row_posterior(jm: JointModel, x_idx: int, event: EventSpec) -> np.ndarray:
    """The exact posterior row of one prompt through the one-row
    `log_sum_exp`: the oracle of the all-prompt event table's rows."""
    terms = event_terms(jm, x_idx, event)
    with np.errstate(under="ignore"):
        return np.exp(terms - log_sum_exp(terms))


def grad_event_logprob(jm: JointModel, x_idx: int, event: EventSpec) -> np.ndarray:
    """d/dtheta log P(event | x) at one prompt: posterior minus model
    feature means."""
    q_vec = jm.exact_posterior(x_idx, event)
    p_vec = jm.seq.joint_probs(x_idx)
    return jm.seq.features.adjoint(x_idx, q_vec - p_vec)


def dense_features(features) -> np.ndarray:
    """[prompts, joint, dim] Phi rebuilt from the map's descriptor alone.

    Tabular: one indicator per (prompt, joint index).  N-gram: every
    BOS-padded window of every joint sequence counted, feature ids given
    in first-appearance order of (prompt, position, window) over prompts,
    then sequences, then positions; position -1 when not positional,
    prompt 0 when shared.
    """
    task, desc = features.task, features.descriptor()
    n_prompts, n_joint = task.n_prompts, task.n_joint
    if desc["kind"] == "tabular":
        phi = np.zeros((n_prompts, n_joint, n_prompts * n_joint))
        for x in range(n_prompts):
            for k in range(n_joint):
                phi[x, k, x * n_joint + k] = 1.0
        return phi
    n = desc["n"]
    ids: dict[tuple, int] = {}
    hits = []
    for x in range(n_prompts):
        for k, seq in enumerate(task.joint_sequences):
            tokens = [BOS] * (n - 1) + list(seq)
            for j in range(len(seq)):
                key = (x if desc["per_prompt"] else 0,
                       j if desc["positional"] else -1, tuple(tokens[j:j + n]))
                if key not in ids:
                    ids[key] = len(ids)
                hits.append((x, k, ids[key]))
    phi = np.zeros((n_prompts, n_joint, len(ids)))
    for x, k, fid in hits:
        phi[x, k, fid] += 1.0
    return phi


def fisher_move_oracle(phi_x: np.ndarray, p: np.ndarray,
                       advantage: np.ndarray) -> np.ndarray:
    """The Fisher move from its definition, over every feature: the dense
    rows phi_j of `phi_x`, F = sum_j p_j (phi_j - phibar)(phi_j - phibar)^T
    and (F + FISHER_RIDGE tr F I) w = sum_j p_j A_j phi_j; returns
    (phi_j - phibar) . w for every j."""
    rows = list(phi_x)
    mean = sum(pj * row for pj, row in zip(p, rows))
    fisher = sum(pj * np.outer(row - mean, row - mean) for pj, row in zip(p, rows))
    rhs = sum(pj * aj * row for pj, aj, row in zip(p, advantage, rows))
    ridge = FISHER_RIDGE * np.trace(fisher)
    w = np.linalg.solve(fisher + ridge * np.eye(phi_x.shape[1]), rhs)
    return np.array([float(np.dot(row - mean, w)) for row in rows])


def _fd_grad_error(model: LogitModel, event: EventSpec) -> float:
    """Relative error of the averaged gradient against central differences
    of the averaged objective."""
    def averaged(theta: np.ndarray) -> float:
        return JointModel(model.with_theta(theta)).averaged_event_logprob(event)

    analytic = JointModel(model).averaged_grad(event)
    return _rel_err(_central_fd(averaged, model.theta.copy()), analytic)


def _live_elbos(jm: JointModel, x_idx: int, event: EventSpec, live: np.ndarray,
                rng: np.random.Generator, alphas):
    """ELBO reports of Dirichlet(alpha) variationals, one per alpha, drawn on
    the live sub-simplex so the bound is non-vacuous."""
    for alpha in alphas:
        q = np.zeros(len(live))
        q[live] = rng.dirichlet(np.full(int(live.sum()), alpha))
        yield jm.elbo(x_idx, event, q)


# prompt-by-prompt forms of the batched matrix and averages: oracles for
# `LogitModel.log_probs_all`, `JointModel.averaged_event_logprob`,
# `averaged_grad` and `_averaged_kl`


def _looped_log_probs(model: LogitModel, x_idx: int) -> np.ndarray:
    """log P(z, y | x) at one prompt, its logits normalized on their own."""
    logits = model.features.logits(x_idx, model.theta)
    return logits - logsumexp(logits)


def _looped_objective(jm: JointModel, event: EventSpec) -> float:
    rho = jm.task.rho
    return float(sum(rho[x] * event_logprob(jm, x, event) for x in range(len(rho))))


def _looped_grad(jm: JointModel, event: EventSpec) -> np.ndarray:
    grad = np.zeros(jm.seq.features.dim)
    for x in range(jm.task.n_prompts):
        grad += jm.task.rho[x] * grad_event_logprob(jm, x, event)
    return grad


def _looped_kl(new: LogitModel, old: LogitModel, rho: np.ndarray) -> float:
    return float(sum(rho[x] * kl_between(new, old, x) for x in range(len(rho))))


# planner generators and oracles: trees built edge by edge, the plan's
# trajectory law, and the softmax of summed rewards and the regularized
# return, which run no value recursion

Prefix = tuple[int, ...]


def from_sequences(
    seqs: Sequence[Prefix],
    reward_fn: Callable[[Prefix, int], float],
    beta: float,
    horizon: int | None = None,
) -> ShapedMdp:
    """The tree MDP of `seqs` with rewards from `reward_fn`.

    `reward_fn` is invoked once per (prefix, action) edge, visiting
    prefixes in sorted order and actions in ascending order, so
    generator-backed reward functions are reproducible.  Sequences must
    be distinct and prefix-free, and no longer than `horizon` if given.
    """
    trie = Trie(seqs)
    too_long = horizon is not None and sum(len(s) > horizon for s in trie.sequences)
    if too_long:
        raise HorizonViolationError(f"{too_long} trajectories exceed horizon {horizon}")
    reward = np.zeros(trie.n_nodes)
    for prefix, node in sorted((trie.prefixes[n], n) for n in trie.internal):
        for child in children(trie, node):
            reward[child] = reward_fn(prefix, int(trie.token[child]))
    return ShapedMdp(trie=trie, reward=reward, beta=beta)


def random_shaped_mdp(
    rng: np.random.Generator,
    horizon: int,
    n_actions: int,
    beta: float,
    reward_scale: float = 1.0,
) -> ShapedMdp:
    """Full depth-`horizon` tree over `n_actions` tokens with normal rewards."""
    if horizon < 1 or n_actions < 1:
        raise ValueError("need horizon >= 1 and n_actions >= 1")
    seqs: list[Prefix] = [()]
    for _ in range(horizon):
        seqs = [s + (a,) for s in seqs for a in range(n_actions)]

    def reward_fn(prefix: Prefix, action: int) -> float:
        # from_sequences asks once per edge, so each edge gets one fresh draw
        return float(rng.normal(0.0, reward_scale))

    return from_sequences(seqs, reward_fn, beta, horizon=horizon)


def trajectory_distribution(
    plan: SoftPlan, from_prefix: Prefix = ()
) -> tuple[list[tuple[int, ...]], np.ndarray]:
    """Suffix distribution induced by the soft-optimal policy from a state,
    in lexicographic suffix order."""
    trie, n = plan.mdp.trie, len(from_prefix)
    nodes = prefix_nodes(trie)
    if from_prefix not in nodes:
        raise KeyError(f"state {from_prefix} is not in the tree")
    path_logp = trie.downward(plan.log_policy, nodes[from_prefix])
    leaves = sorted((s[n:], k) for k, s in enumerate(trie.sequences) if s[:n] == from_prefix)
    with np.errstate(under="ignore"):
        probs = np.exp(path_logp[trie.leaf_node[[k for _, k in leaves]]])
    return [suffix for suffix, _ in leaves], probs


def softmax_total_rewards(
    mdp: ShapedMdp, from_prefix: Prefix = ()
) -> tuple[list[tuple[int, ...]], np.ndarray]:
    """Brute-force reference: suffix probs proportional to exp(sum r / beta).

    Enumerates completions and softmaxes their summed rewards directly,
    with no value recursion; the planner's trajectory distribution must
    match this to floating-point accuracy.
    """
    trie = mdp.trie
    suffixes: list[tuple[int, ...]] = []
    totals: list[float] = []
    stack = [(prefix_nodes(trie)[from_prefix], (), 0.0)]
    while stack:
        node, suffix, acc = stack.pop()
        run = children(trie, node)
        if not run:
            suffixes.append(suffix)
            totals.append(acc)
            continue
        for c in reversed(run):
            stack.append((c, suffix + (int(trie.token[c]),), acc + float(mdp.reward[c])))
    scaled = np.array(totals) / mdp.beta
    with np.errstate(under="ignore"):
        probs = np.exp(scaled - logsumexp(scaled))
    return suffixes, probs / probs.sum()


def _trajectory_law_tv(plan: SoftPlan, start: Prefix) -> tuple[float, float]:
    """Total variation between the planner's trajectory law from `start` and
    the softmax of summed rewards, and the planner law's total mass."""
    got_seq, got = trajectory_distribution(plan, start)
    ref_seq, ref = softmax_total_rewards(plan.mdp, start)
    lookup = dict(zip(ref_seq, ref))
    aligned = np.array([lookup[s] for s in got_seq])
    return 0.5 * float(np.abs(got - aligned).sum()), float(got.sum())


def regularized_return(
    mdp: ShapedMdp, log_policy: np.ndarray, from_prefix: Prefix = ()
) -> float:
    """Exact E[sum r - beta * log pi] of an arbitrary policy from a state;
    `log_policy` is per node, as in `SoftPlan.log_policy`."""
    trie = mdp.trie

    def value(node: int) -> float:
        total = 0.0
        for c in children(trie, node):
            lp = float(log_policy[c])
            p = np.exp(lp)
            if p == 0.0:
                continue
            total += p * (float(mdp.reward[c]) - mdp.beta * lp + value(c))
        return total

    return value(prefix_nodes(trie)[from_prefix])


def random_policy(mdp: ShapedMdp, rng: np.random.Generator) -> np.ndarray:
    """Independent random action distribution at every internal node,
    drawn in node (level) order."""
    out = np.zeros(mdp.trie.n_nodes)
    for node in mdp.trie.internal:
        run = children(mdp.trie, node)
        probs = rng.dirichlet(np.ones(len(run)))
        out[run] = np.log(np.maximum(probs, 1e-300))
    return out


# -- tasks -----------------------------------------------------------------------


def check_tasks_factory_counts() -> CheckResult:
    """Space sizes match the combinatorics of each construction."""
    # carry: (b^d)^2 prompt pairs, (2b)^d column claims, b^(d+1) sums
    cases = [
        (make_carry_addition_task(1, 3), 9, 6, 9),
        (make_carry_addition_task(2, 2), 16, 16, 8),
        (make_automaton_trace_task(2, 3), 8, 8, 2),
        (make_automaton_trace_task(3, 2), 4, 9, 2),
        (make_reward_tag_task(3, 4), 3, 2, 4),
    ]
    for task, nx, nz, ny in cases:
        got = (task.n_prompts, task.n_latents, task.n_responses)
        if got != (nx, nz, ny):
            return _fail(f"{task.name}: spaces {got}, expected {(nx, nz, ny)}")
    limited = make_carry_addition_task(1, 10, prompt_limit=4)
    if limited.n_prompts != 4 or limited.n_joint != 2000:
        return _fail(f"prompt_limit task has {limited.n_prompts} prompts, "
                     f"{limited.n_joint} joint outcomes")
    return _ok(f"{len(cases) + 1} constructions sized as derived")


def check_tasks_evaluator_normalization() -> CheckResult:
    """Every success probability, read through the table, equals bit for
    bit the entry rebuilt from the task's truth, binary and soft alike; the
    table build refuses a value outside [0, 1], so agreement is what can
    fail."""
    cases = [
        (make_carry_addition_task, (1, 3), {}),
        (make_carry_addition_task, (2, 2), dict(prompt_limit=5, seed=3)),
        (make_automaton_trace_task, (3, 2), dict(seed=1)),
        (make_reward_tag_task, (4, 5), {}),
    ]
    evaluators = [("binary", 1.0, -3.0), ("soft", 2.0, -3.0), ("soft", 0.7, -0.5),
                  ("soft", 1.5, -6.25)]
    for make, args, kwargs in cases:
        for kind, beta, penalty in evaluators:
            task = make(*args, **kwargs, evaluator=kind, soft_beta=beta, wrong_penalty=penalty)
            table = task_tables._success_table(task)
            for x in range(task.n_prompts):
                for zi in range(task.n_latents):
                    for yi in range(task.n_responses):
                        s = factory_success(task, x, zi, yi, beta, penalty)
                        got = table[x, task.zy_index(zi, yi)]
                        if got.tobytes() != np.float64(s).tobytes():
                            return _fail(f"{task.name} {kind} beta={beta}: s{(x, zi, yi)} "
                                         f"= {got!r}, truth gives {s!r}")
    return _ok(f"{len(cases) * len(evaluators)} tasks equal their truth entries")


def check_tasks_unique_truth() -> CheckResult:
    """Verified sets match each construction's design exactly."""
    for inst in standard_instances():
        task = inst.task
        if task.evaluator_kind != "binary":
            continue
        for x in range(task.n_prompts):
            verified = [
                (zi, yi)
                for zi in range(task.n_latents)
                for yi in range(task.n_responses)
                if evaluator_prob(task, x, zi, yi, 1) == 1.0
            ]
            if task.name.startswith("reward-tag"):
                # good tag on the correct response, bad tag on all others
                if len(verified) != task.n_responses:
                    return _fail(f"{inst.name} x={x}: {len(verified)} verified "
                                 f"pairs, expected {task.n_responses}")
                if task.truth[x] not in verified:
                    return _fail(f"{inst.name} x={x}: truth not verified")
                good = [p for p in verified if p[0] == GOOD_TAG]
                if good != [task.truth[x]]:
                    return _fail(f"{inst.name} x={x}: good-tag set {good}")
            else:
                if verified != [task.truth[x]]:
                    return _fail(f"{inst.name} x={x}: verified set {verified} "
                                 f"!= truth {task.truth[x]}")
    return _ok("every binary instance verifies exactly its designed set")


def check_tasks_event_enumeration() -> CheckResult:
    """Materialization, enumeration order, and guards agree."""
    task = instance_by_name("carry-d1-b2").task
    z_idx, y_idx, o_idx = materialize_event(task, full_event())
    if z_idx != tuple(range(task.n_latents)) or y_idx != tuple(range(task.n_responses)):
        return _fail("full event does not materialize to the full spaces")
    succ = success_event()
    if materialize_event(task, succ)[2] != (1,):
        return _fail("success event does not pin o = 1")
    compiled = compile_event(task, succ)
    triples = _event_triples(task, succ)
    if len(triples) != task.n_joint:
        return _fail(f"success event enumerates {len(triples)} triples")
    brute = np.zeros(task.n_joint)
    for z, y, o in triples:
        brute[task.zy_index(z, y)] += evaluator_entry(task, 0, z, y, o)
    if not np.array_equal(compiled.mass(0), brute):
        return _fail("compiled mass row disagrees with the enumerated triples")
    first_seen = list(dict.fromkeys(task.zy_index(z, y) for z, y, _ in triples))
    if compiled.pair_joint.tolist() != first_seen:
        return _fail("zy support order disagrees with enumeration order")
    pred = EventSpec(latents=lambda z: z.ids[0] == task.latents[0].ids[0])
    keep = tuple(i for i, z in enumerate(task.latents)
                 if z.ids[0] == task.latents[0].ids[0])
    if materialize_event(task, pred)[0] != keep:
        return _fail("predicate materialization mismatch")
    if not _expect_raises(EmptyEventError, materialize_event, task,
                          EventSpec(latents=())):
        return _fail("empty latent axis did not raise")
    if not _expect_raises(OutOfSpaceError, materialize_event, task,
                          EventSpec(responses=(0, 99))):
        return _fail("out-of-range response index did not raise")
    if not _expect_raises(OutOfSpaceError, materialize_event, task,
                          EventSpec(obs=(7,))):
        return _fail("unknown observation value did not raise")
    if not _expect_raises(OutOfSpaceError, materialize_event, task,
                          EventSpec(latents=(0.7,))):
        return _fail("a fractional latent index was truncated, not refused")
    return _ok("orders, predicates, and guards all agree")


# each instance's task section in a config, as its factory arguments
_TASK_SECTIONS = {
    "carry-d1-b2": "{kind: carry, digits: 1, base: 2}",
    "tag-5-4-soft": "{kind: tag, n_prompts: 5, n_responses: 4, evaluator: soft, "
                    "soft_beta: 2.0, wrong_penalty: -2.0}",
}


def check_tasks_serialization_roundtrip() -> CheckResult:
    """A task's config section, resolved, written and parsed back, rebuilds
    its spaces, truth, rho and success table."""
    from . import harness

    for name, section in _TASK_SECTIONS.items():
        task = instance_by_name(name).task
        cfg = harness.parse_config(f"task: {section}\nalgorithm: em\n")
        again = harness.parse_config(harness.resolved_text(cfg))
        back = harness.build_task(again.data["task"])
        if (back.prompts != task.prompts or back.vocab != task.vocab
                or [z.ids for z in back.latents] != [z.ids for z in task.latents]
                or [y.ids for y in back.responses] != [y.ids for y in task.responses]
                or back.truth != task.truth
                or not np.array_equal(back.rho, task.rho)):
            return _fail(f"{name}: spaces changed across the roundtrip")
        if back.success.tobytes() != task.success.tobytes():
            return _fail(f"{name}: success table changed across the roundtrip")
    return _ok("binary and soft config sections roundtrip exactly")


def check_tasks_determinism() -> CheckResult:
    """Same arguments rebuild the same task; seeds actually matter."""
    a = make_reward_tag_task(4, 6, seed=3)
    b = make_reward_tag_task(4, 6, seed=3)
    if a.truth != b.truth or a.prompts != b.prompts:
        return _fail("same-seed tag tasks differ")
    if [z.ids for z in a.latents] != [z.ids for z in b.latents]:
        return _fail("same-seed tag latents differ")
    c = make_reward_tag_task(4, 6, seed=4)
    if c.truth == a.truth:
        return _fail("different seeds produced identical truths")
    d1 = make_carry_addition_task(1, 3)
    d2 = make_carry_addition_task(1, 3)
    if d1.truth != d2.truth or d1.prompts != d2.prompts:
        return _fail("carry construction is not deterministic")
    return _ok("rebuilds are identical, seed changes are visible")


def check_tasks_cap_enforcement() -> CheckResult:
    """Joint spaces beyond the enumeration cap are refused."""
    if not _expect_raises(CapExceededError, make_carry_addition_task, 1, 3, cap=10):
        return _fail("carry 1x3 with cap 10 did not raise")
    if not _expect_raises(CapExceededError, make_reward_tag_task, 2, 30, cap=50):
        return _fail("tag 2x30 with cap 50 did not raise")
    return _ok("oversized spaces raise before construction")


def check_tasks_sequence_validation() -> CheckResult:
    """Malformed token sequences cannot enter a task."""
    vocab = Vocabulary(size=4, eos=3)
    z = TokenSequence((0, 3))
    y = TokenSequence((1, 3))

    def build(**overrides):
        base = dict(
            name="probe", vocab=vocab, prompts=("p",), rho=np.array([1.0]),
            latents=(z,), responses=(y,),
            evaluator=lambda x, zi, yi: 1.0, evaluator_kind="binary", horizon=4,
        )
        base.update(overrides)
        return GenerativeTask(**base)

    build()
    cases = [
        (TaskDefinitionError, dict(latents=(TokenSequence((3, 3)),))),     # eos mid-sequence
        (TaskDefinitionError, dict(latents=(TokenSequence((9, 3)),))),     # out of vocabulary
        (TaskDefinitionError, dict(latents=(TokenSequence((0, 1)),))),     # missing eos
        (HorizonViolationError, dict(horizon=3)),                          # joint length 4 > 3
        (TaskDefinitionError, dict(latents=(z, z))),                       # duplicate latent
        (TaskDefinitionError, dict(rho=np.array([0.5]))),                  # rho not normalized
    ]
    for i, (error, overrides) in enumerate(cases):
        if not _expect_raises(error, build, **overrides):
            return _fail(f"malformed case {i} was accepted")
    if not _expect_raises(TaskDefinitionError, Vocabulary, 2, 5):
        return _fail("eos outside the vocabulary was accepted")
    return _ok("all malformed constructions raise")


# -- models ----------------------------------------------------------------------


def check_models_partition_oracle() -> CheckResult:
    """log partition matches a plain-Python sum and two frozen values."""
    # uniform logits: A = log |Z x Y|; frozen from that count
    tag = _log_partition(uniform_model(make_reward_tag_task(2, 3)), 0)
    if np.max(np.abs(tag - 1.791759469228055)) > 1e-12:
        return _fail(f"uniform tag partition {tag!r} != ln 6")
    aut = _log_partition(uniform_model(make_automaton_trace_task(2, 1)), 0)
    if np.max(np.abs(aut - 1.3862943611198906)) > 1e-12:
        return _fail(f"uniform automaton partition {aut!r} != ln 4")
    worst = 0.0
    for k, name in enumerate(("carry-d1-b2", "tag-4-5", "automaton-3-2")):
        task = instance_by_name(name).task
        model = random_model(task, stream(SEED, "partition", k), scale=0.7)
        for x in range(task.n_prompts):
            row = model.features.logits(x, model.theta)
            naive = 0.0
            for v in row:
                naive += math.exp(float(v))
            gap = np.abs(_log_partition(model, x) - math.log(naive))
            worst = max(worst, float(gap.max()))
    if worst > 1e-12:
        return _fail(f"partition deviates {worst:.3e} from the naive sum")
    return _ok(f"frozen values hit, naive-sum gap {worst:.3e}")


def check_models_normalization() -> CheckResult:
    """Joint probabilities are simplex points for random models."""
    for k, inst in enumerate(standard_instances()):
        model = random_model(inst.task, stream(SEED, "norm", k), scale=1.1)
        for x in range(inst.task.n_prompts):
            p = model.joint_probs(x)
            if abs(float(p.sum()) - 1.0) > 1e-12 or float(p.min()) < 0.0:
                return _fail(f"{inst.name} x={x}: sum {p.sum()!r}")
    return _ok("all suite instances normalize to 1e-12")


def check_models_autoregressive_consistency() -> CheckResult:
    """Chained token conditionals reproduce the joint distribution."""
    for k, name in enumerate(("carry-d1-b2", "tag-3-8", "automaton-2-3")):
        task = instance_by_name(name).task
        model = random_model(task, stream(SEED, "ar", k), scale=1.0)
        for x in range(task.n_prompts):
            view = model.conditional_tables(x)
            log_joint = model.joint_log_probs(x)
            children: dict[tuple[int, ...], set[int]] = {}
            for seq in task.joint_sequences:
                for pos in range(len(seq)):
                    children.setdefault(seq[:pos], set()).add(seq[pos])
            index = prefix_nodes(view.trie)
            for kk, seq in enumerate(task.joint_sequences):
                total = 0.0
                for pos in range(len(seq)):
                    total += float(view.logp[index[seq[:pos + 1]]])
                if abs(total - float(log_joint[kk])) > 1e-10:
                    return _fail(f"{name} x={x}: chain deviates "
                                 f"{abs(total - float(log_joint[kk])):.3e}")
            for prefix, acts in children.items():
                mass = sum(math.exp(view.logp[index[prefix + (a,)]]) for a in acts)
                if abs(mass - 1.0) > 1e-10:
                    return _fail(f"{name} x={x}: conditional at {prefix} "
                                 f"sums to {mass!r}")
    return _ok("token chains match joints and conditionals normalize")


def check_models_sampling_exactness() -> CheckResult:
    """Autoregressive sampling follows the joint distribution."""
    task = make_reward_tag_task(1, 4, seed=5)
    model = random_model(task, stream(SEED, "sample-model"), scale=1.0)
    rng = stream(SEED, "sample-draws")
    view = model.conditional_tables(0)
    n = 100_000
    counts = np.zeros(task.n_joint)
    for _ in range(n):
        zi, yi = view.sample(rng)
        counts[task.zy_index(zi, yi)] += 1
    expected = model.joint_probs(0) * n
    stat = chisquare(counts, expected)
    if stat.pvalue < 1e-3:
        return _fail(f"chi-square p {stat.pvalue:.2e} at {n} draws")
    greedy = view.greedy()
    top = int(np.argmax(model.joint_probs(0)))
    if task.zy_index(*greedy) != top:
        return _fail(f"greedy pair {greedy} is not the joint argmax")
    # point mass: clamp everything except one outcome
    theta = np.full(model.features.dim, LOG_CLAMP)
    theta[task.zy_index(1, 2)] = 0.0
    point = model.with_theta(theta)
    point_view = point.conditional_tables(0)
    draws = {point_view.sample(stream(SEED, "point", i)) for i in range(30)}
    if draws != {(1, 2)}:
        return _fail(f"point-mass model sampled {draws}")
    return _ok(f"chi-square p {stat.pvalue:.3f}, greedy and point mass exact")


def check_models_batched_draws_match_walks() -> CheckResult:
    """Batched level-by-level draws are successive single-draw walks."""
    n = 400
    for k, name in enumerate(("tag-4-5", "carry-d1-b10-lim", "carry-d2-b3-lim",
                              "automaton-3-4-soft")):
        task = instance_by_name(name).task
        rng = stream(SEED, "batched-draws", k)
        model = random_model(task, rng, scale=1.5)
        x = int(rng.integers(task.n_prompts))
        # a point mass under clamped logits, and a third of the leaves at -inf
        top = int(rng.integers(task.n_joint))
        theta = np.full(model.features.dim, LOG_CLAMP)
        theta[x * task.n_joint + top] = 0.0
        dead = rng.random(task.n_joint) < 1 / 3
        dead[top] = False
        lp = np.where(dead, -np.inf, model.joint_log_probs(x))
        views = {
            "random": model.conditional_tables(x),
            "point mass": model.with_theta(theta).conditional_tables(x),
            "-inf leaves": AutoregressiveView(task, lp - logsumexp(lp)),
        }
        for j, (kind, view) in enumerate(views.items()):
            batched, walked = stream(SEED, "walks", k, j), stream(SEED, "walks", k, j)
            drawn = view.draws(batched, n)
            walks = [task.zy_index(*view.sample(walked)) for _ in range(n)]
            if drawn.tolist() != walks:
                first = int(np.flatnonzero(drawn != walks)[0])
                return _fail(f"{name} {kind}: draw {first} is {drawn[first]}, "
                             f"the walk gives {walks[first]}")
            if batched.bit_generator.state != walked.bit_generator.state:
                return _fail(f"{name} {kind}: draws leave the generator elsewhere")
            if kind == "point mass" and set(walks) != {top}:
                return _fail(f"{name}: the point mass drew {sorted(set(walks))}")
            if kind == "-inf leaves" and dead[drawn].any():
                return _fail(f"{name}: a -inf leaf was drawn")
    return _ok(f"{n} draws equal {n} walks on 4 tasks, 3 models each")


# a prefix-free set in shuffled order with leaves at depths 2 and 3: its
# leaves and its depth-2 owners are index arrays, not runs of nodes
SHUFFLED_SET = ((2, 0, 1), (0, 2), (1, 0, 2), (0, 0), (1, 1), (0, 1), (2, 0, 0))


def check_models_stacked_tables_match_rows() -> CheckResult:
    """All-prompt token tables, planner passes and posterior rows equal
    their one-row oracles bit for bit, on four tasks and on a shuffled set
    with leaves at two depths."""
    for k, name in enumerate(("carry-d1-b3", "tag-4-5", "carry-d2-b3-lim",
                              "automaton-3-4-soft")):
        inst = instance_by_name(name)
        task, trie = inst.task, inst.task.trie
        rng = stream(SEED, "stacked", k)
        model = random_model(task, rng, scale=1.5)
        # a point mass at each prompt under clamped logits, and a matrix with
        # a third of its leaves -inf and one row that is all -inf but one
        theta = np.full(model.features.dim, LOG_CLAMP)
        theta[np.arange(task.n_prompts) * task.n_joint
              + rng.integers(task.n_joint, size=task.n_prompts)] = 0.0
        point = model.with_theta(theta)
        dead = np.where(rng.random((task.n_prompts, task.n_joint)) < 1 / 3, -np.inf,
                        model.log_probs_all())
        dead[-1] = -np.inf
        dead[-1, rng.integers(task.n_joint)] = 0.0
        cases = {
            "random": [model.conditional_tables(x) for x in range(task.n_prompts)],
            "point mass": [point.conditional_tables(x) for x in range(task.n_prompts)],
            "-inf leaves": AutoregressiveView.stacked(task, dead),
            "one row": [AutoregressiveView(task, row) for row in dead],
        }
        rows = {"random": model.log_probs_all(), "point mass": point.log_probs_all(),
                "-inf leaves": dead, "one row": dead}
        for kind, views in cases.items():
            for x, view in enumerate(views):
                logp, cum = row_token_tables(trie, rows[kind][x])
                if view.logp.tobytes() != logp.tobytes() or view.cum.tobytes() != cum.tobytes():
                    return _fail(f"{name} {kind}: prompt {x}'s tables differ from its row's")
        edge = rng.normal(0.0, 2.0, trie.n_nodes)
        for beta in (1.0, 0.3):
            leaves = np.zeros(len(trie.sequences))
            if trie.upward(leaves, edge, beta).tobytes() != row_upward(
                    trie, leaves, edge, beta).tobytes():
                return _fail(f"{name}: a planner pass at beta {beta} differs from its row's")
        for event in inst.events:
            jm = JointModel(model)
            for x in range(task.n_prompts):
                if jm.exact_posterior(x, event).tobytes() != row_posterior(
                        jm, x, event).tobytes():
                    return _fail(f"{name}: the posterior row of prompt {x} differs "
                                 f"from its one-row form")
    trie = Trie(SHUFFLED_SET)
    rng = stream(SEED, "stacked", "shuffled")
    rows = np.where(rng.random((4, len(trie.sequences))) < 1 / 3, -np.inf,
                    rng.normal(0.0, 3.0, (4, len(trie.sequences))))
    rows[-1] = -np.inf
    rows[-1, rng.integers(len(trie.sequences))] = 0.0
    for x, view in enumerate(AutoregressiveView.stacked(SimpleNamespace(trie=trie), rows)):
        logp, cum = row_token_tables(trie, rows[x])
        if view.logp.tobytes() != logp.tobytes() or view.cum.tobytes() != cum.tobytes():
            return _fail(f"shuffled set: row {x}'s tables differ from its row's")
    edge = rng.normal(0.0, 2.0, (len(rows), trie.n_nodes))
    for beta in (1.0, 0.3):
        soft = trie.upward(np.zeros(rows.shape), edge, beta)
        for x in range(len(rows)):
            if soft[x].tobytes() != row_upward(trie, np.zeros(len(trie.sequences)), edge[x],
                                               beta).tobytes():
                return _fail(f"shuffled set: row {x}'s planner pass at beta {beta} differs "
                             f"from its row's")
    return _ok("4 tasks: tables of 3 stacked and 1 one-row build, planner passes "
               "and posterior rows bit-exact; shuffled two-depth set: stacked tables "
               "and planner passes bit-exact")


def check_models_kl_forms_agree() -> CheckResult:
    """Direct KL and the potential-difference identity coincide."""
    worst = 0.0
    suite = standard_instances()
    for k in range(40):
        inst = suite[k % len(suite)]
        rng = stream(SEED, "klpair", k)
        a = random_model(inst.task, rng, scale=0.8)
        b = random_model(inst.task, rng, scale=0.8)
        x = int(rng.integers(inst.task.n_prompts))
        worst = max(worst, _kl_form_gap(a, b, x))
        if kl_rows(a, a)[x] > 1e-12 or kl_rows(a, b)[x] < -1e-12:
            return _fail(f"draw {k}: self-KL or negativity violated")
    if worst > 1e-9:
        return _fail(f"forms disagree by {worst:.3e} > 1e-9")
    return _ok(f"max disagreement {worst:.3e} over 80 directed pairs")


def check_models_checkpoint_roundtrip() -> CheckResult:
    """Checkpoints restore parameters exactly and refuse wrong tasks."""
    task = instance_by_name("tag-4-5").task
    model = random_model(task, stream(SEED, "ckpt"), scale=1.3)
    buf = io.StringIO()
    write_checkpoint(model, buf)
    back = read_checkpoint(task, io.StringIO(buf.getvalue()))
    if not np.array_equal(back.theta, model.theta):
        return _fail("theta changed across the text roundtrip")
    other = instance_by_name("tag-3-8").task
    if not _expect_raises(RecordFormatError, read_checkpoint, other,
                          io.StringIO(buf.getvalue())):
        return _fail("checkpoint loaded into a mismatched task")
    if not _expect_raises(RecordFormatError, read_checkpoint, task,
                          io.StringIO("not a checkpoint\n")):
        return _fail("garbage text parsed as a checkpoint")
    ng = LogitModel(NgramFeatures(task, n=2),
                    stream(SEED, "ckpt-ng").normal(size=NgramFeatures(task, n=2).dim))
    buf2 = io.StringIO()
    write_checkpoint(ng, buf2)
    back2 = read_checkpoint(task, io.StringIO(buf2.getvalue()))
    if not np.array_equal(back2.theta, ng.theta):
        return _fail("ngram checkpoint changed theta")
    return _ok("tabular and ngram checkpoints roundtrip bit-exactly")


def check_models_feature_adjoint() -> CheckResult:
    """Logits, adjoints and own blocks equal the products of Phi rebuilt
    from its definition."""
    task = instance_by_name("automaton-2-2").task
    maps = (TabularFeatures(task), NgramFeatures(task, n=2),
            NgramFeatures(task, n=1, positional=False),
            NgramFeatures(task, n=3, per_prompt=False),
            NgramFeatures(task, n=2, positional=False, per_prompt=False))
    for features in maps:
        name = str(features.descriptor())
        phi = dense_features(features)
        if phi.shape[2] != features.dim:
            return _fail(f"{name} has dim {features.dim}, its definition {phi.shape[2]}")
        rng = stream(SEED, "adjoint", features.dim)
        theta = rng.normal(size=features.dim)
        weights = rng.normal(size=(task.n_prompts, task.n_joint))
        pairs = [("logits_all", features.logits_all(theta), phi @ theta),
                 ("adjoint_all", features.adjoint_all(weights),
                  np.einsum("xj,xjf->f", weights, phi))]
        for x in range(task.n_prompts):
            own = phi[x][:, phi[x].any(axis=0)]
            pairs += [(f"logits x={x}", features.logits(x, theta), phi[x] @ theta),
                      (f"adjoint x={x}", features.adjoint(x, weights[x]),
                       phi[x].T @ weights[x])]
            if not features.supports_closed_form:
                pairs.append((f"own_block x={x}", features.own_block(x), own))
        for kernel, got, want in pairs:
            if got.shape != want.shape or float(np.max(np.abs(got - want))) > 1e-12:
                return _fail(f"{kernel} of {name} disagrees with its definition")
    model = uniform_model(task)
    if not _expect_raises(FeatureMapMismatchError, model.with_theta, np.zeros(3)):
        return _fail("wrong-shaped theta was accepted")
    return _ok(f"{len(maps)} feature maps agree with Phi built from its definition")


# -- graph -----------------------------------------------------------------------


def check_graph_factorization() -> CheckResult:
    """Triple scores factor into joint model times evaluator."""
    for k, name in enumerate(("carry-d1-b2", "tag-5-4-soft")):
        task = instance_by_name(name).task
        model = random_model(task, stream(SEED, "factor", k), scale=0.9)
        jm = JointModel(model)
        rng = stream(SEED, "factor-pick", k)
        for _ in range(50):
            x = int(rng.integers(task.n_prompts))
            zi = int(rng.integers(task.n_latents))
            yi = int(rng.integers(task.n_responses))
            o = int(rng.integers(2))
            ev = evaluator_entry(task, x, zi, yi, o)
            expected = -math.inf if ev == 0.0 else (
                float(model.joint_log_probs(x)[task.zy_index(zi, yi)]) + math.log(ev))
            got = triple_logprob(jm, x, zi, yi, o)
            if expected == -math.inf:
                if got != -math.inf:
                    return _fail(f"{name}: zero-evaluator triple scored {got!r}")
            elif abs(got - expected) > 1e-12:
                return _fail(f"{name}: triple deviates {abs(got - expected):.3e}")
    return _ok("100 random triples factor exactly")


def check_graph_event_logprob_cases() -> CheckResult:
    """Full events score zero, impossible events score minus infinity."""
    task = instance_by_name("carry-d1-b2").task
    model = random_model(task, stream(SEED, "cases"), scale=1.0)
    jm = JointModel(model)
    for x in range(task.n_prompts):
        if abs(event_logprob(jm, x, full_event())) > 1e-12:
            return _fail(f"full event logprob {event_logprob(jm, x, full_event())!r}")
    # a wrong pair pinned to o = 1 has zero evaluator mass under a binary task
    truth = task.truth[0]
    wrong_y = (truth[1] + 1) % task.n_responses
    impossible = EventSpec(latents=(truth[0],), responses=(wrong_y,), obs=(1,))
    if event_logprob(jm, 0, impossible) != -math.inf:
        return _fail("impossible event did not score -inf")
    if not _expect_raises(ZeroMassEventError, jm.exact_posterior, 0, impossible):
        return _fail("posterior of an impossible event did not raise")
    # frozen two-pair case: masses 0.2 and 0.3 give posterior (0.4, 0.6)
    tag = make_reward_tag_task(1, 2, seed=1)
    probs = np.array([0.2, 0.3, 0.1, 0.4])
    hand = uniform_model(tag).with_theta(np.log(probs))
    ev = EventSpec(latents=(0,))
    marg = JointModel(hand).exact_posterior(0, ev)
    support = np.flatnonzero(marg)
    if _as_pairs(tag, support) != [(0, 0), (0, 1)]:
        return _fail(f"frozen case support {support}")
    if float(np.max(np.abs(marg[support] - np.array([0.4, 0.6])))) > 1e-12:
        return _fail(f"frozen case posterior {marg}")
    normalizer = event_logprob(JointModel(hand), 0, ev)
    if abs(normalizer - math.log(0.5)) > 1e-12:
        return _fail(f"frozen case normalizer {normalizer!r}")
    return _ok("boundary cases and the frozen half-mass case agree")


def check_graph_posterior_oracle() -> CheckResult:
    """Vectorized posteriors equal a dict-based brute-force pass."""
    worst = 0.0
    for k, name in enumerate(("carry-d1-b3", "tag-5-4-soft", "automaton-3-2")):
        inst = instance_by_name(name)
        task = inst.task
        model = random_model(task, stream(SEED, "oracle", k), scale=1.0)
        jm = JointModel(model)
        for event in inst.events:
            triples = _event_triples(task, event)
            for x in range(task.n_prompts):
                weights = [0.0] * task.n_joint
                for zi, yi, o in triples:
                    w = math.exp(joint_logprob(model, x, zi, yi))
                    weights[task.zy_index(zi, yi)] += w * evaluator_entry(task, x, zi, yi, o)
                total = sum(weights)
                row = jm.exact_posterior(x, event)
                for got, w in zip(row, weights, strict=True):
                    worst = max(worst, abs(float(got) - w / total))
                worst = max(worst, abs(event_logprob(jm, x, event) - math.log(total)))
    if worst > 1e-11:
        return _fail(f"brute-force deviation {worst:.3e} > 1e-11")
    return _ok(f"max deviation {worst:.3e} across three instances")


def check_graph_elbo_bound() -> CheckResult:
    """Variational values never exceed the event log probability."""
    inst = instance_by_name("tag-4-5")
    task = inst.task
    model = random_model(task, stream(SEED, "elbo"), scale=1.0)
    jm = JointModel(model)
    event = inst.events[0]
    rng = stream(SEED, "elbo-q")
    worst_violation = -math.inf
    draws = 0
    for x in range(task.n_prompts):
        row = jm.exact_posterior(x, event)
        live = row > 0.0
        for report in _live_elbos(jm, x, event, live, rng, [1.0] * 100 + [0.2] * 100):
            if not math.isfinite(report.value):
                return _fail(f"live-support variational gave {report.value!r}")
            worst_violation = max(worst_violation,
                                  report.value - report.log_likelihood)
            draws += 1
        if not live.all():
            dense = jm.elbo(x, event, rng.dirichlet(np.full(len(row), 1.0)))
            if dense.value != -math.inf:
                return _fail("mass on a zero-probability outcome kept a "
                             f"finite value {dense.value!r}")
        at_posterior = jm.elbo(x, event, row)
        if abs(at_posterior.gap) > 1e-10:
            return _fail(f"gap at the posterior is {at_posterior.gap:.3e}")
    if worst_violation > 1e-10:
        return _fail(f"bound violated by {worst_violation:.3e}")
    if not _expect_raises(UnnormalizedVariationalError, jm.elbo, 0, event,
                          np.full(task.n_joint, 0.7)):
        return _fail("unnormalized q was accepted")
    return _ok(f"{draws} variationals stay below, worst slack {-worst_violation:.3e}")


def check_graph_gradient_identity() -> CheckResult:
    """Analytic event-logprob gradients match central differences."""
    worst = 0.0
    cases = [
        ("tag-3-8", None),
        ("automaton-2-2", ("ngram", 2)),
    ]
    for k, (name, feat) in enumerate(cases):
        inst = instance_by_name(name)
        task = inst.task
        features = NgramFeatures(task, n=feat[1]) if feat else TabularFeatures(task)
        rng = stream(SEED, "gradfd", k)
        model = LogitModel(features, rng.normal(0.0, 0.8, features.dim))
        worst = max(worst, _fd_grad_error(model, inst.events[0]))
    if worst > 1e-6:
        return _fail(f"finite differences deviate {worst:.3e} > 1e-6")
    # tabular identity: the per-prompt gradient block is posterior minus model
    inst = instance_by_name("tag-3-8")
    task = inst.task
    model = random_model(task, stream(SEED, "gradslice"), scale=1.0)
    jm = JointModel(model)
    event = inst.events[0]
    for x in range(task.n_prompts):
        g = grad_event_logprob(jm, x, event)
        q = np.zeros(task.n_joint)
        pairs, marg = _posterior_pairs(jm, x, event)
        for pair, p in zip(pairs, marg):
            q[task.zy_index(*pair)] += p
        expected = q - model.joint_probs(x)
        off = model.features.offset(x)
        block = g[off:off + task.n_joint]
        if float(np.max(np.abs(block - expected))) > 1e-12:
            return _fail(f"tabular gradient block deviates at x={x}")
        outside = np.delete(g, np.arange(off, off + task.n_joint))
        if outside.size and float(np.max(np.abs(outside))) != 0.0:
            return _fail(f"gradient leaks outside the prompt block at x={x}")
    return _ok(f"norm-wise FD error {worst:.3e}, tabular blocks exact")


def check_graph_batched_averages() -> CheckResult:
    """All-prompt matrices agree with the prompt-by-prompt oracles.

    Rows of `log_probs_all` (against each prompt's logits normalized on
    their own), the averaged objective and the averaged KL match bit for
    bit; the averaged gradient too for tabular features, and
    within 1e-12 for n-gram features, whose stacked adjoint adds prompts in
    another order.
    """
    cases = [
        ("tag-4-5", None), ("tag-5-4-soft", None), ("carry-d1-b3", None),
        ("automaton-2-3", (2, True, True)), ("carry-d1-b3", (1, False, False)),
    ]
    worst = 0.0
    for k, (name, ngram) in enumerate(cases):
        inst = instance_by_name(name)
        task = inst.task
        features = (NgramFeatures(task, ngram[0], positional=ngram[1], per_prompt=ngram[2])
                    if ngram else TabularFeatures(task))
        rng = stream(SEED, "batched", k)
        a, b = (LogitModel(features, rng.normal(0.0, 0.9, features.dim)) for _ in "ab")
        rows = a.log_probs_all()
        for x in range(task.n_prompts):
            if rows[x].tobytes() != _looped_log_probs(a, x).tobytes():
                return _fail(f"{name}: log_probs_all row {x} differs from its own softmax")
        if _averaged_kl(a, b, task.rho) != _looped_kl(a, b, task.rho):
            return _fail(f"{name}: averaged KL differs from the per-prompt sum")
        for event in inst.events:
            jm = JointModel(a)
            if jm.averaged_event_logprob(event) != _looped_objective(jm, event):
                return _fail(f"{name}: averaged objective differs from the per-prompt sum")
            gap = float(np.max(np.abs(jm.averaged_grad(event) - _looped_grad(jm, event))))
            if gap > (1e-12 if ngram else 0.0):
                return _fail(f"{name}: averaged gradient deviates by {gap:.3e}")
            worst = max(worst, gap)
    return _ok(f"{len(cases)} models bit-exact; n-gram gradients within {worst:.1e}")


# -- planner ---------------------------------------------------------------------


def check_planner_closed_forms() -> CheckResult:
    """Hand-solved one-step problems: values, policies, and limits."""
    def reward_fn(prefix, action):
        return 0.0 if action == 0 else math.log(3.0)

    mdp = from_sequences([(0,), (1,)], reward_fn, beta=1.0)
    plan = soft_value_iteration(mdp)
    # beta=1, rewards (0, ln 3): value ln 4, policy (1/4, 3/4)
    if abs(plan.root_value() - 1.3862943611198906) > 1e-12:
        return _fail(f"one-step value {plan.root_value()!r} != ln 4")
    root = children(mdp.trie, 0)
    policy = np.exp(plan.log_policy[root])
    if float(np.max(np.abs(policy - np.array([0.25, 0.75])))) > 1e-12:
        return _fail(f"one-step policy {policy}")
    half = soft_value_iteration(from_sequences([(0,), (1,)], reward_fn, beta=0.5))
    # beta=1/2: value (1/2) ln(1 + 9), policy (0.1, 0.9)
    if abs(half.root_value() - 0.5 * math.log(10.0)) > 1e-12:
        return _fail(f"beta=0.5 value {half.root_value()!r}")
    if float(np.max(np.abs(np.exp(half.log_policy[root]) - np.array([0.1, 0.9])))) > 1e-12:
        return _fail("beta=0.5 policy off (0.1, 0.9)")
    cold = soft_value_iteration(from_sequences([(0,), (1,)], reward_fn, beta=1e-3))
    if abs(cold.root_value() - math.log(3.0)) > 1e-2:
        return _fail(f"beta->0 value {cold.root_value()!r} far from max reward")
    hot = soft_value_iteration(from_sequences([(0,), (1,)], reward_fn, beta=1e6))
    if float(np.max(np.abs(np.exp(hot.log_policy[root]) - 0.5))) > 1e-6:
        return _fail("beta->inf policy is not uniform")
    return _ok("one-step values, policies, and both temperature limits agree")


def check_planner_trajectory_softmax() -> CheckResult:
    """Planner trajectory law equals the softmax of summed rewards."""
    rng = stream(SEED, "plansoft")
    worst = 0.0
    for k in range(8):
        beta = (0.3, 1.0, 3.0)[k % 3]
        mdp = random_shaped_mdp(rng, horizon=int(rng.integers(2, 5)),
                                n_actions=int(rng.integers(2, 5)), beta=beta,
                                reward_scale=2.0)
        plan = soft_value_iteration(mdp)
        interior = mdp.trie.prefixes[1]
        for start in ((), interior):
            tv, mass = _trajectory_law_tv(plan, start)
            worst = max(worst, tv)
            if abs(mass - 1.0) > 1e-12:
                return _fail(f"trajectory law does not normalize from {start}")
    if worst > 1e-9:
        return _fail(f"trajectory law deviates {worst:.3e} > 1e-9")
    return _ok(f"max root/interior deviation {worst:.3e} over 8 problems")


def check_planner_bellman_consistency() -> CheckResult:
    """Recomputed backups match stored values, policies normalize."""
    rng = stream(SEED, "bellman")
    mdp = random_shaped_mdp(rng, horizon=4, n_actions=3, beta=0.7, reward_scale=1.5)
    plan = soft_value_iteration(mdp)
    trie = mdp.trie
    for node in trie.internal:
        prefix, acts = trie.prefixes[node], children(trie, node)
        q = mdp.reward[acts] + plan.v[acts]
        if float(np.max(np.abs(q - plan.q[acts]))) > 1e-12:
            return _fail(f"q mismatch at {prefix}")
        scaled = q / mdp.beta
        peak = float(scaled.max())
        v = mdp.beta * (peak + math.log(sum(math.exp(float(s) - peak) for s in scaled)))
        if abs(v - plan.v[node]) > 1e-10:
            return _fail(f"value mismatch at {prefix}: {abs(v - plan.v[node]):.3e}")
        pol = np.exp(plan.log_policy[acts])
        if abs(float(pol.sum()) - 1.0) > 1e-12:
            return _fail(f"policy at {prefix} sums to {pol.sum()!r}")
        if float(np.max(np.abs(plan.log_policy[acts] - (q - plan.v[node]) / mdp.beta))) > 1e-12:
            return _fail(f"policy logits at {prefix} are not (q - v) / beta")
    for seq, leaf in zip(trie.sequences, trie.leaf_node):
        if plan.v[leaf] != 0.0:
            return _fail(f"leaf {seq} has nonzero value")
    return _ok(f"all {len(trie.internal)} backups verified by hand")


def check_planner_policy_optimality() -> CheckResult:
    """No random policy beats the soft-optimal regularized return."""
    rng = stream(SEED, "polopt")
    mdp = random_shaped_mdp(rng, horizon=3, n_actions=3, beta=0.8, reward_scale=1.5)
    plan = soft_value_iteration(mdp)
    opt = regularized_return(mdp, plan.log_policy)
    if abs(opt - plan.root_value()) > 1e-9:
        return _fail(f"optimal return {opt!r} != root value {plan.root_value()!r}")
    best_other = -math.inf
    for _ in range(100):
        rr = regularized_return(mdp, random_policy(mdp, rng))
        best_other = max(best_other, rr)
        if rr > opt + 1e-10:
            return _fail(f"random policy beat the plan by {rr - opt:.3e}")
    return _ok(f"best of 100 random policies trails by {opt - best_other:.4f}")


def check_planner_entropy_in_beta() -> CheckResult:
    """Trajectory entropy grows with the regularization temperature."""
    rng = stream(SEED, "beta-entropy")
    table: dict[tuple, float] = {}

    def reward_fn(prefix, action):
        key = (prefix, action)
        if key not in table:
            table[key] = float(rng.normal(0.0, 1.5))
        return table[key]

    seqs = [()]
    for _ in range(3):
        seqs = [s + (a,) for s in seqs for a in range(3)]
    values = []
    for beta in (0.3, 1.0, 3.0, 10.0):
        plan = soft_value_iteration(from_sequences(seqs, reward_fn, beta))
        _, probs = trajectory_distribution(plan)
        values.append(entropy(probs))
    diffs = np.diff(np.array(values))
    if float(diffs.min()) < -1e-12:
        return _fail(f"entropy fell along the temperature ladder: {values}")
    return _ok("entropy ladder " + " <= ".join(f"{v:.4f}" for v in values))


def check_planner_shaping_telescoping() -> CheckResult:
    """Edge rewards along each trajectory sum to its posterior score."""
    for k, name in enumerate(("carry-d1-b2", "tag-4-5")):
        inst = instance_by_name(name)
        task = inst.task
        model = random_model(task, stream(SEED, "shape", k), scale=1.0)
        jm = JointModel(model)
        event = inst.events[0]
        obs = materialize_event(task, event)[2]
        nodes = prefix_nodes(task.trie)
        for x in range(task.n_prompts):
            # read through the module, where the 'shaping-sign' fault is swapped in
            mdp = planner_kernel.shape_rewards(jm, x, event)
            for zi in range(task.n_latents):
                for yi in range(task.n_responses):
                    seq = task.joint_sequences[task.zy_index(zi, yi)]
                    total = 0.0
                    for pos in range(len(seq)):
                        total += float(mdp.reward[nodes[seq[:pos + 1]]])
                    mass = sum(evaluator_entry(task, x, zi, yi, o) for o in obs)
                    term = math.log(mass) if mass > 0.0 else LOG_CLAMP
                    expected = joint_logprob(model, x, zi, yi) + term
                    if abs(total - expected) > 1e-9:
                        return _fail(
                            f"{name} x={x} ({zi},{yi}): rewards sum to {total:.6g}, "
                            f"posterior score is {expected:.6g}")
    return _ok("every trajectory telescopes to joint log prob plus bonus")


def check_planner_shaped_posterior() -> CheckResult:
    """Planning on shaped rewards reproduces exact posteriors."""
    worst = 0.0
    for k, name in enumerate(("carry-d1-b3", "tag-5-4-soft")):
        inst = instance_by_name(name)
        task = inst.task
        model = random_model(task, stream(SEED, "shapepost", k), scale=1.0)
        jm = JointModel(model)
        event = inst.events[0]
        for x in range(task.n_prompts):
            mdp = planner_kernel.shape_rewards(jm, x, event)
            plan = soft_value_iteration(mdp)
            support, probs = plan_posterior(plan, task, x, event)
            exact_pairs, exact_probs = _posterior_pairs(jm, x, event)
            worst = max(worst, _union_tv(_as_pairs(task, support), probs,
                                         exact_pairs, exact_probs))
    if worst > 1e-8:
        return _fail(f"planned posterior deviates {worst:.3e} > 1e-8")
    # the temperature is load-bearing; on an event with several live pairs
    # (soft evaluator), planning the same rewards at beta=2 must flatten it
    inst = instance_by_name("tag-5-4-soft")
    model = random_model(inst.task, stream(SEED, "shapebeta"), scale=1.0)
    jm = JointModel(model)
    hot = planner_kernel.shape_rewards(jm, 0, inst.events[0], beta=2.0)
    support, probs = plan_posterior(soft_value_iteration(hot), inst.task, 0,
                                    inst.events[0])
    exact_pairs, exact_probs = _posterior_pairs(jm, 0, inst.events[0])
    flattened = _union_tv(_as_pairs(inst.task, support), probs,
                          exact_pairs, exact_probs)
    if flattened <= 1e-3:
        return _fail(f"beta=2 changed the posterior by only {flattened:.3e}")
    binary = instance_by_name("carry-d1-b3")
    jm = JointModel(random_model(binary.task, stream(SEED, "shapedead"), scale=1.0))
    truth = binary.task.truth[0]
    wrong_y = (truth[1] + 1) % binary.task.n_responses
    dead = EventSpec(latents=(truth[0],), responses=(wrong_y,), obs=(1,))
    if not _expect_raises(UnreachableEventError, planner_kernel.shape_rewards, jm, 0, dead):
        return _fail("fully clamped event did not raise")
    return _ok(f"max deviation {worst:.3e}; beta=2 moves the soft posterior "
               f"by {flattened:.3f}")


# -- e-step engines ----------------------------------------------------------------


def check_esteps_backend_agreement() -> CheckResult:
    """Exact, planning, and converged policy-gradient posteriors agree."""
    worst_plan, worst_pg = 0.0, 0.0
    for k, name in enumerate(("carry-d1-b2", "tag-4-5", "automaton-2-2")):
        inst = instance_by_name(name)
        task = inst.task
        model = random_model(task, stream(SEED, "agree", k), scale=0.9)
        jm = JointModel(model)
        event = inst.events[0]
        for x in range(task.n_prompts):
            exact = estep_exact(jm, x, event)
            if exact.tv_error != 0.0:
                return _fail(f"{name}: exact backend reports tv {exact.tv_error!r}")
            plan = estep_planning(jm, x, event)
            worst_plan = max(worst_plan, plan.tv_error)
            pg = estep_policy_gradient(
                jm, x, event, cfg=PolicyGradConfig(iterations=200))
            worst_pg = max(worst_pg, pg.tv_error)
    if worst_plan > 1e-8:
        return _fail(f"planning deviates {worst_plan:.3e} > 1e-8")
    if worst_pg > 1e-6:
        return _fail(f"policy gradient deviates {worst_pg:.3e} > 1e-6")
    inst = instance_by_name("tag-4-5")
    jm = JointModel(random_model(inst.task, stream(SEED, "agree-disp"), scale=0.9))
    direct = estep_planning(jm, 0, inst.events[0])
    via_spec = run_estep(jm, 0, inst.events[0], EStepSpec("planning"))
    if (via_spec.probs.shape != direct.probs.shape
            or float(np.max(np.abs(via_spec.probs - direct.probs))) > 1e-15):
        return _fail("dispatcher changed the planning result")
    if via_spec.wall_time_s <= 0.0:
        return _fail("dispatcher did not stamp wall time")
    if not _expect_raises(ConfigError, EStepSpec, "bogus"):
        return _fail("unknown backend was accepted")
    if not _expect_raises(ConfigError, run_estep, jm, 0, inst.events[0],
                          EStepSpec("rejection", {"budget": 10})):
        return _fail("sampled backend ran without an rng")
    return _ok(f"planning tv {worst_plan:.2e}, policy gradient tv {worst_pg:.2e}")


def check_esteps_rejection_soundness() -> CheckResult:
    """Rejection converges with budget and flags hopeless prompts."""
    inst = instance_by_name("tag-4-5")
    task = inst.task
    jm = JointModel(random_model(task, stream(SEED, "rej-model"), scale=0.8))
    event = inst.events[0]
    big = estep_rejection(jm, 0, event, budget=20000, rng=stream(SEED, "rej", 0))
    if big.tv_error > 0.02:
        return _fail(f"tv {big.tv_error:.4f} > 0.02 at budget 20000")
    if big.samples_used != 20000 or not 0.0 < big.acceptance_rate <= 1.0:
        return _fail("sample accounting is off")
    soft_inst = instance_by_name("tag-5-4-soft")
    sjm = JointModel(random_model(soft_inst.task, stream(SEED, "rej-soft"), scale=0.8))
    soft = estep_rejection(sjm, 0, soft_inst.events[0], budget=20000,
                           rng=stream(SEED, "rej", 1))
    if "importance_weighted" not in soft.flags:
        return _fail("soft-evaluator run was not flagged importance_weighted")
    if soft.tv_error > 0.05:
        return _fail(f"soft tv {soft.tv_error:.4f} > 0.05 at budget 20000")
    carry = instance_by_name("carry-d1-b2")
    truth = carry.task.truth[0]
    dead = EventSpec(latents=(truth[0],),
                     responses=((truth[1] + 1) % carry.task.n_responses,),
                     obs=(1,))
    cjm = JointModel(uniform_model(carry.task))
    hopeless = estep_rejection(cjm, 0, dead, budget=200, rng=stream(SEED, "rej", 2))
    if "zero_acceptance" not in hopeless.flags or not hopeless.empty:
        return _fail("zero-acceptance run was not flagged empty")
    if hopeless.acceptance_rate != 0.0:
        return _fail(f"zero-acceptance rate {hopeless.acceptance_rate!r}")
    means = []
    for budget in (100, 1000, 10000):
        total = 0.0
        for s in range(40):
            r = estep_rejection(jm, 0, event, budget=budget,
                                rng=stream(SEED, "rej-mono", budget, s))
            total += r.tv_error if r.tv_error is not None else 1.0
        means.append(total / 40)
    if not means[0] > means[1] > means[2]:
        return _fail(f"mean tv not decreasing in budget: {means}")
    if not _expect_raises(ConfigError, estep_rejection, jm, 0, event, 0,
                          stream(SEED, "rej", 3)):
        return _fail("budget 0 was accepted")
    return _ok(f"tv {big.tv_error:.3f} at 2e4 draws; "
               "budget curve " + " > ".join(f"{m:.3f}" for m in means))


def check_esteps_policy_gradient_soundness() -> CheckResult:
    """Warm start, convergence, objective bound, and failure modes."""
    inst = instance_by_name("tag-4-5")
    task = inst.task
    model = random_model(task, stream(SEED, "pg-model"), scale=0.8)
    jm = JointModel(model)
    event = inst.events[0]
    frozen = estep_policy_gradient(jm, 1, event, cfg=PolicyGradConfig(iterations=0))
    if float(np.max(np.abs(frozen.probs - model.joint_probs(1)))) > 1e-12:
        return _fail("zero iterations moved the sampler off the model")
    done = estep_policy_gradient(jm, 1, event, cfg=PolicyGradConfig(iterations=300))
    if done.tv_error > 1e-6:
        return _fail(f"converged tv {done.tv_error:.3e} > 1e-6")
    j_final = done.extras["final_objective"]
    j_star = done.extras["soft_value"]
    if j_final > j_star + 1e-9 or j_final < j_star - 1e-6:
        return _fail(f"objective {j_final!r} vs soft value {j_star!r}")
    # restricted features: still monotone toward the same bounded objective
    ng_feats = NgramFeatures(task, n=1, positional=False)
    ng = LogitModel(ng_feats, stream(SEED, "pg-ng").normal(0.0, 0.5, ng_feats.dim))
    njm = JointModel(ng)
    short = estep_policy_gradient(njm, 1, event, cfg=PolicyGradConfig(iterations=5))
    long = estep_policy_gradient(njm, 1, event, cfg=PolicyGradConfig(iterations=60))
    if long.extras["final_objective"] < short.extras["final_objective"] - 1e-12:
        return _fail("more exact-mode iterations lowered the objective")
    if long.extras["final_objective"] > long.extras["soft_value"] + 1e-9:
        return _fail("restricted sampler exceeded the soft value bound")
    sampled = estep_policy_gradient(
        jm, 1, event,
        cfg=PolicyGradConfig(iterations=60, batch_size=128, step_size=0.1),
        rng=stream(SEED, "pg-sample"))
    base_tv = frozen.tv_error
    if sampled.tv_error >= base_tv:
        return _fail(f"sampled mode did not improve on the warm start "
                     f"({sampled.tv_error:.3f} vs {base_tv:.3f})")
    if sampled.samples_used != 60 * 128:
        return _fail(f"sampled mode used {sampled.samples_used} draws")
    # divergence guard: at high entropy weight the warm start is already
    # near-optimal, so a huge sampled step must lower the objective.
    # The soft evaluator keeps batch advantages non-degenerate.
    soft = instance_by_name("tag-5-4-soft")
    soft_jm = JointModel(random_model(soft.task, stream(SEED, "pg-soft"), scale=0.5))
    if not _expect_raises(DivergenceError, estep_policy_gradient, soft_jm, 0,
                          soft.events[0],
                          PolicyGradConfig(iterations=50, batch_size=16,
                                           step_size=500.0, beta=5.0,
                                           divergence_patience=1),
                          stream(SEED, "pg-div", 0)):
        return _fail("a wildly overstepping sampled run did not raise")
    if not _expect_raises(ConfigError, estep_policy_gradient, jm, 1, event,
                          PolicyGradConfig(batch_size=8)):
        return _fail("sampled mode without an rng was accepted")
    truth = task.truth[1]
    dead = EventSpec(latents=((truth[0] + 1) % 2,), responses=(truth[1],), obs=(1,))
    if not _expect_raises(UnreachableEventError, estep_policy_gradient, jm, 1, dead):
        return _fail("fully clamped event did not raise")
    return _ok(f"tv {done.tv_error:.2e} converged, sampled tv "
               f"{base_tv:.3f} -> {sampled.tv_error:.3f}, guards intact")


def check_esteps_fisher_step() -> CheckResult:
    """The Fisher move matches its brute-force oracle along an ascent, and a
    tabular move of 1/beta lands on softmax(R / beta)."""
    worst = 0.0
    for k, name in enumerate(("automaton-2-3", "tag-4-5")):
        inst = instance_by_name(name)
        task, event = inst.task, inst.events[0]
        features = NgramFeatures(task, n=2)
        phi = dense_features(features)
        model = LogitModel(features, stream(SEED, "fisher", k).normal(0.0, 0.8, features.dim))
        jm = JointModel(model)
        for x in range(task.n_prompts):
            rewards = _event_reward_vector(jm, x, event, PolicyGradConfig().reward_floor)
            step = esteps_kernel._fisher_step(features.own_block(x))
            # the warm start, then the sampler after one production iteration
            one = estep_policy_gradient(jm, x, event, PolicyGradConfig(iterations=1),
                                        compare_exact=False)
            for logits in (model.joint_log_probs(x), np.log(one.probs)):
                value, p, log_p = _regularized_objective(logits, rewards, 1.0)
                advantage = rewards - log_p - value
                oracle = fisher_move_oracle(phi[x], p, advantage)
                scale = float(np.max(np.abs(oracle)))
                worst = max(worst, float(np.max(np.abs(step(p, advantage) - oracle))) / scale)
    if worst > 1e-9:
        return _fail(f"Fisher move deviates from its oracle by {worst:.3e} relative > 1e-9")
    inst = instance_by_name("tag-4-5")
    model = random_model(inst.task, stream(SEED, "fisher-tab"), scale=0.8)
    jm = JointModel(model)
    landed = 0.0
    for beta in (1.0, 2.5):
        for x in range(inst.task.n_prompts):
            rewards = _event_reward_vector(jm, x, inst.events[0], PolicyGradConfig().reward_floor)
            value, p, log_p = _regularized_objective(model.joint_log_probs(x), rewards, beta)
            advantage = rewards - beta * log_p - value
            move = model.features.project(x, advantage)
            if not np.array_equal(move, advantage):
                return _fail("a tabular advantage move is not the advantage itself")
            _, after, _ = _regularized_objective(log_p + move / beta, rewards, beta)
            target = np.exp(rewards / beta - logsumexp(rewards / beta))
            landed = max(landed, float(np.max(np.abs(after - target))))
    if landed > 1e-12:
        return _fail(f"a tabular move of 1/beta misses softmax(R/beta) by {landed:.3e}")
    return _ok(f"Fisher move within {worst:.1e} of its oracle; tabular move of 1/beta "
               f"lands within {landed:.1e}")


def check_esteps_sample_efficiency() -> CheckResult:
    """Compute-based engines beat rejection at a tiny event mass."""
    inst = instance_by_name("carry-d1-b10-lim")
    task = inst.task
    jm = JointModel(uniform_model(task))
    event = inst.events[0]
    plan = estep_planning(jm, 0, event)
    pg = estep_policy_gradient(jm, 0, event, cfg=PolicyGradConfig(iterations=150))
    total = 0.0
    for s in range(5):
        r = estep_rejection(jm, 0, event, budget=300, rng=stream(SEED, "eff", s))
        total += r.tv_error if r.tv_error is not None else 1.0
    rej_tv = total / 5
    if plan.tv_error > 1e-8:
        return _fail(f"planning tv {plan.tv_error:.3e} > 1e-8")
    if pg.tv_error > 1e-6:
        return _fail(f"policy gradient tv {pg.tv_error:.3e} > 1e-6")
    if rej_tv < 0.5:
        return _fail(f"rejection at budget 300 looks too good: tv {rej_tv:.3f}")
    return _ok(f"tv at equal budget: planning {plan.tv_error:.1e}, "
               f"policy gradient {pg.tv_error:.1e}, rejection {rej_tv:.3f}")


# -- training loop and baselines -----------------------------------------------------


def check_training_mstep_routes() -> CheckResult:
    """Closed-form, gradient, and resolver updates agree where they overlap."""
    task = instance_by_name("tag-3-8").task
    model = random_model(task, stream(SEED, "mstep"), scale=0.8)
    target = np.zeros((task.n_prompts, task.n_joint))
    target[0, task.zy_index(1, 2)] = 1.0
    point = mstep(model, target, MStepSpec("closed_form"))
    if point.joint_probs(0)[task.zy_index(1, 2)] != 1.0:
        return _fail("point-mass update is not a point mass")
    off = model.features.offset(1)
    if not np.array_equal(point.theta[off:off + task.n_joint],
                          model.theta[off:off + task.n_joint]):
        return _fail("update touched a prompt without weights")
    rng = stream(SEED, "mstep-q")
    posteriors = np.array([rng.dirichlet(np.ones(task.n_joint))
                           for _ in range(task.n_prompts)])
    closed = mstep(model, posteriors, MStepSpec("closed_form"))
    for x in range(task.n_prompts):
        if float(np.max(np.abs(closed.joint_probs(x) - posteriors[x]))) > 1e-12:
            return _fail(f"closed form missed the weights at x={x}")
    graded = mstep(model, posteriors, MStepSpec("gradient_ascent", steps=800, rate=1.0))
    worst = max(
        0.5 * float(np.abs(graded.joint_probs(x) - posteriors[x]).sum())
        for x in range(task.n_prompts)
    )
    if worst > 1e-6:
        return _fail(f"gradient route stops {worst:.3e} from the closed form")
    resolved = mstep(model, posteriors, MStepSpec("weighted_mle_from_samples"))
    if not np.array_equal(resolved.theta, closed.theta):
        return _fail("sample-weight resolver differs from the closed form")
    ng_feats = NgramFeatures(task, n=2)
    ng = LogitModel(ng_feats, stream(SEED, "mstep-ng").normal(0.0, 0.3, ng_feats.dim))
    moved = mstep(ng, posteriors, MStepSpec("weighted_mle_from_samples", steps=40))
    if np.array_equal(moved.theta, ng.theta):
        return _fail("resolver left a restricted model untouched")
    if not _expect_raises(ConfigError, mstep, ng, posteriors, MStepSpec("closed_form")):
        return _fail("closed form accepted a non-tabular map")
    if not _expect_raises(ConfigError, MStepSpec, "bogus"):
        return _fail("unknown update kind was accepted")
    return _ok(f"routes agree; gradient route within {worst:.2e} of closed form")


def check_training_em_monotone() -> CheckResult:
    """Averaged objective never falls along either update route."""
    runs = [
        ("tag-5-4-soft", None, MStepSpec("closed_form")),
        ("automaton-2-3", ("ngram", 2), MStepSpec("gradient_ascent", steps=60)),
    ]
    details = []
    for name, feat, mspec in runs:
        inst = instance_by_name(name)
        task = inst.task
        if feat is None:
            model = random_model(task, stream(SEED, "emmono", name), scale=0.8)
        else:
            feats = NgramFeatures(task, n=feat[1])
            model = LogitModel(
                feats, stream(SEED, "emmono", name).normal(0.0, 0.5, feats.dim))
        _, record = run_em(model, task, success_event(), EStepSpec("exact"), mspec,
                           iterations=30, seed=17)
        objs = [row.objective for row in record.rows]
        drop = min(b - a for a, b in zip(objs, objs[1:]))
        if drop < -1e-12:
            return _fail(f"{name}: objective fell by {-drop:.3e}")
        details.append(f"{name} {objs[0]:.4f}->{objs[-1]:.4f}")
    return _ok("; ".join(details))


def check_training_telescoping_certificate() -> CheckResult:
    """Per-step divergences stay under the averaged gain per iteration."""
    inst = instance_by_name("tag-5-4-soft")
    model = random_model(inst.task, stream(SEED, "telescope"), scale=0.8)
    _, record = run_em(model, inst.task, success_event(), EStepSpec("exact"),
                       MStepSpec("closed_form"), iterations=30, seed=23)
    cert = record.certificates.get("telescoping")
    if cert is None or not cert["asserted"] or not cert["holds"]:
        return _fail(f"exact-route certificate missing or failing: {cert}")
    gain = record.rows[-1].objective - record.rows[0].objective
    if abs(cert["mean_gain"] - gain / 30) > 1e-15:
        return _fail("certificate gain disagrees with the recorded rows")
    if abs(cert["min_kl_step"] - min(r.kl_step for r in record.rows[1:])) > 1e-15:
        return _fail("certificate divergence disagrees with the recorded rows")
    ng_feats = NgramFeatures(inst.task, n=2)
    ng = LogitModel(ng_feats,
                    stream(SEED, "telescope-ng").normal(0.0, 0.5, ng_feats.dim))
    _, informational = run_em(ng, inst.task, success_event(), EStepSpec("exact"),
                              MStepSpec("gradient_ascent", steps=60),
                              iterations=20, seed=23)
    icert = informational.certificates.get("telescoping")
    if icert is None or icert["asserted"]:
        return _fail("restricted-feature run should report, not assert")
    return _ok(f"asserted min kl {cert['min_kl_step']:.2e} <= "
               f"gain/T {cert['mean_gain']:.2e}; restricted run "
               f"holds={icert['holds']}")


def check_training_reference_gap() -> CheckResult:
    """Concave single-outcome events certify the gap-to-reference bound."""
    inst = instance_by_name("tag-4-5")
    task = inst.task
    corner = EventSpec(latents=(0,), responses=(0,))
    model = random_model(task, stream(SEED, "refgap"), scale=1.0)
    ref = reference_optimum(model, task, corner)
    _, record = run_em(model, task, corner, EStepSpec("exact"),
                       MStepSpec("closed_form"), iterations=20, seed=29,
                       reference=ref)
    cert = record.certificates.get("reference_gap")
    if cert is None:
        return _fail("no reference certificate on a run with a reference")
    if not cert["concavity_probe"] or not cert["asserted"] or not cert["holds"]:
        return _fail(f"single-outcome certificate failed: {cert}")
    # the comparator is the supremum, so no iterate may beat it
    if cert["best_gap"] < -1e-12:
        return _fail(f"an iterate beats the comparator by {-cert['best_gap']:.3e}")
    return _ok(f"gap {cert['best_gap']:.3e} <= budget {cert['kl_budget']:.3e} "
               "with the probe passing")


def _argmax_oracle(task: GenerativeTask, event: EventSpec) -> list[tuple[float, list[int]]]:
    """Per prompt, the largest event mass of a joint outcome and the joint
    indices attaining it, from nested loops over evaluator calls."""
    out = []
    triples = _event_triples(task, event)
    for x in range(task.n_prompts):
        mass: dict[int, float] = {}
        for zi, yi, o in triples:
            k = task.zy_index(zi, yi)
            mass[k] = mass.get(k, 0.0) + evaluator_entry(task, x, zi, yi, o)
        top = max(mass.values())
        out.append((top, [k for k, m in mass.items() if m == top]))
    return out


def check_training_reference_closed_form() -> CheckResult:
    """The tabular comparator is p_0 conditioned on the brute-force argmax
    set A: its objective is sum rho log max mass and KL(ref || p_0) is
    -sum rho log p_0(A)."""
    worst = 0.0
    cases = 0
    for name in ("tag-4-5", "tag-5-4-soft", "carry-d1-b3-soft", "automaton-2-3"):
        inst = instance_by_name(name)
        task = inst.task
        model = random_model(task, stream(SEED, "refcf", name), scale=1.0)
        for event in inst.events:
            tops = _argmax_oracle(task, event)
            if min(top for top, _ in tops) == 0.0:
                return _fail(f"{name}: {event.describe()} has a zero-mass prompt")
            ref = reference_optimum(model, task, event)
            supremum = budget = tv = 0.0
            for x, (top, argmax) in enumerate(tops):
                p0 = np.zeros(task.n_joint)
                for k in argmax:
                    p0[k] = math.exp(joint_logprob(model, x, *task.zy_unindex(k)))
                supremum += task.rho[x] * math.log(top)
                budget -= task.rho[x] * math.log(p0.sum())
                tv = max(tv, total_variation(ref.joint_probs(x), p0 / p0.sum()))
            objective = JointModel(ref).averaged_event_logprob(event)
            kl = _averaged_kl(ref, model, task.rho)
            if abs(objective - supremum) > 1e-12:
                return _fail(f"{name}: comparator objective {objective:.15g} "
                             f"!= supremum {supremum:.15g}")
            if abs(kl - budget) > 1e-12 * max(1.0, budget):
                return _fail(f"{name}: KL(ref || p_0) {kl:.15g} != "
                             f"-sum rho log p_0(A) {budget:.15g}")
            if tv > 1e-12:
                return _fail(f"{name}: comparator is {tv:.3e} in total variation "
                             "from p_0 conditioned on the argmax set")
            worst = max(worst, abs(objective - supremum), abs(kl - budget), tv)
            cases += 1
    return _ok(f"{cases} events: objective, budget and conditional within {worst:.1e}")


def check_training_fixed_point() -> CheckResult:
    """Exact alternation settles: late steps change nothing measurable."""
    inst = instance_by_name("carry-d1-b3-soft")
    model = random_model(inst.task, stream(SEED, "fixed"), scale=0.8)
    _, record = run_em(model, inst.task, success_event(), EStepSpec("exact"),
                       MStepSpec("closed_form"), iterations=60, seed=31)
    tail = abs(record.rows[-1].objective - record.rows[-2].objective)
    if tail > 1e-10:
        return _fail(f"objective still moving by {tail:.3e} after 60 iterations")
    if record.rows[-1].kl_step > 1e-12:
        return _fail(f"late step kl {record.rows[-1].kl_step:.3e} > 1e-12")
    return _ok(f"late objective movement {tail:.1e}, "
               f"late step kl {record.rows[-1].kl_step:.1e}")


def _compare_updates(a: LogitModel, b: LogitModel) -> float:
    """Elementwise agreement of two updated models, clamp-aware."""
    mask_a = a.theta <= LOG_CLAMP / 2
    mask_b = b.theta <= LOG_CLAMP / 2
    if not np.array_equal(mask_a, mask_b):
        return math.inf
    live = ~mask_a
    worst = float(np.max(np.abs(a.theta[live] - b.theta[live]))) if live.any() else 0.0
    for x in range(a.task.n_prompts):
        worst = max(worst, float(np.max(np.abs(a.joint_probs(x) - b.joint_probs(x)))))
    return worst


def _unification_gap(model: LogitModel, task: GenerativeTask, seed: int) -> float:
    """Gap between one exact alternation step and the closed-form fit of
    `success_weights`, the target of filtered and reweighted self-training
    as their budget grows without bound."""
    em_next, _ = em_iterate(model, task, success_event(), EStepSpec("exact"),
                            MStepSpec("closed_form"), seed=seed, iteration=1)
    limit = mstep(model, success_weights(model), MStepSpec("closed_form"))
    return _compare_updates(em_next, limit)


def check_training_unification_filter() -> CheckResult:
    """Filtered fine-tuning's exact-weight limit is one exact alternation step."""
    worst = 0.0
    for k, name in enumerate(("carry-d1-b2", "automaton-2-3")):
        task = instance_by_name(name).task
        model = random_model(task, stream(SEED, "unify-f", k), scale=0.9)
        worst = max(worst, _unification_gap(model, task, 11))
    if worst > 1e-10:
        return _fail(f"filter and alternation updates differ by {worst:.3e}")
    return _ok(f"updates coincide to {worst:.2e}")


def check_training_unification_restem() -> CheckResult:
    """Reweighted training's exact-expectation limit is the same alternation step."""
    worst = 0.0
    for k, name in enumerate(("tag-5-4-soft", "automaton-2-5-soft")):
        task = instance_by_name(name).task
        model = random_model(task, stream(SEED, "unify-r", k), scale=0.9)
        worst = max(worst, _unification_gap(model, task, 13))
    if worst > 1e-10:
        return _fail(f"reweighted and alternation updates differ by {worst:.3e}")
    return _ok(f"updates coincide to {worst:.2e}")


def check_training_filter_properties() -> CheckResult:
    """Sampled filtering keeps only verified pairs and skips dry prompts."""
    task = instance_by_name("tag-3-8").task
    model = uniform_model(task)
    _, rep = filter_sft_update(model, task, budget=60, seed=41, iteration=1)
    if rep["mode"] != "sampled":
        return _fail("sampled run reported as exact")
    for x in np.flatnonzero(rep["weights"].any(axis=1)).tolist():
        support = np.flatnonzero(rep["weights"][x])
        probs = rep["weights"][x, support]
        if any(evaluator_prob(task, x, zi, yi, 1) != 1.0
               for zi, yi in _as_pairs(task, support)):
            return _fail(f"unverified pair kept at x={x}")
        if abs(float(np.sum(probs)) - 1.0) > 1e-12:
            return _fail(f"weights at x={x} sum to {np.sum(probs)!r}")
        if not 0.0 <= rep["acceptance"][x] <= 1.0:
            return _fail(f"acceptance {rep['acceptance'][x]!r} at x={x}")
    sparse_task = instance_by_name("carry-d1-b10-lim").task
    sparse = uniform_model(sparse_task)
    new_model, rep2 = filter_sft_update(sparse, sparse_task, budget=2,
                                        seed=41, iteration=1)
    if not rep2["skipped"]:
        return _fail("tiny budget on a sparse task skipped nothing")
    for x in rep2["skipped"]:
        off = sparse.features.offset(x)
        if not np.array_equal(new_model.theta[off:off + sparse_task.n_joint],
                              sparse.theta[off:off + sparse_task.n_joint]):
            return _fail(f"skipped prompt {x} was modified")
    soft_task = instance_by_name("tag-5-4-soft").task
    if not _expect_raises(TaskMismatchError, filter_sft_update,
                          uniform_model(soft_task), soft_task, 10,
                          seed=1, iteration=1):
        return _fail("soft task accepted by the binary filter")
    return _ok(f"verified-only weights; {len(rep2['skipped'])} prompts "
               "skipped untouched on the sparse task")


def check_training_restem_properties() -> CheckResult:
    """Exact reweighting matches hand arithmetic and flags hard filters."""
    task = instance_by_name("tag-5-4-soft").task
    model = uniform_model(task)
    _, step = em_iterate(model, task, success_event(), EStepSpec("exact"),
                         MStepSpec("closed_form"), seed=43, iteration=1)
    # exact weights cover every joint outcome, zeros included
    gap = float(np.max(np.abs(step.targets - success_weights(model))))
    if gap > 1e-12:
        return _fail(f"exact weights deviate from hand arithmetic by {gap:.3e}")
    # a model already concentrated on the truth makes every weight vector a
    # point mass, the regime the degenerate flag exists for
    truth_model = mstep(uniform_model(task), truth_one_hot(task), MStepSpec("closed_form"))
    _, rep2 = restem_update(truth_model, task, budget=50, seed=43, iteration=1)
    if set(rep2["degenerate"]) != set(range(task.n_prompts)):
        return _fail(f"point-mass model flagged only {rep2['degenerate']}")
    _, rep3 = restem_update(model, task, budget=50, seed=43, iteration=2)
    if rep3["degenerate"]:
        return _fail(f"uniform model flagged degenerate at {rep3['degenerate']}")
    for x in np.flatnonzero(rep3["weights"].any(axis=1)).tolist():
        support = np.flatnonzero(rep3["weights"][x])
        if any(evaluator_prob(task, x, zi, yi, 1) <= 0.0
               for zi, yi in _as_pairs(task, support)):
            return _fail(f"zero-success pair weighted at x={x}")
    binary = instance_by_name("tag-3-8").task
    if not _expect_raises(TaskMismatchError, restem_update,
                          uniform_model(binary), binary, 10, seed=1, iteration=1):
        return _fail("binary task accepted by the soft reweighter")
    return _ok(f"exact weights match hand arithmetic to {gap:.1e}; "
               f"degenerate flags on {len(rep2['degenerate'])} prompts")


def check_training_cond_sft_properties() -> CheckResult:
    """Tag labels come from the reference response, never the sample."""
    inst = instance_by_name("tag-4-5")
    task = inst.task
    model = uniform_model(task)
    corpus = build_tagged_corpus(model, task, budget=40, seed=47, iteration=1)
    if len(corpus) != 40 * task.n_prompts:
        return _fail(f"corpus has {len(corpus)} items")
    for x, tag, y in corpus:
        expected = GOOD_TAG if y == task.truth[x][1] else 1 - GOOD_TAG
        if tag != expected:
            return _fail(f"item ({x}, {tag}, {y}) has the wrong tag")
    trained = conditional_sft_update(model, task, corpus)
    bad_only = [(x, 1 - GOOD_TAG, (task.truth[x][1] + 1) % task.n_responses)
                for x in range(task.n_prompts)]
    starved = conditional_sft_update(model, task, bad_only)
    if not _expect_raises(UnseenTagError, conditional_decode, starved, task,
                          0, GOOD_TAG):
        return _fail("decoding an unseen tag did not raise")
    carry = instance_by_name("carry-d1-b2").task
    if not _expect_raises(TaskMismatchError, conditional_sft_update,
                          uniform_model(carry), carry, [(0, 0, 0)]):
        return _fail("non-tag task accepted")
    _, record = run_cond_sft(model, task, iterations=2, budget=200, seed=47)
    final_acc = record.rows[-1].acc_greedy
    if final_acc < 0.9:
        return _fail(f"tag-conditioned accuracy only {final_acc:.2f} after training")
    if trained.joint_probs(0)[task.zy_index(GOOD_TAG, task.truth[0][1])] <= 0.0:
        return _fail("good tag lost the correct response")
    return _ok(f"labels correct on {len(corpus)} items; "
               f"deployment accuracy {final_acc:.2f}")


def preference_loss_by_prompt(policy: LogitModel, reference: LogitModel,
                              pairs: list[PreferencePair],
                              beta: float = 1.0) -> tuple[float, np.ndarray]:
    """Oracle for `latent_dpo_loss_and_grad`: the pairs grouped by prompt,
    each group on that prompt's own log-probability vectors, pair by pair,
    with one `adjoint` per prompt."""
    by_prompt: dict[int, list[PreferencePair]] = {}
    for pair in pairs:
        by_prompt.setdefault(pair.x_idx, []).append(pair)
    losses: list[float] = []
    grad = np.zeros(policy.features.dim)
    for x_idx, group in by_prompt.items():
        lp_pol = policy.joint_log_probs(x_idx)
        lp_ref = reference.joint_log_probs(x_idx)
        weight = np.zeros(policy.task.n_joint)
        for _, ip, ineg in group:
            margin = beta * ((lp_pol[ip] - lp_ref[ip]) - (lp_pol[ineg] - lp_ref[ineg]))
            losses.append(float(np.logaddexp(0.0, -margin)))
            coef = float(np.exp(-np.logaddexp(0.0, margin))) * beta / len(pairs)
            weight[ip] -= coef
            weight[ineg] += coef
        grad += policy.features.adjoint(x_idx, weight)
    return float(np.mean(losses)), grad


def _dpo_identity_report() -> tuple[bool, str]:
    """Shared core for the preference-loss identity checks."""
    inst = instance_by_name("tag-4-5")
    task = inst.task
    ref = random_model(task, stream(SEED, "dpo-ref"), scale=0.8)
    pairs = []
    for x in range(task.n_prompts):
        good = task.truth[x]
        bad = (GOOD_TAG, (good[1] + 1) % task.n_responses)
        pairs.append(PreferencePair(x, task.zy_index(*good), task.zy_index(*bad)))

    mirror = ref.with_theta(ref.theta)
    loss, _ = latent_dpo_loss_and_grad(mirror, ref, pairs)
    # softplus(0) = ln 2
    if abs(loss - 0.6931471805599453) > 1e-12:
        return False, f"identical policy loss {loss!r} != ln 2"

    shifted = ref.theta.copy()
    for pair in pairs:
        off = ref.features.offset(pair.x_idx)
        shifted[off + pair.pos] += 0.5
        shifted[off + pair.neg] -= 0.5
    unit = ref.with_theta(shifted)
    # every margin is exactly 1: softplus(-1) frozen
    loss1, _ = latent_dpo_loss_and_grad(unit, ref, pairs)
    if abs(loss1 - 0.31326168751822286) > 1e-12:
        return False, f"unit-margin loss {loss1!r} != softplus(-1)"
    loss2, _ = latent_dpo_loss_and_grad(unit, ref, pairs, beta=2.0)
    if abs(loss2 - 0.126928011042972) > 1e-12:
        return False, f"beta=2 unit-margin loss {loss2!r} != softplus(-2)"

    rng = stream(SEED, "dpo-fd")
    policy = random_model(task, rng, scale=0.8)

    def loss_at(theta: np.ndarray) -> float:
        return latent_dpo_loss_and_grad(policy.with_theta(theta), ref, pairs)[0]

    _, analytic = latent_dpo_loss_and_grad(policy, ref, pairs)
    fd = _central_fd(loss_at, policy.theta.copy())
    rel = _rel_err(fd, analytic)
    if rel > 1e-6:
        return False, f"gradient deviates from finite differences by {rel:.3e}"

    bump_p = policy.theta.copy()
    bump_r = ref.theta.copy()
    shifts = stream(SEED, "dpo-shift").normal(0.0, 3.0, task.n_prompts)
    for x in range(task.n_prompts):
        off = policy.features.offset(x)
        bump_p[off:off + task.n_joint] += shifts[x]
        bump_r[off:off + task.n_joint] -= 0.5 * shifts[x]
    loss_shifted, _ = latent_dpo_loss_and_grad(policy.with_theta(bump_p),
                                               ref.with_theta(bump_r), pairs)
    base, _ = latent_dpo_loss_and_grad(policy, ref, pairs)
    if abs(loss_shifted - base) > 1e-10:
        return False, f"per-prompt shifts moved the loss by {abs(loss_shifted - base):.3e}"

    clamped = policy.theta.copy()
    clamped[policy.features.offset(0) + pairs[0].pos] = LOG_CLAMP
    if not _expect_raises(ZeroProbabilityPairError, latent_dpo_loss_and_grad,
                          policy.with_theta(clamped), ref, pairs):
        return False, "clamped completion in a pair did not raise"
    if not _expect_raises(ConfigError, latent_dpo_loss_and_grad, policy, ref, []):
        return False, "empty pair list did not raise"
    return True, (f"ln 2 and softplus(-1) exact, gradient error {rel:.1e}, "
                  f"shift moved loss {abs(loss_shifted - base):.1e}")


def check_training_dpo_identities() -> CheckResult:
    """Frozen losses, finite-difference gradients, shift invariance."""
    ok, detail = _dpo_identity_report()
    return CheckResult(ok, detail)


def check_training_dpo_fit() -> CheckResult:
    """Preference fitting descends and widens every margin."""
    task = instance_by_name("tag-3-8").task
    ref = random_model(task, stream(SEED, "dpofit"), scale=0.8)
    pairs = []
    for x in range(task.n_prompts):
        good = task.truth[x]
        bad = (GOOD_TAG, (good[1] + 2) % task.n_responses)
        pairs.append(PreferencePair(x, task.zy_index(*good), task.zy_index(*bad)))
    policy, history = dpo_fit(ref, pairs, steps=60)
    rises = [b - a for a, b in zip(history, history[1:]) if b > a + 1e-12]
    if rises:
        return _fail(f"loss rose {len(rises)} times during descent")
    if history[-1] >= history[0]:
        return _fail(f"loss did not fall: {history[0]!r} -> {history[-1]!r}")

    def margin(m: LogitModel, pair: PreferencePair) -> float:
        lp = m.joint_log_probs(pair.x_idx)
        lr = ref.joint_log_probs(pair.x_idx)
        ip, ineg = pair.pos, pair.neg
        return (lp[ip] - lr[ip]) - (lp[ineg] - lr[ineg])

    if not all(margin(policy, pair) > 0.0 for pair in pairs):
        return _fail("fitted policy left a nonpositive margin")
    return _ok(f"loss {history[0]:.4f} -> {history[-1]:.4f} "
               f"over {len(history) - 1} accepted steps")


def check_training_pref_loop() -> CheckResult:
    """Candidate pairing, the no-pair path, and both samplers."""
    inst = instance_by_name("tag-4-5")
    task = inst.task
    point = mstep(uniform_model(task), truth_one_hot(task), MStepSpec("closed_form"))
    final, record = run_pref_loop(point, task, iterations=1, candidates=8,
                                  seed=53, sampler="model", dpo_steps=10)
    if "no_pairs" not in record.flags:
        return _fail("all-verified candidates still produced pairs")
    if not np.array_equal(final.theta, point.theta):
        return _fail("a pairless round changed the model")
    if record.algorithm != "iter_dpo":
        return _fail(f"model sampler labeled {record.algorithm!r}")
    model = uniform_model(task)
    trained, posterior_rec = run_pref_loop(
        model, task, iterations=2, candidates=12, seed=53,
        sampler="posterior", dpo_steps=20, pg_params={"iterations": 30})
    if posterior_rec.algorithm != "posterior_dpo":
        return _fail(f"posterior sampler labeled {posterior_rec.algorithm!r}")
    if len(posterior_rec.rows) != 3:
        return _fail(f"{len(posterior_rec.rows)} rows for 2 iterations")
    if posterior_rec.rows[-1].acc_greedy < posterior_rec.rows[0].acc_greedy:
        return _fail("posterior-sampled training lowered greedy accuracy")
    soft = instance_by_name("tag-5-4-soft").task
    if not _expect_raises(TaskMismatchError, run_pref_loop, uniform_model(soft),
                          soft, iterations=1, candidates=4, seed=1):
        return _fail("soft task accepted by the preference loop")
    if not _expect_raises(ConfigError, run_pref_loop, model, task,
                          iterations=1, candidates=4, seed=1, sampler="bogus"):
        return _fail("unknown sampler accepted")
    return _ok(f"no-pair path inert; posterior sampler accuracy "
               f"{posterior_rec.rows[0].acc_greedy:.2f} -> "
               f"{posterior_rec.rows[-1].acc_greedy:.2f}")


# -- harness -----------------------------------------------------------------------

_EXAMPLE_CONFIG = """\
task: {kind: tag, n_prompts: 3, n_responses: 8, seed: 0}
event: success
model: {features: tabular, init: uniform}
algorithm: em
iterations: 2
seeds: [0]
estep: {backend: planning}
mstep: {kind: closed_form}
"""


def check_harness_config_roundtrip() -> CheckResult:
    """Resolved configs are a fixed point of the parser."""
    from . import harness

    cfg = harness.parse_config(_EXAMPLE_CONFIG)
    text = harness.resolved_text(cfg)
    if harness.resolved_text(harness.parse_config(text)) != text:
        return _fail("resolving a resolved config changed it")
    try:
        harness.parse_config(_EXAMPLE_CONFIG + "bogus_key: 1\n")
        return _fail("unknown top-level field was accepted")
    except ConfigError as exc:
        if "bogus_key" not in str(exc):
            return _fail(f"error does not name the bad field: {exc}")
    try:
        harness.parse_config(_EXAMPLE_CONFIG.replace("algorithm: em",
                                                     "algorithm: nope"))
        return _fail("unknown algorithm was accepted")
    except ConfigError as exc:
        if "nope" not in str(exc):
            return _fail(f"error does not name the bad algorithm: {exc}")
    try:
        harness.parse_config(
            _EXAMPLE_CONFIG.replace("{kind: tag, n_prompts: 3, n_responses: 8, seed: 0}",
                                    "{kind: tag, n_prompts: 3, bogus: 8}"))
        return _fail("unknown task field was accepted")
    except ConfigError as exc:
        if "bogus" not in str(exc):
            return _fail(f"error does not name the bad task field: {exc}")
    return _ok("roundtrip is a fixed point and bad fields are named")


def check_harness_run_determinism() -> CheckResult:
    """Two runs of one config write byte-identical records."""
    from . import harness

    cfg = harness.parse_config(_EXAMPLE_CONFIG)
    with tempfile.TemporaryDirectory() as td:
        a, b = Path(td) / "a", Path(td) / "b"
        harness.execute_run(cfg, a)
        harness.execute_run(cfg, b)
        names = sorted(p.name for p in a.glob("record.seed*.tsv"))
        if not names:
            return _fail("run produced no records")
        for name in names + ["config.resolved"]:
            if (a / name).read_bytes() != (b / name).read_bytes():
                return _fail(f"{name} differs between reruns")
    return _ok(f"{len(names)} record(s) plus the resolved config are byte-identical")


def check_harness_compare_guard() -> CheckResult:
    """Cross-task comparisons are refused; matching ones align."""
    from . import harness

    other = _EXAMPLE_CONFIG.replace("n_responses: 8", "n_responses: 5")
    sibling = _EXAMPLE_CONFIG.replace("backend: planning", "backend: exact")
    with tempfile.TemporaryDirectory() as td:
        a, b, c = Path(td) / "a", Path(td) / "b", Path(td) / "c"
        harness.execute_run(harness.parse_config(_EXAMPLE_CONFIG), a)
        harness.execute_run(harness.parse_config(other), b)
        harness.execute_run(harness.parse_config(sibling), c)
        if not _expect_raises(TaskMismatchError, harness.compare_runs, [a, b]):
            return _fail("different tasks were compared")
        table = harness.compare_runs([a, c])
        if "em" not in table:
            return _fail("comparison table lost the algorithm ids")
    return _ok("mismatched tasks raise; matched tasks produce a table")


def check_harness_report_idempotent() -> CheckResult:
    """Reports aggregate per-seed records and rewrite identically."""
    from . import harness

    cfg = harness.parse_config(_EXAMPLE_CONFIG.replace("seeds: [0]", "seeds: [0, 1]"))
    with tempfile.TemporaryDirectory() as td:
        run_dir = Path(td) / "run"
        harness.execute_run(cfg, run_dir)
        first = harness.write_report(run_dir)
        if not first:
            return _fail("report produced no series files")
        blobs = {p.name: p.read_bytes() for p in first}
        again = harness.write_report(run_dir)
        for p in again:
            if blobs.get(p.name) != p.read_bytes():
                return _fail(f"{p.name} changed on the second write")
        series = (run_dir / "series.objective.tsv").read_text().splitlines()
        if series[0].split("\t") != ["t", "seed0", "seed1", "mean"]:
            return _fail(f"unexpected series header {series[0]!r}")
        if len(series) != 1 + cfg.data["iterations"] + 1:
            return _fail(f"series has {len(series) - 1} rows for "
                         f"{cfg.data['iterations']} iterations")
    return _ok(f"{len(first)} series files, byte-stable across rewrites")


def check_harness_fault_detection() -> CheckResult:
    """Injecting the shaping fault makes the shaping checks fail."""
    clean = run_checks("planner.shap*")
    faulty = run_checks("planner.shap*", inject_fault="shaping-sign")
    if len(clean) != 2 or len(faulty) != 2:
        return _fail(f"pattern matched {len(clean)} checks, expected 2")
    if not all(res.ok for _, res in clean):
        return _fail("shaping checks fail even without the fault")
    still_green = [name for name, res in faulty if res.ok]
    if still_green:
        return _fail(f"fault went undetected by {still_green}")
    return _ok("both shaping checks flip to FAIL under the injected fault")


# -- registry ----------------------------------------------------------------------

CHECKS: dict[str, Callable[[], CheckResult]] = {
    "tasks.factory_counts": check_tasks_factory_counts,
    "tasks.evaluator_normalization": check_tasks_evaluator_normalization,
    "tasks.unique_truth": check_tasks_unique_truth,
    "tasks.event_enumeration": check_tasks_event_enumeration,
    "tasks.serialization_roundtrip": check_tasks_serialization_roundtrip,
    "tasks.determinism": check_tasks_determinism,
    "tasks.cap_enforcement": check_tasks_cap_enforcement,
    "tasks.sequence_validation": check_tasks_sequence_validation,
    "models.partition_oracle": check_models_partition_oracle,
    "models.normalization": check_models_normalization,
    "models.autoregressive_consistency": check_models_autoregressive_consistency,
    "models.sampling_exactness": check_models_sampling_exactness,
    "models.batched_draws_match_walks": check_models_batched_draws_match_walks,
    "models.stacked_tables_match_rows": check_models_stacked_tables_match_rows,
    "models.kl_forms_agree": check_models_kl_forms_agree,
    "models.checkpoint_roundtrip": check_models_checkpoint_roundtrip,
    "models.feature_adjoint": check_models_feature_adjoint,
    "graph.factorization": check_graph_factorization,
    "graph.event_logprob_cases": check_graph_event_logprob_cases,
    "graph.posterior_oracle": check_graph_posterior_oracle,
    "graph.elbo_bound": check_graph_elbo_bound,
    "graph.gradient_identity": check_graph_gradient_identity,
    "graph.batched_averages": check_graph_batched_averages,
    "planner.closed_forms": check_planner_closed_forms,
    "planner.trajectory_softmax": check_planner_trajectory_softmax,
    "planner.bellman_consistency": check_planner_bellman_consistency,
    "planner.policy_optimality": check_planner_policy_optimality,
    "planner.entropy_in_beta": check_planner_entropy_in_beta,
    "planner.shaping_telescoping": check_planner_shaping_telescoping,
    "planner.shaped_posterior": check_planner_shaped_posterior,
    "esteps.backend_agreement": check_esteps_backend_agreement,
    "esteps.rejection_soundness": check_esteps_rejection_soundness,
    "esteps.policy_gradient_soundness": check_esteps_policy_gradient_soundness,
    "esteps.fisher_step": check_esteps_fisher_step,
    "esteps.sample_efficiency": check_esteps_sample_efficiency,
    "training.mstep_routes": check_training_mstep_routes,
    "training.em_monotone": check_training_em_monotone,
    "training.telescoping_certificate": check_training_telescoping_certificate,
    "training.reference_gap": check_training_reference_gap,
    "training.reference_closed_form": check_training_reference_closed_form,
    "training.fixed_point": check_training_fixed_point,
    "training.unification_filter": check_training_unification_filter,
    "training.unification_restem": check_training_unification_restem,
    "training.filter_properties": check_training_filter_properties,
    "training.restem_properties": check_training_restem_properties,
    "training.cond_sft_properties": check_training_cond_sft_properties,
    "training.dpo_identities": check_training_dpo_identities,
    "training.dpo_fit": check_training_dpo_fit,
    "training.pref_loop": check_training_pref_loop,
    "harness.config_roundtrip": check_harness_config_roundtrip,
    "harness.run_determinism": check_harness_run_determinism,
    "harness.compare_guard": check_harness_compare_guard,
    "harness.report_idempotent": check_harness_report_idempotent,
    "harness.fault_detection": check_harness_fault_detection,
}


def run_checks(
    pattern: str | None = None, inject_fault: str | None = None
) -> list[tuple[str, CheckResult]]:
    """Run every check whose name matches, with every entry of `FAULTS` set
    to its clean kernel, or to its faulty one for `inject_fault`; the values
    found on entry are put back afterwards.  The suite tasks' compiled
    events are dropped on both swaps, so no mass table outlives the kernel
    that built it.

    A check that raises is reported as a failure rather than aborting the
    battery, so one broken invariant cannot hide the state of the rest.
    """
    if inject_fault is not None and inject_fault not in FAULTS:
        raise ConfigError(
            f"unknown fault {inject_fault!r}; available: {', '.join(FAULT_NAMES)}")
    names = [n for n in CHECKS if pattern is None or fnmatch.fnmatch(n, pattern)]
    previous = [(module, attr, getattr(module, attr)) for module, attr, _ in FAULTS.values()]
    for fault, (module, attr, faulty) in FAULTS.items():
        setattr(module, attr, faulty if fault == inject_fault else _CLEAN[fault])
    _forget_cached_tables()
    results: list[tuple[str, CheckResult]] = []
    try:
        for name in names:
            try:
                results.append((name, CHECKS[name]()))
            except Exception as exc:  # noqa: BLE001 - report, don't abort
                results.append(
                    (name, CheckResult(False, f"raised {type(exc).__name__}: {exc}")))
    finally:
        for module, attr, value in previous:
            setattr(module, attr, value)
        _forget_cached_tables()
    return results


def _forget_cached_tables() -> None:
    """Drop the suite tasks' compiled events: their mass tables were read
    through whichever observation-table kernel was installed.  A trie's
    index tables hold no kernel output, and models, with their views and
    event tables, live inside one check."""
    for inst in _SUITE or ():
        inst.task.compiled_events.clear()
        inst.task.spec_events.clear()


# -- acceptance battery --------------------------------------------------------------


@dataclass(frozen=True)
class AcceptanceResult:
    number: int
    name: str
    ok: bool
    detail: str
    seconds: float


def _accept(number: int, name: str, started: float, ok: bool,
            detail: str) -> AcceptanceResult:
    return AcceptanceResult(number, name, ok, detail, time.perf_counter() - started)


def acceptance_01() -> AcceptanceResult:
    """Soft planning reproduces the softmax-of-total-reward law."""
    started = time.perf_counter()
    rng = stream(SEED, "acc1")
    worst = 0.0
    count = 60
    for k in range(count):
        beta = (0.3, 1.0, 3.0)[k % 3]
        horizon = int(rng.integers(1, 6))
        n_actions = int(rng.integers(2, 7))
        mdp = random_shaped_mdp(rng, horizon, n_actions, beta, reward_scale=2.0)
        plan = soft_value_iteration(mdp)
        starts = [()]
        if horizon > 1:
            starts.append(mdp.trie.prefixes[1 + int(rng.integers(n_actions))])
        for start in starts:
            worst = max(worst, _trajectory_law_tv(plan, start)[0])
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-9 and elapsed < 10.0
    return _accept(1, "planner-softmax-equivalence", started, ok,
                   f"{count} problems, max tv {worst:.2e}, {elapsed:.1f}s")


def acceptance_02() -> AcceptanceResult:
    """Planning E-steps match exact posteriors across the suite."""
    started = time.perf_counter()
    suite = standard_instances()
    worst = 0.0
    solves = 0
    for inst in suite:
        if inst.task.n_joint > 10_000:
            return _accept(2, "planning-estep-suite", started, False,
                           f"{inst.name} exceeds the enumeration bound")
        model = random_model(inst.task, stream(SEED, "acc2", inst.name), scale=0.8)
        jm = JointModel(model)
        for event in inst.events:
            for x in range(inst.task.n_prompts):
                res = estep_planning(jm, x, event)
                worst = max(worst, res.tv_error)
                solves += 1
    elapsed = time.perf_counter() - started
    ok = len(suite) >= 20 and worst <= 1e-8 and elapsed < 30.0
    return _accept(2, "planning-estep-suite", started, ok,
                   f"{len(suite)} instances, {solves} posteriors, "
                   f"max tv {worst:.2e}, {elapsed:.1f}s")


def acceptance_03() -> AcceptanceResult:
    """Variational values never beat the event log probability."""
    started = time.perf_counter()
    worst_violation = -math.inf
    worst_gap = 0.0
    per_instance = 1000
    finite = True
    for inst in standard_instances():
        model = random_model(inst.task, stream(SEED, "acc3", inst.name), scale=0.9)
        jm = JointModel(model)
        event = inst.events[0]
        row = jm.exact_posterior(0, event)
        rng = stream(SEED, "acc3-q", inst.name)
        alphas = [1.0, 0.25] * (per_instance // 2)
        for report in _live_elbos(jm, 0, event, row > 0.0, rng, alphas):
            finite = finite and math.isfinite(report.value)
            worst_violation = max(worst_violation,
                                  report.value - report.log_likelihood)
        worst_gap = max(worst_gap, abs(jm.elbo(0, event, row).gap))
    ok = finite and worst_violation <= 1e-10 and worst_gap <= 1e-10
    return _accept(3, "variational-lower-bound", started, ok,
                   f"{per_instance} draws x {len(standard_instances())} instances, "
                   f"worst slack {worst_violation:.2e}, "
                   f"posterior gap {worst_gap:.2e}")


def acceptance_04() -> AcceptanceResult:
    """Divergence identities and analytic gradients, 100 random draws."""
    started = time.perf_counter()
    suite = standard_instances()
    small = [i for i in suite if i.task.n_prompts * i.task.n_joint <= 500]
    worst_kl = 0.0
    worst_grad = 0.0
    for k in range(100):
        rng = stream(SEED, "acc4", k)
        inst = suite[k % len(suite)]
        scale = float(rng.uniform(0.3, 1.2))
        a = random_model(inst.task, rng, scale=scale)
        b = random_model(inst.task, rng, scale=scale)
        x = int(rng.integers(inst.task.n_prompts))
        worst_kl = max(worst_kl, _kl_form_gap(a, b, x))

        ginst = small[k % len(small)]
        if k % 4 == 3:
            features = NgramFeatures(ginst.task, n=2)
        else:
            features = TabularFeatures(ginst.task)
        model = LogitModel(features, rng.normal(0.0, scale, features.dim))
        worst_grad = max(worst_grad, _fd_grad_error(model, ginst.events[0]))
    ok = worst_kl <= 1e-9 and worst_grad <= 1e-6
    return _accept(4, "divergence-and-gradient-identities", started, ok,
                   f"100 draws: kl forms within {worst_kl:.2e}, "
                   f"gradient error {worst_grad:.2e}")


def acceptance_05() -> AcceptanceResult:
    """Exact alternation is monotone and step divergences telescope."""
    started = time.perf_counter()
    iterations = 100
    runs = [
        ("carry-d1-b3", None, MStepSpec("closed_form")),
        ("tag-5-4-soft", None, MStepSpec("closed_form")),
        ("automaton-2-3", 2, MStepSpec("gradient_ascent", steps=80)),
        ("carry-d1-b3-soft", None, MStepSpec("gradient_ascent", steps=80)),
    ]
    details = []
    ok = True
    for name, ngram_n, mspec in runs:
        inst = instance_by_name(name)
        task = inst.task
        if ngram_n is None:
            model = random_model(task, stream(SEED, "acc5", name), scale=0.8)
        else:
            feats = NgramFeatures(task, n=ngram_n)
            model = LogitModel(
                feats, stream(SEED, "acc5", name).normal(0.0, 0.5, feats.dim))
        _, record = run_em(model, task, success_event(), EStepSpec("exact"), mspec,
                           iterations=iterations, seed=61)
        objs = [row.objective for row in record.rows]
        drop = min(b - a for a, b in zip(objs, objs[1:]))
        min_kl = min(row.kl_step for row in record.rows[1:])
        budget = (objs[-1] - objs[0]) / iterations
        run_ok = drop >= -1e-12 and min_kl <= budget + 1e-9
        cert = record.certificates["telescoping"]
        run_ok = run_ok and cert["holds"]
        ok = ok and run_ok
        details.append(f"{name}[{mspec.kind}]: drop {drop:.1e}, "
                       f"min kl {min_kl:.1e} <= {budget:.1e}")
    return _accept(5, "monotone-telescoping-runs", started, ok,
                   "; ".join(details))


def acceptance_06() -> AcceptanceResult:
    """Gap-to-reference bound wherever the concavity probe passes."""
    started = time.perf_counter()
    details = []
    ok = True
    for name in ("carry-d1-b2", "tag-4-5"):
        inst = instance_by_name(name)
        task = inst.task
        corner = EventSpec(latents=(0,), responses=(0,))
        model = random_model(task, stream(SEED, "acc6", name), scale=1.0)
        ref = reference_optimum(model, task, corner)
        _, record = run_em(model, task, corner, EStepSpec("exact"),
                           MStepSpec("closed_form"), iterations=50, seed=67,
                           reference=ref)
        cert = record.certificates["reference_gap"]
        # the comparator is the supremum, so no iterate may beat it
        if not (cert["concavity_probe"] and cert["holds"]
                and cert["best_gap"] >= -1e-12):
            ok = False
        details.append(f"{name}: probe={cert['concavity_probe']} "
                       f"gap {cert['best_gap']:.2e} <= {cert['kl_budget']:.2e}")
    # general events carry no concavity promise; report the verdict instead
    inst = instance_by_name("automaton-3-2")
    model = random_model(inst.task, stream(SEED, "acc6-general"), scale=2.5)
    ref = reference_optimum(model, inst.task, success_event())
    _, record = run_em(model, inst.task, success_event(), EStepSpec("exact"),
                       MStepSpec("closed_form"), iterations=12, seed=67,
                       reference=ref)
    cert = record.certificates["reference_gap"]
    verdict = "asserted and held" if cert["asserted"] and cert["holds"] else (
        f"informational: probe={cert['concavity_probe']} holds={cert['holds']}")
    details.append(f"general event {verdict}")
    # a far-off random reference is known to fail the probe on this draw,
    # demonstrating the informational branch instead of a silent assert
    inst = instance_by_name("tag-4-5")
    model = random_model(inst.task, stream(SEED, "probe2", "tag-4-5", 5), scale=1.0)
    ref = random_model(inst.task, stream(SEED, "probe2-ref", "tag-4-5", 5), scale=3.0)
    _, record = run_em(model, inst.task, success_event(), EStepSpec("exact"),
                       MStepSpec("closed_form"), iterations=8, seed=5,
                       reference=ref)
    cert = record.certificates["reference_gap"]
    if cert["concavity_probe"] or cert["asserted"]:
        ok = False
        details.append("expected probe failure did not occur")
    else:
        details.append(f"random reference: probe=False holds={cert['holds']} "
                       "(informational)")
    return _accept(6, "reference-gap-certificates", started, ok,
                   "; ".join(details))


def acceptance_07() -> AcceptanceResult:
    """The baselines' exact-weight limits coincide with the alternation update."""
    started = time.perf_counter()
    worst_f = 0.0
    worst_r = 0.0
    for k in range(2):
        for name in ("carry-d1-b2", "automaton-2-3", "tag-3-8"):
            task = instance_by_name(name).task
            model = random_model(task, stream(SEED, "acc7f", name, k), scale=0.9)
            worst_f = max(worst_f, _unification_gap(model, task, 71))
        for name in ("carry-d1-b3-soft", "tag-5-4-soft", "automaton-2-5-soft"):
            task = instance_by_name(name).task
            model = random_model(task, stream(SEED, "acc7r", name, k), scale=0.9)
            worst_r = max(worst_r, _unification_gap(model, task, 73))
    ok = worst_f <= 1e-10 and worst_r <= 1e-10
    return _accept(7, "baseline-unification", started, ok,
                   f"filter within {worst_f:.2e}, "
                   f"reweighting within {worst_r:.2e}, 6 instances x 2 draws")


def acceptance_08() -> AcceptanceResult:
    """Sparse-success pilot: inference-led training beats sampling."""
    started = time.perf_counter()
    task = make_carry_addition_task(1, 10, prompt_limit=6)
    event = success_event()
    base = uniform_model(task)
    jm = JointModel(base)
    mass = max(event_logprob(jm, x, event) for x in range(task.n_prompts))
    if mass > math.log(1e-3):
        return _accept(8, "sparse-success-pilot", started, False,
                       f"event mass {math.exp(mass):.1e} is not sparse")
    wins_a = 0
    wins_b = 0
    strict_b = 0
    lines = []
    for seed in range(5):
        _, em_rec = run_em(uniform_model(task), task, event, EStepSpec("planning"),
                           MStepSpec("closed_form"), iterations=3, seed=seed)
        _, f_rec = run_filter_sft(uniform_model(task), task, iterations=3,
                                  budget=200, seed=seed)
        em_tv, em_acc = em_rec.rows[-1].tv_estep, em_rec.rows[-1].acc_greedy
        f_tv, f_acc = f_rec.rows[-1].tv_estep, f_rec.rows[-1].acc_greedy
        if em_tv < f_tv and em_acc >= f_acc:
            wins_a += 1
        _, p_rec = run_pref_loop(uniform_model(task), task, iterations=3,
                                 candidates=30, seed=seed, sampler="posterior",
                                 dpo_steps=12,
                                 pg_params={"iterations": 4, "step_size": 0.03})
        _, i_rec = run_pref_loop(uniform_model(task), task, iterations=3,
                                 candidates=30, seed=seed, sampler="model",
                                 dpo_steps=12)
        p_acc, i_acc = p_rec.rows[-1].acc_greedy, i_rec.rows[-1].acc_greedy
        if p_acc >= i_acc:
            wins_b += 1
        if p_acc > i_acc:
            strict_b += 1
        lines.append(f"s{seed}: tv {em_tv:.2f}/{f_tv:.2f} "
                     f"acc {em_acc:.2f}/{f_acc:.2f} dpo {p_acc:.2f}/{i_acc:.2f}")
    elapsed = time.perf_counter() - started
    ok = wins_a >= 4 and wins_b >= 4 and elapsed < 300.0
    return _accept(8, "sparse-success-pilot", started, ok,
                   f"planning-vs-filter wins {wins_a}/5, "
                   f"posterior-vs-model wins {wins_b}/5 "
                   f"({strict_b} strict), {elapsed:.0f}s; " + " | ".join(lines))


def acceptance_09() -> AcceptanceResult:
    """Preference-loss identities: frozen values, gradients, shifts."""
    started = time.perf_counter()
    ok, detail = _dpo_identity_report()
    return _accept(9, "preference-loss-identities", started, ok, detail)


def acceptance_10() -> AcceptanceResult:
    """Identical configs rerun to byte-identical metric tables."""
    started = time.perf_counter()
    from . import harness

    configs = {
        "em": _EXAMPLE_CONFIG.replace("seeds: [0]", "seeds: [0, 1]")
        + "checkpoint_every: 1\n",
        "posterior_dpo": (
            "task: {kind: tag, n_prompts: 4, n_responses: 5, seed: 0}\n"
            "model: {features: tabular, init: random, scale: 0.6}\n"
            "algorithm: posterior_dpo\n"
            "iterations: 2\n"
            "seeds: [3]\n"
            "dpo: {steps: 15, candidates: 10, pg: {iterations: 25}}\n"
        ),
    }
    compared = 0
    for label, text in configs.items():
        cfg = harness.parse_config(text)
        with tempfile.TemporaryDirectory() as td:
            a, b = Path(td) / "a", Path(td) / "b"
            harness.execute_run(cfg, a)
            harness.execute_run(cfg, b)
            names = sorted(p.name for p in a.iterdir()
                           if p.name.startswith(("record.", "checkpoint.", "config.")))
            if not any(n.startswith("record.") for n in names):
                return _accept(10, "rerun-byte-identity", started, False,
                               f"{label}: no records written")
            for name in names:
                if (a / name).read_bytes() != (b / name).read_bytes():
                    return _accept(10, "rerun-byte-identity", started, False,
                                   f"{label}: {name} differs between reruns")
                compared += 1
    return _accept(10, "rerun-byte-identity", started, True,
                   f"{compared} files byte-identical across reruns "
                   "of two algorithm families")


ACCEPTANCE: tuple[Callable[[], AcceptanceResult], ...] = (
    acceptance_01, acceptance_02, acceptance_03, acceptance_04, acceptance_05,
    acceptance_06, acceptance_07, acceptance_08, acceptance_09, acceptance_10,
)
