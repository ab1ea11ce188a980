"""Entropy-regularized planning on prefix-tree decision processes.

Trajectories are token sequences from a finite prefix-free set.  Soft value
iteration runs one backward pass with v(s) = beta * log sum_a exp(q(s,a) /
beta) and q(s,a) = r(s,a) + v(next), giving the policy pi(a|s) =
exp((q - v) / beta) whose trajectory distribution is proportional to
exp(total reward / beta).  Shaping a task model's token conditionals plus a
terminal event bonus at beta = 1 makes that distribution the exact event
posterior over (rationale, response) pairs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ClampLeakError, HorizonViolationError, UnreachableEventError
from .graph import JointModel
from .logspace import LOG_CLAMP, logsumexp
from .tasks import EventSpec, compile_event
from .trie import Trie

Prefix = tuple[int, ...]


@dataclass
class ShapedMdp:
    """Deterministic tree MDP over a prefix-free trajectory set.

    `reward[n]` pays for the edge into node `n` of `trie` (the root's entry
    is unused).  Leaves are complete trajectories, numbered in the trie's
    sequence order.
    """

    trie: Trie
    reward: np.ndarray
    beta: float

    def __post_init__(self):
        if self.beta <= 0:
            raise ValueError("beta must be positive")

    @classmethod
    def from_sequences(
        cls,
        seqs: Sequence[Prefix],
        reward_fn: Callable[[Prefix, int], float],
        beta: float,
        horizon: int | None = None,
    ) -> "ShapedMdp":
        """Build the prefix tree of `seqs` with rewards from `reward_fn`.

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
            for child in trie.children(node):
                reward[child] = reward_fn(prefix, int(trie.token[child]))
        return cls(trie=trie, reward=reward, beta=beta)


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

    return ShapedMdp.from_sequences(seqs, reward_fn, beta, horizon=horizon)


@dataclass
class SoftPlan:
    """Backward-induction output, per node of the MDP's trie: `q[n]` is the
    soft value of the edge into `n`, `v[n]` the soft value of `n` (0 at
    leaves), and `log_policy[n]` the log probability of that edge."""

    mdp: ShapedMdp
    q: np.ndarray
    v: np.ndarray
    log_policy: np.ndarray

    def root_value(self) -> float:
        return float(self.v[0])


def soft_value_iteration(mdp: ShapedMdp) -> SoftPlan:
    """One exact backward pass; leaves have value 0 by definition."""
    trie = mdp.trie
    v = trie.upward(np.zeros(len(trie.sequences)), mdp.reward, mdp.beta)
    q = mdp.reward + v
    log_policy = trie.child_minus_parent(q, v) / mdp.beta
    return SoftPlan(mdp=mdp, q=q, v=v, log_policy=log_policy)


def trajectory_distribution(
    plan: SoftPlan, from_prefix: Prefix = ()
) -> tuple[list[tuple[int, ...]], np.ndarray]:
    """Suffix distribution induced by the soft-optimal policy from a state,
    in lexicographic suffix order."""
    trie, n = plan.mdp.trie, len(from_prefix)
    if from_prefix not in trie.index:
        raise KeyError(f"state {from_prefix} is not in the tree")
    path_logp = trie.downward(plan.log_policy, trie.index[from_prefix])
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
    stack = [(trie.index[from_prefix], (), 0.0)]
    while stack:
        node, suffix, acc = stack.pop()
        children = trie.children(node)
        if not children:
            suffixes.append(suffix)
            totals.append(acc)
            continue
        for c in reversed(children):
            stack.append((c, suffix + (int(trie.token[c]),), acc + float(mdp.reward[c])))
    scaled = np.array(totals) / mdp.beta
    with np.errstate(under="ignore"):
        probs = np.exp(scaled - logsumexp(scaled))
    return suffixes, probs / probs.sum()


def regularized_return(
    mdp: ShapedMdp, log_policy: np.ndarray, from_prefix: Prefix = ()
) -> float:
    """Exact E[sum r - beta * log pi] of an arbitrary policy from a state;
    `log_policy` is per node, as in `SoftPlan.log_policy`."""
    trie = mdp.trie

    def value(node: int) -> float:
        total = 0.0
        for c in trie.children(node):
            lp = float(log_policy[c])
            p = np.exp(lp)
            if p == 0.0:
                continue
            total += p * (float(mdp.reward[c]) - mdp.beta * lp + value(c))
        return total

    return value(trie.index[from_prefix])


def random_policy(mdp: ShapedMdp, rng: np.random.Generator) -> np.ndarray:
    """Independent random action distribution at every internal node,
    drawn in node (level) order."""
    out = np.zeros(mdp.trie.n_nodes)
    for node in mdp.trie.internal:
        children = mdp.trie.children(node)
        probs = rng.dirichlet(np.ones(len(children)))
        out[children] = np.log(np.maximum(probs, 1e-300))
    return out


# -- event shaping -------------------------------------------------------------


def shape_rewards(
    jm: JointModel,
    x_idx: int,
    event: EventSpec,
    beta: float = 1.0,
    terminal_sign_fault: bool = False,
) -> ShapedMdp:
    """Token-level rewards whose soft-optimal trajectories follow the event
    posterior at beta = 1.

    Every edge pays the reference model's conditional log probability, and
    the final edge of each trajectory additionally pays the log evaluator
    mass of the event's observation set (LOG_CLAMP outside the event's
    (z, y) rectangle or when that mass is zero).  Summing edge rewards
    therefore telescopes to log P(z, y | x) + log P(o in O_hat | x, z, y).

    `terminal_sign_fault` flips the sign of the terminal bonus; it exists
    so the verification harness can prove this check catches mutations.
    """
    task = jm.task
    view = jm.seq.conditional_tables(x_idx)
    with np.errstate(divide="ignore"):
        bonus = np.maximum(np.log(compile_event(task, event).mass(x_idx)), LOG_CLAMP)
    if not np.any(bonus > LOG_CLAMP):
        raise UnreachableEventError(
            f"event {event.describe()} clamps every trajectory at prompt {x_idx}"
        )
    reward = view.logp.copy()
    reward[task.trie.leaf_node] += -bonus if terminal_sign_fault else bonus
    return ShapedMdp(trie=task.trie, reward=reward, beta=beta)


def plan_posterior(
    plan: SoftPlan, task, x_idx: int, event: EventSpec
) -> tuple[np.ndarray, np.ndarray]:
    """Planner distribution over the event's (z, y) outcomes, as joint
    indices and probabilities, for a plan of `shape_rewards` on `task`
    (whose leaf k is joint index k).

    Clamped trajectories (outside the event rectangle, or inside it with
    zero evaluator mass on the event's observations) must carry essentially
    no probability, else `ClampLeakError`; the distribution is then
    renormalized over the event support.
    """
    compiled = compile_event(task, event)
    trie = plan.mdp.trie
    with np.errstate(under="ignore"):
        traj_probs = np.exp(trie.downward(plan.log_policy)[trie.leaf_node])

    clamped = compiled.mass(x_idx) == 0.0
    clamped_mass = float(traj_probs[clamped].max(initial=0.0))
    if clamped_mass > 1e-300:
        raise ClampLeakError(f"clamped trajectory keeps probability {clamped_mass:g}")
    probs = traj_probs[compiled.pair_joint]
    total = probs.sum()
    if total <= 0.0:
        raise UnreachableEventError("no event trajectory carries mass")
    return compiled.pair_joint, probs / total
