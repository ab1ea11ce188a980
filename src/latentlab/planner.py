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

import numpy as np

from .errors import ClampLeakError, UnreachableEventError, require_positive
from .graph import JointModel
# `bench/spans.py` counts `logsumexp` calls at this import site too
from .logspace import LOG_CLAMP, logsumexp  # noqa: F401
from .tasks import EventSpec, compile_event
from .trie import Trie


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
        require_positive("beta", self.beta)


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

    `terminal_sign_fault` flips the sign of the terminal bonus; only the
    benchmark's tests pass it, to see a broken planner counted as failed.
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
