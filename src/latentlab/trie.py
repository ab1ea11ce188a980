"""Flat, level-ordered prefix trees over prefix-free token-sequence sets.

A trie is compiled once per sequence set.  Node 0 is the root (the empty
prefix); nodes are numbered level by level and, within a level, by
(parent, edge token), so the children of every node form one contiguous
run sorted by token.  Per-node quantities are plain arrays indexed by node:
a token model's conditionals and a decision process's edge rewards, soft
values and policies all live on the same structure.

The one numerical kernel is `upward`, a segmented log-sum-exp from the
leaves to the root at temperature beta.  Over leaf log probabilities at
beta = 1 it yields every prefix's log mass; over edge rewards it is soft
value iteration (the control-as-inference identity, Levine 2018).  It and
the two per-node kernels beside it, `child_minus_parent` and
`run_cumsum`, take any number of stacked copies of the node values (one
row per prompt, say) and run over all of them in one flat pass.
"""

from __future__ import annotations

import math
from functools import cached_property
from itertools import chain
from typing import NamedTuple, Sequence

import numpy as np

from .errors import TrajectorySetError

# most copy counts a trie keeps stacked indices for, oldest dropped first
STACKS_SIZE = 4


def _segment_sum(values: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Sum of every run values[starts[i]:starts[i + 1]] (the last to the end)."""
    return np.add.reduceat(values, starts)


def _tile(index: np.ndarray, stride: int, copies: int) -> np.ndarray:
    """`index` once per copy, copy c's entries offset by c * stride."""
    return (np.arange(copies)[:, None] * stride + index).ravel()


def _stacked_leaves(leaf_node: np.ndarray, n_nodes: int, copies: int) -> np.ndarray:
    """Flat positions of every copy's leaves: leaf k of copy c at
    c * n_nodes + leaf_node[k]."""
    return _tile(leaf_node, n_nodes, copies)


class _Stack(NamedTuple):
    """Index arrays over `copies` stacked copies of a trie's node values,
    held in one flat array with node n of copy c at c * n_nodes + n.

    `levels` holds, deepest first, each level's (node range of one copy's
    children, their parents at the start of each sibling run, run starts
    within every copy's children, run of each child); `ranks` holds the
    nodes at each position k >= 1 of their sibling run.
    """

    leaves: np.ndarray
    roots: np.ndarray
    parents: np.ndarray
    levels: list
    ranks: list


class Trie:
    """Prefix tree of `sequences`, which must be distinct, non-empty and
    prefix-free (else `TrajectorySetError`).

    Node n has parent `parent[n]`, edge token `token[n]` (-1 at the root),
    depth `depth[n]` and children `child_lo[n]:child_hi[n]`; depth d holds
    nodes `level_start[d]:level_start[d + 1]`.  Sequence k ends at leaf
    `leaf_node[k]`; `node_seq` maps a leaf back to k and is -1 elsewhere.

    The node arrays are built once, level by level: one `np.lexsort` per
    level orders that level's (parent node, edge token) keys, which numbers
    the nodes in (length, prefix) order.  `prefixes` (node -> prefix tuple)
    is built on first use.  `level_slots[d]` holds the children of every
    depth-d node, padded with -1 to the widest run at that depth, for the
    level-by-level sampling walks.

    The kernels `upward`, `child_minus_parent` and `run_cumsum` take
    [..., n] arrays, each row one copy of the node (or leaf) values, and
    run over all copies at once in one flat array.  The index arrays of
    a copy count (`_Stack`) are built on first use and kept for at most
    `STACKS_SIZE` copy counts.
    """

    def __init__(self, sequences: Sequence[Sequence[int]]):
        seqs = tuple(tuple(s) for s in sequences)
        lengths = np.fromiter(map(len, seqs), np.int64, len(seqs))
        if not seqs or not lengths.all():
            raise TrajectorySetError("empty trajectory set or empty trajectory")
        top = int(lengths.max())
        tokens = np.full((len(seqs), top), -1, dtype=np.int64)
        tokens[np.arange(top) < lengths[:, None]] = np.fromiter(
            chain.from_iterable(seqs), np.int64, int(lengths.sum()))
        # each sequence's node at the depth reached so far, the root first
        at = np.zeros(len(seqs), dtype=np.int64)
        parent, token, sizes = [np.array([-1])], [np.array([-1])], [1]
        for d in range(top):
            alive = np.flatnonzero(lengths > d)
            order = np.lexsort((tokens[alive, d], at[alive]))
            alive = alive[order]
            par, tok = at[alive], tokens[alive, d]
            new = np.r_[True, (par[1:] != par[:-1]) | (tok[1:] != tok[:-1])]
            at[alive] = sum(sizes) + np.cumsum(new) - 1
            parent.append(par[new])
            token.append(tok[new])
            sizes.append(int(np.count_nonzero(new)))
        leaves = np.sort(at)
        if (leaves[1:] == leaves[:-1]).any():
            raise TrajectorySetError("duplicate trajectories")
        self.sequences = seqs
        self.n_nodes = n = sum(sizes)
        self.parent = np.concatenate(parent)
        self.token = np.concatenate(token)
        self.child_lo = np.searchsorted(self.parent[1:], np.arange(n), "left") + 1
        self.child_hi = np.searchsorted(self.parent[1:], np.arange(n), "right") + 1
        self.leaf_node = at
        inner = np.flatnonzero(self.child_hi[at] > self.child_lo[at])
        if inner.size:
            raise TrajectorySetError(
                f"trajectory {seqs[inner[0]]} is a prefix of another; set is not prefix-free"
            )
        self.node_seq = np.full(n, -1)
        self.node_seq[at] = np.arange(len(seqs))
        self.internal = np.flatnonzero(self.child_hi > self.child_lo)
        self.depth = np.repeat(np.arange(top + 1), sizes)
        self.level_start = np.concatenate(([0], np.cumsum(sizes)))
        # copy count -> its `_Stack`, built on first use
        self._stacks: dict[int, _Stack] = {}
        # plain lists for the per-token walks of sampling and greedy decoding
        self.walk = (self.child_lo.tolist(), self.child_hi.tolist(), self.node_seq.tolist())
        # depth shared by every leaf (None if they differ)
        leaf_depth = self.depth[at]
        self.leaf_depth = int(leaf_depth[0]) if (leaf_depth == leaf_depth[0]).all() else None
        width = self.child_hi - self.child_lo
        self.level_slots = []
        for d in range(top):
            lo, hi = int(self.level_start[d]), int(self.level_start[d + 1])
            slot = np.arange(int(width[lo:hi].max()))
            self.level_slots.append(np.where(
                slot < width[lo:hi, None], self.child_lo[lo:hi, None] + slot, -1))

    @cached_property
    def prefixes(self) -> list[tuple[int, ...]]:
        """Every node's prefix, in node order."""
        out: list[tuple[int, ...]] = [()]
        for par, tok in zip(self.parent[1:].tolist(), self.token[1:].tolist()):
            out.append(out[par] + (tok,))
        return out

    def _stack(self, copies: int) -> _Stack:
        """The stacked index arrays of `copies` copies, built on first use
        and kept for at most `STACKS_SIZE` copy counts."""
        stack = self._stacks.get(copies)
        if stack is not None:
            return stack
        n = self.n_nodes
        levels = []
        for d in range(len(self.level_start) - 2, 0, -1):
            lo, hi = int(self.level_start[d]), int(self.level_start[d + 1])
            par = self.parent[lo:hi]
            new_run = np.r_[True, par[1:] != par[:-1]]
            starts = np.flatnonzero(new_run)
            levels.append((
                slice(lo, hi),
                _tile(par[new_run], n, copies),
                _tile(starts, hi - lo, copies),
                _tile(np.cumsum(new_run) - 1, len(starts), copies),
            ))
        rank = np.arange(1, n) - self.child_lo[self.parent[1:]]
        ranks = [_tile(np.flatnonzero(rank == k) + 1, n, copies)
                 for k in range(1, int(rank.max()) + 1)]
        stack = _Stack(
            leaves=_stacked_leaves(self.leaf_node, n, copies),
            roots=np.arange(copies) * n,
            parents=_tile(np.r_[0, self.parent[1:]], n, copies),
            levels=levels,
            ranks=ranks,
        )
        if len(self._stacks) >= STACKS_SIZE:
            del self._stacks[next(iter(self._stacks))]
        self._stacks[copies] = stack
        return stack

    def _stack_of(self, values: np.ndarray) -> _Stack:
        """The stack for [..., n] values: one copy per row."""
        return self._stack(math.prod(values.shape[:-1]))

    def upward(
        self, leaf_values: np.ndarray, edge: np.ndarray | None = None, beta: float = 1.0
    ) -> np.ndarray:
        """Node values v with v = leaf_values at the leaves and, at internal
        nodes, v = beta * log sum over children of exp((edge + v) / beta).
        A node whose children are all -inf gets -inf.

        `leaf_values` is [..., leaves] and `edge` (if given) [..., nodes];
        each row is one copy, and the [..., nodes] result is computed for
        every copy in one pass per level."""
        leaf_values = np.asarray(leaf_values, dtype=np.float64)
        stack = self._stack_of(leaf_values)
        v = np.zeros(len(stack.roots) * self.n_nodes)
        v[stack.leaves] = leaf_values.ravel()
        # every copy's nodes of one level, copy after copy, as one flat run
        rows = v.reshape(len(stack.roots), self.n_nodes)
        edge = None if edge is None else np.reshape(edge, rows.shape)
        with np.errstate(divide="ignore", under="ignore"):
            for children, owners, starts, run in stack.levels:
                q = rows[:, children].ravel()
                if edge is not None:
                    q = edge[:, children].ravel() + q
                # scaling by beta = 1 changes no bit, so it is skipped
                if beta != 1.0:
                    q = q / beta
                peak = np.maximum.reduceat(q, starts)
                peak[peak == -np.inf] = 0.0
                total = _segment_sum(np.exp(q - peak[run]), starts)
                value = peak + np.log(total)
                v[owners] = value if beta == 1.0 else beta * value
        return v.reshape(leaf_values.shape[:-1] + (self.n_nodes,))

    def downward(self, edge: np.ndarray, start: int = 0) -> np.ndarray:
        """Sums of `edge` along the path from node `start` to each node of
        its subtree (entries outside that subtree are meaningless)."""
        out = np.zeros(self.n_nodes)
        for d in range(int(self.depth[start]) + 1, len(self.level_start) - 1):
            lo, hi = self.level_start[d], self.level_start[d + 1]
            out[lo:hi] = out[self.parent[lo:hi]] + edge[lo:hi]
        return out

    def child_minus_parent(self, child: np.ndarray, parent: np.ndarray | None = None):
        """child[n] - parent[parent node of n]; -inf where both are -inf,
        0 at the root.  Both are [..., nodes], one copy per row."""
        child = np.asarray(child, dtype=np.float64)
        parent = child if parent is None else parent
        stack = self._stack_of(child)
        with np.errstate(invalid="ignore"):
            out = child.ravel() - np.ravel(parent)[stack.parents]
        out[np.isnan(out)] = -np.inf
        out[stack.roots] = 0.0
        return out.reshape(child.shape)

    def run_cumsum(self, values: np.ndarray) -> np.ndarray:
        """Running sums of `values` within each sibling run, in token order;
        each run is summed left to right, as np.cumsum does.  `values` is
        [..., nodes], one copy per row."""
        out = np.array(values, dtype=np.float64)
        flat = out.reshape(-1)
        for nodes in self._stack_of(out).ranks:
            flat[nodes] += flat[nodes - 1]
        return out
