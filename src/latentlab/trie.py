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
value iteration (the control-as-inference identity, Levine 2018).
"""

from __future__ import annotations

from functools import cached_property
from itertools import chain
from typing import Sequence

import numpy as np

from .errors import TrajectorySetError


def _segment_sum(values: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Sum of every run values[starts[i]:starts[i + 1]] (the last to the end)."""
    return np.add.reduceat(values, starts)


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
        # (children's node range, their parents, run starts, run of each child)
        self._levels = []
        for d in range(top, 0, -1):
            lo, hi = int(self.level_start[d]), int(self.level_start[d + 1])
            par = self.parent[lo:hi]
            new_run = np.r_[True, par[1:] != par[:-1]]
            self._levels.append(
                (lo, hi, par[new_run], np.flatnonzero(new_run), np.cumsum(new_run) - 1)
            )
        # nodes by position k >= 1 within their sibling run, for run_cumsum
        rank = np.arange(1, n) - self.child_lo[self.parent[1:]]
        self._by_rank = [np.flatnonzero(rank == k) + 1 for k in range(1, rank.max() + 1)]
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

    def upward(
        self, leaf_values: np.ndarray, edge: np.ndarray | None = None, beta: float = 1.0
    ) -> np.ndarray:
        """Node values v with v = leaf_values at the leaves and, at internal
        nodes, v = beta * log sum over children of exp((edge + v) / beta).
        A node whose children are all -inf gets -inf."""
        v = np.zeros(self.n_nodes)
        v[self.leaf_node] = leaf_values
        with np.errstate(divide="ignore", under="ignore"):
            for lo, hi, owners, starts, run in self._levels:
                q = v[lo:hi] if edge is None else edge[lo:hi] + v[lo:hi]
                q = q / beta
                peak = np.maximum.reduceat(q, starts)
                peak[peak == -np.inf] = 0.0
                total = _segment_sum(np.exp(q - peak[run]), starts)
                v[owners] = beta * (peak + np.log(total))
        return v

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
        0 at the root."""
        parent = child if parent is None else parent
        out = np.zeros(self.n_nodes)
        with np.errstate(invalid="ignore"):
            out[1:] = child[1:] - parent[self.parent[1:]]
        out[np.isnan(out)] = -np.inf
        return out

    def run_cumsum(self, values: np.ndarray) -> np.ndarray:
        """Running sums of `values` within each sibling run, in token order;
        each run is summed left to right, as np.cumsum does."""
        out = values.copy()
        for nodes in self._by_rank:
            out[nodes] += out[nodes - 1]
        return out
