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
`run_cumsum`, take a [copies, nodes] array (one row per prompt, say) and
run over every row at once, along the node axis, with one copy's index
tables.
"""

from __future__ import annotations

from functools import cached_property
from itertools import chain
from typing import Sequence

import numpy as np

from .errors import TrajectorySetError


def _segment_sum(values: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Sum of every run values[..., starts[i]:starts[i + 1]] (the last to
    the end), along the node axis."""
    return np.add.reduceat(values, starts, axis=-1)


def _run_logsumexp(q: np.ndarray, starts: np.ndarray, run: np.ndarray) -> np.ndarray:
    """Log-sum-exp of every run of `q` along the node axis, shifted by the
    run's maximum (0 for a run that is -inf throughout); a function, so
    that its temporaries are freed before the next level's."""
    peak = np.maximum.reduceat(q, starts, axis=-1)
    peak[peak == -np.inf] = 0.0
    shifted = peak.take(run, axis=-1)
    np.subtract(q, shifted, out=shifted)
    total = _segment_sum(np.exp(shifted, out=shifted), starts)
    return peak + np.log(total)


def _leaf_rows(leaf_values: np.ndarray, leaves, n_nodes: int) -> np.ndarray:
    """A [copies, nodes] array of zeros with row c's leaf values written
    at `leaves` in row c."""
    v = np.zeros((len(leaf_values), n_nodes))
    v[:, leaves] = leaf_values
    return v


def _as_slice(index: np.ndarray):
    """`index` as a slice when it is one run of consecutive nodes, so that
    a row-wise write through it is a strided copy, else `index` itself."""
    if (np.diff(index) == 1).all():
        return slice(int(index[0]), int(index[-1]) + 1)
    return index


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
    index their [copies, n] form along the node axis.  Their index tables
    (`_leaves`, `_levels` and `_ranks`) are one copy's, built on first use
    and kept for the trie's life; a run of consecutive nodes among them is
    kept as a slice.
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

    @cached_property
    def _leaves(self):
        """Every leaf's node, in sequence order."""
        return _as_slice(self.leaf_node)

    @cached_property
    def _levels(self) -> list[tuple]:
        """Deepest level first: each level's node range, the parents at
        the starts of its sibling runs, and the run starts within the level
        with the run of each of its nodes (None where every run is one
        node)."""
        levels = []
        for d in range(len(self.level_start) - 2, 0, -1):
            lo, hi = int(self.level_start[d]), int(self.level_start[d + 1])
            par = self.parent[lo:hi]
            new_run = np.r_[True, par[1:] != par[:-1]]
            runs = None if new_run.all() else (np.flatnonzero(new_run), np.cumsum(new_run) - 1)
            levels.append((slice(lo, hi), _as_slice(par[new_run]), runs))
        return levels

    @cached_property
    def _ranks(self) -> list[np.ndarray]:
        """The nodes at each position k >= 1 of their sibling run."""
        rank = np.arange(1, self.n_nodes) - self.child_lo[self.parent[1:]]
        return [np.flatnonzero(rank == k) + 1 for k in range(1, int(rank.max()) + 1)]

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
        v = _leaf_rows(leaf_values.reshape(-1, leaf_values.shape[-1]), self._leaves,
                       self.n_nodes)
        edge = None if edge is None else np.reshape(edge, v.shape)
        with np.errstate(divide="ignore", under="ignore"):
            for children, owners, runs in self._levels:
                q = v[:, children]
                if edge is not None:
                    q = edge[:, children] + q
                # scaling by beta = 1 changes no bit, so it is skipped
                if beta != 1.0:
                    q = q / beta
                # the log-sum-exp of one child is the child, + 0.0 as the
                # reduction gives (-0.0 becomes 0.0)
                value = q + 0.0 if runs is None else _run_logsumexp(q, *runs)
                v[:, owners] = value if beta == 1.0 else beta * value
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
        parent = child if parent is None else np.asarray(parent)
        # the root's entry reads node -1 and is then overwritten
        with np.errstate(invalid="ignore"):
            out = child - parent.take(self.parent, axis=-1)
        out[np.isnan(out)] = -np.inf
        out[..., 0] = 0.0
        return out

    def run_cumsum(self, values: np.ndarray) -> np.ndarray:
        """Running sums of `values` within each sibling run, in token order;
        each run is summed left to right, as np.cumsum does.  `values` is
        [..., nodes], one copy per row."""
        out = np.array(values, dtype=np.float64)
        flat = out.reshape(-1)
        # each row's offset into the flat view
        rows = np.arange(0, flat.size, self.n_nodes)[:, None]
        for nodes in self._ranks:
            at = rows + nodes
            flat[at] += flat[at - 1]
        return out
