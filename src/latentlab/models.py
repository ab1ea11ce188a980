"""Softmax sequence models over enumerable (rationale, response) spaces.

A model assigns P(z, y | x) = exp(f_theta(x, z, y) - A(x, theta)) where the
logit f is linear in a feature map and A is the exact log partition
function.  Because spaces are enumerable, partition functions, conditional
token tables, KL divergences, and exact samples are all available in closed
form; everything is computed in log space.
"""

from __future__ import annotations

import io
import json
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, FeatureMapMismatchError, OutOfSpaceError, RecordFormatError
# `bench/spans.py` counts `logsumexp` calls at this import site too
from .logspace import logsumexp, logsumexp_rows, masked_row_sums  # noqa: F401
from .tasks import GenerativeTask

BOS = -1  # left-padding marker inside n-gram windows, never a real token


class FeatureMap:
    """Linear featurization of (prompt, latent, response) triples.

    Subclasses fix `dim` and provide logits and adjoint products, per
    prompt and for all prompts at once.  `weights` arguments are arbitrary
    signed vectors over the joint space, so the same adjoint serves
    expectations and gradients.
    """

    task: GenerativeTask
    dim: int
    supports_closed_form = False

    def logits(self, x_idx: int, theta: np.ndarray) -> np.ndarray:
        """f_theta(x, z, y) for all joint outcomes, in (z, y) index order."""
        raise NotImplementedError

    def adjoint(self, x_idx: int, weights: np.ndarray) -> np.ndarray:
        """Phi_x^T w: feature-space image of a joint-space vector."""
        raise NotImplementedError

    def logits_all(self, theta: np.ndarray) -> np.ndarray:
        """[prompts, joint] logits; row x equals `logits(x, theta)` bit for bit."""
        raise NotImplementedError

    def adjoint_all(self, weights: np.ndarray) -> np.ndarray:
        """sum_x Phi_x^T W[x] for a [prompts, joint] weight matrix W."""
        raise NotImplementedError

    def project(self, x_idx: int, weights: np.ndarray) -> np.ndarray:
        """Phi_x Phi_x^T w: the logit change of the parameter step Phi_x^T w."""
        return self.logits(x_idx, self.adjoint(x_idx, weights))

    def own_block(self, x_idx: int) -> np.ndarray:
        """Dense [joint, k] rows of Phi_x over the k features that prompt x's
        outcomes touch, in feature order; the other columns are zero."""
        raise NotImplementedError

    def descriptor(self) -> dict:
        raise NotImplementedError

    def check_theta(self, theta: np.ndarray) -> None:
        if theta.shape != (self.dim,):
            raise FeatureMapMismatchError(
                f"theta has shape {theta.shape}, feature map needs ({self.dim},)"
            )
        if not np.all(np.isfinite(theta)):
            raise FeatureMapMismatchError("theta contains NaN or Inf entries")


class TabularFeatures(FeatureMap):
    """One indicator feature per (prompt, latent, response) triple.

    Fully expressive: any joint distribution is realizable, and the
    maximum-likelihood update has the closed form theta = log q.
    """

    supports_closed_form = True

    def __init__(self, task: GenerativeTask):
        self.task = task
        self.dim = task.n_prompts * task.n_joint

    def offset(self, x_idx: int) -> int:
        return x_idx * self.task.n_joint

    def logits(self, x_idx: int, theta: np.ndarray) -> np.ndarray:
        o = self.offset(x_idx)
        return theta[o : o + self.task.n_joint].copy()

    def adjoint(self, x_idx: int, weights: np.ndarray) -> np.ndarray:
        out = np.zeros(self.dim)
        o = self.offset(x_idx)
        out[o : o + self.task.n_joint] = weights
        return out

    def logits_all(self, theta: np.ndarray) -> np.ndarray:
        return theta.reshape(self.task.n_prompts, self.task.n_joint)

    def adjoint_all(self, weights: np.ndarray) -> np.ndarray:
        return np.ravel(weights)

    def project(self, x_idx: int, weights: np.ndarray) -> np.ndarray:
        """A copy of w: Phi_x Phi_x^T is the identity on prompt x's block."""
        return np.array(weights, dtype=np.float64)

    def descriptor(self) -> dict:
        return {"kind": "tabular"}


def _merged_entries(rows: np.ndarray, cols: np.ndarray) -> tuple[np.ndarray, ...]:
    """(row, col, count) of a sparse count matrix given one (row, col) pair
    per occurrence: sorted by row, then column, each repeated pair merged
    into one entry that counts its occurrences."""
    width = int(cols.max()) + 1
    keys, counts = np.unique(rows * width + cols, return_counts=True)
    return keys // width, keys % width, counts.astype(np.float64)


class NgramFeatures(FeatureMap):
    """Token-window count features over the joint trajectory.

    Each feature counts one (prompt, position, window) pattern, where the
    window is the last `n` tokens ending at that position (BOS-padded).
    With `positional=False` the position collapses; with
    `per_prompt=False` all prompts share features.  Feature ids follow the
    first appearance of each pattern, prompt by prompt, trajectory by
    trajectory.  The class is deliberately restricted: joint distributions
    whose coordinates interact beyond the window width are not realizable,
    so likelihood ascent has a nontrivial fixed point.

    One prompt's block is stored once, as index arrays (row, col, count)
    sorted by row, then column, over `width` window ids; prompt x reads it
    at column offset x * width when features are per prompt, 0 when they
    are shared.  The [prompts * joint] stack holds the same entries,
    prompt-major.  `np.bincount` adds each output entry's products in
    input order, starting from zero.  Row-sorted entries reach every
    column in row order too, so logits and adjoints alike sum as a
    row-ordered running sum would, bit for bit.
    """

    def __init__(
        self,
        task: GenerativeTask,
        n: int = 2,
        *,
        positional: bool = True,
        per_prompt: bool = True,
    ):
        if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 1:
            raise ConfigError(f"window width n must be an integer >= 1, got {n!r}")
        self.task = task
        self.n = int(n)
        self.positional = positional
        self.per_prompt = per_prompt

        windows: dict[tuple, int] = {}
        rows: list[int] = []
        cols: list[int] = []
        for k, seq in enumerate(task.joint_sequences):
            padded = (BOS,) * (self.n - 1) + seq
            for j in range(len(seq)):
                rows.append(k)
                key = (j if positional else -1, padded[j : j + self.n])
                cols.append(windows.setdefault(key, len(windows)))
        self._rows, self._cols, self._counts = _merged_entries(np.array(rows), np.array(cols))
        self.width = len(windows)
        self.dim = self.width * (task.n_prompts if per_prompt else 1)
        # column offset from one prompt's block to the next
        self._shift = self.width if per_prompt else 0
        prompts = np.arange(task.n_prompts)[:, None]
        self._stack = (
            (prompts * task.n_joint + self._rows).ravel(),
            (prompts * self._shift + self._cols).ravel(),
            np.tile(self._counts, task.n_prompts),
        )
        self._own: np.ndarray | None = None

    def logits(self, x_idx: int, theta: np.ndarray) -> np.ndarray:
        theta_x = theta[x_idx * self._shift : x_idx * self._shift + self.width]
        return np.bincount(self._rows, self._counts * theta_x[self._cols], self.task.n_joint)

    def adjoint(self, x_idx: int, weights: np.ndarray) -> np.ndarray:
        cols = self._cols + x_idx * self._shift
        return np.bincount(cols, self._counts * weights[self._rows], self.dim)

    def logits_all(self, theta: np.ndarray) -> np.ndarray:
        rows, cols, counts = self._stack
        shape = (self.task.n_prompts, self.task.n_joint)
        return np.bincount(rows, counts * theta[cols], shape[0] * shape[1]).reshape(shape)

    def adjoint_all(self, weights: np.ndarray) -> np.ndarray:
        rows, cols, counts = self._stack
        return np.bincount(cols, counts * np.ravel(weights)[rows], self.dim)

    def own_block(self, x_idx: int) -> np.ndarray:
        """The one read-only [joint, width] block, the same array for every
        prompt (each window id is one of a prompt's own columns); built on
        first use, as at large joint spaces it is big."""
        if self._own is None:
            block = np.zeros((self.task.n_joint, self.width))
            block[self._rows, self._cols] = self._counts
            block.flags.writeable = False
            self._own = block
        return self._own

    def descriptor(self) -> dict:
        return {
            "kind": "ngram",
            "n": self.n,
            "positional": self.positional,
            "per_prompt": self.per_prompt,
        }


def feature_map_from_descriptor(task: GenerativeTask, desc: dict) -> FeatureMap:
    kind = desc.get("kind")
    if kind == "tabular":
        return TabularFeatures(task)
    if kind == "ngram":
        return NgramFeatures(
            task,
            int(desc["n"]),
            positional=bool(desc["positional"]),
            per_prompt=bool(desc["per_prompt"]),
        )
    raise RecordFormatError(f"unknown feature map descriptor {desc!r}")


class AutoregressiveView:
    """Exact token-by-token conditionals of a joint model at one prompt.

    Per-node arrays over the task's trie: `mass` is the log probability of
    each prefix, `logp` the conditional log probability of the edge into
    each node (child mass minus parent mass, -inf below a zero-mass
    prefix), and `cum` (a list) the running sum of conditionals along each
    sibling run.  Chaining conditionals along a trajectory rebuilds its
    joint log probability; sampling walks the trie by inverse CDF with one
    `rng.random()` per node, so a fixed generator state fixes the draw.
    """

    def __init__(self, task: GenerativeTask, joint_log_probs: np.ndarray):
        self.task = task
        self.trie = task.trie
        self.mass = self.trie.upward(joint_log_probs)
        self.logp = self.trie.child_minus_parent(self.mass)
        with np.errstate(under="ignore"):
            self.cum = self.trie.run_cumsum(np.exp(self.logp)).tolist()

    def prefixes(self) -> list[tuple[int, ...]]:
        """Every internal node's prefix, in node order."""
        return [self.trie.prefixes[n] for n in self.trie.internal]

    def sample(self, rng: np.random.Generator) -> tuple[int, int]:
        """One exact (z_idx, y_idx) draw via inverse CDF at every node; a
        draw at or above a run's last running sum (a rounding artefact)
        takes the last child with positive mass."""
        lo, hi, seq = self.trie.walk
        node = 0
        while lo[node] < hi[node]:
            child = bisect_right(self.cum, rng.random(), lo[node], hi[node])
            if child == hi[node]:
                live = np.flatnonzero(self.logp[lo[node]:hi[node]] > -np.inf)
                child = lo[node] + int(live[-1])
            node = child
        return self.task.zy_unindex(seq[node])

    def draws(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Joint indices of `n` successive `sample` draws, leaving `rng` where
        they would.  When every leaf has the same depth D, the draws take
        their n * D uniforms in one block and walk the trie together, one
        level at a time, with the same comparisons as `bisect_right`."""
        trie = self.trie
        if trie.leaf_depth is None:
            return np.fromiter(
                (self.task.zy_index(*self.sample(rng)) for _ in range(n)), np.int64, n
            )
        u = rng.random((n, trie.leaf_depth))
        cum = np.array(self.cum + [np.inf])  # child slot -1 reads +inf
        node = np.zeros(n, dtype=np.int64)
        for d in range(trie.leaf_depth):
            lo = trie.child_lo[node]
            child = lo + (cum[trie.child_slots[node]] <= u[:, d, None]).sum(axis=1)
            for i in np.flatnonzero(child == trie.child_hi[node]):
                live = np.flatnonzero(self.logp[lo[i]:child[i]] > -np.inf)
                child[i] = lo[i] + live[-1]
            node = child
        return trie.node_seq[node]

    def greedy(self) -> tuple[int, int]:
        """Token-by-token argmax decode; ties break to the lowest token id."""
        lo, hi, seq = self.trie.walk
        node = 0
        while lo[node] < hi[node]:
            node = lo[node] + int(np.argmax(self.logp[lo[node]:hi[node]]))
        return self.task.zy_unindex(seq[node])


def _normalized_rows(logits: np.ndarray) -> np.ndarray:
    """Each row of a [prompts, joint] logit matrix minus its log partition."""
    return logits - logsumexp_rows(logits)[:, None]


@dataclass
class LogitModel:
    """Linear-softmax joint model P(z, y | x) = exp(f - A).

    `theta` is copied on construction and read-only; updates produce new
    models via `with_theta`.  Because a model cannot change, its
    [prompts, joint] log-probability matrix is computed once, and every
    per-prompt read is a row of it.
    """

    features: FeatureMap
    theta: np.ndarray

    def __post_init__(self):
        self.theta = np.array(self.theta, dtype=np.float64)
        self.features.check_theta(self.theta)
        self.theta.flags.writeable = False
        self._log_probs: np.ndarray | None = None

    @property
    def task(self) -> GenerativeTask:
        return self.features.task

    def with_theta(self, theta: np.ndarray) -> "LogitModel":
        return LogitModel(self.features, theta)

    def log_probs_all(self) -> np.ndarray:
        """Read-only [prompts, joint] matrix of log P(z, y | x), computed on
        first use."""
        if self._log_probs is None:
            lp = _normalized_rows(self.features.logits_all(self.theta))
            lp.flags.writeable = False
            self._log_probs = lp
        return self._log_probs

    def joint_log_probs(self, x_idx: int) -> np.ndarray:
        """log P(z, y | x) at one prompt: row x of `log_probs_all()`, a
        read-only view."""
        if not 0 <= x_idx < self.task.n_prompts:
            raise OutOfSpaceError(f"prompt index {x_idx} out of range")
        return self.log_probs_all()[x_idx]

    def joint_probs(self, x_idx: int) -> np.ndarray:
        with np.errstate(under="ignore"):
            return np.exp(self.joint_log_probs(x_idx))

    def conditional_tables(self, x_idx: int) -> AutoregressiveView:
        return AutoregressiveView(self.task, self.joint_log_probs(x_idx))


def uniform_model(task: GenerativeTask, features: FeatureMap | None = None) -> LogitModel:
    features = features if features is not None else TabularFeatures(task)
    return LogitModel(features, np.zeros(features.dim))


def random_model(
    task: GenerativeTask,
    rng: np.random.Generator,
    scale: float = 0.5,
    features: FeatureMap | None = None,
) -> LogitModel:
    features = features if features is not None else TabularFeatures(task)
    return LogitModel(features, rng.normal(0.0, scale, features.dim))


def _require_same_task(a: LogitModel, b: LogitModel) -> None:
    if a.task is not b.task and (
        a.task.name != b.task.name
        or a.task.n_joint != b.task.n_joint
        or a.task.n_prompts != b.task.n_prompts
    ):
        raise FeatureMapMismatchError("models are defined over different tasks")


def kl_rows(a: LogitModel, b: LogitModel) -> np.ndarray:
    """KL(P_a(.,.|x) || P_b(.,.|x)) summed over the joint space, at every
    prompt x."""
    _require_same_task(a, b)
    lp_a = a.log_probs_all()
    with np.errstate(under="ignore"):
        p = np.exp(lp_a)
    return masked_row_sums(p * (lp_a - b.log_probs_all()), p > 0.0)


# -- checkpoints ---------------------------------------------------------------

_CHECKPOINT_MAGIC = "latentlab-checkpoint v1"


def write_checkpoint(model: LogitModel, fh: io.TextIOBase) -> None:
    """Plain-text weights: 17 significant digits round-trip float64 exactly."""
    fh.write(f"{_CHECKPOINT_MAGIC}\n")
    fh.write(f"task {model.task.name}\n")
    fh.write(f"features {json.dumps(model.features.descriptor(), sort_keys=True)}\n")
    fh.write(f"dim {model.features.dim}\n")
    for w in model.theta:
        fh.write(f"{w:.17g}\n")


def read_checkpoint(task: GenerativeTask, fh: io.TextIOBase) -> LogitModel:
    lines = [ln.rstrip("\n") for ln in fh]
    if not lines or lines[0] != _CHECKPOINT_MAGIC:
        raise RecordFormatError("not a model checkpoint (bad magic line)")
    try:
        _, task_name = lines[1].split(" ", 1)
        _, desc_json = lines[2].split(" ", 1)
        _, dim_str = lines[3].split(" ", 1)
        dim = int(dim_str)
        weights = [float(v) for v in lines[4 : 4 + dim]]
    except (IndexError, ValueError) as exc:
        raise RecordFormatError(f"malformed checkpoint: {exc}") from exc
    if task_name != task.name:
        raise RecordFormatError(
            f"checkpoint belongs to task {task_name!r}, not {task.name!r}"
        )
    if len(weights) != dim:
        raise RecordFormatError(f"expected {dim} weights, found {len(weights)}")
    features = feature_map_from_descriptor(task, json.loads(desc_json))
    if features.dim != dim:
        raise RecordFormatError(
            f"feature map dimension {features.dim} disagrees with checkpoint {dim}"
        )
    return LogitModel(features, np.array(weights))
