"""Finite generative tasks with enumerable rationale and response spaces.

A task bundles prompts, a latent (rationale) space, a response space, the
observations (0, 1), and an evaluator giving s(x, z, y) = P(o = 1 | x, z, y).
Spaces are small enough to enumerate exactly, which is what makes every
downstream quantity (partition functions, posteriors, KL divergences)
checkable against brute force.  The evaluator is called once per task to
fill the [prompts, joint] table `success`, and each event is compiled once
per value into a `CompiledEvent` over it, whose mass row m_x(z, y) = P(o in
the event's observations | x, z, y) is the event's one form downstream.  A
task is serialized as the arguments of the factory that built it: the task
section of a run's `config.resolved`, which `harness.build_task` rebuilds.

Token conventions: every latent and response is a token sequence that ends
with the task's eos token and contains no earlier eos, so the concatenation
rationale + response is prefix-free and can be treated as a single
autoregressive trajectory.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Collection, Sequence

import numpy as np

from .errors import (
    CapExceededError,
    ConfigError,
    EmptyEventError,
    HorizonViolationError,
    OutOfSpaceError,
    TaskDefinitionError,
    require_integer,
    require_positive,
    require_real,
)
from .rng import stream
from .trie import Trie

ENUMERATION_CAP = 10**6

OBSERVATIONS = (0, 1)  # every task's observation values: failure, success


@dataclass(frozen=True, order=True)
class TokenSequence:
    """Immutable token id tuple ending with the task's eos token."""

    ids: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.ids)


@dataclass(frozen=True)
class Vocabulary:
    """Token id range [0, size) with a designated eos id."""

    size: int
    eos: int

    def __post_init__(self):
        if not 0 <= self.eos < self.size:
            raise TaskDefinitionError(
                f"eos id {self.eos} outside vocabulary of size {self.size}")


def _check_sequence(seq: TokenSequence, vocab: Vocabulary, horizon: int) -> None:
    ids = seq.ids
    if len(ids) == 0 or len(ids) > horizon:
        raise TaskDefinitionError(f"sequence length {len(ids)} outside [1, {horizon}]")
    if ids[-1] != vocab.eos:
        raise TaskDefinitionError(f"sequence {ids} does not end with eos")
    if vocab.eos in ids[:-1]:
        raise TaskDefinitionError(f"sequence {ids} contains eos before its final position")
    if any(not 0 <= t < vocab.size for t in ids):
        raise TaskDefinitionError(f"sequence {ids} contains out-of-vocabulary tokens")


@dataclass(eq=False)
class GenerativeTask:
    """Finite prompt/latent/response spaces plus an evaluator of success.

    `evaluator(x_idx, z_idx, y_idx)` returns s = P(o = 1 | x, z, y) over index
    arrays that broadcast to [prompts, latents, responses]; P(o = 0) = 1 - s.
    `horizon` bounds the length of the concatenated latent+response
    trajectory.  Instances are treated as immutable after construction.
    """

    name: str
    vocab: Vocabulary
    prompts: tuple[str, ...]
    rho: np.ndarray
    latents: tuple[TokenSequence, ...]
    responses: tuple[TokenSequence, ...]
    evaluator: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]
    evaluator_kind: str
    horizon: int
    truth: dict[int, tuple[int, int]] | None = field(default=None, repr=False)
    compiled_events: dict = field(default_factory=dict, init=False, repr=False)
    spec_events: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        self.rho = np.asarray(self.rho, dtype=np.float64)
        if self.rho.shape != (len(self.prompts),):
            raise TaskDefinitionError("rho must have one weight per prompt")
        # written so that a nan or infinite weight fails the test
        if not (np.all(self.rho >= 0) and abs(self.rho.sum() - 1.0) <= 1e-12):
            raise TaskDefinitionError("rho must be a probability distribution over prompts")
        if len(set(self.latents)) != len(self.latents):
            raise TaskDefinitionError("duplicate latent sequences")
        if len(set(self.responses)) != len(self.responses):
            raise TaskDefinitionError("duplicate response sequences")
        # the longest joint sequence pairs a longest latent with a longest response
        joint_horizon = (
            max(map(len, self.latents)) + max(map(len, self.responses))
            if self.latents and self.responses else 0
        )
        if joint_horizon > self.horizon:
            raise HorizonViolationError(
                f"joint sequences reach length {joint_horizon} > horizon {self.horizon}"
            )
        for seq in self.latents + self.responses:
            _check_sequence(seq, self.vocab, self.horizon)

    # -- index bookkeeping ------------------------------------------------

    @property
    def n_prompts(self) -> int:
        return len(self.prompts)

    @property
    def n_latents(self) -> int:
        return len(self.latents)

    @property
    def n_responses(self) -> int:
        return len(self.responses)

    @property
    def n_joint(self) -> int:
        return self.n_latents * self.n_responses

    def check_prompt(self, x_idx: int) -> None:
        """Raise `OutOfSpaceError` unless `x_idx` indexes a prompt."""
        if not 0 <= x_idx < self.n_prompts:
            raise OutOfSpaceError(f"prompt index {x_idx} outside [0, {self.n_prompts})")

    def zy_index(self, z_idx: int, y_idx: int) -> int:
        return z_idx * self.n_responses + y_idx

    def zy_unindex(self, k: int) -> tuple[int, int]:
        return divmod(k, self.n_responses)

    @cached_property
    def joint_sequences(self) -> tuple[tuple[int, ...], ...]:
        """All joint trajectories in (z_idx, y_idx) lexicographic order."""
        return tuple(
            z.ids + y.ids for z in self.latents for y in self.responses
        )

    @cached_property
    def trie(self) -> Trie:
        """Prefix tree of `joint_sequences`; leaf k is joint index k."""
        return Trie(self.joint_sequences)

    # -- evaluator --------------------------------------------------------

    @cached_property
    def success(self) -> np.ndarray:
        """Read-only [prompts, joint] table of s(x, z, y), joint index
        `zy_index(z, y)`: one call of the instance's `evaluator`, on first use."""
        shape = (self.n_prompts, self.n_latents, self.n_responses)
        values = self.evaluator(*np.ogrid[:shape[0], :shape[1], :shape[2]])
        try:
            table = np.array(np.broadcast_to(values, shape), dtype=np.float64)
        except ValueError:
            raise TaskDefinitionError(f"evaluator returned shape {np.shape(values)}, "
                                      f"which does not broadcast to {shape}") from None
        if not np.all(np.isfinite(table)):
            raise TaskDefinitionError("evaluator returned a non-finite success probability")
        if not np.all((table >= 0.0) & (table <= 1.0)):
            raise TaskDefinitionError("evaluator returned a success probability outside [0, 1]")
        table = table.reshape(self.n_prompts, self.n_joint)
        table.flags.writeable = False
        return table


def _success_table(task: GenerativeTask) -> np.ndarray:
    """`task.success`; every read of the table goes through here."""
    return task.success


# -- events ---------------------------------------------------------------

Subset = None | Collection[int] | Callable


@dataclass(frozen=True)
class EventSpec:
    """Restriction of the latent, response, and observation spaces.

    Each field is None (no restriction), a collection of integer indices
    into the corresponding space (for obs `OBSERVATIONS`, whose indices are
    its values), or a deterministic predicate over space elements
    (TokenSequence for latents/responses, int value for obs).
    """

    latents: Subset = None
    responses: Subset = None
    obs: Subset = None

    def describe(self) -> str:
        def one(s: Subset) -> str:
            if s is None:
                return "all"
            if callable(s):
                return "predicate"
            return f"set[{len(tuple(s))}]"

        return f"z={one(self.latents)} y={one(self.responses)} o={one(self.obs)}"


def full_event() -> EventSpec:
    return EventSpec()


def success_event() -> EventSpec:
    """No (z, y) restriction; observation pinned to o = 1."""
    return EventSpec(obs=(1,))


def _is_index(v) -> bool:
    """Whether `v` can index a space: an int or numpy integer, not a bool."""
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


def _materialize_axis(subset: Subset, elements: Sequence) -> tuple[int, ...]:
    n = len(elements)
    if subset is None:
        return tuple(range(n))
    if callable(subset):
        return tuple(i for i, el in enumerate(elements) if subset(el))
    wrong = [v for v in subset if not _is_index(v)]
    if wrong:
        raise OutOfSpaceError(f"event entries {wrong} are not integer indices")
    picked = sorted(set(int(v) for v in subset))
    if picked and (picked[0] < 0 or picked[-1] >= n):
        raise OutOfSpaceError(f"event indices {picked} outside [0, {n})")
    return tuple(picked)


def materialize_event(
    task: GenerativeTask, event: EventSpec
) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """Index tuples (latent, response, obs) named by the event.

    Observation entries are the values in `OBSERVATIONS`.  Raises
    EmptyEventError if any axis materializes empty.
    """
    z_idx = _materialize_axis(event.latents, task.latents)
    y_idx = _materialize_axis(event.responses, task.responses)
    o_idx = _materialize_axis(event.obs, OBSERVATIONS)
    if not z_idx or not y_idx or not o_idx:
        raise EmptyEventError(f"event {event.describe()} is empty on task {task.name}")
    return z_idx, y_idx, o_idx


@dataclass(frozen=True, eq=False)
class CompiledEvent:
    """One event of one task as index arrays over the task's `success`.

    `pair_joint` lists the event's (z, y) pairs as joint indices, in
    enumeration order, and `inside` marks them among all joint outcomes;
    `obs` holds the event's observation values.  Downstream the event is
    its mass row `mass(x)`, with the observation summed out.  The arrays
    are read-only.
    """

    task: GenerativeTask = field(repr=False)
    pair_joint: np.ndarray
    obs: tuple[int, ...]
    inside: np.ndarray

    def mass(self, x_idx: int) -> np.ndarray:
        """P(o in the event's observations | x, z, y) for every joint
        outcome; 0 outside the (z, y) rectangle.  Row x of `mass_all()`."""
        self.task.check_prompt(x_idx)
        return self.mass_all()[x_idx]

    def mass_all(self) -> np.ndarray:
        """Read-only [prompts, joint] mass table, `mass(x)` in row x."""
        return self._table

    @cached_property
    def _table(self) -> np.ndarray:
        """The mass table on first use: s, 1 - s or (1 - s) + s on `inside`
        as the event names o = 1, o = 0 or both, and 0 outside it."""
        s = _success_table(self.task)
        rows = s if self.obs == (1,) else 1.0 - s
        if self.obs == OBSERVATIONS:
            rows = rows + s
        table = np.where(self.inside, rows, 0.0)
        table.flags.writeable = False
        return table


# most entries a task keeps in each of `spec_events` and `compiled_events`,
# oldest dropped first
SPEC_EVENTS_SIZE = 64


def _remember(cache: dict, key, value, size: int = SPEC_EVENTS_SIZE) -> None:
    """`cache[key] = value`, first dropping the oldest entry of a cache that
    holds `size` entries."""
    if len(cache) >= size:
        del cache[next(iter(cache))]
    cache[key] = value


def _spec_key(event: EventSpec) -> tuple | None:
    """The event's fields as a cache key; None if one is a predicate (hashed
    by identity, not value), unhashable, or not all plain ints (True == 1)."""
    fields = (event.latents, event.responses, event.obs)
    if any(callable(f) for f in fields):
        return None
    try:
        hash(fields)
    except TypeError:
        return None
    if any(type(v) is not int for f in fields if f is not None for v in f):
        return None
    return fields


def compile_event(task: GenerativeTask, event: EventSpec) -> CompiledEvent:
    """The task's compiled form of `event`, cached by its materialized value
    in the task's bounded `compiled_events`.

    An event whose fields are hashable collections is first looked up by
    their value in the task's bounded `spec_events`, which skips the
    materialization.  Pairs are ordered lexicographically in (latent
    tokens, response tokens); factory tasks store their spaces
    token-sorted, so this coincides with index order.
    """
    spec = _spec_key(event)
    if spec is not None and spec in task.spec_events:
        return task.spec_events[spec]
    key = materialize_event(task, event)
    compiled = task.compiled_events.get(key)
    if compiled is None:
        z_idx, y_idx, o_idx = key
        z_sorted = sorted(z_idx, key=lambda i: task.latents[i].ids)
        y_sorted = sorted(y_idx, key=lambda i: task.responses[i].ids)
        pair_joint = task.zy_index(np.array(z_sorted)[:, None], np.array(y_sorted)).ravel()
        inside = np.zeros(task.n_joint, dtype=bool)
        inside[pair_joint] = True
        for array in (pair_joint, inside):
            array.flags.writeable = False
        compiled = CompiledEvent(task, pair_joint, o_idx, inside)
        _remember(task.compiled_events, key, compiled)
    if spec is not None:
        _remember(task.spec_events, spec, compiled)
    return compiled


# -- factory arguments and factory tasks -------------------------------------


# the least value of each size argument of a factory
_SIZE_MINIMUM = {
    "digits": 1,
    "base": 2,
    "num_states": 2,
    "input_len": 1,
    "n_prompts": 1,
    "n_responses": 2,
}


def check_task_args(args: dict) -> dict:
    """A factory's arguments with every size, seed and limit as an int and
    the soft rewards as floats; raise `ConfigError`, naming the field,
    unless each is valid.

    A soft evaluator needs exp(R / soft_beta) to be a probability for both
    rewards R in {0, wrong_penalty}: soft_beta positive and finite,
    wrong_penalty at most 0 (nan fails both).
    """
    out = dict(args)
    for name, least in _SIZE_MINIMUM.items():
        if name in args:
            out[name] = require_integer(name, args[name], least)
    out["seed"] = require_integer("seed", args["seed"], 0)
    if args["evaluator"] not in ("binary", "soft"):
        raise ConfigError(
            f"evaluator must be 'binary' or 'soft', got {args['evaluator']!r}"
        )
    out["soft_beta"] = require_real("soft_beta", args["soft_beta"])
    out["wrong_penalty"] = require_real("wrong_penalty", args["wrong_penalty"])
    if args["evaluator"] == "soft":
        if not out["wrong_penalty"] <= 0:
            raise ConfigError(
                "wrong_penalty must be <= 0 so exp(R/beta) stays <= 1, "
                f"got {out['wrong_penalty']!r}"
            )
        require_positive("soft_beta", out["soft_beta"])
    if args.get("prompt_limit") is not None:
        out["prompt_limit"] = require_integer("prompt_limit", args["prompt_limit"], 1)
    return out


def _factory_task(
    args: dict,
    verified: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray],
    **spaces,
) -> GenerativeTask:
    """A factory's task over `spaces`: uniform rho over the prompts and, as
    `args` name it, the binary evaluator `verified(x, z, y)` or the soft one
    exp(R / soft_beta), reward R = 0 (s = 1) if verified, else wrong_penalty."""
    evaluator = verified
    if args["evaluator"] == "soft":
        wrong = np.exp(args["wrong_penalty"] / args["soft_beta"])

        def evaluator(x, z, y):
            return np.where(verified(x, z, y), 1.0, wrong)
    n = len(spaces["prompts"])
    return GenerativeTask(
        rho=np.full(n, 1.0 / n),
        evaluator=evaluator,
        evaluator_kind=args["evaluator"],
        **spaces,
    )


def _truth_mask(truth: dict[int, tuple[int, int]]):
    """The mask (z, y) == truth[x] over broadcast index arrays."""
    z_true, y_true = np.array([truth[x] for x in range(len(truth))]).T
    return lambda x, z, y: (z == z_true[x]) & (y == y_true[x])


def _subsample_prompts(n: int, limit: int | None, seed: int) -> list[int]:
    if limit is None or limit >= n:
        return list(range(n))
    picked = stream(seed, "prompt-subset").choice(n, size=limit, replace=False)
    return sorted(int(i) for i in picked)


# -- carry addition ---------------------------------------------------------


def _digits_lsb(value: int, base: int, width: int) -> list[int]:
    out = []
    for _ in range(width):
        out.append(value % base)
        value //= base
    return out


def make_carry_addition_task(
    digits: int,
    base: int,
    *,
    seed: int = 0,
    evaluator: str = "binary",
    soft_beta: float = 1.0,
    wrong_penalty: float = -3.0,
    prompt_limit: int | None = None,
    cap: int = ENUMERATION_CAP,
) -> GenerativeTask:
    """Multi-digit addition with an explicit carry-chain rationale.

    Prompts are all pairs of `digits`-digit base-`base` numbers.  A latent
    spells out, least-significant position first, the digit result and the
    carry-out of every column; a response is a candidate sum written with
    digits+1 base-`base` digits, most significant first.  The verifier
    accepts exactly the latent that follows correct carry arithmetic for
    the prompt together with the response it implies.
    """
    args = dict(locals())
    check_task_args(args)
    n_latents = (2 * base) ** digits
    n_responses = base ** (digits + 1)
    if n_latents * n_responses > cap:
        raise CapExceededError(
            f"|Z|*|Y| = {n_latents * n_responses} exceeds cap {cap}"
        )

    eos = base
    vocab = Vocabulary(size=base + 1, eos=eos)

    n_numbers = base**digits
    pairs = [(a, b) for a in range(n_numbers) for b in range(n_numbers)]
    keep = _subsample_prompts(len(pairs), prompt_limit, seed)
    pairs = [pairs[i] for i in keep]

    def fmt(v: int) -> str:
        return "".join(str(d) for d in reversed(_digits_lsb(v, base, digits)))

    prompts = tuple(f"{fmt(a)}+{fmt(b)}" for a, b in pairs)

    latents = tuple(
        TokenSequence(ids + (eos,))
        for ids in sorted(
            tuple(t for pos in combo for t in pos)
            for combo in _product_positions(digits, base)
        )
    )
    responses = tuple(
        TokenSequence(tuple(reversed(_digits_lsb(v, base, digits + 1))) + (eos,))
        for v in range(n_responses)
    )
    # base-b strings sorted MSB-first == numeric order; keep explicit sort
    responses = tuple(sorted(responses, key=lambda s: s.ids))

    latent_index = {seq.ids: i for i, seq in enumerate(latents)}
    response_index = {seq.ids: i for i, seq in enumerate(responses)}

    def correct_chain(a: int, b: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
        da, db = _digits_lsb(a, base, digits), _digits_lsb(b, base, digits)
        z_ids: list[int] = []
        carry = 0
        for i in range(digits):
            t = da[i] + db[i] + carry
            z_ids.extend((t % base, t // base))
            carry = t // base
        y_ids = tuple(reversed(_digits_lsb(a + b, base, digits + 1)))
        return tuple(z_ids) + (eos,), y_ids + (eos,)

    truth: dict[int, tuple[int, int]] = {}
    for x_idx, (a, b) in enumerate(pairs):
        z_ids, y_ids = correct_chain(a, b)
        truth[x_idx] = (latent_index[z_ids], response_index[y_ids])

    return _factory_task(
        args, _truth_mask(truth),
        name=f"carry-addition-d{digits}-b{base}",
        vocab=vocab,
        prompts=prompts,
        latents=latents,
        responses=responses,
        horizon=(2 * digits + 1) + (digits + 2),
        truth=truth,
    )


def _product_positions(digits: int, base: int):
    """All per-position (sum_digit, carry) choices, one tuple per position."""
    position_choices = [(s, c) for s in range(base) for c in (0, 1)]
    combos: list[tuple[tuple[int, int], ...]] = [()]
    for _ in range(digits):
        combos = [prev + (choice,) for prev in combos for choice in position_choices]
    return combos


# -- automaton traces --------------------------------------------------------


def make_automaton_trace_task(
    num_states: int,
    input_len: int,
    *,
    seed: int = 0,
    evaluator: str = "binary",
    soft_beta: float = 1.0,
    wrong_penalty: float = -3.0,
    prompt_limit: int | None = None,
    cap: int = ENUMERATION_CAP,
) -> GenerativeTask:
    """State-trace explanation of a random DFA over binary inputs.

    Prompts are the 2**input_len binary input strings.  A latent claims the
    state visited after each input symbol (start state 0); the response is
    a single accept/reject token.  The verifier accepts exactly the true
    state trace paired with the label the DFA assigns.
    """
    args = dict(locals())
    check_task_args(args)
    n_latents = num_states**input_len
    if n_latents * 2 > cap:
        raise CapExceededError(f"|Z|*|Y| = {n_latents * 2} exceeds cap {cap}")

    accept_tok = num_states
    reject_tok = num_states + 1
    eos = num_states + 2
    vocab = Vocabulary(size=num_states + 3, eos=eos)

    rng = stream(seed, "automaton")
    delta = rng.integers(0, num_states, size=(num_states, 2))
    n_accepting = int(rng.integers(1, num_states))
    accepting = set(
        int(s) for s in rng.choice(num_states, size=n_accepting, replace=False)
    )

    all_prompts = [
        format(i, f"0{input_len}b") for i in range(2**input_len)
    ]
    keep = _subsample_prompts(len(all_prompts), prompt_limit, seed)
    prompts = tuple(all_prompts[i] for i in keep)

    traces: list[tuple[int, ...]] = [()]
    for _ in range(input_len):
        traces = [t + (s,) for t in traces for s in range(num_states)]
    latents = tuple(TokenSequence(t + (eos,)) for t in sorted(traces))
    responses = (
        TokenSequence((accept_tok, eos)),
        TokenSequence((reject_tok, eos)),
    )

    latent_index = {seq.ids: i for i, seq in enumerate(latents)}

    truth: dict[int, tuple[int, int]] = {}
    for x_idx, bits in enumerate(prompts):
        state = 0
        trace: list[int] = []
        for ch in bits:
            state = int(delta[state][int(ch)])
            trace.append(state)
        y_idx = 0 if state in accepting else 1
        truth[x_idx] = (latent_index[tuple(trace) + (eos,)], y_idx)

    return _factory_task(
        args, _truth_mask(truth),
        name=f"automaton-trace-s{num_states}-l{input_len}",
        vocab=vocab,
        prompts=prompts,
        latents=latents,
        responses=responses,
        horizon=(input_len + 1) + 2,
        truth=truth,
    )


# -- reward-tagged generation -------------------------------------------------


def make_reward_tag_task(
    n_prompts: int,
    n_responses: int,
    *,
    seed: int = 0,
    evaluator: str = "binary",
    soft_beta: float = 1.0,
    wrong_penalty: float = -3.0,
    cap: int = ENUMERATION_CAP,
) -> GenerativeTask:
    """Single-token responses with a two-valued reward tag as the latent.

    Each prompt has one seeded correct response.  The latent space is the
    tag alphabet {bad, good}; the verifier accepts (tag=good, correct y)
    and (tag=bad, incorrect y), so a tag is the reward annotation of the
    response it precedes.
    """
    args = dict(locals())
    check_task_args(args)
    if 2 * n_responses > cap:
        raise CapExceededError(f"|Z|*|Y| = {2 * n_responses} exceeds cap {cap}")

    bad_tok, good_tok = 0, 1
    resp_base = 2
    eos = resp_base + n_responses
    vocab = Vocabulary(size=n_responses + 3, eos=eos)

    latents = (TokenSequence((bad_tok, eos)), TokenSequence((good_tok, eos)))
    responses = tuple(TokenSequence((resp_base + j, eos)) for j in range(n_responses))
    prompts = tuple(f"p{i}" for i in range(n_prompts))
    correct = stream(seed, "tag-truth").integers(0, n_responses, n_prompts)

    return _factory_task(
        args, lambda x, z, y: (z == GOOD_TAG) == (y == correct[x]),
        name=f"reward-tag-p{n_prompts}-r{n_responses}",
        vocab=vocab,
        prompts=prompts,
        latents=latents,
        responses=responses,
        horizon=4,
        truth={i: (GOOD_TAG, int(correct[i])) for i in range(n_prompts)},
    )


GOOD_TAG = 1
BAD_TAG = 0
