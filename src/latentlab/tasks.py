"""Finite generative tasks with enumerable rationale and response spaces.

A task bundles prompts, a latent (rationale) space, a response space, a
binary observation space, and an evaluator giving P(o | x, z, y).  Spaces
are small enough to enumerate exactly, which is what makes every
downstream quantity (partition functions, posteriors, KL divergences)
checkable against brute force.  The evaluator is compiled once per task
into the table `obs_probs`, and each event once per value into a
`CompiledEvent` over it; everything downstream reads those arrays.  A
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
    require_integer,
    require_positive,
    require_real,
)
from .rng import stream
from .trie import Trie

ENUMERATION_CAP = 10**6

Evaluator = Callable[[int, int, int, int], float]


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
            raise ValueError(f"eos id {self.eos} outside vocabulary of size {self.size}")


def _check_sequence(seq: TokenSequence, vocab: Vocabulary, horizon: int) -> None:
    ids = seq.ids
    if len(ids) == 0 or len(ids) > horizon:
        raise ValueError(f"sequence length {len(ids)} outside [1, {horizon}]")
    if ids[-1] != vocab.eos:
        raise ValueError(f"sequence {ids} does not end with eos")
    if vocab.eos in ids[:-1]:
        raise ValueError(f"sequence {ids} contains eos before its final position")
    if any(not 0 <= t < vocab.size for t in ids):
        raise ValueError(f"sequence {ids} contains out-of-vocabulary tokens")


@dataclass(eq=False)
class GenerativeTask:
    """Finite prompt/latent/response/observation spaces plus an evaluator.

    `evaluator(x_idx, z_idx, y_idx, o)` returns P(o | x, z, y) for each
    observation value o in `obs_values`; for every (x, z, y) these must sum
    to 1.  `horizon` bounds the length of the concatenated latent+response
    trajectory.  Instances are treated as immutable after construction.
    """

    name: str
    vocab: Vocabulary
    prompts: tuple[str, ...]
    rho: np.ndarray
    latents: tuple[TokenSequence, ...]
    responses: tuple[TokenSequence, ...]
    obs_values: tuple[int, ...]
    evaluator: Evaluator
    evaluator_kind: str
    horizon: int
    truth: dict[int, tuple[int, int]] | None = field(default=None, repr=False)
    compiled_events: dict = field(default_factory=dict, init=False, repr=False)
    spec_events: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        self.rho = np.asarray(self.rho, dtype=np.float64)
        if self.rho.shape != (len(self.prompts),):
            raise ValueError("rho must have one weight per prompt")
        if np.any(self.rho < 0) or abs(self.rho.sum() - 1.0) > 1e-12:
            raise ValueError("rho must be a probability distribution over prompts")
        if len(set(self.latents)) != len(self.latents):
            raise ValueError("duplicate latent sequences")
        if len(set(self.responses)) != len(self.responses):
            raise ValueError("duplicate response sequences")
        joint_horizon = max(
            (len(z) + len(y) for z in self.latents for y in self.responses),
            default=0,
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
    def obs_probs(self) -> np.ndarray:
        """Read-only [prompts, joint, obs] table of P(obs_values[o] | x, z, y),
        joint index `zy_index(z, y)`; one evaluator call per entry, made on
        first use."""
        table = np.array(
            [[self.evaluator(x, z, y, o) for z in range(self.n_latents)
              for y in range(self.n_responses) for o in self.obs_values]
             for x in range(self.n_prompts)],
            dtype=np.float64,
        ).reshape(self.n_prompts, self.n_joint, len(self.obs_values))
        table.flags.writeable = False
        return table


def _obs_table(task: GenerativeTask) -> np.ndarray:
    """`task.obs_probs`; every read of the table goes through here."""
    return task.obs_probs


def _prompt_obs(task: GenerativeTask, x_idx: int) -> np.ndarray:
    """[joint, obs] slice of the observation table at one prompt."""
    if not 0 <= x_idx < task.n_prompts:
        raise OutOfSpaceError(f"prompt index {x_idx} outside [0, {task.n_prompts})")
    return _obs_table(task)[x_idx]


# -- events ---------------------------------------------------------------

Subset = None | Collection[int] | Callable


@dataclass(frozen=True)
class EventSpec:
    """Restriction of the latent, response, and observation spaces.

    Each field is None (no restriction), a collection of indices into the
    corresponding space (observation values for `obs`), or a deterministic
    predicate over space elements (TokenSequence for latents/responses,
    int value for obs).
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


def _materialize_axis(subset: Subset, elements: Sequence, by_value: bool) -> tuple[int, ...]:
    n = len(elements)
    if subset is None:
        return tuple(range(n))
    if callable(subset):
        return tuple(i for i, el in enumerate(elements) if subset(el))
    picked = sorted(set(int(v) for v in subset))
    if by_value:
        value_to_idx = {v: i for i, v in enumerate(elements)}
        missing = [v for v in picked if v not in value_to_idx]
        if missing:
            raise OutOfSpaceError(f"observation values {missing} not in task")
        return tuple(sorted(value_to_idx[v] for v in picked))
    if picked and (picked[0] < 0 or picked[-1] >= n):
        raise OutOfSpaceError(f"event indices {picked} outside [0, {n})")
    return tuple(picked)


def materialize_event(
    task: GenerativeTask, event: EventSpec
) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """Index tuples (latent, response, obs) named by the event.

    Observation entries are indices into task.obs_values.  Raises
    EmptyEventError if any axis materializes empty.
    """
    z_idx = _materialize_axis(event.latents, task.latents, by_value=False)
    y_idx = _materialize_axis(event.responses, task.responses, by_value=False)
    o_idx = _materialize_axis(event.obs, task.obs_values, by_value=True)
    if not z_idx or not y_idx or not o_idx:
        raise EmptyEventError(f"event {event.describe()} is empty on task {task.name}")
    return z_idx, y_idx, o_idx


@dataclass(frozen=True, eq=False)
class CompiledEvent:
    """One event of one task as index arrays over the task's `obs_probs`.

    The event's (z, y, o) triples, in enumeration order, are the joint
    indices `triple_joint` and observation indices `triple_obs`;
    `pair_joint` lists its distinct (z, y) pairs as joint indices, in the
    same order.  `obs` holds the event's observation indices and `inside`
    marks the joint outcomes of its (z, y) rectangle.  The arrays are
    read-only.
    """

    task: GenerativeTask = field(repr=False)
    triple_joint: np.ndarray
    triple_obs: np.ndarray
    pair_joint: np.ndarray
    obs: tuple[int, ...]
    inside: np.ndarray

    def mass(self, x_idx: int) -> np.ndarray:
        """P(o in the event's observations | x, z, y) for every joint
        outcome; 0 outside the (z, y) rectangle."""
        row = _prompt_obs(self.task, x_idx)[:, self.obs].sum(axis=-1)
        return np.where(self.inside, row, 0.0)

    def mass_all(self) -> np.ndarray:
        """[prompts, joint]: `mass(x)` for every prompt x."""
        rows = _obs_table(self.task)[:, :, self.obs].sum(axis=-1)
        return np.where(self.inside, rows, 0.0)

    def triple_probs(self, x_idx: int) -> np.ndarray:
        """P(o | x, z, y) for every triple, in enumeration order."""
        return _prompt_obs(self.task, x_idx)[self.triple_joint, self.triple_obs]

    def triple_probs_all(self) -> np.ndarray:
        """[prompts, triples]: `triple_probs(x)` for every prompt x."""
        table = _obs_table(self.task)
        flat = self.triple_joint * table.shape[2] + self.triple_obs
        return table.reshape(len(table), -1).take(flat, axis=1)


# most entries a task keeps in each of `spec_events` and `compiled_events`,
# oldest dropped first
SPEC_EVENTS_SIZE = 64


def _remember(cache: dict, key, value) -> None:
    """`cache[key] = value`, first dropping the oldest entry of a full cache."""
    if len(cache) >= SPEC_EVENTS_SIZE:
        del cache[next(iter(cache))]
    cache[key] = value


def _spec_key(event: EventSpec) -> tuple | None:
    """The event's fields as a cache key; None if one is a predicate (hashed
    by identity, not value) or unhashable."""
    fields = (event.latents, event.responses, event.obs)
    if any(callable(f) for f in fields):
        return None
    try:
        hash(fields)
    except TypeError:
        return None
    return fields


def compile_event(task: GenerativeTask, event: EventSpec) -> CompiledEvent:
    """The task's compiled form of `event`, cached by its materialized value
    in the task's bounded `compiled_events`.

    An event whose fields are hashable collections is first looked up by
    their value in the task's bounded `spec_events`, which skips the
    materialization.  Order is lexicographic in (latent tokens, response
    tokens, o); factory tasks store their spaces token-sorted, so this
    coincides with index order.
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
        triple_joint = np.repeat(pair_joint, len(o_idx))
        triple_obs = np.tile(o_idx, len(pair_joint))
        for array in (triple_joint, triple_obs, pair_joint, inside):
            array.flags.writeable = False
        compiled = CompiledEvent(task, triple_joint, triple_obs, pair_joint, o_idx, inside)
        _remember(task.compiled_events, key, compiled)
    if spec is not None:
        _remember(task.spec_events, spec, compiled)
    return compiled


# -- evaluators, factory arguments and factory tasks ------------------------


def _binary_evaluator(verify: Callable[[int, int, int], bool]) -> Evaluator:
    def evaluator(x: int, z: int, y: int, o: int) -> float:
        ok = 1.0 if verify(x, z, y) else 0.0
        return ok if o == 1 else 1.0 - ok

    return evaluator


def _soft_evaluator(
    verify: Callable[[int, int, int], bool], beta: float, wrong_penalty: float
) -> Evaluator:
    def evaluator(x: int, z: int, y: int, o: int) -> float:
        reward = 0.0 if verify(x, z, y) else wrong_penalty
        p_one = float(np.exp(reward / beta))
        return p_one if o == 1 else 1.0 - p_one

    return evaluator


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
    verify: Callable[[int, int, int], bool],
    **spaces,
) -> GenerativeTask:
    """A factory's task over `spaces`: uniform rho over the prompts,
    observations (0, 1) and the evaluator that the factory's arguments
    `args` name for `verify`."""
    if args["evaluator"] == "soft":
        evaluator = _soft_evaluator(verify, args["soft_beta"], args["wrong_penalty"])
    else:
        evaluator = _binary_evaluator(verify)
    n = len(spaces["prompts"])
    return GenerativeTask(
        rho=np.full(n, 1.0 / n),
        obs_values=(0, 1),
        evaluator=evaluator,
        evaluator_kind=args["evaluator"],
        **spaces,
    )


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

    def verify(x: int, z: int, y: int) -> bool:
        return (z, y) == truth[x]

    return _factory_task(
        args, verify,
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

    def verify(x: int, z: int, y: int) -> bool:
        return (z, y) == truth[x]

    return _factory_task(
        args, verify,
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
    correct = {
        i: int(v)
        for i, v in enumerate(stream(seed, "tag-truth").integers(0, n_responses, n_prompts))
    }

    def verify(x: int, z: int, y: int) -> bool:
        return (z == 1) == (y == correct[x])

    return _factory_task(
        args, verify,
        name=f"reward-tag-p{n_prompts}-r{n_responses}",
        vocab=vocab,
        prompts=prompts,
        latents=latents,
        responses=responses,
        horizon=4,
        truth={i: (1, correct[i]) for i in range(n_prompts)},
    )


GOOD_TAG = 1
BAD_TAG = 0
