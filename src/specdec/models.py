"""Verifier and draft model contracts plus deterministic synthetic implementations.

The engine only needs two model roles:

* a **verifier** that, given a decoding prefix, picks the greedy next token
  of the action vocabulary (the large model), and
* a **draft model** that cheaply proposes candidate next tokens (the small
  model).

Both synthetic implementations here are pure functions of ``(seed, inputs)``
so every experiment is reproducible without any trained weights.  Each
``PrefixState`` carries one 64-bit key of its prompt, observation and
emitted tokens; a model mixes that key with a salt of its own stream and
seed.  The verifier answers with an ``int``: the argmax of a score vector
drawn from a ``PCG64`` generator seeded by that mix.  The draft model tracks
the verifier argmax with a configurable agreement probability, displacing it
by a discrete Gaussian-shaped kernel otherwise.
"""

from __future__ import annotations

import hashlib
import math
import operator
import time
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cache, lru_cache, partial
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Protocol, Sequence

import numpy as np

if TYPE_CHECKING:
    from .draft_tree import DraftTree

# The largest vocabulary the synthetic models accept.  Every verifier draw
# makes one score per bin, so the cap bounds what a draw costs.
MAX_VOCAB_SIZE = 65535

_MASK64 = (1 << 64) - 1

_token_of = operator.itemgetter(0)  # a ``DraftNode``'s token


def _mix(x: int) -> int:
    """One splitmix64 step on ``x``: a bijection of 64-bit integers that spreads every bit."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def _fold(key: int, tokens: Iterable[int]) -> int:
    """Absorb ``tokens`` into ``key``, one mix per token."""
    for token in tokens:
        key = _mix(key ^ token)
    return key


def _blake64(data: bytes) -> int:
    return int.from_bytes(hashlib.blake2b(data, digest_size=8).digest(), "little")


def _salt(tag: bytes, seed: int) -> int:
    """One model stream's salt: each model draws from its own streams."""
    if not -(2**63) <= seed < 2**63:
        raise ValueError(f"seed must fit a signed 64-bit integer, got {seed}")
    return _blake64(tag + seed.to_bytes(8, "little", signed=True))


@dataclass(frozen=True)
class PrefixState:
    """Decoding context: which episode we are in and what was emitted so far.

    ``key`` is the state's 64-bit key: the blake2b of ``prompt + 0x1f +
    observation``, then each emitted token folded in with :func:`_mix`.
    ``extend`` and ``extend_many`` fold only the new tokens into this
    state's key; a state built directly or by ``dataclasses.replace`` folds
    its whole ``emitted``.  The key is derived from the fields, so
    equality, hashing and ``repr`` ignore it, and copies keep it.  Tokens
    must be integers (``operator.index``); anything else is a ``TypeError``.
    ``emitted`` is stored as a tuple of ``int``, whatever sequence it came as.
    """

    prompt_id: str = "p0"
    observation_id: str = "o0"
    emitted: tuple[int, ...] = ()
    key: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "emitted", tuple(map(operator.index, self.emitted)))
        root = _blake64(self.prompt_id.encode() + b"\x1f" + self.observation_id.encode())
        object.__setattr__(self, "key", _fold(root, self.emitted))

    @property
    def position(self) -> int:
        return len(self.emitted)

    # Both build the child without ``__init__``, so the parent's fold is not redone.
    def extend(self, token: int) -> PrefixState:
        token = operator.index(token)
        child = object.__new__(PrefixState)
        child.__dict__.update(
            prompt_id=self.prompt_id,
            observation_id=self.observation_id,
            emitted=self.emitted + (token,),
            key=_mix(self.key ^ token),
        )
        return child

    def extend_many(self, tokens: Sequence[int]) -> PrefixState:
        tokens = tuple(map(operator.index, tokens))
        child = object.__new__(PrefixState)
        child.__dict__.update(
            prompt_id=self.prompt_id,
            observation_id=self.observation_id,
            emitted=self.emitted + tokens,
            key=_fold(self.key, tokens),
        )
        return child


class Distribution:
    """One argmax, as ``TreeDistributions.root`` and ``.nodes`` hand it to ``bench/spans.py``."""

    __slots__ = ("argmax",)

    def __init__(self, argmax: int):
        self.argmax = argmax


class _Lazy(Sequence):
    """``fn`` over ``items``: item ``i`` is ``fn(items[i])``, computed when it is read.

    ``len`` counts every item, but an item never read is never computed.  A
    slice returns a list.
    """

    __slots__ = ("_fn", "_items")

    def __init__(self, fn: Callable, items: list):
        self._fn, self._items = fn, items

    def __len__(self) -> int:
        return len(self._items)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return list(map(self._fn, self._items[index]))
        return self._fn(self._items[index])

    def __iter__(self) -> Iterator:
        return map(self._fn, self._items)


class TreeDistributions(_Lazy):
    """One verification round over a draft tree, as the ints ``verify_tree`` reads.

    Item 0 is the argmax after the committed prefix and item ``i + 1`` the
    argmax after node *i*'s root path, all from one batched round, matching
    a single tree-attention forward pass.  The round holds the committed
    prefix's key and each node's token.  When an item is first
    read, its prefix key is folded from its parent's, which is folded first
    if it was never read, and kept for the round; the item is drawn then.
    The engine and the tests read only those ints; ``root`` and ``nodes``
    wrap them in ``Distribution`` holders for ``bench/spans.py`` alone.
    """

    __slots__ = ()

    @property
    def root(self) -> Distribution:
        """Item 0's draw; exists only for ``bench/spans.py``, like ``nodes``."""
        return Distribution(self[0])

    @property
    def nodes(self) -> list[Distribution]:
        """Every node's draw, all drawn now; exists only for ``bench/spans.py``."""
        return list(map(Distribution, self[1:]))


class TreeStructureError(ValueError):
    """Raised for a malformed draft tree or draft proposal:

    * a tree over its node budget or max depth;
    * a node whose parent or depth is not an integer, whose parent dangles
      or comes after it, or whose depth is not its parent's plus one;
    * a node token that is not an integer >= 0, or lies outside the
      verifier's vocabulary;
    * a repeated sibling token;
    * a ``propose_many`` result, or one state's proposals, that is not
      iterable;
    * a proposal that is not an ``(int, log-score)`` pair with a real
      log-score, or whose log-score is not finite and at most the draft's
      ``max_log_score``;
    * a draft ``max_log_score`` that is not a real number in (-inf, 0];
    * a ``verified`` list whose length does not match its tree.
    """


class Verifier(Protocol):
    """The large model: its greedy next token after a prefix, alone or for a whole draft tree.

    ``next`` returns the argmax after one prefix.  ``batch`` scores the
    committed prefix and every node of ``tree`` in one round and returns
    the argmaxes root first, item ``i + 1`` after node *i*'s root path:
    the ``verified`` sequence the engine hands ``verify_tree``, which may
    compute an item only when it is read.  A node token outside the
    vocabulary raises ``TreeStructureError``.
    """

    vocab_size: int

    def next(self, state: PrefixState) -> int: ...

    def batch(self, state: PrefixState, tree: DraftTree) -> Sequence[int]: ...


class DraftModel(Protocol):
    """Proposes up to ``k`` ``(token, log_score)`` pairs per state, in any order.

    ``propose_many`` returns one proposal list per state, in state order, as
    any iterable: the tree builder reads it in order and stops reading once
    the node budget cuts the remaining states, so a lazy draft never scores
    those.  A list is a valid return value.  ``states`` may be a lazy
    sequence that builds each state when it is read.

    A draft may also declare ``max_log_score``, a float in (-inf, 0] that no
    proposal's log-score exceeds.  ``build_tree`` then stops reading a level
    as soon as no child of the next frontier node could enter the tree; a
    draft without it is read as if it declared 0.0, the bound every draft
    obeys.
    """

    def propose_many(
        self, states: Sequence[PrefixState], k: int
    ) -> Iterable[list[tuple[int, float]]]: ...


# Argmaxes a ``HashVerifier`` keeps, by prefix key, least recently used first
# out.  A default tree step looks up about 33 and draws about 25, so it evicts
# none of its own; a wider step only redraws, since a draw is a pure function
# of its key.
MEMO_LIMIT = 256


def _argmax(raw: np.ndarray) -> int:
    """The argmax of ``raw`` once normalized; ``ValueError`` unless it has positive mass."""
    total = raw.sum()
    if not total > 0.0:
        raise ValueError("scores must have positive mass")
    # The argmax of the normalized scores, not of ``raw``: two raw maxima can
    # round to one value when divided.  argmax returns the first maximizer,
    # so the lowest bin ID wins ties.
    return int((raw / total).argmax())


def _draw(vocab_size: int, salt: int, key: int) -> int:
    """The verifier's argmax after the prefix whose key is ``key``: a pure function of all three."""
    rng = np.random.Generator(np.random.PCG64(_mix(key ^ salt)))
    return _argmax(rng.random(vocab_size))


class HashVerifier:
    """Deterministic tabular verifier: scores drawn from a hash of the prefix.

    Every distinct ``(seed, prompt, observation, emitted)`` tuple maps to an
    independent-looking score vector, so the model is prefix-sensitive and
    reproducible with no training.  The argmax of iid uniform scores is
    uniform over bins, which keeps downstream acceptance statistics easy to
    reason about.  ``vocab_size`` and ``seed`` must be integers
    (``operator.index``); anything else is a ``TypeError``.
    """

    def __init__(self, vocab_size: int = 256, seed: int = 0):
        self.vocab_size = operator.index(vocab_size)
        self.seed = operator.index(seed)
        if not 2 <= self.vocab_size <= MAX_VOCAB_SIZE:
            raise ValueError(f"vocab_size must be in [2, {MAX_VOCAB_SIZE}]")
        salt = _salt(b"verifier", self.seed)
        self._memo = lru_cache(maxsize=MEMO_LIMIT)(partial(_draw, self.vocab_size, salt))

    def next(self, state: PrefixState) -> int:
        return self._memo(state.key)

    def batch(self, state: PrefixState, tree: DraftTree) -> TreeDistributions:
        """One round over ``tree``, as the ``Verifier`` protocol describes.

        Every node token is checked now, by one ``max`` over the tokens; a
        search that names the first node outside the vocabulary runs only
        when that check fails.  A node's key is folded from its parent's,
        and its item drawn, only when the item is read.
        """
        nodes = tree.nodes
        if max(map(_token_of, nodes), default=0) >= self.vocab_size:
            i = next(i for i, node in enumerate(nodes) if node.token >= self.vocab_size)
            raise TreeStructureError(
                f"node {i} token {nodes[i].token} is outside vocabulary [0, {self.vocab_size})"
            )
        keys = [state.key] + [None] * len(nodes)
        return TreeDistributions(partial(self._read, keys, nodes), range(len(keys)))

    def _read(self, keys: list, nodes: Sequence, i: int) -> int:
        # Node j's key is keys[j + 1], a ROOT (-1) parent's is keys[0], and
        # None marks one not folded yet: walk up to a folded key, then fold
        # each key on the way back down from its parent's.
        unfolded = []
        while keys[i] is None:
            unfolded.append(i)
            i = nodes[i - 1].parent + 1
        key = keys[i]
        for j in reversed(unfolded):
            key = keys[j] = _mix(key ^ nodes[j - 1].token)
        return self._memo(key)


def displacement_pmf(noise_sigma: float, vocab_size: int) -> tuple[np.ndarray, np.ndarray]:
    """Discrete Gaussian-shaped kernel over nonzero displacements.

    Returns ``(offsets, probs)`` with weights proportional to
    ``exp(-(d^2 - 1) / (2 sigma^2))`` for ``d in ±1..±(V-1)``.  The exponent
    shift keeps the ±1 weights finite as sigma approaches 0, so the kernel
    degenerates to a ±1 coin flip instead of underflowing.
    """
    if not noise_sigma > 0.0:
        raise ValueError("noise_sigma must be positive")
    mags = np.arange(1, vocab_size, dtype=np.float64)
    logw = -(mags**2 - 1.0) / (2.0 * noise_sigma**2)
    w = np.exp(logw)
    offsets = np.concatenate([-mags[::-1], mags]).astype(np.int64)
    probs = np.concatenate([w[::-1], w])
    return offsets, probs / probs.sum()


# Scale of the draft's proposal-score kernel around its top-1 token, in bins.
PROPOSAL_SIGMA = 1.0


def _ranked(vocab_size: int, center: int, k: int) -> tuple[tuple[int, float], ...]:
    """Top-``k`` ``(bin, log-score)`` proposals around ``center``, best first."""
    bins = np.arange(vocab_size)
    kernel = np.exp(-(bins.astype(np.float64) ** 2) / (2.0 * PROPOSAL_SIGMA**2)) + 1e-12
    weights = kernel[np.abs(bins - center)]
    probs = weights / weights.sum()
    # Stable sort on descending probability: ties resolve to lower bin IDs.
    order = np.argsort(-probs, kind="stable")[:k]
    logp = np.log(probs[order])
    return tuple((int(b), float(lp)) for b, lp in zip(order, logp))


class NoisyDraft:
    """Synthetic draft model defined relative to a verifier.

    On each query the top-1 proposal equals the verifier argmax with
    probability ``agreement_p``; otherwise the argmax is displaced by a
    nonzero offset drawn from :func:`displacement_pmf` with scale
    ``noise_sigma`` and clamped into the vocabulary.  Remaining proposals
    follow a sharper Gaussian-shaped score kernel around the top-1 token
    (``PROPOSAL_SIGMA``), so cumulative path scores favor deep chains over
    low-probability siblings and the dynamic tree actually uses its depth.
    All draws are keyed by the prefix's key: the same ``(seed, state)``
    always yields the same proposals.

    ``max_log_score`` is the best log-score any proposal can have.  The top
    proposal is always the center bin, and its share of the kernel is
    largest where the vocabulary edge cuts the kernel, so the bound is the
    top log-score at center 0 or V - 1, whatever ``k``.  ``seed`` must be
    an integer (``operator.index``); anything else is a ``TypeError``.

    ``propose_many`` checks ``k`` when it is called and returns one
    generator, which binds the verifier's ``next``, the ranking cache, both
    salts, the CDF and the offsets once.  It reads the states in order:
    for each, the verifier argmax, then the agreement draw, then the
    displacement draw only when the two disagree, and it hands out a fresh
    list of the cached ranking.
    """

    def __init__(
        self,
        verifier: HashVerifier,
        agreement_p: float = 1.0,
        noise_sigma: float = 1.0,
        seed: int = 1,
    ):
        if not 0.0 <= agreement_p <= 1.0:
            raise ValueError("agreement_p must be in [0, 1]")
        self.verifier = verifier
        self.vocab_size = verifier.vocab_size
        self.agreement_p = float(agreement_p)
        self.noise_sigma = float(noise_sigma)
        self.seed = operator.index(seed)
        offsets, probs = displacement_pmf(self.noise_sigma, self.vocab_size)
        # Plain lists: a read takes one entry of each per state, and numpy's
        # scalar dispatch would cost more than the lookup.
        self._offsets = offsets.tolist()
        self._cdf = np.cumsum(probs).tolist()
        self._agree = _salt(b"agree", self.seed)
        self._displace = _salt(b"displace", self.seed)
        # At most V rankings per k, so the cache needs no bound.
        self._ranked = cache(partial(_ranked, self.vocab_size))
        self.max_log_score = max(self._ranked(c, 1)[0][1] for c in (0, self.vocab_size - 1))

    def propose_many(
        self, states: Sequence[PrefixState], k: int
    ) -> Iterator[list[tuple[int, float]]]:
        if not 1 <= k <= self.vocab_size:
            raise ValueError(f"k must be in [1, {self.vocab_size}], got {k}")
        return self._proposals(states, k)

    def _proposals(
        self, states: Iterable[PrefixState], k: int
    ) -> Iterator[list[tuple[int, float]]]:
        # Lazy, so a state the tree builder never reads is never scored.  Each
        # uniform in [0, 1) is the prefix key mixed with its stream's salt.
        argmax, ranked, p = self.verifier.next, self._ranked, self.agreement_p
        agree, displace, cdf, offsets = self._agree, self._displace, self._cdf, self._offsets
        last, top = len(offsets) - 1, self.vocab_size - 1
        for state in states:
            center = argmax(state)
            if _mix(state.key ^ agree) / 2.0**64 >= p:
                u = _mix(state.key ^ displace) / 2.0**64
                center = min(max(center + offsets[min(bisect_right(cdf, u), last)], 0), top)
            # A fresh list each time: the ranking is cached, and callers may mutate theirs.
            yield list(ranked(center, k))


# ``NoisyDraft``'s older name, which only ``bench/run.py`` still calls.
make_noisy_draft = NoisyDraft


def _latency(seconds: float) -> float:
    """``seconds`` as a float, or ``ValueError`` unless it is finite and >= 0."""
    seconds = float(seconds)
    if not 0.0 <= seconds < math.inf:
        raise ValueError(f"latency must be finite and >= 0, got {seconds}")
    return seconds


def simulate_latency(seconds: float) -> None:
    """Block for ``seconds`` by spinning on ``perf_counter`` to the deadline.

    A thread parked on an OS timer can wake milliseconds late on a loaded
    host, which would swamp injected latencies of a few milliseconds, so
    the wait never gives up the CPU.
    """
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        pass


class TimedVerifier:
    """Wrap a verifier so every query round costs a fixed latency.

    ``next`` and ``batch`` each model one forward pass of the large model.
    """

    def __init__(self, inner: Verifier, latency_s: float):
        self.inner = inner
        self.vocab_size = inner.vocab_size
        self.latency_s = _latency(latency_s)

    def next(self, state: PrefixState) -> int:
        simulate_latency(self.latency_s)
        return self.inner.next(state)

    def batch(self, state: PrefixState, tree: DraftTree) -> Sequence[int]:
        simulate_latency(self.latency_s)
        return self.inner.batch(state, tree)


class TimedDraft:
    """Wrap a draft model so every proposal round costs a fixed latency.

    ``propose_many`` covers one whole tree level in a single round, matching
    how a real draft head batches a level per forward pass.  It declares
    the inner draft's ``max_log_score``, or 0.0 if that declares none.
    """

    def __init__(self, inner: DraftModel, latency_s: float):
        self.inner = inner
        self.latency_s = _latency(latency_s)
        self.max_log_score = getattr(inner, "max_log_score", 0.0)

    def propose_many(
        self, states: Sequence[PrefixState], k: int
    ) -> Iterable[list[tuple[int, float]]]:
        simulate_latency(self.latency_s)
        return self.inner.propose_many(states, k)
