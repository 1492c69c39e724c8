"""Verifier and draft model contracts plus deterministic synthetic implementations.

The engine only needs two model roles:

* a **verifier** that, given a decoding prefix, picks the greedy next token
  of the action vocabulary (the large model), and
* a **draft model** that cheaply proposes candidate next tokens (the small
  model).

Both synthetic implementations here are pure functions of ``(seed, inputs)``
so every experiment is reproducible without any trained weights: the
verifier takes the argmax of a score vector drawn from a ``PCG64`` generator
seeded by a digest of the prefix, and the draft model tracks the verifier
argmax with a configurable agreement probability, displacing it by a
discrete Gaussian-shaped kernel otherwise.
"""

from __future__ import annotations

import hashlib
import struct
import time
from array import array
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cache, lru_cache, partial
from typing import TYPE_CHECKING, Iterable, Iterator, Protocol, Sequence

import numpy as np

if TYPE_CHECKING:
    from .draft_tree import DraftTree

# Tokens are hashed as uint16, which caps usable vocabularies.
MAX_VOCAB_SIZE = 65535


def _encode(tokens: Sequence[int]) -> bytes:
    return array("H", tokens).tobytes()


def _digest(h: hashlib.blake2b) -> int:
    return int.from_bytes(h.digest(), "little")


def _stream_head(tag: bytes, seed: int) -> bytes:
    """Key prefix of one digest stream: each model draws from its own streams."""
    if not -(2**63) <= seed < 2**63:
        raise ValueError(f"seed must fit a signed 64-bit integer, got {seed}")
    return tag + struct.pack("<q", seed)


class _Link:
    """One state's link in a digest chain.

    ``tokens`` are what the state added to its parent's prefix (a root holds
    its whole prefix); ``saved`` maps a stream head to the blake2b state
    that has absorbed the state's key, shared, so copied before any update.
    Links hold no ``PrefixState``, so a chain keeps alive each step's new
    tokens and hash states, not a prefix copy per step.
    """

    __slots__ = ("parent", "tokens", "saved")

    def __init__(self, parent: _Link | None, tokens: tuple[int, ...]):
        self.parent = parent
        self.tokens = tokens
        self.saved: dict[bytes, hashlib.blake2b] = {}


@dataclass(frozen=True)
class PrefixState:
    """Decoding context: which episode we are in and what was emitted so far.

    ``extend`` and ``extend_many`` link the new state to this one, so the
    synthetic models hash a state by extending its parent's digest with the
    new tokens only.  The link is not part of the value: equality, hashing,
    ``repr`` and ``dataclasses.replace`` ignore it, and a pickled or copied
    state starts a new chain.
    """

    prompt_id: str = "p0"
    observation_id: str = "o0"
    emitted: tuple[int, ...] = ()
    _link: _Link = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        # A state built directly roots a chain; ``_child`` relinks its own.
        object.__setattr__(self, "_link", _Link(None, self.emitted))

    def __reduce__(self):
        # blake2b states do not pickle, so a copy is rebuilt from the fields.
        return (PrefixState, (self.prompt_id, self.observation_id, self.emitted))

    @property
    def position(self) -> int:
        return len(self.emitted)

    def extend(self, token: int) -> PrefixState:
        return self._child((int(token),))

    def extend_many(self, tokens: Sequence[int]) -> PrefixState:
        return self._child(tuple(int(t) for t in tokens))

    def _child(self, tokens: tuple[int, ...]) -> PrefixState:
        child = PrefixState(self.prompt_id, self.observation_id, self.emitted + tokens)
        object.__setattr__(child, "_link", _Link(self._link, tokens))
        return child

    def _hash_state(self, head: bytes) -> hashlib.blake2b:
        """blake2b of ``head + prompt + 0x1f + observation + 0x1f + emitted`` (uint16).

        Only the tokens added since the nearest link that saved ``head`` are
        hashed; the walk back to it is a loop, so no chain is too deep.  The
        result is saved on this link and shared: copy it before updating it.
        """
        h = self._link.saved.get(head)
        if h is not None:
            return h
        link, tails = self._link, []
        while h is None:
            tails.append(link.tokens)
            link = link.parent
            if link is None:
                h = hashlib.blake2b(
                    head + self.prompt_id.encode() + b"\x1f" + self.observation_id.encode()
                    + b"\x1f",
                    digest_size=8,
                )
            elif (saved := link.saved.get(head)) is not None:
                h = saved.copy()
        for tokens in reversed(tails):
            h.update(_encode(tokens))
        self._link.saved[head] = h
        return h


class Distribution:
    """The verifier's argmax at one position: all that acceptance reads of its scores."""

    __slots__ = ("argmax",)

    def __init__(self, argmax: int):
        self.argmax = argmax

    @classmethod
    def from_scores(cls, raw: np.ndarray) -> Distribution:
        total = raw.sum()
        if not total > 0.0:
            raise ValueError("scores must have positive mass")
        # The argmax of the normalized scores, not of ``raw``: two raw
        # maxima can round to one value when divided.  argmax returns the
        # first maximizer, so the lowest bin ID wins ties.
        return cls(int((raw / total).argmax()))


@dataclass(frozen=True)
class TreeDistributions:
    """One verification round over a draft tree.

    ``root`` conditions on the committed prefix alone (it scores the first
    tree level), ``nodes[i]`` conditions on the prefix plus node *i*'s full
    root path.  Both come out of the same batched round, matching a single
    tree-attention forward pass.
    """

    root: Distribution
    nodes: list[Distribution]


class Verifier(Protocol):
    vocab_size: int

    def next(self, state: PrefixState) -> Distribution: ...

    def batch(self, state: PrefixState, tree: DraftTree) -> TreeDistributions: ...


class DraftModel(Protocol):
    """Proposes up to ``k`` ``(token, log_score)`` pairs per state, best first.

    ``propose_many`` returns one proposal list per state, in state order, as
    any iterable: the tree builder reads it in order and stops reading once
    the node budget cuts the remaining states, so a lazy draft never scores
    those.  A list is a valid return value.
    """

    def propose_many(
        self, states: Sequence[PrefixState], k: int
    ) -> Iterable[list[tuple[int, float]]]: ...


# Distributions a ``HashVerifier`` keeps, least recently used first out.  A
# default tree step reads about 100 and draws about 58, so it evicts none of
# its own; a wider step only redraws, since a draw is a pure function of
# its key.
MEMO_LIMIT = 256


def _draw(vocab_size: int, key: int) -> Distribution:
    """The verifier's distribution for one prefix digest: a pure function of both."""
    rng = np.random.Generator(np.random.PCG64(key))
    return Distribution.from_scores(rng.random(vocab_size))


class HashVerifier:
    """Deterministic tabular verifier: scores drawn from a hash of the prefix.

    Every distinct ``(seed, prompt, observation, emitted)`` tuple maps to an
    independent-looking score vector, so the model is prefix-sensitive and
    reproducible with no training.  The argmax of iid uniform scores is
    uniform over bins, which keeps downstream acceptance statistics easy to
    reason about.
    """

    def __init__(self, vocab_size: int = 256, seed: int = 0):
        if not 2 <= vocab_size <= MAX_VOCAB_SIZE:
            raise ValueError(f"vocab_size must be in [2, {MAX_VOCAB_SIZE}]")
        self.vocab_size = int(vocab_size)
        self.seed = int(seed)
        self._head = _stream_head(b"verifier", self.seed)
        self._draw = lru_cache(maxsize=MEMO_LIMIT)(partial(_draw, self.vocab_size))

    def next(self, state: PrefixState) -> Distribution:
        return self._draw(_digest(state._hash_state(self._head)))

    def batch(self, state: PrefixState, tree: DraftTree) -> TreeDistributions:
        tree.validate()
        root = state._hash_state(self._head)
        # Nodes are stored parents-first, so each node's hasher extends an earlier one.
        hashers: list[hashlib.blake2b] = []
        dists: list[Distribution] = []
        for node in tree.nodes:
            h = (root if node.parent < 0 else hashers[node.parent]).copy()
            h.update(_encode((node.token,)))
            hashers.append(h)
            dists.append(self._draw(_digest(h)))
        return TreeDistributions(root=self._draw(_digest(root)), nodes=dists)


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
    All draws are keyed by a hash of the prefix: the same ``(seed, state)``
    always yields the same proposals.
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
        self.seed = int(seed)
        offsets, probs = displacement_pmf(self.noise_sigma, self.vocab_size)
        # Plain lists: ``_center`` reads one entry per query, and numpy's
        # scalar dispatch would cost more than the lookup.
        self._offsets = offsets.tolist()
        self._cdf = np.cumsum(probs).tolist()
        self._agree = _stream_head(b"agree", self.seed)
        self._displace = _stream_head(b"displace", self.seed)
        # At most V rankings per k, so the cache needs no bound.
        self._ranked = cache(partial(_ranked, self.vocab_size))

    @staticmethod
    def _uniform(head: bytes, state: PrefixState) -> float:
        return _digest(state._hash_state(head)) / 2.0**64

    def _center(self, state: PrefixState) -> int:
        """Top-1 proposal for this prefix: verifier argmax, possibly displaced."""
        target = self.verifier.next(state).argmax
        if self._uniform(self._agree, state) < self.agreement_p:
            return target
        u = self._uniform(self._displace, state)
        idx = min(bisect_right(self._cdf, u), len(self._offsets) - 1)
        return min(max(target + self._offsets[idx], 0), self.vocab_size - 1)

    def propose_many(
        self, states: Sequence[PrefixState], k: int
    ) -> Iterator[list[tuple[int, float]]]:
        if not 1 <= k <= self.vocab_size:
            raise ValueError(f"k must be in [1, {self.vocab_size}], got {k}")
        # Lazy, so a state the tree builder never reads is never scored.
        return (list(self._ranked(self._center(state), k)) for state in states)


def make_noisy_draft(
    verifier: HashVerifier,
    agreement_p: float,
    noise_sigma: float,
    seed: int = 1,
) -> NoisyDraft:
    """Build the synthetic draft model used by the harness."""
    return NoisyDraft(verifier, agreement_p=agreement_p, noise_sigma=noise_sigma, seed=seed)


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
        self.latency_s = float(latency_s)

    def next(self, state: PrefixState) -> Distribution:
        simulate_latency(self.latency_s)
        return self.inner.next(state)

    def batch(self, state: PrefixState, tree: DraftTree) -> TreeDistributions:
        simulate_latency(self.latency_s)
        return self.inner.batch(state, tree)


class TimedDraft:
    """Wrap a draft model so every proposal round costs a fixed latency.

    ``propose_many`` covers one whole tree level in a single round, matching
    how a real draft head batches a level per forward pass.
    """

    def __init__(self, inner: DraftModel, latency_s: float):
        self.inner = inner
        self.latency_s = float(latency_s)

    def propose_many(
        self, states: Sequence[PrefixState], k: int
    ) -> Iterable[list[tuple[int, float]]]:
        simulate_latency(self.latency_s)
        return self.inner.propose_many(states, k)
