"""Verifier and draft model contracts plus deterministic synthetic implementations.

The engine only needs two model roles:

* a **verifier** that, given a decoding prefix, scores every token in the
  action vocabulary (the large model), and
* a **draft model** that cheaply proposes candidate next tokens (the small
  model).

Both synthetic implementations here are pure functions of ``(seed, inputs)``
so every experiment is reproducible without any trained weights: the
verifier draws its score vector from a counter-based RNG keyed by a hash of
the prefix, and the draft model tracks the verifier argmax with a
configurable agreement probability, displacing it by a discrete
Gaussian-shaped kernel otherwise.
"""

from __future__ import annotations

import hashlib
import struct
import time
from array import array
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Protocol, Sequence, runtime_checkable

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
    """Normalized scores over the action vocabulary plus their argmax.

    ``from_scores`` keeps the raw scores and normalizes them on the first
    read of ``scores``: the engine itself reads only ``argmax``.
    """

    __slots__ = ("argmax", "_raw", "_scores")

    def __init__(self, scores: np.ndarray, argmax: int):
        self.argmax = argmax
        self._raw: np.ndarray | None = None
        self._scores: np.ndarray | None = scores

    @classmethod
    def from_scores(cls, raw: np.ndarray) -> Distribution:
        total = raw.sum()
        if not total > 0.0:
            raise ValueError("scores must have positive mass")
        # The argmax of the normalized scores, not of ``raw``: two raw
        # maxima can round to one value when divided.  argmax returns the
        # first maximizer, so the lowest bin ID wins ties.
        dist = cls.__new__(cls)
        dist.argmax = int((raw / total).argmax())
        dist._raw, dist._scores = raw, None
        return dist

    @property
    def scores(self) -> np.ndarray:
        scores = self._scores
        if scores is None:
            scores = self._raw / self._raw.sum()
            # Memoized distributions are shared between callers.
            scores.flags.writeable = False
            self._scores = scores
        return scores


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


@runtime_checkable
class Verifier(Protocol):
    vocab_size: int

    def next(self, state: PrefixState) -> Distribution: ...

    def batch(self, state: PrefixState, tree: DraftTree) -> TreeDistributions: ...


@runtime_checkable
class DraftModel(Protocol):
    def propose_many(
        self, states: Sequence[PrefixState], k: int
    ) -> list[list[tuple[int, float]]]: ...


# Upper bound on the distributions ``HashVerifier`` keeps between batched
# rounds.  ``ar_decode`` calls ``next`` without ever calling ``batch``, so
# the memo would otherwise grow for a whole greedy decode; a default tree
# step stores about 80.  A miss only costs a redraw, never a different result.
MEMO_LIMIT = 256


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
        # Prefix digest -> distribution scored by ``next`` since the last
        # batched round, which the round reads instead of drawing again.
        self._memo: dict[int, Distribution] = {}

    def _draw(self, key: int) -> Distribution:
        rng = np.random.Generator(np.random.PCG64(key))
        return Distribution.from_scores(rng.random(self.vocab_size))

    def next(self, state: PrefixState) -> Distribution:
        key = _digest(state._hash_state(self._head))
        memo = self._memo
        dist = memo.get(key)
        if dist is None:
            if len(memo) >= MEMO_LIMIT:
                memo.clear()
            dist = memo[key] = self._draw(key)
        return dist

    def batch(self, state: PrefixState, tree: DraftTree) -> TreeDistributions:
        tree.validate()
        # The memo serves the overlap between one step's draft queries and
        # its batched round; dropping it here keeps stale prefixes from
        # piling up across steps.
        memo, self._memo = self._memo, {}
        root = state._hash_state(self._head)
        # Nodes are stored parents-first, so each node's hasher extends an earlier one.
        hashers: list[hashlib.blake2b] = []
        dists: list[Distribution] = []
        for node in tree.nodes:
            h = (root if node.parent < 0 else hashers[node.parent]).copy()
            h.update(_encode((node.token,)))
            hashers.append(h)
            key = _digest(h)
            dists.append(memo.get(key) or self._draw(key))
        key = _digest(root)
        return TreeDistributions(root=memo.get(key) or self._draw(key), nodes=dists)


def displacement_pmf(noise_sigma: float, vocab_size: int) -> tuple[np.ndarray, np.ndarray]:
    """Discrete Gaussian-shaped kernel over nonzero displacements.

    Returns ``(offsets, probs)`` with weights proportional to
    ``exp(-(d^2 - 1) / (2 sigma^2))`` for ``d in ±1..±(V-1)``.  The exponent
    shift keeps the ±1 weights finite as sigma approaches 0, so the kernel
    degenerates to a ±1 coin flip instead of underflowing.
    """
    if noise_sigma <= 0.0:
        raise ValueError("noise_sigma must be positive")
    mags = np.arange(1, vocab_size, dtype=np.float64)
    logw = -(mags**2 - 1.0) / (2.0 * noise_sigma**2)
    w = np.exp(logw)
    offsets = np.concatenate([-mags[::-1], mags]).astype(np.int64)
    probs = np.concatenate([w[::-1], w])
    return offsets, probs / probs.sum()


class NoisyDraft:
    """Synthetic draft model defined relative to a verifier.

    On each query the top-1 proposal equals the verifier argmax with
    probability ``agreement_p``; otherwise the argmax is displaced by a
    nonzero offset drawn from :func:`displacement_pmf` with scale
    ``noise_sigma`` and clamped into the vocabulary.  Remaining proposals
    follow a sharper Gaussian-shaped score kernel around the top-1 token
    (``proposal_sigma``), so cumulative path scores favor deep chains over
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
        proposal_sigma: float = 1.0,
    ):
        if not 0.0 <= agreement_p <= 1.0:
            raise ValueError("agreement_p must be in [0, 1]")
        if noise_sigma <= 0.0:
            raise ValueError("noise_sigma must be positive")
        if proposal_sigma <= 0.0:
            raise ValueError("proposal_sigma must be positive")
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
        # Proposal-score kernel magnitudes, shared across centers.
        mags = np.arange(self.vocab_size, dtype=np.float64)
        self._kernel = np.exp(-(mags**2) / (2.0 * proposal_sigma**2)) + 1e-12
        # The ranking depends only on (center, k): at most V entries per k.
        self._ranked_by_center: dict[tuple[int, int], list[tuple[int, float]]] = {}

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

    def _ranked(self, center: int, k: int) -> list[tuple[int, float]]:
        """Top-``k`` ``(bin, log-score)`` proposals around ``center``, best first."""
        ranked = self._ranked_by_center.get((center, k))
        if ranked is None:
            bins = np.arange(self.vocab_size)
            weights = self._kernel[np.abs(bins - center)]
            probs = weights / weights.sum()
            # Stable sort on descending probability: ties resolve to lower bin IDs.
            order = np.argsort(-probs, kind="stable")[:k]
            logp = np.log(probs[order])
            ranked = [(int(b), float(lp)) for b, lp in zip(order, logp)]
            self._ranked_by_center[(center, k)] = ranked
        return list(ranked)

    def propose_many(
        self, states: Sequence[PrefixState], k: int
    ) -> list[list[tuple[int, float]]]:
        if not 1 <= k <= self.vocab_size:
            raise ValueError(f"k must be in [1, {self.vocab_size}], got {k}")
        return [self._ranked(self._center(state), k) for state in states]


def make_noisy_draft(
    verifier: HashVerifier,
    agreement_p: float,
    noise_sigma: float,
    seed: int = 1,
) -> NoisyDraft:
    """Build the synthetic draft model used by the harness."""
    return NoisyDraft(verifier, agreement_p=agreement_p, noise_sigma=noise_sigma, seed=seed)


def simulate_latency(seconds: float) -> None:
    """Block for ``seconds`` with sub-millisecond accuracy.

    Plain ``time.sleep`` overshoots by up to a millisecond on coarse-timer
    kernels, which would swamp injected latencies of a few milliseconds.
    Sleep covers the bulk of the interval and a short spin finishes it.
    """
    if seconds <= 0.0:
        return
    deadline = time.perf_counter() + seconds
    slack = 0.002
    remaining = seconds - slack
    if remaining > 0.0:
        time.sleep(remaining)
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
    ) -> list[list[tuple[int, float]]]:
        simulate_latency(self.latency_s)
        return self.inner.propose_many(states, k)
