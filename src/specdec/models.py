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
from dataclasses import dataclass
from typing import TYPE_CHECKING, Protocol, Sequence, runtime_checkable

import numpy as np

if TYPE_CHECKING:
    from .draft_tree import DraftTree

# Tokens are hashed as uint16, which caps usable vocabularies.
MAX_VOCAB_SIZE = 65535


@dataclass(frozen=True)
class PrefixState:
    """Decoding context: which episode we are in and what was emitted so far."""

    prompt_id: str = "p0"
    observation_id: str = "o0"
    emitted: tuple[int, ...] = ()

    @property
    def position(self) -> int:
        return len(self.emitted)

    def extend(self, token: int) -> PrefixState:
        return PrefixState(self.prompt_id, self.observation_id, self.emitted + (int(token),))

    def extend_many(self, tokens: Sequence[int]) -> PrefixState:
        return PrefixState(
            self.prompt_id, self.observation_id, self.emitted + tuple(int(t) for t in tokens)
        )


@dataclass(frozen=True)
class Distribution:
    """Normalized scores over the action vocabulary plus their argmax."""

    scores: np.ndarray
    argmax: int

    @classmethod
    def from_scores(cls, raw: np.ndarray) -> Distribution:
        total = float(raw.sum())
        if total <= 0.0:
            raise ValueError("scores must have positive mass")
        scores = raw / total
        # np.argmax returns the first maximizer: lowest bin ID wins ties.
        return cls(scores=scores, argmax=int(np.argmax(scores)))


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


def _prefix_digest(seed: int, tag: bytes, prompt_id: str, observation_id: str,
                   tokens: tuple[int, ...]) -> int:
    h = hashlib.blake2b(digest_size=8)
    h.update(tag)
    h.update(struct.pack("<q", seed))
    h.update(prompt_id.encode())
    h.update(b"\x1f")
    h.update(observation_id.encode())
    h.update(b"\x1f")
    h.update(array("H", tokens).tobytes())
    return int.from_bytes(h.digest(), "little")


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

    def _distribution(self, prompt_id: str, observation_id: str,
                      tokens: tuple[int, ...]) -> Distribution:
        key = _prefix_digest(self.seed, b"verifier", prompt_id, observation_id, tokens)
        rng = np.random.Generator(np.random.PCG64(key))
        return Distribution.from_scores(rng.random(self.vocab_size))

    def next(self, state: PrefixState) -> Distribution:
        return self._distribution(state.prompt_id, state.observation_id, state.emitted)

    def batch(self, state: PrefixState, tree: DraftTree) -> TreeDistributions:
        tree.validate()
        root = self.next(state)
        # Nodes are stored parents-first, so each path extends an earlier one.
        paths: list[tuple[int, ...]] = []
        dists: list[Distribution] = []
        for node in tree.nodes:
            base = state.emitted if node.parent < 0 else paths[node.parent]
            path = base + (node.token,)
            paths.append(path)
            dists.append(self._distribution(state.prompt_id, state.observation_id, path))
        return TreeDistributions(root=root, nodes=dists)


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
        self._offsets = offsets
        self._cdf = np.cumsum(probs)
        # Proposal-score kernel magnitudes, shared across centers.
        mags = np.arange(self.vocab_size, dtype=np.float64)
        self._kernel = np.exp(-(mags**2) / (2.0 * proposal_sigma**2)) + 1e-12
        # The ranking depends only on (center, k): at most V entries per k.
        self._ranked_by_center: dict[tuple[int, int], list[tuple[int, float]]] = {}

    def _uniform(self, tag: bytes, state: PrefixState) -> float:
        key = _prefix_digest(self.seed, tag, state.prompt_id, state.observation_id, state.emitted)
        return key / 2.0**64

    def _center(self, state: PrefixState) -> int:
        """Top-1 proposal for this prefix: verifier argmax, possibly displaced."""
        target = self.verifier.next(state).argmax
        if self._uniform(b"agree", state) < self.agreement_p:
            return target
        u = self._uniform(b"displace", state)
        idx = min(int(np.searchsorted(self._cdf, u, side="right")), len(self._offsets) - 1)
        offset = int(self._offsets[idx])
        return int(np.clip(target + offset, 0, self.vocab_size - 1))

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
