"""Shared test fixtures: seeded, scripted and smooth models, random trees, oracles, drift figures.

The oracles are deliberately independent of the engine's own code paths:
expectations are recomputed from first principles so the tests cross-check
the implementation instead of echoing it.  ``drift_surrogate`` is a
measurement instead: it reads episodes the engine decoded and reports how
far the emitted tokens drift from the verifier's own choices.
"""

import math
from statistics import median
from typing import NamedTuple, Sequence

import numpy as np

from specdec.action_space import CHUNK_SIZE, bin_distance, detokenize
from specdec.config import RunConfig
from specdec.harness import EpisodeStats
from specdec.draft_tree import ROOT, DraftNode, DraftTree, TreeParams, build_tree
from specdec.models import HashVerifier, NoisyDraft, PrefixState, TreeStructureError, _mix, _salt


def models_for(seed, agreement_p=0.5, noise_sigma=6.0):
    """A ``HashVerifier`` at ``seed`` and a ``NoisyDraft`` over it."""
    verifier = HashVerifier(seed=seed)
    return verifier, NoisyDraft(verifier, agreement_p=agreement_p, noise_sigma=noise_sigma)


class ScriptedVerifier:
    """Verifier whose argmax depends only on the absolute position.

    Position i (number of tokens before it) always scores ``sequence[i mod
    len(sequence)]`` highest, regardless of which tokens were committed.
    """

    def __init__(self, sequence, vocab_size=257):
        self.sequence = [int(t) for t in sequence]
        self.vocab_size = vocab_size

    def _argmax_at(self, position: int) -> int:
        return self.sequence[position % len(self.sequence)]

    def next(self, state):
        return self._argmax_at(state.position)

    def batch(self, state, tree):
        depths = [0] + [node.depth for node in tree.nodes]
        return [self._argmax_at(state.position + depth) for depth in depths]


class ScriptedDraft:
    """Draft model proposing a fixed token per absolute position.

    Top-1 is ``sequence[position mod len(sequence)]``; further proposals
    fill in neighboring bins with strictly decreasing scores.
    """

    def __init__(self, sequence, vocab_size=257):
        self.sequence = [int(t) for t in sequence]
        self.vocab_size = vocab_size

    def _propose(self, state, k):
        top = self.sequence[state.position % len(self.sequence)]
        tokens = [top]
        step = 0
        while len(tokens) < k:
            step += 1
            for candidate in (top - step, top + step):
                if 0 <= candidate < self.vocab_size and candidate not in tokens:
                    tokens.append(candidate)
                if len(tokens) == k:
                    break
        return [(t, -0.1 * i) for i, t in enumerate(tokens)]

    def propose_many(self, states, k):
        if not 1 <= k <= self.vocab_size:
            raise ValueError(f"k must be in [1, {self.vocab_size}]")
        return [self._propose(s, k) for s in states]


class SmoothVerifier:
    """Prefix-sensitive verifier whose actions are smooth across frames.

    In the first frame the argmax is ``HashVerifier``'s.  From position 7
    on, it is the token 7 positions back (the same dimension one frame
    earlier) plus a step in {-2, ..., 2} keyed by the prefix, clamped into
    the vocabulary.  ``batch`` builds every node's state from its parent's
    and answers for all of them; a node token outside the vocabulary is a
    ``TreeStructureError``, as the ``Verifier`` protocol asks.
    """

    def __init__(self, vocab_size=256, seed=0):
        self.vocab_size = vocab_size
        self._first_frame = HashVerifier(vocab_size, seed)
        self._step = _salt(b"smooth-step", seed)

    def next(self, state):
        if state.position < CHUNK_SIZE:
            return self._first_frame.next(state)
        step = (_mix(state.key ^ self._step) * 5 >> 64) - 2
        return min(max(state.emitted[-CHUNK_SIZE] + step, 0), self.vocab_size - 1)

    def batch(self, state, tree):
        states = [state]
        for i, node in enumerate(tree.nodes):
            if not 0 <= node.token < self.vocab_size:
                raise TreeStructureError(f"node {i} token {node.token} is outside the vocabulary")
            states.append(states[node.parent + 1].extend(node.token))
        return [self.next(s) for s in states]


class PreviousFrameDraft:
    """Draft that never calls a verifier: it proposes the previous frame's token.

    In the first frame it proposes nothing, so each of those steps is one
    AR step.  Later it proposes the token 7 positions back and then its
    nearest bins inside the vocabulary, each scored minus its distance in
    bins: finite and at most 0.
    """

    def __init__(self, vocab_size=256):
        self.vocab_size = vocab_size

    def _propose(self, state, k):
        if state.position < CHUNK_SIZE:
            return []
        center = state.emitted[-CHUNK_SIZE]
        near = sorted(range(max(center - k, 0), min(center + k + 1, self.vocab_size)),
                      key=lambda b: abs(b - center))
        return [(b, -float(abs(b - center))) for b in near[:k]]

    def propose_many(self, states, k):
        return [self._propose(s, k) for s in states]


class WithBound:
    """Wraps a draft and forwards only ``propose_many``.  It declares
    ``bound`` as its ``max_log_score`` when one is given, and no bound
    otherwise, so ``build_tree`` reads 0.0 in place of the draft's own."""

    def __init__(self, inner, bound=None):
        self.inner = inner
        if bound is not None:
            self.max_log_score = bound

    def propose_many(self, states, k):
        return self.inner.propose_many(states, k)


def random_tree(rng: np.random.Generator, max_nodes=50, max_depth=4,
                vocab_size=256, top_k=8) -> DraftTree:
    """Structurally valid random tree, independent of build_tree."""
    n = int(rng.integers(1, max_nodes + 1))
    nodes = []
    paths = []
    path_set = set()
    for i in range(n):
        for _ in range(64):
            if nodes and rng.random() < 0.7:
                parent = int(rng.integers(0, len(nodes)))
                depth = nodes[parent].depth + 1
                if depth > max_depth:
                    continue
                base = paths[parent]
            else:
                parent, depth, base = ROOT, 1, ()
            token = int(rng.integers(0, vocab_size))
            path = base + (token,)
            if path in path_set:
                continue
            parent_score = 0.0 if parent == ROOT else nodes[parent].cum_score
            nodes.append(
                DraftNode(
                    token=token,
                    parent=parent,
                    depth=depth,
                    cum_score=parent_score - float(rng.random()),
                )
            )
            paths.append(path)
            path_set.add(path)
            break
    params = TreeParams(top_k=top_k, max_depth=max_depth, max_nodes=max_nodes)
    return DraftTree(nodes=tuple(nodes), params=params)


def rebuilt(tree: DraftTree) -> DraftTree:
    """``tree``, after asserting that the public constructor accepts it unchanged.

    ``build_tree`` returns its trees without the constructor's check, so
    this is the guard that every tree it builds would pass that check.
    """
    assert DraftTree(nodes=tree.nodes, params=tree.params) == tree
    return tree


def token_path(tree: DraftTree, index: int) -> tuple[int, ...]:
    """Root-to-node tokens for the node at ``index``, by a parent-pointer walk."""
    rev = []
    while index != ROOT:
        rev.append(tree.nodes[index].token)
        index = tree.nodes[index].parent
    return tuple(reversed(rev))


def accept_token(draft, verified, policy, dimension) -> bool:
    """Oracle: accept ``draft`` against the verifier argmax for one action dimension."""
    return bin_distance(draft, verified) <= policy.effective_r(dimension)


def reference_verify_path(path_tokens, verified, r_for_dim, start_position):
    """Independent linear scan: first failure index and the verifier token.

    ``r_for_dim`` maps an action dimension (0-6) to its threshold.
    """
    for i, token in enumerate(path_tokens):
        dim = (start_position + i) % 7
        if abs(int(token) - int(verified[i])) > r_for_dim(dim):
            return i, int(verified[i])
    return len(path_tokens), int(verified[len(path_tokens)])


def chain_q(agreement_p: float, noise_sigma: float, vocab_size: int, r: int) -> float:
    """Per-position acceptance probability for chain drafting.

    Brute-forced over the displacement kernel and a uniform verifier argmax,
    including the clamp at the vocabulary edges.  Matches the synthetic
    draft construction by definition, not by running the engine.
    """
    mags = np.arange(1, vocab_size, dtype=np.float64)
    w = np.exp(-(mags**2 - 1.0) / (2.0 * noise_sigma**2))
    offsets = np.concatenate([-mags[::-1], mags])
    probs = np.concatenate([w[::-1], w])
    probs /= probs.sum()

    argmaxes = np.arange(vocab_size)[:, None]
    displaced = np.clip(argmaxes + offsets[None, :], 0, vocab_size - 1)
    within = np.abs(displaced - argmaxes) <= r
    p_within_given_displaced = (within * probs[None, :]).sum(axis=1).mean()
    return agreement_p + (1.0 - agreement_p) * p_within_given_displaced


def chain_expected_accepted(q: float, depth: int) -> float:
    """Expected accepted draft tokens per pass: sum of q^i for i=1..depth."""
    return sum(q**i for i in range(1, depth + 1))


def _center_offset_pmf(agreement_p: float, noise_sigma: float, vocab_size: int) -> np.ndarray:
    """P(delta) for delta = draft center - verifier argmax, indexed by delta + V - 1.

    The center is the argmax with probability ``agreement_p``, else the
    argmax displaced by the kernel and clamped into the vocabulary, over a
    uniform argmax: the mixture :func:`chain_q` sums.
    """
    mags = np.arange(1, vocab_size, dtype=np.float64)
    w = np.exp(-(mags**2 - 1.0) / (2.0 * noise_sigma**2))
    offsets = np.concatenate([-mags[::-1], mags]).astype(np.int64)
    probs = np.concatenate([w[::-1], w])
    probs /= probs.sum()

    argmaxes = np.arange(vocab_size)[:, None]
    deltas = np.clip(argmaxes + offsets[None, :], 0, vocab_size - 1) - argmaxes
    pmf = np.zeros(2 * vocab_size - 1)
    np.add.at(pmf, deltas + vocab_size - 1, np.broadcast_to(probs / vocab_size, deltas.shape))
    pmf *= 1.0 - agreement_p
    pmf[vocab_size - 1] += agreement_p
    return pmf


def tree_acceptance_tail(
    agreement_p: float, noise_sigma: float, vocab_size: int, r: int, params: TreeParams
) -> np.ndarray:
    """P(accepted >= m), m = 0..max_depth, on the synthetic pair's tree, away from the edges.

    A draft's proposals depend only on its center, so the tree's shape, as
    offsets from each parent's center, is the one built once with the
    center held at V/2.  Each node's argmax and center offset ``delta`` are
    independent of every other node's, so from the leaves up, for m >= 1:
    P(A(n) >= m) = 1 - E_delta[prod_j (1 - [|delta + s_j| <= r] P(A(c_j) >= m - 1))]
    over n's children c_j at offsets s_j, with P(A(c) >= 0) = 1.
    """
    middle = vocab_size // 2
    always_middle = ScriptedVerifier([middle], vocab_size=vocab_size)
    draft = NoisyDraft(always_middle, agreement_p=1.0)
    tree = build_tree(PrefixState(prompt_id="shape"), draft, params, vocab_size)

    pmf = _center_offset_pmf(agreement_p, noise_sigma, vocab_size)
    deltas = np.arange(1 - vocab_size, vocab_size)
    children: dict[int, list[int]] = {ROOT: []}
    for i, node in enumerate(tree.nodes):
        children[i] = []
        children[node.parent].append(i)

    depth = params.max_depth
    at_least: dict[int, np.ndarray] = {}  # node -> P(A(node) >= m) for m = 0..depth
    for n in [*reversed(range(len(tree.nodes))), ROOT]:
        probs = np.zeros(depth + 1)
        probs[0] = 1.0
        kids = children[n]
        if kids:
            offsets = np.array([tree.nodes[c].token - middle for c in kids])
            accepts = np.abs(deltas[None, :] + offsets[:, None]) <= r
            for m in range(1, depth + 1):
                deeper = np.array([at_least[c][m - 1] for c in kids])[:, None]
                probs[m] = 1.0 - pmf @ np.prod(1.0 - accepts * deeper, axis=0)
        at_least[n] = probs
    return at_least[ROOT]


def tree_expected_tokens_per_pass(
    agreement_p: float, noise_sigma: float, vocab_size: int, r: int, params: TreeParams
) -> float:
    """Exact tokens/pass of the synthetic pair's draft tree: 1 + the sum of
    :func:`tree_acceptance_tail` over m >= 1."""
    tail = tree_acceptance_tail(agreement_p, noise_sigma, vocab_size, r, params)
    return 1.0 + float(tail[1:].sum())


def frame_expected(
    agreement_p: float, noise_sigma: float, vocab_size: int, r: int, params: TreeParams,
    frame: int = CHUNK_SIZE,
) -> tuple[float, float]:
    """``(tokens per pass, draft rounds per pass)`` when each ``frame``-token
    action is decoded on its own, as one observation per control step.

    A step with ``left`` tokens left in its frame caps its tree's depth at
    ``left - 1``, so it never emits past the frame; with one token left the
    tree is empty and the step is one AR step with no draft round.  A
    capped step issues one draft round per level.  The frame is a Markov
    chain over the tokens committed, 0 to ``frame``: a step at ``c``
    commits 1 + A tokens, with A's law read off the capped tree's
    :func:`tree_acceptance_tail`.  Both figures are expectations over a
    frame divided by its expected step count.
    """
    steps = [0.0] * (frame + 1)  # expected steps to finish from c tokens committed
    rounds = [0.0] * (frame + 1)  # expected draft rounds, likewise
    for c in reversed(range(frame)):
        depth = min(params.max_depth, frame - c - 1)
        accepted = np.array([1.0])  # P(A = m), m = 0..depth
        if depth:
            capped = TreeParams(params.top_k, depth, params.max_nodes)
            tail = tree_acceptance_tail(agreement_p, noise_sigma, vocab_size, r, capped)
            accepted = tail - np.append(tail[1:], 0.0)
        nexts = range(c + 1, c + 2 + depth)
        steps[c] = 1.0 + sum(p * steps[n] for p, n in zip(accepted, nexts))
        rounds[c] = depth + sum(p * rounds[n] for p, n in zip(accepted, nexts))
    return float(frame / steps[0]), float(rounds[0] / steps[0])


class DriftRow(NamedTuple):
    """How far one policy's emitted tokens drift from the verifier's own choices."""

    tokens_per_pass: float
    mean_abs_bins: tuple[float, ...]  # mean |emitted - reference| in bins, per dimension
    off_frac: float  # share of emitted tokens that differ from the reference
    xyz_mm: float  # median over episodes of the accumulated position error, mm
    rot_mrad: float  # median over episodes of the accumulated rotation error, mrad


def drift_surrogate(stats: Sequence[EpisodeStats], config: RunConfig) -> dict[int, DriftRow]:
    """Drift of each policy in ``config.r_values`` from the verifier's reference.

    ``stats`` are the decoded episodes, from ``run_batch`` or from
    ``run_episode`` over any model pair, each cut to
    ``config.target_length`` tokens; ``config`` also gives the bounds and
    vocabulary that detokenize them.  The reference is the verifier argmax
    recorded at every emitted position.  An episode's pose error
    detokenizes each emitted frame and its reference frame, sums the
    per-frame differences of the three position dimensions over the
    episode, and takes that sum's norm (meters, shown in mm); likewise the
    three rotation deltas (radians, small angles, shown in mrad).  This is
    a drift surrogate, not task success.
    """
    rows = {}
    for r in config.r_values:
        steps = accepted = off = 0
        abs_sums = [0] * CHUNK_SIZE
        counts = [0] * CHUNK_SIZE
        xyz, rot = [], []
        for episode in (s for s in stats if s.r == r):
            steps += episode.steps
            accepted += sum(o.accepted for o in episode.outcomes)
            aligned = [
                (token, ref, (o.position + i) % CHUNK_SIZE)
                for o in episode.outcomes
                for i, (token, ref) in enumerate(zip(o.emitted, o.reference))
            ][: config.target_length]
            for token, ref, dimension in aligned:
                abs_sums[dimension] += bin_distance(token, ref)
                counts[dimension] += 1
                off += token != ref
            emitted = [token for token, _, _ in aligned]
            reference = [ref for _, ref, _ in aligned]
            pose = [0.0] * CHUNK_SIZE
            for start in range(0, len(emitted), CHUNK_SIZE):
                frames = (emitted[start : start + CHUNK_SIZE], reference[start : start + CHUNK_SIZE])
                got, want = (detokenize(f, config.dimension_bounds, config.vocab_size) for f in frames)
                pose = [p + g - w for p, g, w in zip(pose, got, want)]
            xyz.append(1000.0 * math.hypot(*pose[0:3]))
            rot.append(1000.0 * math.hypot(*pose[3:6]))
        rows[r] = DriftRow(
            tokens_per_pass=1.0 + accepted / steps,
            mean_abs_bins=tuple(a / c for a, c in zip(abs_sums, counts)),
            off_frac=off / sum(counts),
            xyz_mm=median(xyz),
            rot_mrad=median(rot),
        )
    return rows
