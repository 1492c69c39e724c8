"""Shared test fixtures: scripted models, random trees, and oracle math.

Everything here is deliberately independent of the engine's own code paths:
expectations are recomputed from first principles so the tests cross-check
the implementation instead of echoing it.
"""

import numpy as np

from specdec.draft_tree import ROOT, DraftNode, DraftTree, TreeParams, build_tree
from specdec.models import NoisyDraft, PrefixState


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


def token_path(tree: DraftTree, index: int) -> tuple[int, ...]:
    """Root-to-node tokens for the node at ``index``, by a parent-pointer walk."""
    rev = []
    while index != ROOT:
        rev.append(tree.nodes[index].token)
        index = tree.nodes[index].parent
    return tuple(reversed(rev))


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


def tree_expected_tokens_per_pass(
    agreement_p: float, noise_sigma: float, vocab_size: int, r: int, params: TreeParams
) -> float:
    """Exact tokens/pass of the synthetic pair's draft tree, away from the edges.

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
    return 1.0 + float(at_least[ROOT][1:].sum())
