"""Dynamic draft tree: budgeted top-k expansion, validation and path enumeration.

The tree grows level by level.  At each depth every surviving frontier node
is expanded with the draft model's top-k proposals, the level's children
are merged into the survivors by cumulative log-score, and only the best
``max_nodes`` survive.  Because a child's cumulative score never exceeds its
parent's, the surviving set is automatically closed under parents, and the
final node list doubles as a topological order.

A level's proposals are read one frontier node at a time, best-ranked node
first, from the iterable ``DraftModel.propose_many`` returns.  Reading stops
at the first frontier node that ``max_nodes`` candidates already outrank
(survivors of earlier levels, and children read so far).  That cut is
exact: the node cannot survive this level, its children rank after it, and
every later frontier node ranks after it too, so none of the unread
proposals could have entered the tree.  A lazy draft thus never scores the
states of cut nodes.  Chains and trees take the same path.
"""

from __future__ import annotations

import bisect
import math
import operator
from dataclasses import dataclass

from .models import DraftModel, PrefixState


class TreeStructureError(ValueError):
    """Raised for malformed trees and draft proposals: dangling parents, bad
    ordering, size mismatches, proposals that are not (int, log-score) pairs,
    out-of-vocabulary tokens, bad log-scores, duplicate sibling tokens."""


ROOT = -1  # parent marker for first-level nodes


@dataclass(frozen=True)
class TreeParams:
    top_k: int = 8
    max_depth: int = 4
    max_nodes: int = 50

    def __post_init__(self) -> None:
        if self.top_k < 1:
            raise ValueError("top_k must be >= 1")
        if self.max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        if self.max_nodes < 1:
            raise ValueError("max_nodes must be >= 1")


@dataclass(frozen=True)
class DraftNode:
    token: int
    parent: int  # index into the node list, ROOT for depth-1 nodes
    depth: int  # root children have depth 1
    cum_score: float  # sum of proposal log-scores along the root path


@dataclass(frozen=True)
class DraftTree:
    nodes: tuple[DraftNode, ...]
    params: TreeParams

    def validate(self) -> None:
        if len(self.nodes) > self.params.max_nodes:
            raise TreeStructureError(
                f"{len(self.nodes)} nodes exceed budget {self.params.max_nodes}"
            )
        # Parents come first, so a repeated root path is a repeated (parent, token).
        seen: set[tuple[int, int]] = set()
        for i, node in enumerate(self.nodes):
            if node.parent != ROOT and not 0 <= node.parent < i:
                raise TreeStructureError(
                    f"node {i} has dangling or out-of-order parent {node.parent}"
                )
            expected_depth = 1 if node.parent == ROOT else self.nodes[node.parent].depth + 1
            if node.depth != expected_depth:
                raise TreeStructureError(f"node {i} depth {node.depth} != {expected_depth}")
            if node.depth > self.params.max_depth:
                raise TreeStructureError(f"node {i} exceeds max depth {self.params.max_depth}")
            if (node.parent, node.token) in seen:
                raise TreeStructureError(f"node {i} repeats a sibling's token {node.token}")
            seen.add((node.parent, node.token))


def build_tree(
    state: PrefixState, draft: DraftModel, params: TreeParams, vocab_size: int
) -> DraftTree:
    """Grow a draft tree from ``state`` under the given expansion budget.

    Raises :class:`TreeStructureError` for a proposal it reads that is not
    an ``(int, log-score)`` pair, whose token lies outside
    ``[0, vocab_size)``, whose log-score is non-finite or positive, or whose
    token repeats a sibling's.
    """
    # Each candidate is stored as its rank key (-cum_score, depth, path): best
    # score first, then shallower, then lexicographic token path.  Fully
    # structural, so builds and oracles agree on ties.  Log-scores are checked
    # finite and <= 0, so a child's key sorts after its parent's and every
    # prefix of the ranking is closed under parents.
    ranked: list[tuple[float, int, tuple[int, ...]]] = []  # survivors, in rank order
    # Nodes to expand next, best first, as (rank in ``ranked``, key).
    frontier = [(0, (0.0, 0, ()))]

    for depth in range(1, params.max_depth + 1):
        if not frontier:
            break
        # Each tree state folds only its path into ``state``'s key.
        states = [state.extend_many(key[2]) if depth > 1 else state for _, key in frontier]
        proposals = iter(draft.propose_many(states, params.top_k))
        children: list[tuple[float, int, tuple[int, ...]]] = []  # read so far, sorted

        for rank, key in frontier:
            # Stop at the first frontier node that ``max_nodes`` candidates
            # outrank: it, its children and every later frontier node are cut.
            if rank + bisect.bisect_left(children, key) >= params.max_nodes:
                break
            props = next(proposals, None)
            if props is None:  # fewer lists than states: the rest propose nothing
                break
            path = key[2]
            base = -key[0] if path else 0.0
            siblings: set[int] = set()
            for proposal in props:
                try:
                    token, logp = proposal
                    # An integer token, so the models can fold it into a key.
                    token = operator.index(token)
                    # The ranking needs finite log-scores <= 0 (a child never
                    # outranks its parent) and one candidate per token.
                    score_ok = -math.inf < logp <= 0.0
                except (TypeError, ValueError):
                    raise TreeStructureError(
                        f"draft proposal {proposal!r} is not an (int, log-score) pair"
                    ) from None
                if not 0 <= token < vocab_size:
                    raise TreeStructureError(
                        f"draft token {token} outside vocabulary [0, {vocab_size})"
                    )
                if not score_ok:
                    raise TreeStructureError(
                        f"draft log-score {logp} for token {token} is not finite and <= 0"
                    )
                if token in siblings:
                    raise TreeStructureError(f"draft proposed token {token} twice under {path}")
                siblings.add(token)
                bisect.insort(children, (-(base + logp), depth, path + (token,)))

        # Both lists are sorted runs, so this sort is one linear merge.
        ranked = sorted(ranked + children)[: params.max_nodes]
        frontier = [(rank, key) for rank, key in enumerate(ranked) if key[1] == depth]

    index_of: dict[tuple[int, ...], int] = {}
    nodes: list[DraftNode] = []
    for neg_cum, d, path in ranked:
        parent = ROOT if len(path) == 1 else index_of[path[:-1]]
        index_of[path] = len(nodes)
        nodes.append(DraftNode(token=path[-1], parent=parent, depth=d, cum_score=-neg_cum))
    return DraftTree(nodes=tuple(nodes), params=params)


def enumerate_paths(tree: DraftTree) -> list[list[int]]:
    """All root-to-leaf node-index paths, best leaf cumulative score first.

    Node order already sorts by descending cumulative score (ties broken
    structurally), so filtering leaves preserves that order.
    """
    has_child = [False] * len(tree.nodes)
    for node in tree.nodes:
        if node.parent != ROOT:
            has_child[node.parent] = True
    paths = []
    for i, leaf in enumerate(has_child):
        if leaf:
            continue
        rev = []
        j = i
        while j != ROOT:
            rev.append(j)
            j = tree.nodes[j].parent
        paths.append(list(reversed(rev)))
    return paths
