"""Dynamic draft tree: budgeted top-k expansion, validation and path enumeration.

The tree grows level by level.  At each depth every surviving frontier node
is expanded with the draft model's top-k proposals, then *all* nodes grown
so far compete for the node budget: they are ranked by cumulative log-score
and only the best ``max_nodes`` survive.  Because a child's cumulative score
never exceeds its parent's, the surviving set is automatically closed under
parents, and the final node list doubles as a topological order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .models import DraftModel, PrefixState


class TreeStructureError(ValueError):
    """Raised for malformed trees and draft proposals: dangling parents, bad
    ordering, size mismatches, bad log-scores, duplicate sibling tokens."""


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

    def __len__(self) -> int:
        return len(self.nodes)

    def validate(self) -> None:
        seen_paths: set[tuple[int, ...]] = set()
        paths: list[tuple[int, ...]] = []
        if len(self.nodes) > self.params.max_nodes:
            raise TreeStructureError(
                f"{len(self.nodes)} nodes exceed budget {self.params.max_nodes}"
            )
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
            path = (node.token,) if node.parent == ROOT else paths[node.parent] + (node.token,)
            if path in seen_paths:
                raise TreeStructureError(f"duplicate token path {path}")
            seen_paths.add(path)
            paths.append(path)

    def token_path(self, index: int) -> tuple[int, ...]:
        """Root-to-node tokens for the node at ``index``."""
        rev = []
        while index != ROOT:
            rev.append(self.nodes[index].token)
            index = self.nodes[index].parent
        return tuple(reversed(rev))


def build_tree(state: PrefixState, draft: DraftModel, params: TreeParams) -> DraftTree:
    """Grow a draft tree from ``state`` under the given expansion budget."""
    # Each candidate is stored as its rank key (-cum_score, depth, path): best
    # score first, then shallower, then lexicographic token path.  Fully
    # structural, so builds and oracles agree on ties.  Survivors are
    # re-selected from the full pool after every level.  Log-scores are
    # checked finite and <= 0, so a child's key sorts after its parent's and
    # every prefix of the ranking is closed under parents.
    selected: dict[tuple[int, ...], tuple[float, int, tuple[int, ...]]] = {}
    frontier: list[tuple[int, ...]] = [()]  # paths to expand next, root first

    for depth in range(1, params.max_depth + 1):
        if not frontier:
            break
        # Every tree state is one link from ``state`` in its digest chain.
        states = [state.extend_many(path) if path else state for path in frontier]
        proposals = draft.propose_many(states, params.top_k)

        for path, props in zip(frontier, proposals):
            base = -selected[path][0] if path else 0.0
            for token, logp in props:
                # The ranking needs finite log-scores <= 0 (a child never
                # outranks its parent) and one candidate per token.
                if not -math.inf < logp <= 0.0:
                    raise TreeStructureError(
                        f"draft log-score {logp} for token {token} is not finite and <= 0"
                    )
                child = path + (token,)
                if child in selected:
                    raise TreeStructureError(f"draft proposed token {token} twice under {path}")
                selected[child] = (-(base + logp), depth, child)

        # In rank order, which the node list keeps.
        selected = {key[2]: key for key in sorted(selected.values())[: params.max_nodes]}
        frontier = [path for path in selected if len(path) == depth]

    index_of: dict[tuple[int, ...], int] = {}
    nodes: list[DraftNode] = []
    for neg_cum, d, path in selected.values():
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
