"""Dynamic draft tree: budgeted top-k expansion, self-checking trees and path enumeration.

The tree grows level by level.  At each depth every surviving frontier node
is expanded with the draft model's top-k proposals, and every child goes
into one rank-ordered list, by cumulative log-score, that never holds more
than ``max_nodes`` candidates: a child enters only while the list has room
or when it outranks the list's last entry, which then drops out.  Because a
child's cumulative score never exceeds its parent's, the list is always
closed under parents, and the final node list doubles as a topological
order.

A level's proposals are read one frontier node at a time, best-ranked node
first, from the iterable ``DraftModel.propose_many`` returns.  Reading stops
at the first frontier node that has been pushed out of the list.  That cut
is exact: the node cannot survive, its children rank after it, and every
later frontier node ranks after it too, so none of the unread proposals
could have entered the tree.  Reading also stops, once the list is full, at
the first frontier node whose best possible child ranks after the list's
last entry, by the draft's declared ``max_log_score`` (0.0 if it declares
none).  That cut is exact too: a child of a node with rank score ``key``
has rank score ``-(cum + logp) >= fl(key - bound)``, because rounding is
monotone; later frontier nodes rank after this one; and the last entry
only gets better while the level is read.  The draft gets the level's
states as a lazy sequence whose length is the whole frontier, and each
state is built from its path only when the draft reads it, so a lazy draft
never builds or scores the states of cut nodes.  Chains and trees take the
same path.
"""

from __future__ import annotations

import bisect
import math
import numbers
import operator
from dataclasses import dataclass

from .models import DraftModel, PrefixState, _Lazy


class TreeStructureError(ValueError):
    """Raised for a malformed draft tree or draft proposal:

    * a tree over its node budget or max depth;
    * a node whose parent or depth is not an integer, whose parent dangles
      or comes after it, or whose depth is not its parent's plus one;
    * a node token that is not an integer >= 0, or lies outside the
      verifier's vocabulary;
    * a repeated sibling token;
    * a proposal that is not an ``(int, log-score)`` pair, or whose
      log-score is not finite and at most the draft's ``max_log_score``;
    * a draft ``max_log_score`` that is not a real number in (-inf, 0];
    * a ``verified`` list whose length does not match its tree.
    """


ROOT = -1  # parent marker for first-level nodes


@dataclass(frozen=True)
class TreeParams:
    top_k: int = 8
    max_depth: int = 4
    max_nodes: int = 50

    def __post_init__(self) -> None:
        for name in ("top_k", "max_depth", "max_nodes"):
            value = getattr(self, name)
            try:
                value = operator.index(value)
            except TypeError:
                raise ValueError(f"{name} must be an integer, got {value!r}") from None
            if value < 1:
                raise ValueError(f"{name} must be >= 1")
            object.__setattr__(self, name, value)


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

    def __post_init__(self) -> None:
        # The one tree check: the dataclass is frozen, so a tree stays well formed.
        object.__setattr__(self, "nodes", tuple(self.nodes))
        self.validate()

    def validate(self) -> None:
        """Raise ``TreeStructureError`` unless the tree is well formed; node
        tokens must be integers >= 0, and parents and depths integers."""
        if len(self.nodes) > self.params.max_nodes:
            raise TreeStructureError(
                f"{len(self.nodes)} nodes exceed budget {self.params.max_nodes}"
            )
        # Parents come first, so a repeated root path is a repeated (parent, token).
        seen: set[tuple[int, int]] = set()
        for i, node in enumerate(self.nodes):
            try:
                token = operator.index(node.token)
            except TypeError:
                token = -1
            if token < 0:
                raise TreeStructureError(f"node {i} token {node.token!r} is not an integer >= 0")
            try:
                parent, depth = operator.index(node.parent), operator.index(node.depth)
            except TypeError:
                raise TreeStructureError(
                    f"node {i} parent {node.parent!r} or depth {node.depth!r} is not an integer"
                ) from None
            if parent != ROOT and not 0 <= parent < i:
                raise TreeStructureError(f"node {i} has dangling or out-of-order parent {parent}")
            expected_depth = 1 if parent == ROOT else self.nodes[parent].depth + 1
            if depth != expected_depth:
                raise TreeStructureError(f"node {i} depth {depth} != {expected_depth}")
            if depth > self.params.max_depth:
                raise TreeStructureError(f"node {i} exceeds max depth {self.params.max_depth}")
            if (parent, token) in seen:
                raise TreeStructureError(f"node {i} repeats a sibling's token {token}")
            seen.add((parent, token))


def build_tree(
    state: PrefixState, draft: DraftModel, params: TreeParams, vocab_size: int
) -> DraftTree:
    """Grow a draft tree from ``state`` under the given expansion budget.

    Raises :class:`TreeStructureError` for a draft ``max_log_score`` that is
    not a real number in (-inf, 0], and for a proposal it reads that is not
    an ``(int, log-score)`` pair, whose token lies outside
    ``[0, vocab_size)``, whose log-score is non-finite or above that bound,
    or whose token repeats a sibling's.
    """
    # Each candidate is stored as its rank key (-cum_score, depth, path): best
    # score first, then shallower, then lexicographic token path.  Fully
    # structural, so builds and oracles agree on ties.  Log-scores are checked
    # finite and <= 0, so a child's key sorts after its parent's and every
    # prefix of the ranking is closed under parents.
    bound = getattr(draft, "max_log_score", 0.0)
    # ``float`` first: an ABC check alone costs about 1 us on every call.
    if not (isinstance(bound, (float, numbers.Real)) and -math.inf < bound <= 0.0):
        raise TreeStructureError(f"draft max_log_score {bound!r} is not a real number in (-inf, 0]")
    max_nodes = params.max_nodes
    ranked: list[tuple[float, int, tuple[int, ...]]] = []  # the best max_nodes, in order
    frontier = [(0.0, 0, ())]  # nodes to expand next, best first

    for depth in range(1, params.max_depth + 1):
        if not frontier:
            break
        states = _Lazy(state.extend_many, [key[2] for key in frontier]) if depth > 1 else [state]
        proposals = iter(draft.propose_many(states, params.top_k))

        for key in frontier:
            # A frontier node pushed out of ``ranked`` is cut, and so are its
            # children and every later frontier node: they all rank after it.
            # So is one whose best possible child ranks after a full list.
            if ranked and ranked[-1] < key:
                break
            if len(ranked) == max_nodes and key[0] - bound > ranked[-1][0]:
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
                    # outranks its parent), within the declared bound, and
                    # one candidate per token.
                    score_ok = -math.inf < logp <= bound
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
                        f"draft log-score {logp} for token {token} is not finite and <= {bound}"
                    )
                if token in siblings:
                    raise TreeStructureError(f"draft proposed token {token} twice under {path}")
                siblings.add(token)
                child = (-(base + logp), depth, path + (token,))
                if len(ranked) < max_nodes:
                    bisect.insort(ranked, child)
                elif child < ranked[-1]:
                    ranked.pop()
                    bisect.insort(ranked, child)

        frontier = [key for key in ranked if key[1] == depth]

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
