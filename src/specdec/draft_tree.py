"""Dynamic draft tree: budgeted top-k expansion, each input checked once, and path enumeration.

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
only gets better while the level is read.  Once the list is full, a
child whose score ranks after the last entry is dropped before its path
and rank key are built.  The draft gets the level's states as a lazy
sequence whose length is the whole frontier.  Each state is built only
when the draft reads it, with one mix from its parent's state, which is
built first the same way if the draft never read it.  So a lazy draft
never builds or scores the states of cut nodes.  Chains and trees take
the same path.

Each input is checked once.  ``build_tree`` checks every proposal as it
reads it, and its ranking keeps the tree within budget and closed under
parents, so it returns its tree without the constructor's check.  A tree
built by hand, through ``DraftTree(...)`` or ``dataclasses.replace``,
checks itself when it is constructed and stores each node's token, parent
and depth as an ``int``, so every tree holds ints and nothing downstream
converts them.
"""

from __future__ import annotations

import bisect
import math
import numbers
import operator
from dataclasses import dataclass
from typing import NamedTuple

from .models import DraftModel, PrefixState, TreeStructureError, _Lazy


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


class DraftNode(NamedTuple):
    token: int
    parent: int  # index into the node list, ROOT for depth-1 nodes
    depth: int  # root children have depth 1
    cum_score: float  # sum of proposal log-scores along the root path


@dataclass(frozen=True)
class DraftTree:
    nodes: tuple[DraftNode, ...]
    params: TreeParams

    def __post_init__(self) -> None:
        # A hand-built tree's check; the dataclass is frozen, so a tree stays well formed.
        object.__setattr__(self, "nodes", self.validate())

    def validate(self) -> tuple[DraftNode, ...]:
        """Check the tree and return its nodes with ``int`` token, parent and depth.

        Raises ``TreeStructureError`` unless the tree is well formed; node
        tokens must be integers >= 0, and parents and depths integers.
        """
        nodes = tuple(self.nodes)
        if len(nodes) > self.params.max_nodes:
            raise TreeStructureError(f"{len(nodes)} nodes exceed budget {self.params.max_nodes}")
        # Parents come first, so a repeated root path is a repeated (parent, token).
        seen: set[tuple[int, int]] = set()
        checked: list[DraftNode] = []
        for i, node in enumerate(nodes):
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
            expected_depth = 1 if parent == ROOT else checked[parent].depth + 1
            if depth != expected_depth:
                raise TreeStructureError(f"node {i} depth {depth} != {expected_depth}")
            if depth > self.params.max_depth:
                raise TreeStructureError(f"node {i} exceeds max depth {self.params.max_depth}")
            if (parent, token) in seen:
                raise TreeStructureError(f"node {i} repeats a sibling's token {token}")
            seen.add((parent, token))
            checked.append(DraftNode(token, parent, depth, node.cum_score))
        return tuple(checked)


def build_tree(
    state: PrefixState, draft: DraftModel, params: TreeParams, vocab_size: int
) -> DraftTree:
    """Grow a draft tree from ``state`` under the given expansion budget.

    Raises :class:`TreeStructureError` for a draft ``max_log_score`` that is
    not a real number in (-inf, 0], for a ``propose_many`` result or one
    state's proposals that is not iterable, and for a proposal it reads that
    is not an ``(int, log-score)`` pair with a real log-score, whose token
    lies outside ``[0, vocab_size)``, whose log-score is non-finite or above
    that bound, or whose token repeats a sibling's.  A proposal of an exact
    ``int`` and an exact ``float`` passes one combined test; any other, and
    any that fails it, takes every check in that order, so its error is the
    same either way.  Each level state is its parent's state extended by
    the path's last token.
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
    # The best max_nodes so far, in rank order.
    ranked: list[tuple[float, int, tuple[int, ...]]] = []
    last = None  # ranked[-1] once the list is full: the entry a child must outrank
    frontier = [(0.0, 0, ())]  # nodes to expand next, best first
    built = {(): state}  # the last state built for each path read
    low = -math.inf  # the fast proposal check's lower bound, as a local

    def state_after(path: tuple[int, ...]) -> PrefixState:
        # Each read builds the state with one mix from its parent's.  A
        # parent that no draft read is built first, the same way, after its
        # own unread ancestors, root side first, so calls nest one deep.
        parent = built.get(path[:-1])
        if parent is None:
            for m in range(1, len(path)):
                parent = built.get(path[:m]) or state_after(path[:m])
        built[path] = state = parent.extend(path[-1])
        return state

    for depth in range(1, params.max_depth + 1):
        if not frontier:
            break
        states = _Lazy(state_after, [key[2] for key in frontier]) if depth > 1 else [state]
        proposed = draft.propose_many(states, params.top_k)
        try:
            proposals = iter(proposed)
        except TypeError:
            raise TreeStructureError(f"propose_many returned non-iterable {proposed!r}") from None

        for key in frontier:
            # Only a full list cuts.  A frontier node pushed out of it is cut,
            # and so are its children and every later frontier node: they all
            # rank after it.  So is one whose best possible child ranks after
            # the last entry.
            if last is not None and (last < key or key[0] - bound > last[0]):
                break
            props = next(proposals, None)
            if props is None:  # fewer lists than states: the rest propose nothing
                break
            path = key[2]
            try:
                props = iter(props)
            except TypeError:
                raise TreeStructureError(f"proposals {props!r} under {path} not iterable") from None
            base = -key[0] if path else 0.0
            siblings: set[int] = set()
            for proposal in props:
                try:
                    token, logp = proposal
                except (TypeError, ValueError):
                    raise TreeStructureError(_not_a_pair(proposal)) from None
                # An exact ``int`` token in the vocabulary with an exact
                # ``float`` log-score in range, new among its siblings, needs
                # no more checks; anything else takes the full ones.
                if not (
                    type(token) is int and type(logp) is float
                    and 0 <= token < vocab_size and low < logp <= bound
                ) or token in siblings:
                    token = _checked_token(proposal, token, logp, path, siblings, vocab_size, bound)
                siblings.add(token)
                score = -(base + logp)
                if last is None:
                    bisect.insort(ranked, (score, depth, path + (token,)))
                    if len(ranked) == max_nodes:
                        last = ranked[-1]
                # A full list: a child that scores worse than the last entry
                # cannot enter, so its path and key are never built.
                elif score <= last[0]:
                    child = (score, depth, path + (token,))
                    if child < last:
                        ranked.pop()
                        bisect.insort(ranked, child)
                        last = ranked[-1]

        frontier = [key for key in ranked if key[1] == depth]

    # The list is closed under parents, so every node's parent has an index.
    index_of = {key[2]: i for i, key in enumerate(ranked)}
    # ``tuple.__new__`` fills a node's fields by position, skipping ``DraftNode.__new__``.
    nodes = tuple([
        tuple.__new__(DraftNode, (path[-1], ROOT if d == 1 else index_of[path[:-1]], d, -neg))
        for neg, d, path in ranked
    ])
    # Checked as read, closed under parents and in budget: skip the constructor's re-check.
    tree = object.__new__(DraftTree)
    tree.__dict__.update(nodes=nodes, params=params)
    return tree


def _not_a_pair(proposal: object) -> str:
    return f"draft proposal {proposal!r} is not an (int, log-score) pair"


def _checked_token(
    proposal: object, token: object, logp: object, path: tuple[int, ...], siblings: set[int],
    vocab_size: int, bound: float,
) -> int:
    """Every check of one proposal, in order: its token as an ``int``, or the first failure."""
    try:
        # An integer token, so the models can fold it into a key.
        token = operator.index(token)
        # A real log-score, ``float`` first as for the bound.
        if not (type(logp) is float or isinstance(logp, numbers.Real)):
            raise TypeError
        # The ranking needs finite log-scores <= 0 (a child never outranks
        # its parent), within the declared bound, and one candidate per token.
        score_ok = -math.inf < logp <= bound
    except (TypeError, ValueError):
        raise TreeStructureError(_not_a_pair(proposal)) from None
    if not 0 <= token < vocab_size:
        raise TreeStructureError(f"draft token {token} outside vocabulary [0, {vocab_size})")
    if not score_ok:
        raise TreeStructureError(
            f"draft log-score {logp} for token {token} is not finite and <= {bound}"
        )
    if token in siblings:
        raise TreeStructureError(f"draft proposed token {token} twice under {path}")
    return token


def enumerate_paths(tree: DraftTree) -> list[list[int]]:
    """All root-to-leaf node-index paths, one per leaf, in leaf node order.

    A tree from :func:`build_tree` lists its nodes by descending cumulative
    score (ties broken structurally), so its paths come best leaf score
    first; a hand-built tree's come in whatever order its leaves do.
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
