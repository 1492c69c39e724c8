"""Strict and distance-relaxed verification of draft trees, plus the decode loop.

One verification step works on a draft tree and the verifier's argmax at
every tree position: one parents-first pass over the nodes finds each
root-to-leaf path's longest accepted prefix, the best path wins, and the
verifier contributes exactly one extra token — the correction at the first
rejection, or a bonus token when a whole path survives.  With the
relaxation threshold at zero this reduces to classic lossless speculative
decoding; with a positive threshold a draft token is accepted whenever its
bin lies within the threshold of the verifier argmax for that position's
action dimension.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Sequence

from .action_space import CHUNK_SIZE, bin_distance
from .draft_tree import ROOT, DraftTree, TreeParams, TreeStructureError, build_tree
from .models import DraftModel, PrefixState, Verifier


@dataclass(frozen=True)
class AcceptancePolicy:
    """How draft tokens are admitted during verification.

    ``strict`` requires an exact token match and takes no threshold;
    ``relaxed`` admits a draft token whose bin distance to the verifier
    argmax is at most ``r``.
    ``per_dimension_r`` optionally overrides the threshold for each of the
    7 action dimensions (e.g. to force exact matches on the gripper).
    Thresholds must be integers (``operator.index``); they are stored as
    ``int``, and ``per_dimension_r`` as a tuple, whatever sequence it came as.
    """

    mode: str = "strict"
    r: int = 0
    per_dimension_r: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        if self.mode not in ("strict", "relaxed"):
            raise ValueError(f"unknown acceptance mode {self.mode!r}")
        # ``operator.index``: a fractional threshold raises instead of truncating.
        object.__setattr__(self, "r", operator.index(self.r))
        if self.per_dimension_r is not None:
            overrides = tuple(map(operator.index, self.per_dimension_r))
            object.__setattr__(self, "per_dimension_r", overrides)
        if self.r < 0:
            raise ValueError("threshold r must be >= 0")
        if self.mode == "strict" and (self.r or self.per_dimension_r is not None):
            raise ValueError("a strict policy takes no threshold")
        if self.per_dimension_r is not None:
            if len(self.per_dimension_r) != CHUNK_SIZE:
                raise ValueError(f"per_dimension_r must list {CHUNK_SIZE} thresholds")
            if any(t < 0 for t in self.per_dimension_r):
                raise ValueError("per-dimension thresholds must be >= 0")

    @classmethod
    def strict(cls) -> AcceptancePolicy:
        return cls(mode="strict", r=0)

    @classmethod
    def relaxed(cls, r: int, per_dimension_r: Sequence[int] | None = None) -> AcceptancePolicy:
        return cls(mode="relaxed", r=r, per_dimension_r=per_dimension_r)

    def effective_r(self, dimension: int) -> int:
        if self.per_dimension_r is not None:
            return self.per_dimension_r[dimension % CHUNK_SIZE]
        return self.r


def accept_token(draft: int, verified: int, policy: AcceptancePolicy, dimension: int) -> bool:
    """Accept ``draft`` against the verifier argmax for one action dimension."""
    return bin_distance(draft, verified) <= policy.effective_r(dimension)


@dataclass(frozen=True)
class VerifyOutcome:
    """Result of one verification step.

    ``emitted`` always holds ``accepted`` draft tokens plus exactly one
    verifier token: the bonus when ``bonus_used``, else the correction at
    the first rejection.  ``reference`` carries the verifier argmax for
    every emitted position, which bounds how far the emitted step drifted
    from the verifier's own choices.
    """

    accepted: int
    emitted: tuple[int, ...]
    reference: tuple[int, ...]
    bonus_used: bool
    chosen_path: int


def verify_tree(
    tree: DraftTree,
    verified: Sequence[int],
    policy: AcceptancePolicy,
    start_position: int = 0,
) -> VerifyOutcome:
    """Verify every root-to-leaf path and keep the longest accepted one.

    ``verified`` has one entry per node plus the pre-root position:
    ``verified[0]`` conditions on the committed prefix alone and
    ``verified[i + 1]`` on the prefix extended by node ``i``'s root path.
    Ties on accepted length go to the path with the best leaf cumulative
    score (the enumeration order), then the lower path index.  A tree
    with no nodes degrades to one AR step: the empty path, fully accepted,
    followed by the verifier's bonus token.  ``chosen_path`` indexes
    :func:`enumerate_paths`.  ``verified`` is read only at the root, each
    accepted node that has children and the chosen tip, each once, so it
    may be a lazy sequence such as the round of ints a verifier's
    ``batch`` returns.  The tree checked itself when it was constructed;
    a ``verified`` of the wrong length raises :class:`TreeStructureError`.
    """
    nodes = tree.nodes
    if len(verified) != len(nodes) + 1:
        raise TreeStructureError(
            f"expected {len(nodes) + 1} verifier argmaxes, got {len(verified)}"
        )
    read: dict[int, int] = {}

    def argmax(j: int) -> int:
        """The argmax after node ``j`` (ROOT: the committed prefix), looked up once."""
        if j not in read:
            read[j] = verified[j + 1]
        return read[j]

    # One parents-first pass: ``tip[i]`` is the deepest node of the accepted
    # prefix on node i's root path (ROOT when none is accepted).  A node
    # extends its parent's tip when that tip is the parent itself and the
    # node's token passes against the argmax its parent conditions.
    tip: list[int] = []
    has_child = [False] * len(nodes)
    for i, node in enumerate(nodes):
        parent = node.parent
        if parent == ROOT:
            parent_tip = ROOT
        else:
            parent_tip = tip[parent]
            has_child[parent] = True
        extends = parent_tip == parent and accept_token(
            node.token, argmax(parent), policy, (start_position + node.depth - 1) % CHUNK_SIZE
        )
        tip.append(i if extends else parent_tip)

    # Leaves in node order are the paths in enumeration order; the first
    # leaf with the deepest accepted prefix wins.
    leaves = [i for i, inner in enumerate(has_child) if not inner]
    best_index, best_leaf, best_tip, best_accepted = 0, ROOT, ROOT, 0
    for index, leaf in enumerate(leaves):
        accepted = 0 if tip[leaf] == ROOT else nodes[tip[leaf]].depth
        if index == 0 or accepted > best_accepted:
            best_index, best_leaf, best_tip, best_accepted = index, leaf, tip[leaf], accepted

    kept: list[int] = []
    refs: list[int] = []
    j = best_tip
    while j != ROOT:
        parent = nodes[j].parent
        kept.append(nodes[j].token)
        refs.append(argmax(parent))
        j = parent
    next_token = int(argmax(best_tip))
    bonus_used = best_tip == best_leaf
    return VerifyOutcome(
        accepted=best_accepted,
        emitted=tuple(reversed(kept)) + (next_token,),
        reference=tuple(reversed(refs)) + (next_token,),
        bonus_used=bonus_used,
        chosen_path=best_index,
    )


def ar_decode(state: PrefixState, verifier: Verifier, length: int) -> tuple[int, ...]:
    """Plain greedy decoding: one verifier query per emitted token."""
    if length < 1:
        raise ValueError("length must be >= 1")
    tokens: list[int] = []
    st = state
    for _ in range(length):
        token = verifier.next(st)
        tokens.append(token)
        st = st.extend(token)
    return tuple(tokens)


def decode_episode(
    state: PrefixState,
    verifier: Verifier,
    draft: DraftModel,
    params: TreeParams,
    policy: AcceptancePolicy,
    length: int,
) -> tuple[tuple[int, ...], list[VerifyOutcome]]:
    """Run the draft/verify loop until ``length`` tokens are committed.

    Each step builds a draft tree, verifies it in one batched round, and
    appends the step's emitted tokens.  The token sequence is truncated to
    exactly ``length``; the outcome list keeps every full verification step.
    With a strict policy the output is token-identical to :func:`ar_decode`.
    Raises :class:`TreeStructureError` when the draft proposes a token
    outside the verifier's vocabulary.
    """
    if length < 1:
        raise ValueError("length must be >= 1")
    tokens: list[int] = []
    outcomes: list[VerifyOutcome] = []
    st = state
    vocab_size = verifier.vocab_size
    while len(tokens) < length:
        tree = build_tree(st, draft, params, vocab_size)
        verified = verifier.batch(st, tree)
        outcome = verify_tree(tree, verified, policy, st.position)
        outcomes.append(outcome)
        tokens.extend(outcome.emitted)
        st = st.extend_many(outcome.emitted)
    return tuple(tokens[:length]), outcomes
