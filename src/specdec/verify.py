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

from .action_space import CHUNK_SIZE
from .draft_tree import ROOT, DraftTree, TreeParams, build_tree
from .models import DraftModel, PrefixState, TreeStructureError, Verifier


@dataclass(frozen=True)
class AcceptancePolicy:
    """How draft tokens are admitted during verification: by thresholds alone.

    A draft token is admitted when its bin distance to the verifier argmax is
    at most its action dimension's threshold: ``per_dimension_r[d]`` when given
    (e.g. 0 to force exact gripper matches), else ``r``.  ``mode`` is
    ``"strict"`` (exact match) for ``r`` 0 with no overrides, else ``"relaxed"``.
    Thresholds must be integers (``operator.index``) and are stored as ``int``,
    ``per_dimension_r`` as a tuple, whatever sequence it came as.
    """

    r: int = 0
    per_dimension_r: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        # ``operator.index``: a fractional threshold raises instead of truncating.
        object.__setattr__(self, "r", operator.index(self.r))
        if self.per_dimension_r is not None:
            overrides = tuple(map(operator.index, self.per_dimension_r))
            object.__setattr__(self, "per_dimension_r", overrides)
        if self.r < 0:
            raise ValueError("threshold r must be >= 0")
        if self.per_dimension_r is not None:
            if len(self.per_dimension_r) != CHUNK_SIZE:
                raise ValueError(f"per_dimension_r must list {CHUNK_SIZE} thresholds")
            if any(t < 0 for t in self.per_dimension_r):
                raise ValueError("per-dimension thresholds must be >= 0")

    @property
    def mode(self) -> str:
        return "strict" if self.r == 0 and self.per_dimension_r is None else "relaxed"

    @classmethod
    def strict(cls) -> AcceptancePolicy:
        return cls()

    @classmethod
    def relaxed(cls, r: int, per_dimension_r: Sequence[int] | None = None) -> AcceptancePolicy:
        return cls(r, per_dimension_r)

    def effective_r(self, dimension: int) -> int:
        if self.per_dimension_r is not None:
            return self.per_dimension_r[dimension % CHUNK_SIZE]
        return self.r


@dataclass(frozen=True)
class VerifyOutcome:
    """Result of one verification step.

    ``emitted`` always holds ``accepted`` draft tokens plus exactly one
    verifier token: the bonus when ``bonus_used``, else the correction at
    the first rejection.  ``reference`` carries the verifier argmax for
    every emitted position, which bounds how far the emitted step drifted
    from the verifier's own choices.  Both hold ``int``s: each argmax is
    read by ``operator.index``, so any integer type is stored as ``int`` and
    anything else, a float included, raises ``TypeError``, as it does in
    :func:`ar_decode`.  ``position`` counts the tokens committed before the
    step, so ``emitted[i]`` sits at action dimension ``(position + i) % 7``.
    """

    accepted: int
    emitted: tuple[int, ...]
    reference: tuple[int, ...]
    bonus_used: bool
    chosen_path: int
    position: int


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
    ``start_position`` counts the tokens committed before the step; it
    picks each depth's threshold and is the outcome's ``position``.
    Ties on accepted length go to the path whose leaf comes first in node
    order.  A tree with no nodes degrades to one AR step: the empty path,
    fully accepted, followed by the verifier's bonus token.
    ``chosen_path`` is the chosen leaf's index among the leaves in node
    order, which indexes :func:`enumerate_paths`.  ``verified`` is read
    only at the root, each accepted node that has children and the chosen
    tip, each once, so it may be a lazy sequence such as the round of ints
    a verifier's ``batch`` returns.  The tree was checked when it was
    built, by ``build_tree`` or by its constructor; a ``verified`` of the
    wrong length raises :class:`TreeStructureError`.
    """
    nodes = tree.nodes
    if len(verified) != len(nodes) + 1:
        raise TreeStructureError(
            f"expected {len(nodes) + 1} verifier argmaxes, got {len(verified)}"
        )
    # Each depth's threshold for this step, resolved once; node depths run
    # from 1 to max_depth and never past the node count.
    depths = range(min(tree.params.max_depth, len(nodes)))
    r_at = [policy.effective_r(start_position + d) for d in depths]
    # The argmaxes read so far, as ``int``s: position j + 1 after node j, 0
    # (ROOT + 1) after the committed prefix, None while unread.
    argmax: list[int | None] = [None] * (len(nodes) + 1)

    # One parents-first pass: ``tip[i]`` is the deepest node of the accepted
    # prefix on node i's root path (ROOT when none is accepted).  A node
    # extends its parent's tip when that tip is the parent itself and the
    # node's bin lies within its depth's threshold of the argmax its parent
    # conditions.
    tip: list[int] = []
    has_child = [False] * len(nodes)
    for i, (token, parent, depth, _) in enumerate(nodes):
        if parent == ROOT:
            parent_tip = ROOT
        else:
            parent_tip = tip[parent]
            has_child[parent] = True
        if parent_tip == parent:
            target = argmax[parent + 1]
            if target is None:
                target = argmax[parent + 1] = operator.index(verified[parent + 1])
            if abs(token - target) <= r_at[depth - 1]:
                parent_tip = i
        tip.append(parent_tip)

    # Leaves in node order are the paths in enumeration order; the first
    # leaf with the deepest accepted prefix wins.
    leaves = [i for i, inner in enumerate(has_child) if not inner]
    best_index, best_leaf, best_tip, best_accepted = 0, ROOT, ROOT, 0
    for index, leaf in enumerate(leaves):
        accepted = 0 if tip[leaf] == ROOT else nodes[tip[leaf]].depth
        if index == 0 or accepted > best_accepted:
            best_index, best_leaf, best_tip, best_accepted = index, leaf, tip[leaf], accepted

    # Every node on the accepted prefix was tested against its parent's
    # argmax, so only the tip's own can still be unread.
    kept: list[int] = []
    refs: list[int] = []
    j = best_tip
    while j != ROOT:
        parent = nodes[j].parent
        kept.append(nodes[j].token)
        refs.append(argmax[parent + 1])
        j = parent
    next_token = argmax[best_tip + 1]
    if next_token is None:
        next_token = operator.index(verified[best_tip + 1])
    bonus_used = best_tip == best_leaf
    return VerifyOutcome(
        accepted=best_accepted,
        emitted=tuple(reversed(kept)) + (next_token,),
        reference=tuple(reversed(refs)) + (next_token,),
        bonus_used=bonus_used,
        chosen_path=best_index,
        position=start_position,
    )


def ar_decode(state: PrefixState, verifier: Verifier, length: int) -> tuple[int, ...]:
    """Plain greedy decoding: one verifier query per emitted token."""
    if (length := operator.index(length)) < 1:
        raise ValueError("length must be >= 1")
    st = state
    for _ in range(length):
        st = st.extend(verifier.next(st))
    return st.emitted[state.position:]


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
    commits the step's emitted tokens.  The tokens committed past ``state``
    are returned truncated to exactly ``length``; the outcome list keeps
    every full verification step.
    With a strict policy the output is token-identical to :func:`ar_decode`.
    Raises :class:`TreeStructureError` when the draft proposes a token
    outside the verifier's vocabulary.
    """
    # ``operator.index``: a fractional length raises before any decoding.
    if (length := operator.index(length)) < 1:
        raise ValueError("length must be >= 1")
    outcomes: list[VerifyOutcome] = []
    st = state
    end = state.position + length
    vocab_size = verifier.vocab_size
    while st.position < end:
        tree = build_tree(st, draft, params, vocab_size)
        verified = verifier.batch(st, tree)
        outcome = verify_tree(tree, verified, policy, st.position)
        outcomes.append(outcome)
        st = st.extend_many(outcome.emitted)
    return st.emitted[state.position:end], outcomes
