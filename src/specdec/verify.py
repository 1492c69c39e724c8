"""Strict and distance-relaxed verification of draft trees, plus the decode loop.

One verification step works on a draft tree and the verifier's argmax at
every tree position: each root-to-leaf path is scanned for its longest
accepted prefix, the best path wins, and the verifier contributes exactly
one extra token — the correction at the first rejection, or a bonus token
when a whole path survives.  With the relaxation threshold at zero this
reduces to classic lossless speculative decoding; with a positive threshold
a draft token is accepted whenever its bin lies within the threshold of the
verifier argmax for that position's action dimension.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .action_space import CHUNK_SIZE, bin_distance
from .draft_tree import DraftTree, TreeParams, TreeStructureError, build_tree, enumerate_paths
from .models import DraftModel, PrefixState, Verifier


@dataclass(frozen=True)
class AcceptancePolicy:
    """How draft tokens are admitted during verification.

    ``strict`` requires an exact token match; ``relaxed`` admits a draft
    token whose bin distance to the verifier argmax is at most ``r``.
    ``per_dimension_r`` optionally overrides the threshold for each of the
    7 action dimensions (e.g. to force exact matches on the gripper).
    """

    mode: str = "strict"
    r: int = 0
    per_dimension_r: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        if self.mode not in ("strict", "relaxed"):
            raise ValueError(f"unknown acceptance mode {self.mode!r}")
        if self.r < 0:
            raise ValueError("threshold r must be >= 0")
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
        overrides = tuple(int(t) for t in per_dimension_r) if per_dimension_r is not None else None
        return cls(mode="relaxed", r=int(r), per_dimension_r=overrides)

    def effective_r(self, dimension: int) -> int:
        if self.mode == "strict":
            return 0
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
    verifier token (correction or bonus).  ``reference`` carries the
    verifier argmax for every emitted position, which bounds how far the
    emitted step drifted from the verifier's own choices.
    """

    accepted: int
    emitted: tuple[int, ...]
    reference: tuple[int, ...]
    correction_used: bool
    bonus_used: bool
    chosen_path: int


def verify_path(
    path_tokens: Sequence[int],
    verified: Sequence[int],
    policy: AcceptancePolicy,
    start_position: int = 0,
) -> tuple[int, int]:
    """Scan one draft path left to right against per-position verifier argmaxes.

    ``verified[i]`` is the verifier argmax for path position ``i``;
    ``verified[len(path_tokens)]`` is the argmax after the full path.
    Returns ``(accepted_length, next_token)`` where ``next_token`` is the
    correction at the first rejected position, or the bonus token when the
    whole path is accepted.  ``start_position`` anchors the 7-dimension
    cycle for per-dimension thresholds.
    """
    if len(verified) < len(path_tokens) + 1:
        raise TreeStructureError(
            f"need {len(path_tokens) + 1} verifier argmaxes, got {len(verified)}"
        )
    for i, draft in enumerate(path_tokens):
        if not accept_token(draft, verified[i], policy, (start_position + i) % CHUNK_SIZE):
            return i, int(verified[i])
    return len(path_tokens), int(verified[len(path_tokens)])


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
    followed by the verifier's bonus token.
    """
    if len(verified) != len(tree.nodes) + 1:
        raise TreeStructureError(
            f"expected {len(tree.nodes) + 1} verifier argmaxes, got {len(verified)}"
        )
    paths = enumerate_paths(tree) or [[]]
    best_index = 0
    best_accepted = -1
    best_next = 0
    for idx, node_path in enumerate(paths):
        tokens = [tree.nodes[j].token for j in node_path]
        # Argmax at path position i conditions on everything before it:
        # the pre-root entry for i=0, then each node's own distribution.
        argmaxes = [verified[0]] + [verified[j + 1] for j in node_path]
        accepted, next_token = verify_path(tokens, argmaxes, policy, start_position)
        if accepted > best_accepted:
            best_index, best_accepted, best_next = idx, accepted, next_token
            if accepted == len(tokens) == tree.params.max_depth:
                break  # nothing can beat a fully accepted deepest path

    chosen = paths[best_index]
    kept = [tree.nodes[j].token for j in chosen[:best_accepted]]
    refs = [verified[0]] + [verified[j + 1] for j in chosen[:best_accepted]]
    bonus_used = best_accepted == len(chosen)
    return VerifyOutcome(
        accepted=best_accepted,
        emitted=tuple(kept) + (best_next,),
        reference=tuple(refs[: best_accepted]) + (best_next,),
        correction_used=not bonus_used,
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
        token = verifier.next(st).argmax
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
        tree = build_tree(st, draft, params)
        for i, node in enumerate(tree.nodes):
            if not 0 <= node.token < vocab_size:
                raise TreeStructureError(
                    f"node {i} token {node.token} outside vocabulary [0, {vocab_size})"
                )
        scores = verifier.batch(st, tree)
        verified = [scores.root.argmax] + [d.argmax for d in scores.nodes]
        outcome = verify_tree(tree, verified, policy, start_position=st.position)
        outcomes.append(outcome)
        tokens.extend(outcome.emitted)
        st = st.extend_many(outcome.emitted)
    return tuple(tokens[:length]), outcomes
