"""Strict/relaxed verification, tree selection, and the decoding loops."""

import math
from collections import Counter
from collections.abc import Sequence

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specdec import models
from specdec.action_space import bin_distance, detokenize
from specdec.draft_tree import (
    ROOT,
    DraftNode,
    DraftTree,
    TreeParams,
    TreeStructureError,
    build_tree,
    enumerate_paths,
)
from specdec.models import HashVerifier, NoisyDraft, PrefixState
from specdec.verify import (
    AcceptancePolicy,
    ar_decode,
    decode_episode,
    verify_tree,
)

from helpers import (
    PreviousFrameDraft,
    ScriptedDraft,
    ScriptedVerifier,
    SmoothVerifier,
    WithBound,
    accept_token,
    chain_expected_accepted,
    chain_q,
    models_for,
    random_tree,
    rebuilt,
    reference_verify_path,
)


class EmptyDraft:
    """Draft model that never proposes anything."""

    def propose_many(self, states, k):
        return [[] for _ in states]


class AdversarialDraft:
    """Draft model built from a table of proposal lists, bad ones included.

    Each prefix gets the table row its tokens hash to.  A proposal is
    ``(kind, value, log_score, malformed)``: ``("near", d)`` proposes the
    verifier's argmax plus ``d`` (so some drafts are accepted, and edge bins
    step out of the vocabulary), ``("at", t)`` proposes bin ``t`` outright,
    and a ``malformed`` key of ``MALFORMED`` reshapes the pair.  Lists are
    made lazily, each recorded as it is read.
    """

    def __init__(self, verifier, table):
        self.verifier, self.table, self.returned = verifier, table, []

    def propose_many(self, states, k):
        for state in states:
            row = self.table[hash(state.emitted) % len(self.table)][:k]
            target = self.verifier.next(state)
            props = [
                MALFORMED.get(bad, lambda *pair: pair)(target + v if kind == "near" else v, s)
                for kind, v, s, bad in row
            ]
            self.returned.append(props)
            yield props


class ArgmaxAs:
    """Hands out ``inner``'s argmaxes, each converted by ``kind``."""

    def __init__(self, inner, kind):
        self.inner, self.vocab_size, self.kind = inner, inner.vocab_size, kind

    def next(self, state):
        return self.kind(self.inner.next(state))

    def batch(self, state, tree):
        return [self.kind(t) for t in self.inner.batch(state, tree)]


class RecordingVerifier:
    """Passes calls through, counts ``next`` calls and records every tree
    the engine verifies."""

    def __init__(self, inner):
        self.inner, self.vocab_size, self.trees, self.nexts = inner, inner.vocab_size, [], 0

    def next(self, state):
        self.nexts += 1
        return self.inner.next(state)

    def batch(self, state, tree):
        self.trees.append(tree)
        return self.inner.batch(state, tree)


# Mostly well-formed proposals, so that many decodes get past build_tree;
# the rest carry bad scores (1 in 10), sibling duplicates, out-of-vocabulary
# bins or malformed shapes and types (1 in 10).
BAD_SCORES = [0.5, float("nan"), float("inf"), float("-inf"), "x"]
MALFORMED = {
    "half": lambda token, score: (token + 0.5, score),
    "str": lambda token, score: (str(token), score),
    "bare": lambda token, score: token,
    "triple": lambda token, score: (token, score, 0),
}
ADVERSARIAL_PROPOSAL = st.tuples(
    st.sampled_from(["near", "at"]),
    st.integers(-2, 2),
    st.integers(-1, 270),
    st.sampled_from(range(10 * len(BAD_SCORES))),
    st.sampled_from([0.0, -0.5, -1.0]) | st.floats(-3.0, 0.0),
    st.sampled_from([None] * 9 * len(MALFORMED) + list(MALFORMED)),
).map(
    lambda p: (
        p[0],
        p[1] if p[0] == "near" else p[2],
        BAD_SCORES[p[3]] if p[3] < len(BAD_SCORES) else p[4],
        p[5],
    )
)


def well_formed(proposal):
    """A proposal ``build_tree`` may rank: an ``(int, float)`` pair, whatever its values."""
    return (
        isinstance(proposal, tuple) and len(proposal) == 2
        and isinstance(proposal[0], int) and isinstance(proposal[1], float)
    )


def accepts(draft, verified, policy, dimension) -> bool:
    """Whether ``verify_tree`` accepts a one-node tree holding ``draft`` at
    ``dimension``, after checking that the ``accept_token`` oracle agrees."""
    tree = DraftTree(nodes=(DraftNode(draft, ROOT, 1, -0.1),), params=TreeParams(1, 1, 1))
    accepted = verify_tree(tree, [verified, verified], policy, dimension).accepted == 1
    assert accepted == accept_token(draft, verified, policy, dimension)
    return accepted


class TestAcceptToken:
    def test_within_threshold_accepts(self):
        # Distance 9 at threshold 9: the closed bound accepts.
        assert accepts(128, 137, AcceptancePolicy.relaxed(9), dimension=0)

    def test_beyond_threshold_rejects(self):
        # Distance 11 at threshold 5.
        assert not accepts(109, 98, AcceptancePolicy.relaxed(5), dimension=0)

    def test_exact_match_accepts_under_any_policy(self):
        for policy in (
            AcceptancePolicy.strict(),
            AcceptancePolicy.relaxed(0),
            AcceptancePolicy.relaxed(9),
            AcceptancePolicy.relaxed(3, per_dimension_r=[0, 0, 0, 0, 0, 0, 0]),
        ):
            for token in (0, 137, 255):
                for dim in range(7):
                    assert accepts(token, token, policy, dim)

    def test_strict_requires_equality(self):
        assert not accepts(128, 129, AcceptancePolicy.strict(), dimension=0)

    def test_per_dimension_override(self):
        policy = AcceptancePolicy.relaxed(9, per_dimension_r=[9, 9, 9, 9, 9, 9, 0])
        assert accepts(100, 105, policy, dimension=0)
        assert not accepts(100, 105, policy, dimension=6)
        assert policy.effective_r(6) == 0
        assert policy.effective_r(13) == 0  # dimension index wraps mod 7
        assert not accepts(100, 105, policy, dimension=13)

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            AcceptancePolicy(mode="fuzzy")
        with pytest.raises(ValueError):
            AcceptancePolicy.relaxed(-1)
        with pytest.raises(ValueError):
            AcceptancePolicy.relaxed(3, per_dimension_r=[1, 2, 3])
        # A strict policy matches exactly, so a threshold would only mislabel it.
        with pytest.raises(ValueError):
            AcceptancePolicy(mode="strict", r=5)
        with pytest.raises(ValueError):
            AcceptancePolicy(mode="strict", per_dimension_r=(0,) * 7)

    def test_relaxed_thresholds_must_be_integers(self):
        # Truncating 2.7 to 2 would silently tighten the threshold.
        with pytest.raises(TypeError):
            AcceptancePolicy.relaxed(2.7)
        with pytest.raises(TypeError):
            AcceptancePolicy.relaxed(3, per_dimension_r=[1, 2, 3, 4, 5, 6, 6.5])
        policy = AcceptancePolicy.relaxed(np.int64(3), per_dimension_r=np.arange(7))
        assert policy.r == 3 and policy.per_dimension_r == (0, 1, 2, 3, 4, 5, 6)
        assert type(policy.r) is int and all(type(t) is int for t in policy.per_dimension_r)

    def test_policy_thresholds_are_integers_however_built(self):
        # The check lives in ``__post_init__``, so direct construction gets it too.
        with pytest.raises(TypeError):
            AcceptancePolicy(mode="relaxed", r=2.7)
        with pytest.raises(TypeError):
            AcceptancePolicy(mode="relaxed", per_dimension_r=(1, 2, 3, 4, 5, 6, 6.5))
        policy = AcceptancePolicy(mode="relaxed", r=np.int64(4), per_dimension_r=np.arange(7))
        assert policy.r == 4 and policy.per_dimension_r == (0, 1, 2, 3, 4, 5, 6)
        assert type(policy.r) is int and all(type(t) is int for t in policy.per_dimension_r)
        assert policy == AcceptancePolicy.relaxed(4, per_dimension_r=range(7))


def chain_tree(tokens) -> DraftTree:
    """A single root-to-leaf path: node ``i`` holds ``tokens[i]``."""
    nodes = tuple(
        DraftNode(token=t, parent=ROOT if i == 0 else i - 1, depth=i + 1, cum_score=-0.1 * (i + 1))
        for i, t in enumerate(tokens)
    )
    size = len(nodes)
    return DraftTree(nodes=nodes, params=TreeParams(top_k=1, max_depth=size, max_nodes=size))


class TestVerifyPath:
    """A chain tree through ``verify_tree`` is a scan of one draft path."""

    def test_relaxed_trace_example(self):
        outcome = verify_tree(
            chain_tree([128, 128, 109]), [137, 128, 109, 98], AcceptancePolicy.relaxed(9)
        )
        assert outcome.accepted == 3
        assert outcome.emitted == (128, 128, 109, 98)
        assert outcome.bonus_used  # the whole path was accepted

    def test_strict_trace_example(self):
        outcome = verify_tree(
            chain_tree([128, 128, 109]), [137, 128, 109, 98], AcceptancePolicy.strict()
        )
        assert outcome.accepted == 0
        assert outcome.emitted == (137,)
        assert not outcome.bonus_used  # correction at the first mismatch

    def test_fuzz_matches_reference_scan(self):
        """10k fuzzed (path, verifier, policy) triples vs an independent loop."""
        rng = np.random.default_rng(11)
        for _ in range(10_000):
            length = int(rng.integers(1, 7))
            path = [int(t) for t in rng.integers(0, 256, size=length)]
            verified = [int(t) for t in rng.integers(0, 256, size=length + 1)]
            start = int(rng.integers(0, 14))
            if rng.random() < 0.2:
                policy = AcceptancePolicy.strict()
                r_for_dim = lambda dim: 0
            elif rng.random() < 0.5:
                r = int(rng.integers(0, 16))
                policy = AcceptancePolicy.relaxed(r)
                r_for_dim = lambda dim, r=r: r
            else:
                overrides = [int(t) for t in rng.integers(0, 16, size=7)]
                policy = AcceptancePolicy.relaxed(5, per_dimension_r=overrides)
                r_for_dim = lambda dim, o=overrides: o[dim]
            outcome = verify_tree(chain_tree(path), verified, policy, start)
            assert (outcome.accepted, outcome.emitted[-1]) == reference_verify_path(
                path, verified, r_for_dim, start
            )


def constant_params(tree: DraftTree) -> TreeParams:
    return tree.params


class TestVerifyTree:
    def test_single_path_tree_equals_verify_path(self):
        verified = [40, 40, 60, 3]  # distance 17 rejects the third token
        outcome = verify_tree(chain_tree([40, 40, 77]), verified, AcceptancePolicy.relaxed(7))
        accepted, token = reference_verify_path([40, 40, 77], verified, lambda dim: 7, 0)
        assert outcome.accepted == accepted == 2
        assert outcome.emitted == (40, 40, 60)
        assert outcome.emitted[-1] == token
        assert not outcome.bonus_used

    def test_longest_accepted_path_wins(self):
        # Path A: tokens [10, 11] accepts 1; path B: [20, 21, 22] accepts 3.
        nodes = (
            DraftNode(token=10, parent=ROOT, depth=1, cum_score=-0.1),
            DraftNode(token=20, parent=ROOT, depth=1, cum_score=-0.2),
            DraftNode(token=11, parent=0, depth=2, cum_score=-0.3),
            DraftNode(token=21, parent=1, depth=2, cum_score=-0.4),
            DraftNode(token=22, parent=3, depth=3, cum_score=-0.5),
        )
        tree = DraftTree(nodes=nodes, params=TreeParams(top_k=2, max_depth=3, max_nodes=10))
        # Pre-root argmax 15 admits both roots at r=5; A then rejects at 99.
        #          pre-root, n0, n1,  n2, n3, n4
        verified = [15, 99, 21, 98, 22, 55]
        policy = AcceptancePolicy.relaxed(5)
        paths = [[0, 2], [1, 3, 4]]
        lengths = []
        for node_path in paths:
            tokens = [tree.nodes[j].token for j in node_path]
            argmaxes = [verified[0]] + [verified[j + 1] for j in node_path]
            lengths.append(reference_verify_path(tokens, argmaxes, lambda dim: 5, 0)[0])
        assert lengths == [1, 3]

        outcome = verify_tree(tree, verified, policy)
        assert outcome.accepted == 3
        assert outcome.emitted == (20, 21, 22, 55)
        assert outcome.bonus_used

    def test_size_mismatch_is_structural_error(self):
        tree = DraftTree(
            nodes=(DraftNode(token=1, parent=ROOT, depth=1, cum_score=-0.1),),
            params=TreeParams(top_k=1, max_depth=1, max_nodes=1),
        )
        with pytest.raises(TreeStructureError):
            verify_tree(tree, [1], AcceptancePolicy.strict())

    def test_hand_built_tree_is_validated(self):
        # The tree checks itself when constructed, before any verification.
        with pytest.raises(TreeStructureError, match="not an integer >= 0"):
            DraftTree(
                nodes=(DraftNode(token=-3, parent=ROOT, depth=1, cum_score=-0.1),),
                params=TreeParams(top_k=1, max_depth=1, max_nodes=1),
            )

    def test_numpy_node_tokens_are_compared_and_emitted_as_ints(self):
        tree = DraftTree(
            nodes=(DraftNode(token=np.uint8(3), parent=ROOT, depth=1, cum_score=-0.1),),
            params=TreeParams(top_k=1, max_depth=1, max_nodes=1),
        )
        # In uint8 arithmetic 3 - 250 wraps to 9, inside r = 9.
        rejected = verify_tree(tree, [250, 7], AcceptancePolicy.relaxed(9))
        assert (rejected.accepted, rejected.emitted, rejected.reference) == (0, (250,), (250,))
        accepted = verify_tree(tree, [np.int64(5), np.int64(7)], AcceptancePolicy.relaxed(9))
        assert (accepted.emitted, accepted.reference) == ((3, 7), (5, 7))
        assert all(type(t) is int for t in accepted.emitted + accepted.reference)

    def test_fuzz_matches_enumeration_oracle(self):
        """Chosen path equals exhaustive enumerate+verify per path."""
        rng = np.random.default_rng(12)
        for _ in range(300):
            tree = random_tree(rng, max_nodes=50)
            verified = [int(t) for t in rng.integers(0, 256, size=len(tree.nodes) + 1)]
            r = int(rng.integers(0, 12))
            policy = AcceptancePolicy.relaxed(r) if r else AcceptancePolicy.strict()
            start = int(rng.integers(0, 7))
            outcome = verify_tree(tree, verified, policy, start)

            best = None
            for idx, node_path in enumerate(enumerate_paths(tree)):
                tokens = [tree.nodes[j].token for j in node_path]
                argmaxes = [verified[0]] + [verified[j + 1] for j in node_path]
                accepted, nxt = reference_verify_path(tokens, argmaxes, lambda dim: r, start)
                if best is None or accepted > best[0]:
                    best = (accepted, idx, tokens[:accepted] + [nxt])
            assert outcome.accepted == best[0]
            assert outcome.chosen_path == best[1]
            assert list(outcome.emitted) == best[2]

    def test_reads_each_position_acceptance_needs_once(self):
        """Only the root, each accepted node with children and the chosen tip are read."""

        class Counted(Sequence):
            def __init__(self, values):
                self.values, self.reads = values, Counter()

            def __len__(self):
                return len(self.values)

            def __getitem__(self, position):
                self.reads[position] += 1
                return self.values[position]

        rng = np.random.default_rng(15)
        for _ in range(300):
            tree = random_tree(rng, max_nodes=50, vocab_size=24, top_k=3)
            values = [int(t) for t in rng.integers(0, 24, size=len(tree.nodes) + 1)]
            r = int(rng.integers(0, 8))
            policy = AcceptancePolicy.relaxed(r) if r else AcceptancePolicy.strict()
            start = int(rng.integers(0, 7))
            verified = Counted(values)
            outcome = verify_tree(tree, verified, policy, start)

            accepted, has_child = [], set()
            for node in tree.nodes:
                above = node.parent == ROOT or accepted[node.parent]
                dim = (start + node.depth - 1) % 7
                passes = accept_token(node.token, values[node.parent + 1], policy, dim)
                accepted.append(above and passes)
                has_child.add(node.parent)
            path = enumerate_paths(tree)[outcome.chosen_path] if tree.nodes else []
            tip = path[outcome.accepted - 1] if outcome.accepted else ROOT
            expected = {0, tip + 1}
            expected.update(j + 1 for j in has_child if j != ROOT and accepted[j])
            assert set(verified.reads) == expected
            assert set(verified.reads.values()) == {1}

    def test_emitted_length_bounds(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            tree = random_tree(rng, max_nodes=30)
            verified = [int(t) for t in rng.integers(0, 256, size=len(tree.nodes) + 1)]
            outcome = verify_tree(tree, verified, AcceptancePolicy.relaxed(6))
            assert 1 <= len(outcome.emitted) <= tree.params.max_depth + 1
            assert len(outcome.emitted) == outcome.accepted + 1
            # The verifier token is a bonus exactly when the whole path passed.
            leaf_depth = len(enumerate_paths(tree)[outcome.chosen_path])
            assert outcome.bonus_used == (outcome.accepted == leaf_depth)

    def test_accepted_length_monotone_in_r(self):
        rng = np.random.default_rng(14)
        for _ in range(300):
            tree = random_tree(rng, max_nodes=40)
            verified = [int(t) for t in rng.integers(0, 256, size=len(tree.nodes) + 1)]
            start = int(rng.integers(0, 7))
            lengths = [
                verify_tree(tree, verified, AcceptancePolicy.relaxed(r), start).accepted
                for r in (0, 1, 3, 5, 9, 15)
            ]
            assert lengths == sorted(lengths)

    def test_strict_equals_relaxed_zero(self):
        rng = np.random.default_rng(15)
        for _ in range(100):
            tree = random_tree(rng, max_nodes=25)
            verified = [int(t) for t in rng.integers(0, 256, size=len(tree.nodes) + 1)]
            a = verify_tree(tree, verified, AcceptancePolicy.strict())
            b = verify_tree(tree, verified, AcceptancePolicy.relaxed(0))
            assert a == b

    def test_accepted_tokens_respect_drift_bound(self):
        rng = np.random.default_rng(16)
        for _ in range(200):
            tree = random_tree(rng, max_nodes=30)
            verified = [int(t) for t in rng.integers(0, 256, size=len(tree.nodes) + 1)]
            r = int(rng.integers(0, 10))
            policy = AcceptancePolicy.relaxed(r)
            outcome = verify_tree(tree, verified, policy)
            for token, ref in zip(outcome.emitted, outcome.reference):
                assert bin_distance(token, ref) <= r


class TestArDecode:
    def test_single_token(self):
        verifier = HashVerifier(seed=31)
        state = PrefixState()
        assert ar_decode(state, verifier, 1) == (verifier.next(state),)

    def test_deterministic(self):
        verifier = HashVerifier(seed=32)
        state = PrefixState(prompt_id="x")
        assert ar_decode(state, verifier, 20) == ar_decode(state, verifier, 20)

    def test_decodes_a_valid_action_chunk(self):
        verifier = HashVerifier(seed=33)
        tokens = ar_decode(PrefixState(), verifier, 7)
        values = detokenize(tokens)
        assert len(values) == 7
        assert all(map(math.isfinite, values))

    def test_rejects_zero_length(self):
        """A zero or fractional length fails before any model is called."""
        strict = AcceptancePolicy.strict()
        for length, error in ((0, ValueError), (70.5, TypeError)):
            # ``None`` models: reaching either one would raise AttributeError.
            with pytest.raises(error):
                ar_decode(PrefixState(), None, length)
            with pytest.raises(error):
                decode_episode(PrefixState(), None, None, TreeParams(), strict, length)


class TestDecodeEpisode:
    def test_strict_equals_ar(self):
        # A start state that already holds tokens pins that only the tokens
        # committed past it are returned, exactly ``length`` of them.
        for seed in range(20):
            verifier, draft = models_for(seed, agreement_p=0.6, noise_sigma=4.0)
            params = TreeParams(top_k=4, max_depth=3, max_nodes=20)
            for emitted in ((), (5, 6, 7)):
                state = PrefixState(prompt_id=f"s{seed}", emitted=emitted)
                tokens, _ = decode_episode(
                    state, verifier, draft, params, AcceptancePolicy.strict(), 21
                )
                assert len(tokens) == 21 and tokens == ar_decode(state, verifier, 21)

    def test_engine_trees_are_checked_once(self, monkeypatch):
        # build_tree checks each proposal as it reads it, so its trees skip
        # ``validate``, the tree check that the constructor runs; a
        # hand-built tree still runs it.
        calls = []
        check = DraftTree.validate
        monkeypatch.setattr(DraftTree, "validate", lambda tree: calls.append(tree) or check(tree))
        verifier, draft = models_for(5)
        _, outcomes = decode_episode(
            PrefixState(), verifier, draft, TreeParams(), AcceptancePolicy.relaxed(9), 30
        )
        assert outcomes and calls == []
        DraftTree(nodes=(), params=TreeParams())
        assert len(calls) == 1

    def test_perfect_draft_emits_depth_plus_one_each_step(self):
        for depth in (1, 2, 4):
            verifier, draft = models_for(41, agreement_p=1.0, noise_sigma=1.0)
            params = TreeParams(top_k=1, max_depth=depth, max_nodes=50)
            _, outcomes = decode_episode(
                PrefixState(), verifier, draft, params, AcceptancePolicy.strict(), 7 * (depth + 1)
            )
            assert all(len(o.emitted) == depth + 1 for o in outcomes)
            assert all(o.bonus_used for o in outcomes)

    def test_lazy_rounds_decode_like_eager_ones(self):
        class Eager:
            """Draws every node of a round before acceptance reads any."""

            def __init__(self, inner):
                self.inner, self.vocab_size = inner, inner.vocab_size

            def batch(self, state, tree):
                return list(self.inner.batch(state, tree))

        policies = (
            AcceptancePolicy.strict(),
            AcceptancePolicy.relaxed(4),
            AcceptancePolicy.relaxed(9, per_dimension_r=(9, 0, 3, 9, 1, 6, 0)),
        )
        shapes = (
            TreeParams(),
            TreeParams(top_k=1, max_depth=4, max_nodes=4),
            TreeParams(top_k=3, max_depth=5, max_nodes=25),
        )
        for seed in range(3):
            state = PrefixState(prompt_id=f"lazy{seed}")
            for params in shapes:
                for policy in policies:
                    lazy, draft = models_for(seed)
                    eager, eager_draft = models_for(seed)
                    assert decode_episode(state, lazy, draft, params, policy, 30) == (
                        decode_episode(state, Eager(eager), eager_draft, params, policy, 30)
                    )

    def test_truncates_to_exact_length(self):
        verifier, draft = models_for(42, agreement_p=1.0)
        params = TreeParams(top_k=1, max_depth=4, max_nodes=50)
        tokens, outcomes = decode_episode(
            PrefixState(), verifier, draft, params, AcceptancePolicy.strict(), 13
        )
        assert len(tokens) == 13
        assert sum(len(o.emitted) for o in outcomes) >= 13

    def test_mean_emitted_matches_chain_expectation(self):
        """Chain drafting honors the brute-force truncated-geometric mean."""
        p, sigma, depth = 0.5, 6.0, 4
        verifier, draft = models_for(43, agreement_p=p, noise_sigma=sigma)
        params = TreeParams(top_k=1, max_depth=depth, max_nodes=depth)
        total_steps = 0
        total_accepted = 0
        for episode in range(60):
            _, outcomes = decode_episode(
                PrefixState(prompt_id=f"exp{episode}"),
                verifier,
                draft,
                params,
                AcceptancePolicy.relaxed(9),
                70,
            )
            total_steps += len(outcomes)
            total_accepted += sum(o.accepted for o in outcomes)
        expected = chain_expected_accepted(chain_q(p, sigma, 256, 9), depth)
        assert total_accepted / total_steps == pytest.approx(expected, rel=0.05)

    @pytest.mark.parametrize("token", [256, 300, -1])
    def test_out_of_vocab_draft_token_is_structural_error(self, token):
        # Bin 250 is within r=100 of 300, so relaxed acceptance alone would
        # commit the out-of-vocabulary token.
        verifier = ScriptedVerifier([250], vocab_size=256)
        draft = ScriptedDraft([token], vocab_size=512)
        params = TreeParams(top_k=1, max_depth=2, max_nodes=2)
        with pytest.raises(TreeStructureError):
            decode_episode(PrefixState(), verifier, draft, params, AcceptancePolicy.relaxed(100), 7)

    @pytest.mark.parametrize("token", [-1, 70_000])
    def test_out_of_vocab_proposal_rejected_before_it_is_expanded(self, token):
        class ScoringDraft:
            """Scores every state it gets with the verifier, then proposes ``token``."""

            def propose_many(self, states, k):
                return [[(verifier.next(s), -0.1), (token, -0.2)] for s in states]

        verifier = HashVerifier(seed=47)
        params = TreeParams(top_k=2, max_depth=3, max_nodes=6)
        with pytest.raises(TreeStructureError, match="outside vocabulary"):
            decode_episode(
                PrefixState(), verifier, ScoringDraft(), params, AcceptancePolicy.strict(), 7
            )

    def test_verifier_evaluations_at_the_default_tree(self, monkeypatch):
        mixes = []
        mix = models._mix
        monkeypatch.setattr(models, "_mix", lambda x: mixes.append(x) or mix(x))

        def evals(hide_bound):
            # The draft scores its states through the same counting verifier.
            verifier = RecordingVerifier(HashVerifier(seed=0))
            draft = NoisyDraft(verifier, agreement_p=0.5, noise_sigma=6.0)
            _, outcomes = decode_episode(
                PrefixState(prompt_id="evals"), verifier,
                WithBound(draft) if hide_bound else draft, TreeParams(),
                AcceptancePolicy.strict(), 70,
            )
            return len(outcomes), verifier.nexts + sum(1 + len(t.nodes) for t in verifier.trees)

        # Pinned.  Drafting the frontier nodes the budget cuts would take
        # 4,414; stopping at the first node pushed out of the ranking takes
        # 3,406, and also stopping at the first whose best child, under the
        # draft's declared log-score bound, cannot enter it takes 2,565.
        assert evals(hide_bound=True) == (34, 3406)
        mixes.clear()
        assert evals(hide_bound=False) == (34, 2565)
        # Pinned too: the key mixes of that decode, draws included.  Keying
        # every tree position at the round and refolding each draft state's
        # whole path took 5,454.
        assert len(mixes) == 2981

    def test_empty_draft_degrades_to_ar_steps(self):
        verifier = HashVerifier(seed=46)
        state = PrefixState(prompt_id="empty")
        params = TreeParams(top_k=4, max_depth=3, max_nodes=20)
        tokens, outcomes = decode_episode(
            state, verifier, EmptyDraft(), params, AcceptancePolicy.strict(), 21
        )
        assert tokens == ar_decode(state, verifier, 21)
        assert len(outcomes) == 21
        for outcome in outcomes:
            assert outcome.accepted == 0 and outcome.chosen_path == 0
            assert outcome.emitted == outcome.reference and len(outcome.emitted) == 1
            assert outcome.bonus_used

    @pytest.mark.parametrize("fraction", [0.0, 0.7])
    def test_a_float_argmax_raises_as_in_ar_decode(self, fraction):
        # ``int()`` would truncate 37.7 to 37 and decode on; ``ar_decode``
        # raises, so strict decoding could not equal it.
        inner, draft = models_for(47)
        verifier = ArgmaxAs(inner, lambda t: t + fraction)
        with pytest.raises(TypeError):
            ar_decode(PrefixState(), verifier, 14)
        for policy in (AcceptancePolicy.strict(), AcceptancePolicy.relaxed(9)):
            with pytest.raises(TypeError):
                decode_episode(PrefixState(), verifier, draft, TreeParams(), policy, 14)

    def test_numpy_integer_argmaxes_are_emitted_as_ints(self):
        inner, draft = models_for(48)
        verifier = ArgmaxAs(inner, np.int64)
        tokens, outcomes = decode_episode(
            PrefixState(), verifier, draft, TreeParams(), AcceptancePolicy.strict(), 21
        )
        assert tokens == ar_decode(PrefixState(), inner, 21)
        assert all(type(t) is int for o in outcomes for t in o.emitted + o.reference)

    def test_relaxed_soundness_on_policy(self):
        verifier, draft = models_for(44, agreement_p=0.4, noise_sigma=5.0)
        params = TreeParams(top_k=4, max_depth=4, max_nodes=30)
        policy = AcceptancePolicy.relaxed(7)
        _, outcomes = decode_episode(PrefixState(), verifier, draft, params, policy, 70)
        for outcome in outcomes:
            for token, ref in zip(outcome.emitted, outcome.reference):
                assert bin_distance(token, ref) <= 7
            assert outcome.emitted[-1] == outcome.reference[-1]


class TestDraftThatNeverCallsTheVerifier:
    """The correctness invariants for the smooth pair in ``helpers``, whose
    draft proposes the previous frame's tokens and never calls a verifier."""

    def test_invariants_and_tokens_per_pass(self):
        verifier, draft = RecordingVerifier(SmoothVerifier(seed=0)), PreviousFrameDraft()
        params, length, episodes = TreeParams(), 70, 30
        tokens_per_pass = {}
        for r in (0, 1, 3, 9):
            policy = AcceptancePolicy.relaxed(r) if r else AcceptancePolicy.strict()
            steps = emitted = 0
            for episode in range(episodes):
                state = PrefixState(prompt_id=f"ep{episode:06d}", observation_id=f"obs{episode:06d}")
                tokens, outcomes = decode_episode(state, verifier, draft, params, policy, length)
                if r == 0:
                    assert tokens == ar_decode(state, verifier.inner, length)
                reference = [t for o in outcomes for t in o.reference][:length]
                assert all(
                    0 <= t < verifier.vocab_size and bin_distance(t, ref) <= r
                    for t, ref in zip(tokens, reference, strict=True)
                )
                steps += len(outcomes)
                emitted += sum(len(o.emitted) for o in outcomes)
            tokens_per_pass[r] = round(emitted / steps, 4)
        for tree in verifier.trees:
            assert len(tree.nodes) <= params.max_nodes
            assert all(node.depth <= params.max_depth for node in tree.nodes)
        # The first frame's seven steps per episode are the only empty trees.
        assert sum(not tree.nodes for tree in verifier.trees) == 4 * episodes * 7
        # Each step's whole ``emitted``, as ``PolicyReport.tokens_per_pass``
        # counts it.  Every step after the first frame accepts a full path at
        # r = 3, so r = 9 gains nothing more.
        assert tokens_per_pass == {0: 2.3055, 1: 3.3437, 3: 3.6, 9: 3.6}


class TestAdversarialDrafts:
    @settings(max_examples=200, deadline=None)
    @given(
        table=st.lists(st.lists(ADVERSARIAL_PROPOSAL, max_size=5), min_size=1, max_size=6),
        top_k=st.integers(1, 4),
        max_depth=st.integers(1, 3),
        max_nodes=st.integers(1, 12),
        r=st.integers(0, 40),
    )
    def test_decode_fails_typed_or_keeps_every_invariant(self, table, top_k, max_depth,
                                                          max_nodes, r):
        params = TreeParams(top_k=top_k, max_depth=max_depth, max_nodes=max_nodes)
        state = PrefixState(prompt_id="adv")
        length = 15
        for policy in (AcceptancePolicy.strict(), AcceptancePolicy.relaxed(r)):
            verifier = RecordingVerifier(HashVerifier(seed=61))
            draft = AdversarialDraft(verifier.inner, table)
            try:
                tokens, outcomes = decode_episode(state, verifier, draft, params, policy, length)
            except TreeStructureError:
                # Only a bad proposal may fail a decode.
                assert any(
                    not all(well_formed(proposal) for proposal in props)
                    or len({t for t, _ in props}) < len(props)
                    or any(
                        not -math.inf < score <= 0.0 or not 0 <= token < verifier.vocab_size
                        for token, score in props
                    )
                    for props in draft.returned
                )
                continue
            # build_tree checks every proposal's shape and types, and every
            # score, token and sibling it reads.
            for props in draft.returned:
                assert all(well_formed(proposal) for proposal in props)
                assert len({t for t, _ in props}) == len(props)
                assert all(0 <= token < verifier.vocab_size for token, _ in props)
                assert all(-math.inf < score <= 0.0 for _, score in props)
            for tree in verifier.trees:
                assert len(rebuilt(tree).nodes) <= max_nodes
                assert all(node.depth <= max_depth for node in tree.nodes)
            if policy.mode == "strict":
                assert tokens == ar_decode(state, verifier.inner, length)
            for outcome in outcomes:
                for token, ref in zip(outcome.emitted, outcome.reference):
                    assert 0 <= token < verifier.vocab_size
                    assert bin_distance(token, ref) <= policy.r

    @pytest.mark.parametrize(
        "verifier",
        [ScriptedVerifier(range(10, 200, 10), vocab_size=256), HashVerifier(seed=62)],
        ids=["scripted", "hash"],
    )
    def test_half_bin_draft_is_structural_error(self, verifier):
        class HalfBinDraft:
            """Proposes the verifier's argmax plus half a bin, which truncates to it."""

            def propose_many(self, states, k):
                return [[(verifier.next(s) + 0.5, -0.1)] for s in states]

        # Unchecked, strict decoding emits (10.5, 20.5, ...) under the scripted verifier.
        params = TreeParams(top_k=1, max_depth=3, max_nodes=3)
        with pytest.raises(TreeStructureError, match="is not an"):
            decode_episode(
                PrefixState(), verifier, HalfBinDraft(), params, AcceptancePolicy.strict(), 10
            )


class TestNoisyDraftAcceptanceShapes:
    def test_perfect_agreement_strict_equals_relaxed(self):
        verifier, draft = models_for(51, agreement_p=1.0, noise_sigma=3.0)
        params = TreeParams(top_k=2, max_depth=3, max_nodes=15)
        state = PrefixState(prompt_id="ideal")
        for r in (0, 3, 9):
            policy = AcceptancePolicy.relaxed(r) if r else AcceptancePolicy.strict()
            _, outcomes = decode_episode(state, verifier, draft, params, policy, 35)
            assert all(o.accepted == 3 for o in outcomes)

    def test_unit_displacement_rejected_strictly_accepted_relaxed(self):
        """agreement 0, sigma -> 0: drafts sit exactly 1 bin off the argmax."""
        verifier = HashVerifier(seed=52)
        draft = NoisyDraft(verifier, agreement_p=0.0, noise_sigma=1e-6)
        params = TreeParams(top_k=1, max_depth=3, max_nodes=3)

        _, strict_outcomes = decode_episode(
            PrefixState(prompt_id="floor"), verifier, draft, params,
            AcceptancePolicy.strict(), 70,
        )
        for outcome in strict_outcomes:
            # Clamping at bins 0/255 can fold the +-1 displacement back onto
            # the argmax; any strict acceptance must be that boundary case.
            if outcome.accepted:
                assert all(ref in (0, 255) for ref in outcome.reference[: outcome.accepted])
        accepted_rate = sum(o.accepted for o in strict_outcomes) / len(strict_outcomes)
        assert accepted_rate < 0.05

        _, relaxed_outcomes = decode_episode(
            PrefixState(prompt_id="floor"), verifier, draft, params,
            AcceptancePolicy.relaxed(1), 70,
        )
        assert all(o.accepted == 3 for o in relaxed_outcomes)

    def test_relaxation_gain_exceeds_quarter(self):
        """p=0.5, sigma=6: r=9 lifts the mean acceptance length >= 25%."""
        p, sigma, depth = 0.5, 6.0, 4
        expected_strict = chain_expected_accepted(chain_q(p, sigma, 256, 0), depth)
        expected_relaxed = chain_expected_accepted(chain_q(p, sigma, 256, 9), depth)
        assert expected_relaxed >= 1.25 * expected_strict  # oracle agrees first

        verifier, draft = models_for(53, agreement_p=p, noise_sigma=sigma)
        params = TreeParams(top_k=1, max_depth=depth, max_nodes=depth)
        means = {}
        for r in (0, 9):
            policy = AcceptancePolicy.relaxed(r) if r else AcceptancePolicy.strict()
            steps = accepted = 0
            for episode in range(40):
                _, outcomes = decode_episode(
                    PrefixState(prompt_id=f"gain{episode}"), verifier, draft, params, policy, 70
                )
                steps += len(outcomes)
                accepted += sum(o.accepted for o in outcomes)
            means[r] = accepted / steps
        assert means[9] >= 1.25 * means[0]
