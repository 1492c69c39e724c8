"""Strict/relaxed verification, tree selection, and the decoding loops."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specdec.action_space import bin_distance, detokenize
from specdec.draft_tree import ROOT, DraftNode, DraftTree, TreeParams, TreeStructureError, build_tree
from specdec.models import HashVerifier, PrefixState, make_noisy_draft
from specdec.verify import (
    AcceptancePolicy,
    accept_token,
    ar_decode,
    decode_episode,
    verify_path,
    verify_tree,
)

from helpers import (
    ScriptedDraft,
    ScriptedVerifier,
    chain_expected_accepted,
    chain_q,
    random_tree,
    reference_verify_path,
)


def models_for(seed, agreement_p=0.5, noise_sigma=6.0):
    verifier = HashVerifier(seed=seed)
    draft = make_noisy_draft(verifier, agreement_p=agreement_p, noise_sigma=noise_sigma)
    return verifier, draft


class EmptyDraft:
    """Draft model that never proposes anything."""

    def propose_many(self, states, k):
        return [[] for _ in states]


class AdversarialDraft:
    """Draft model built from a table of proposal lists, bad ones included.

    Each prefix gets the table row its tokens hash to.  A proposal is
    ``(kind, value, log_score)``: ``("near", d)`` proposes the verifier's
    argmax plus ``d`` (so some drafts are accepted, and edge bins step out of
    the vocabulary), ``("at", t)`` proposes bin ``t`` outright.  A prefix
    that holds an out-of-vocabulary bin has no verifier argmax, so there
    ``near`` counts from bin 0.  Every list it returns is recorded.
    """

    def __init__(self, verifier, table):
        self.verifier, self.table, self.returned = verifier, table, []

    def propose_many(self, states, k):
        vocab = range(self.verifier.vocab_size)
        out = []
        for state in states:
            row = self.table[hash(state.emitted) % len(self.table)][:k]
            in_vocab = all(t in vocab for t in state.emitted)
            target = self.verifier.next(state).argmax if in_vocab else 0
            out.append([(target + v if kind == "near" else v, s) for kind, v, s in row])
        self.returned.extend(out)
        return out


class RecordingVerifier:
    """Passes calls through and records every tree the engine verifies."""

    def __init__(self, inner):
        self.inner, self.vocab_size, self.trees = inner, inner.vocab_size, []

    def next(self, state):
        return self.inner.next(state)

    def batch(self, state, tree):
        self.trees.append(tree)
        return self.inner.batch(state, tree)


# Mostly well-formed proposals, so that many decodes get past build_tree;
# the rest carry bad scores (1 in 10), sibling duplicates or
# out-of-vocabulary bins.
BAD_SCORES = [0.5, float("nan"), float("inf"), float("-inf")]
ADVERSARIAL_PROPOSAL = st.tuples(
    st.sampled_from(["near", "at"]),
    st.integers(-2, 2),
    st.integers(-1, 270),
    st.sampled_from(range(10 * len(BAD_SCORES))),
    st.sampled_from([0.0, -0.5, -1.0]) | st.floats(-3.0, 0.0),
).map(
    lambda p: (
        p[0],
        p[1] if p[0] == "near" else p[2],
        BAD_SCORES[p[3]] if p[3] < len(BAD_SCORES) else p[4],
    )
)


class TestAcceptToken:
    def test_within_threshold_accepts(self):
        # Distance 9 at threshold 9: the closed bound accepts.
        assert accept_token(128, 137, AcceptancePolicy.relaxed(9), dimension=0)

    def test_beyond_threshold_rejects(self):
        # Distance 11 at threshold 5.
        assert not accept_token(109, 98, AcceptancePolicy.relaxed(5), dimension=0)

    def test_exact_match_accepts_under_any_policy(self):
        for policy in (
            AcceptancePolicy.strict(),
            AcceptancePolicy.relaxed(0),
            AcceptancePolicy.relaxed(9),
            AcceptancePolicy.relaxed(3, per_dimension_r=[0, 0, 0, 0, 0, 0, 0]),
        ):
            for token in (0, 137, 255):
                for dim in range(7):
                    assert accept_token(token, token, policy, dim)

    def test_strict_requires_equality(self):
        assert not accept_token(128, 129, AcceptancePolicy.strict(), dimension=0)

    def test_per_dimension_override(self):
        policy = AcceptancePolicy.relaxed(9, per_dimension_r=[9, 9, 9, 9, 9, 9, 0])
        assert accept_token(100, 105, policy, dimension=0)
        assert not accept_token(100, 105, policy, dimension=6)
        assert policy.effective_r(6) == 0
        assert policy.effective_r(13) == 0  # dimension index wraps mod 7

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            AcceptancePolicy(mode="fuzzy")
        with pytest.raises(ValueError):
            AcceptancePolicy.relaxed(-1)
        with pytest.raises(ValueError):
            AcceptancePolicy.relaxed(3, per_dimension_r=[1, 2, 3])


class TestVerifyPath:
    def test_relaxed_trace_example(self):
        accepted, token = verify_path(
            [128, 128, 109], [137, 128, 109, 98], AcceptancePolicy.relaxed(9)
        )
        assert accepted == 3
        assert token == 98  # bonus: the whole path was accepted

    def test_strict_trace_example(self):
        accepted, token = verify_path(
            [128, 128, 109], [137, 128, 109, 98], AcceptancePolicy.strict()
        )
        assert accepted == 0
        assert token == 137  # correction at the first mismatch

    def test_requires_one_extra_argmax(self):
        with pytest.raises(TreeStructureError):
            verify_path([1, 2, 3], [1, 2, 3], AcceptancePolicy.strict())

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
            assert verify_path(path, verified, policy, start) == reference_verify_path(
                path, verified, r_for_dim, start
            )


def constant_params(tree: DraftTree) -> TreeParams:
    return tree.params


class TestVerifyTree:
    def test_single_path_tree_equals_verify_path(self):
        nodes = (
            DraftNode(token=40, parent=ROOT, depth=1, cum_score=-0.1),
            DraftNode(token=40, parent=0, depth=2, cum_score=-0.2),
            DraftNode(token=77, parent=1, depth=3, cum_score=-0.3),
        )
        tree = DraftTree(nodes=nodes, params=TreeParams(top_k=1, max_depth=3, max_nodes=10))
        verified = [40, 40, 60, 3]  # distance 17 rejects the third token
        policy = AcceptancePolicy.relaxed(7)
        outcome = verify_tree(tree, verified, policy)
        accepted, token = verify_path([40, 40, 77], [40, 40, 60, 3], policy)
        assert outcome.accepted == accepted == 2
        assert outcome.emitted == (40, 40, 60)
        assert outcome.emitted[-1] == token
        assert outcome.correction_used and not outcome.bonus_used

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
            lengths.append(verify_path(tokens, argmaxes, policy)[0])
        assert lengths == [1, 3]

        outcome = verify_tree(tree, verified, policy)
        assert outcome.accepted == 3
        assert outcome.emitted == (20, 21, 22, 55)
        assert outcome.bonus_used and not outcome.correction_used

    def test_size_mismatch_is_structural_error(self):
        tree = DraftTree(
            nodes=(DraftNode(token=1, parent=ROOT, depth=1, cum_score=-0.1),),
            params=TreeParams(top_k=1, max_depth=1, max_nodes=1),
        )
        with pytest.raises(TreeStructureError):
            verify_tree(tree, [1], AcceptancePolicy.strict())

    def test_fuzz_matches_enumeration_oracle(self):
        """Chosen path equals exhaustive enumerate+verify per path."""
        from specdec.draft_tree import enumerate_paths

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
                accepted, nxt = verify_path(tokens, argmaxes, policy, start)
                if best is None or accepted > best[0]:
                    best = (accepted, idx, tokens[:accepted] + [nxt])
            assert outcome.accepted == best[0]
            assert outcome.chosen_path == best[1]
            assert list(outcome.emitted) == best[2]

    def test_emitted_length_bounds(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            tree = random_tree(rng, max_nodes=30)
            verified = [int(t) for t in rng.integers(0, 256, size=len(tree.nodes) + 1)]
            outcome = verify_tree(tree, verified, AcceptancePolicy.relaxed(6))
            assert 1 <= len(outcome.emitted) <= tree.params.max_depth + 1
            assert len(outcome.emitted) == outcome.accepted + 1
            assert outcome.correction_used != outcome.bonus_used

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
        assert ar_decode(state, verifier, 1) == (verifier.next(state).argmax,)

    def test_deterministic(self):
        verifier = HashVerifier(seed=32)
        state = PrefixState(prompt_id="x")
        assert ar_decode(state, verifier, 20) == ar_decode(state, verifier, 20)

    def test_decodes_a_valid_action_chunk(self):
        verifier = HashVerifier(seed=33)
        tokens = ar_decode(PrefixState(), verifier, 7)
        values = detokenize(tokens)
        assert values.shape == (7,)
        assert np.isfinite(values).all()

    def test_rejects_zero_length(self):
        with pytest.raises(ValueError):
            ar_decode(PrefixState(), HashVerifier(seed=1), 0)


class TestDecodeEpisode:
    def test_strict_equals_ar(self):
        for seed in range(20):
            verifier, draft = models_for(seed, agreement_p=0.6, noise_sigma=4.0)
            state = PrefixState(prompt_id=f"s{seed}")
            params = TreeParams(top_k=4, max_depth=3, max_nodes=20)
            tokens, _ = decode_episode(
                state, verifier, draft, params, AcceptancePolicy.strict(), 21
            )
            assert tokens == ar_decode(state, verifier, 21)

    def test_perfect_draft_emits_depth_plus_one_each_step(self):
        for depth in (1, 2, 4):
            verifier, draft = models_for(41, agreement_p=1.0, noise_sigma=1.0)
            params = TreeParams(top_k=1, max_depth=depth, max_nodes=50)
            _, outcomes = decode_episode(
                PrefixState(), verifier, draft, params, AcceptancePolicy.strict(), 7 * (depth + 1)
            )
            assert all(len(o.emitted) == depth + 1 for o in outcomes)
            assert all(o.bonus_used for o in outcomes)

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
            assert outcome.bonus_used and not outcome.correction_used

    def test_relaxed_soundness_on_policy(self):
        verifier, draft = models_for(44, agreement_p=0.4, noise_sigma=5.0)
        params = TreeParams(top_k=4, max_depth=4, max_nodes=30)
        policy = AcceptancePolicy.relaxed(7)
        _, outcomes = decode_episode(PrefixState(), verifier, draft, params, policy, 70)
        for outcome in outcomes:
            for token, ref in zip(outcome.emitted, outcome.reference):
                assert bin_distance(token, ref) <= 7
            assert outcome.emitted[-1] == outcome.reference[-1]


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
                    not -math.inf < score <= 0.0
                    or len({t for t, _ in props}) < len(props)
                    or not 0 <= token < verifier.vocab_size
                    for props in draft.returned
                    for token, score in props
                )
                continue
            # build_tree checks every score and sibling it is given.
            for props in draft.returned:
                assert len({t for t, _ in props}) == len(props)
                assert all(-math.inf < score <= 0.0 for _, score in props)
            for tree in verifier.trees:
                tree.validate()
                assert len(tree.nodes) <= max_nodes
                assert all(node.depth <= max_depth for node in tree.nodes)
            if policy.mode == "strict":
                assert tokens == ar_decode(state, verifier.inner, length)
            for outcome in outcomes:
                for token, ref in zip(outcome.emitted, outcome.reference):
                    assert 0 <= token < verifier.vocab_size
                    assert bin_distance(token, ref) <= policy.r


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
        draft = make_noisy_draft(verifier, agreement_p=0.0, noise_sigma=1e-6)
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
