"""Synthetic verifier and draft model contracts."""

from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from specdec.draft_tree import TreeParams, build_tree
from specdec.models import (
    HashVerifier,
    PrefixState,
    displacement_pmf,
    make_noisy_draft,
)

from helpers import chain_q, random_tree


def state_of(*tokens, prompt="p", obs="o") -> PrefixState:
    return PrefixState(prompt_id=prompt, observation_id=obs, emitted=tuple(tokens))


class TestHashVerifier:
    def test_deterministic_per_seed_and_prefix(self):
        v = HashVerifier(seed=3)
        a = v.next(state_of(1, 2, 3))
        b = v.next(state_of(1, 2, 3))
        assert a.argmax == b.argmax
        assert np.array_equal(a.scores, b.scores)

    def test_distribution_is_normalized_with_unique_argmax(self):
        v = HashVerifier(seed=11)
        dist = v.next(state_of())
        assert dist.scores.shape == (256,)
        assert (dist.scores >= 0).all()
        assert abs(dist.scores.sum() - 1.0) < 1e-9
        assert (dist.scores == dist.scores[dist.argmax]).sum() == 1

    def test_prefixes_differing_by_one_token_differ(self):
        v = HashVerifier(seed=5)
        rng = np.random.default_rng(0)
        differing = 0
        for _ in range(1000):
            tokens = tuple(int(t) for t in rng.integers(0, 256, size=6))
            swapped = list(tokens)
            pos = int(rng.integers(0, 6))
            swapped[pos] = (swapped[pos] + 1 + int(rng.integers(0, 255))) % 256
            a = v.next(state_of(*tokens))
            b = v.next(state_of(*swapped))
            if a.argmax != b.argmax:
                differing += 1
            assert not np.array_equal(a.scores, b.scores)
        # Two unrelated argmaxes collide with probability 1/256.
        assert differing > 950

    def test_different_seeds_differ(self):
        s = state_of(9, 9)
        assert HashVerifier(seed=1).next(s).argmax != HashVerifier(seed=2).next(s).argmax or (
            not np.array_equal(HashVerifier(seed=1).next(s).scores, HashVerifier(seed=2).next(s).scores)
        )

    def test_rejects_bad_vocab(self):
        with pytest.raises(ValueError):
            HashVerifier(vocab_size=1)
        with pytest.raises(ValueError):
            HashVerifier(vocab_size=1 << 17)


class TestVerifierBatch:
    def test_single_node_tree_matches_next(self):
        v = HashVerifier(seed=2)
        draft = make_noisy_draft(v, agreement_p=1.0, noise_sigma=1.0)
        state = state_of(4, 5)
        tree = build_tree(state, draft, TreeParams(top_k=1, max_depth=1, max_nodes=1))
        assert len(tree.nodes) == 1
        result = v.batch(state, tree)
        extended = state.extend(tree.nodes[0].token)
        assert np.array_equal(result.nodes[0].scores, v.next(extended).scores)
        assert np.array_equal(result.root.scores, v.next(state).scores)

    def test_batch_equals_serial_recomputation(self):
        """Oracle: walk each node's ancestor path and query next() serially."""
        v = HashVerifier(seed=7)
        rng = np.random.default_rng(42)
        for _ in range(25):
            state = state_of(*rng.integers(0, 256, size=rng.integers(0, 5)))
            tree = random_tree(rng, max_nodes=30)
            result = v.batch(state, tree)
            for i in range(len(tree.nodes)):
                serial = v.next(state.extend_many(tree.token_path(i)))
                assert result.nodes[i].argmax == serial.argmax
                assert np.array_equal(result.nodes[i].scores, serial.scores)

    def test_max_budget_tree_yields_one_distribution_per_node(self):
        v = HashVerifier(seed=1)
        draft = make_noisy_draft(v, agreement_p=0.5, noise_sigma=6.0)
        state = state_of()
        tree = build_tree(state, draft, TreeParams(top_k=8, max_depth=4, max_nodes=50))
        assert len(tree.nodes) == 50
        result = v.batch(state, tree)
        assert len(result.nodes) == 50

    def test_malformed_tree_is_structural_error(self):
        from specdec.draft_tree import ROOT, DraftNode, DraftTree, TreeParams, TreeStructureError

        nodes = (
            DraftNode(token=1, parent=ROOT, depth=1, cum_score=-0.1),
            DraftNode(token=2, parent=5, depth=2, cum_score=-0.2),  # dangling parent
        )
        tree = DraftTree(nodes=nodes, params=TreeParams(top_k=2, max_depth=2, max_nodes=10))
        with pytest.raises(TreeStructureError):
            HashVerifier(seed=1).batch(state_of(), tree)

    def test_thread_safety_of_reads(self):
        v = HashVerifier(seed=13)
        rng = np.random.default_rng(3)
        state = state_of(1)
        tree = random_tree(rng, max_nodes=40)
        expected = [d.argmax for d in v.batch(state, tree).nodes]
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(lambda _: v.batch(state, tree), range(16)))
        for result in results:
            assert [d.argmax for d in result.nodes] == expected


class TestNoisyDraft:
    def test_k1_with_full_agreement_is_verifier_argmax(self):
        v = HashVerifier(seed=21)
        draft = make_noisy_draft(v, agreement_p=1.0, noise_sigma=1.0)
        for i in range(50):
            state = state_of(i % 256, (3 * i) % 256)
            (((token, logp),),) = draft.propose_many([state], 1)
            assert token == v.next(state).argmax
            assert logp <= 0.0

    def test_top8_distinct_and_sorted(self):
        v = HashVerifier(seed=22)
        draft = make_noisy_draft(v, agreement_p=0.5, noise_sigma=6.0)
        state = state_of(100)
        (props,) = draft.propose_many([state], 8)
        tokens = [t for t, _ in props]
        scores = [s for _, s in props]
        assert len(set(tokens)) == 8
        assert scores == sorted(scores, reverse=True)

    def test_k_larger_than_vocab_rejected(self):
        v = HashVerifier(seed=1)
        draft = make_noisy_draft(v, agreement_p=1.0, noise_sigma=1.0)
        with pytest.raises(ValueError):
            draft.propose_many([state_of()], 257)
        with pytest.raises(ValueError):
            draft.propose_many([state_of()], 0)

    def test_full_agreement_tracks_argmax_everywhere(self):
        v = HashVerifier(seed=23)
        draft = make_noisy_draft(v, agreement_p=1.0, noise_sigma=4.0)
        rng = np.random.default_rng(1)
        for _ in range(10_000):
            tokens = tuple(int(t) for t in rng.integers(0, 256, size=rng.integers(0, 4)))
            state = state_of(*tokens)
            top = draft.propose_many([state], 1)[0][0][0]
            assert top == v.next(state).argmax

    def test_deterministic_proposals(self):
        v = HashVerifier(seed=24)
        draft = make_noisy_draft(v, agreement_p=0.3, noise_sigma=5.0, seed=9)
        again = make_noisy_draft(v, agreement_p=0.3, noise_sigma=5.0, seed=9)
        state = state_of(7, 7, 7)
        first = draft.propose_many([state], 8)
        assert first == again.propose_many([state], 8)
        # A repeated query is served from the per-center ranking and must not
        # hand out the stored list itself.
        first[0].clear()
        assert draft.propose_many([state, state], 8) == again.propose_many([state, state], 8)

    def test_agreement_calibration_three_sigma(self):
        """Empirical top-1 agreement over 100k prefixes within 3 SE of p."""
        p = 0.7
        v = HashVerifier(seed=25)
        draft = make_noisy_draft(v, agreement_p=p, noise_sigma=6.0)
        n = 100_000
        agree = 0
        for i in range(n):
            state = PrefixState(prompt_id=f"cal{i}", observation_id="o")
            top = draft.propose_many([state], 1)[0][0][0]
            agree += top == v.next(state).argmax
        se = (p * (1 - p) / n) ** 0.5
        # Clamping at the vocabulary edge can fold a displacement back onto
        # the argmax, adding ~(1-p) * 2/V * one_sided_tail of accidental
        # agreement; with sigma=6 and V=256 that is ~1e-3, inside 3 SE here.
        assert abs(agree / n - p) < 3 * se + 2e-3

    def test_invalid_parameters_rejected(self):
        v = HashVerifier(seed=1)
        with pytest.raises(ValueError):
            make_noisy_draft(v, agreement_p=1.5, noise_sigma=1.0)
        with pytest.raises(ValueError):
            make_noisy_draft(v, agreement_p=0.5, noise_sigma=0.0)


class TestDisplacementPmf:
    def test_zero_excluded_and_normalized(self):
        offsets, probs = displacement_pmf(6.0, 256)
        assert 0 not in offsets
        assert abs(probs.sum() - 1.0) < 1e-12
        assert (probs >= 0).all()
        # The near field carries the mass; the far tail may underflow to 0.
        assert (probs[np.abs(offsets) <= 100] > 0).all()

    def test_symmetric(self):
        offsets, probs = displacement_pmf(3.0, 256)
        lookup = dict(zip(offsets.tolist(), probs.tolist()))
        for d in range(1, 256):
            assert lookup[d] == pytest.approx(lookup[-d])

    def test_sigma_to_zero_degenerates_to_unit_steps(self):
        offsets, probs = displacement_pmf(1e-6, 256)
        lookup = dict(zip(offsets.tolist(), probs.tolist()))
        assert lookup[1] == pytest.approx(0.5)
        assert lookup[-1] == pytest.approx(0.5)

    def test_mass_within_radius_matches_oracle(self):
        # chain_q with p=0 is exactly the clamped within-r displacement mass.
        q = chain_q(0.0, 6.0, 256, 9)
        offsets, probs = displacement_pmf(6.0, 256)
        unclamped = probs[np.abs(offsets) <= 9].sum()
        # Clamping only increases the within-r mass.
        assert q >= unclamped - 1e-12
        assert q == pytest.approx(unclamped, abs=5e-3)
