"""Synthetic verifier and draft model contracts."""

import copy
import dataclasses
import hashlib
import pickle
import struct
import sys
from array import array
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specdec.draft_tree import TreeParams, build_tree
from specdec.models import (
    MEMO_LIMIT,
    Distribution,
    HashVerifier,
    PrefixState,
    displacement_pmf,
    make_noisy_draft,
)
from specdec.verify import AcceptancePolicy, decode_episode

from helpers import chain_q, random_tree


def state_of(*tokens, prompt="p", obs="o") -> PrefixState:
    return PrefixState(prompt_id=prompt, observation_id=obs, emitted=tuple(tokens))


def scratch_digest(seed, tag, prompt_id, observation_id, tokens):
    """Reference: the whole key hashed from scratch, as a fresh model would."""
    h = hashlib.blake2b(digest_size=8)
    h.update(tag)
    h.update(struct.pack("<q", seed))
    h.update(prompt_id.encode())
    h.update(b"\x1f")
    h.update(observation_id.encode())
    h.update(b"\x1f")
    h.update(array("H", tokens).tobytes())
    return int.from_bytes(h.digest(), "little")


def chain_digest(state, tag, seed):
    return int.from_bytes(state._hash_state(tag + struct.pack("<q", seed)).digest(), "little")


HEADS = [(b"verifier", 7), (b"agree", 7), (b"displace", 3)]


class TestDigestChain:
    @settings(max_examples=300, deadline=None)
    @given(
        roots=st.lists(
            st.tuples(
                st.sampled_from(["p", "q"]),
                st.sampled_from(["o", "o2"]),
                st.lists(st.integers(0, 65535), max_size=20),
            ),
            min_size=1,
            max_size=3,
        ),
        ops=st.lists(
            st.tuples(
                # How the next state is made from an earlier one and the
                # tokens: linked to it, or built directly or by ``replace``
                # (a new chain root).
                st.sampled_from(["extend", "extend_many", "direct", "replace"]),
                st.integers(0, 1000),  # which earlier state; repeats make siblings
                st.lists(st.integers(0, 65535), max_size=6),
                st.sampled_from([None, *range(len(HEADS))]),  # head queried at once, if any
            ),
            max_size=40,
        ),
    )
    def test_chain_digest_equals_from_scratch(self, roots, ops):
        states = [state_of(*tokens, prompt=p, obs=o) for p, o, tokens in roots]
        for kind, pick, tokens, head in ops:
            base = states[pick % len(states)]
            if kind == "extend":
                new = base.extend(tokens[0] if tokens else 0)
            elif kind == "extend_many":
                new = base.extend_many(tokens)
            elif kind == "direct":
                new = PrefixState(base.prompt_id, base.observation_id, base.emitted + tuple(tokens))
            else:
                new = dataclasses.replace(base, emitted=base.emitted + tuple(tokens))
            if head is not None:
                tag, seed = HEADS[head]
                assert chain_digest(new, tag, seed) == scratch_digest(
                    seed, tag, new.prompt_id, new.observation_id, new.emitted
                )
            states.append(new)
        # Every head on every state, interleaved, after the chains are built.
        for state in reversed(states):
            for tag, seed in HEADS:
                assert chain_digest(state, tag, seed) == scratch_digest(
                    seed, tag, state.prompt_id, state.observation_id, state.emitted
                )

    def test_head_first_queried_deep_in_a_chain(self):
        state = state_of(1, 2)
        for i in range(5000):
            state = state.extend(i % 256)
        # The walk back to the root is a loop: 5,000 links do not recurse.
        assert chain_digest(state, b"agree", 3) == scratch_digest(
            3, b"agree", "p", "o", state.emitted
        )
        # Each token is held once along the chain, not once per link.
        held, link = 0, state._link
        while link is not None:
            held, link = held + len(link.tokens), link.parent
        assert held == len(state.emitted)

    def test_copies_equal_the_state_and_hash_alike(self):
        verifier = HashVerifier(seed=2)
        state = state_of(5, 6, prompt="pk").extend_many([7, 8]).extend(9)
        expected = verifier.next(state).argmax  # the chain now holds hash states
        copies = [
            pickle.loads(pickle.dumps(state)),
            copy.deepcopy(state),
            copy.copy(state),
            copy.deepcopy([state])[0],
            dataclasses.replace(state),
        ]
        for other in copies:
            assert other == state and hash(other) == hash(state)
            assert repr(other) == repr(state) == (
                "PrefixState(prompt_id='pk', observation_id='o', emitted=(5, 6, 7, 8, 9))"
            )
            assert chain_digest(other, b"verifier", 2) == chain_digest(state, b"verifier", 2)
            assert verifier.next(other).argmax == expected
            assert verifier.next(other.extend(1)).argmax == verifier.next(state.extend(1)).argmax


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


class TestDistribution:
    def test_argmax_is_taken_after_normalizing(self):
        # Bin 1 has the larger raw score, but the two round to one value
        # once divided by the total, and the lower bin wins the tie.
        raw = np.array([0.8622755206430472, 0.8622755206430474, 0.8119451869563249])
        assert raw.argmax() == 1
        dist = Distribution.from_scores(raw)
        assert dist.argmax == 0 == dist.scores.argmax()

    def test_scores_without_positive_mass_rejected(self):
        for raw in (np.zeros(4), np.full(4, np.nan)):
            with pytest.raises(ValueError, match="positive mass"):
                Distribution.from_scores(raw)


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

    def test_shared_models_decode_like_private_ones_across_threads(self):
        params = TreeParams(top_k=3, max_depth=3, max_nodes=12)
        policy = AcceptancePolicy.relaxed(3)
        # Each state is decoded by two threads at once, so both extend and
        # hash one digest chain.
        states = [state_of(*range(i, i + 48), prompt=f"t{i}") for i in range(8)]

        def decode(verifier, draft, state):
            return decode_episode(state, verifier, draft, params, policy, 40)

        def private(state):
            verifier = HashVerifier(seed=8)
            return decode(verifier, make_noisy_draft(verifier, 0.5, 6.0), state)

        expected = [private(s) for s in states]
        verifier = HashVerifier(seed=8)
        draft = make_noisy_draft(verifier, 0.5, 6.0)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(decode, verifier, draft, s) for s in states * 2]
                results = [f.result(timeout=120) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        assert results == expected * 2


class TestVerifierMemo:
    def test_one_decode_step_draws_each_distinct_prefix_once(self, monkeypatch):
        state = state_of(1, 2, 3)
        params = TreeParams()  # the default tree

        class Recording:
            """The draft's verifier: records every prefix the draft scores."""

            def __init__(self, inner):
                self.inner, self.vocab_size, self.prefixes = inner, inner.vocab_size, []

            def next(self, s):
                self.prefixes.append(s.emitted)
                return self.inner.next(s)

        recording = Recording(HashVerifier(seed=4))
        tree = build_tree(state, make_noisy_draft(recording, 0.5, 6.0), params)
        prefixes = {state.emitted, *recording.prefixes}
        prefixes.update(state.emitted + tree.token_path(i) for i in range(len(tree.nodes)))

        seeds = []
        pcg64 = np.random.PCG64
        monkeypatch.setattr(np.random, "PCG64", lambda seed: seeds.append(seed) or pcg64(seed))
        verifier = HashVerifier(seed=4)
        draft = make_noisy_draft(verifier, 0.5, 6.0)
        _, outcomes = decode_episode(state, verifier, draft, params, AcceptancePolicy.strict(), 1)
        assert len(outcomes) == 1
        assert len(seeds) == len(set(seeds)) == len(prefixes) > len(tree.nodes)

    def test_memoized_scores_are_read_only(self):
        v = HashVerifier(seed=6)
        state = state_of(1, 2)
        tree = build_tree(state, make_noisy_draft(v, 0.5, 6.0), TreeParams(top_k=2, max_depth=2))
        first = v.next(state)
        result = v.batch(state, tree)
        assert result.root is first  # served from the memo
        for dist in [result.root, *result.nodes]:
            assert not dist.scores.flags.writeable
            with pytest.raises(ValueError):
                dist.scores[0] = 1.0

    def test_memo_is_bounded_without_batched_rounds(self):
        v = HashVerifier(seed=6)
        state = state_of()
        for token in range(3 * MEMO_LIMIT):
            v.next(state)
            state = state.extend(token % 256)
        assert len(v._memo) <= MEMO_LIMIT


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
