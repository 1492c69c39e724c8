"""Synthetic verifier and draft model contracts."""

import copy
import dataclasses
import hashlib
import pickle
import struct
import sys
from collections.abc import Sequence
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import specdec
from specdec import models
from specdec.draft_tree import TreeParams, TreeStructureError, build_tree, enumerate_paths
from specdec.models import (
    MEMO_LIMIT,
    HashVerifier,
    NoisyDraft,
    PrefixState,
    TimedDraft,
    TimedVerifier,
    displacement_pmf,
)
from specdec.verify import AcceptancePolicy, ar_decode, decode_episode

from helpers import WithBound, chain_q, random_tree, token_path


def state_of(*tokens, prompt="p", obs="o") -> PrefixState:
    return PrefixState(prompt_id=prompt, observation_id=obs, emitted=tuple(tokens))


MASK64 = 2**64 - 1


def splitmix64(x):
    """Reference: splitmix64's output function on the state ``x``, one increment on."""
    z = (x + 0x9E3779B97F4A7C15) & MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


def blake64(data):
    return int.from_bytes(hashlib.blake2b(data, digest_size=8).digest(), "little")


def reference_key(prompt_id, observation_id, tokens):
    """Reference: a state's key folded from scratch out of its fields."""
    key = blake64(prompt_id.encode() + b"\x1f" + observation_id.encode())
    for token in tokens:
        key = splitmix64(key ^ int(token))
    return key


def stream_key(state, tag, seed):
    """Reference: the key a model stream draws from for ``state``."""
    salt = blake64(tag + struct.pack("<q", seed))
    return splitmix64(reference_key(state.prompt_id, state.observation_id, state.emitted) ^ salt)


def record_draws(monkeypatch) -> list[tuple[int, int]]:
    """Every ``(stream key, argmax)`` score draw a ``HashVerifier`` built later makes."""
    draws = []
    draw = models._draw

    def recording(vocab_size, salt, key):
        argmax = draw(vocab_size, salt, key)
        draws.append((splitmix64(key ^ salt), argmax))
        return argmax

    # Verifiers built after this call cache the recording function.
    monkeypatch.setattr(models, "_draw", recording)
    return draws


class TestPrefixKey:
    def test_mix_is_splitmix64(self):
        # The first output of splitmix64 seeded with 0, as published.
        assert splitmix64(0) == 0xE220A8397B1DCDAF
        assert models._mix(0) == splitmix64(0)

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
                # tokens: folded from it, or built directly or by ``replace``.
                st.sampled_from(["extend", "extend_many", "direct", "replace"]),
                st.integers(0, 1000),  # which earlier state; repeats make siblings
                st.lists(st.integers(0, 65535), max_size=6),
            ),
            max_size=40,
        ),
    )
    def test_key_equals_the_fold_of_the_fields(self, roots, ops):
        states = [state_of(*tokens, prompt=p, obs=o) for p, o, tokens in roots]
        for kind, pick, tokens in ops:
            base = states[pick % len(states)]
            if kind == "extend":
                new = base.extend(tokens[0] if tokens else 0)
            elif kind == "extend_many":
                new = base.extend_many(tokens)
            elif kind == "direct":
                new = PrefixState(base.prompt_id, base.observation_id, base.emitted + tuple(tokens))
            else:
                new = dataclasses.replace(base, emitted=base.emitted + tuple(tokens))
            states.append(new)
        for state in states:
            direct = PrefixState(state.prompt_id, state.observation_id, state.emitted)
            assert state == direct and state.key == direct.key
            assert state.key == reference_key(state.prompt_id, state.observation_id, state.emitted)

    def test_copies_keep_value_and_key(self):
        verifier = HashVerifier(seed=2)
        state = state_of(5, 6, prompt="pk").extend_many([7, 8]).extend(9)
        expected = verifier.next(state)
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
            assert other.key == state.key == reference_key("pk", "o", (5, 6, 7, 8, 9))
            assert verifier.next(other) == expected
            assert verifier.next(other.extend(1)) == verifier.next(state.extend(1))

    def test_a_checked_one_token_child_equals_extend(self):
        # ``build_tree``'s level states come from ``extend``, one field copy
        # and one mix; at a long prefix it must build exactly the state the
        # constructor builds from the whole ``emitted``.
        parent = state_of(*(i * 37 % 256 for i in range(1000)), prompt="long")
        for token in (0, 9, 255, np.int64(200)):
            child = parent.extend(token)
            expected = state_of(*parent.emitted, token, prompt="long")
            assert type(child) is PrefixState and vars(child) == vars(expected)
            assert child.emitted == parent.emitted + (token,)
            assert type(child.emitted[-1]) is int
            assert child.key == expected.key == reference_key("long", "o", child.emitted)
            assert child == expected and hash(child) == hash(expected)
            assert repr(child) == repr(expected)

    def test_numpy_tokens_key_like_ints(self):
        # XOR of a key at or above 2**63 with a numpy int64 overflows, so
        # cover roots on both sides of it.
        prompts = [f"np{i}" for i in range(8)]
        assert {PrefixState(prompt_id=p).key >= 2**63 for p in prompts} == {False, True}
        for prompt in prompts:
            expected = PrefixState(prompt_id=prompt, emitted=(5, 7)).key
            root = PrefixState(prompt_id=prompt)
            assert PrefixState(prompt_id=prompt, emitted=(np.int64(5), np.uint16(7))).key == expected
            assert root.extend(np.int64(5)).extend(np.int32(7)).key == expected
            assert root.extend_many(np.array([5, 7])).key == expected

    def test_emitted_list_is_stored_as_a_tuple(self):
        from_list = PrefixState(prompt_id="l", emitted=[1, np.int64(2)])
        from_tuple = PrefixState(prompt_id="l", emitted=(1, 2))
        assert from_list.emitted == (1, 2) and type(from_list.emitted[1]) is int
        assert from_list == from_tuple and hash(from_list) == hash(from_tuple)
        assert from_list.key == from_tuple.key
        assert from_list.extend(3) == from_tuple.extend(3) == PrefixState("l", "o0", (1, 2, 3))
        assert from_list.extend(3).key == from_tuple.extend(3).key

    def test_non_integer_tokens_rejected(self):
        # Truncating 5.5 to 5 would give the state another prefix's key.
        for make in (
            lambda: PrefixState(emitted=(5.5,)),
            lambda: PrefixState().extend(5.5),
            lambda: PrefixState().extend_many([1, "5"]),
            lambda: PrefixState().extend_many(np.array([5.0])),
        ):
            with pytest.raises(TypeError):
                make()


class TestHashVerifier:
    def test_deterministic_per_seed_and_prefix(self, monkeypatch):
        draws = record_draws(monkeypatch)
        a = HashVerifier(seed=3).next(state_of(1, 2, 3))
        b = HashVerifier(seed=3).next(state_of(1, 2, 3))
        assert a == b
        # Both instances draw from the same key: the prefix's verifier stream.
        assert [key for key, _ in draws] == [stream_key(state_of(1, 2, 3), b"verifier", 3)] * 2

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
            if a != b:
                differing += 1
            assert stream_key(state_of(*tokens), b"verifier", 5) != stream_key(
                state_of(*swapped), b"verifier", 5
            )
        # Two unrelated argmaxes collide with probability 1/256.
        assert differing > 950

    def test_different_seeds_differ(self, monkeypatch):
        draws = record_draws(monkeypatch)
        s = state_of(9, 9)
        HashVerifier(seed=1).next(s)
        HashVerifier(seed=2).next(s)
        keys = [key for key, _ in draws]
        assert keys == [stream_key(s, b"verifier", 1), stream_key(s, b"verifier", 2)]
        assert keys[0] != keys[1]

    def test_rejects_bad_vocab(self):
        with pytest.raises(ValueError):
            HashVerifier(vocab_size=1)
        with pytest.raises(ValueError):
            HashVerifier(vocab_size=1 << 17)

    def test_vocab_size_and_seed_must_be_integers(self):
        # Truncating 256.7 or 2.9 would build another model without a word.
        for kwargs in ({"vocab_size": 256.7}, {"seed": 2.9}, {"seed": "2"}):
            with pytest.raises(TypeError):
                HashVerifier(**kwargs)
        verifier = HashVerifier(vocab_size=np.int64(256), seed=np.uint8(2))
        assert (verifier.vocab_size, verifier.seed) == (256, 2)
        assert type(verifier.vocab_size) is int and type(verifier.seed) is int
        assert verifier.next(state_of(1)) == HashVerifier(seed=2).next(state_of(1))
        with pytest.raises(TypeError):
            NoisyDraft(verifier, seed=1.5)
        draft = NoisyDraft(verifier, 0.5, 6.0, seed=np.int32(1))
        assert draft.seed == 1 and type(draft.seed) is int
        expected = NoisyDraft(verifier, 0.5, 6.0, seed=1).propose_many([state_of(4)], 3)
        assert list(draft.propose_many([state_of(4)], 3)) == list(expected)

    def test_seed_outside_signed_64_bits_is_a_value_error(self):
        verifier = HashVerifier()
        for seed in (2**63, -(2**63) - 1):
            with pytest.raises(ValueError, match=f"seed .*{seed}"):
                HashVerifier(seed=seed)
            with pytest.raises(ValueError, match=f"seed .*{seed}"):
                NoisyDraft(verifier, agreement_p=0.5, noise_sigma=6.0, seed=seed)
        for seed in (2**63 - 1, -(2**63)):
            NoisyDraft(HashVerifier(seed=seed), agreement_p=0.5, noise_sigma=6.0, seed=seed)


class TestDistribution:
    def test_argmax_is_taken_after_normalizing(self):
        # Bin 1 has the larger raw score, but the two round to one value
        # once divided by the total, and the lower bin wins the tie.
        raw = np.array([0.8622755206430472, 0.8622755206430474, 0.8119451869563249])
        assert raw.argmax() == 1
        assert models._argmax(raw) == 0

    def test_scores_without_positive_mass_rejected(self):
        for raw in (np.zeros(4), np.full(4, np.nan)):
            with pytest.raises(ValueError, match="positive mass"):
                models._argmax(raw)


def verifier_round(monkeypatch):
    """A round from a fresh verifier, the argmaxes it holds, and a count of its draws."""
    draws = record_draws(monkeypatch)
    v = HashVerifier(seed=5)
    state = state_of(7)
    tree = build_tree(state, NoisyDraft(v, 0.5, 6.0), TreeParams(), v.vocab_size)
    expected = [v.next(state)]
    expected += [v.next(state.extend_many(token_path(tree, i))) for i in range(len(tree.nodes))]
    draws.clear()
    return HashVerifier(seed=5).batch(state, tree), expected, lambda: len(draws)  # an empty memo


def frontier_states(monkeypatch):
    """The depth-2 states a draft is handed, the states they hold, and a count of the states built."""
    built = []
    extend = PrefixState.extend
    monkeypatch.setattr(
        PrefixState, "extend", lambda self, token: built.append(1) or extend(self, token)
    )
    draft = NoisyDraft(HashVerifier(seed=5), 0.5, 6.0)
    levels = []

    class Keeping:
        def propose_many(self, states, k):
            levels.append(states)
            assert not built  # the root level is the root itself; none built before a read
            return draft.propose_many(states, k)

    state = state_of(7)
    build_tree(state, Keeping(), TreeParams(max_depth=2), draft.vocab_size)
    # Level 1 leaves all 8 of the root's children in the 50-node list, best first.
    (props,) = draft.propose_many([state], 8)
    expected = [state.extend(t) for t, _ in sorted(props, key=lambda p: (-p[1], p[0]))]
    built.clear()
    return levels[1], expected, lambda: len(built)


class TestLazy:
    """The one lazy sequence behind a verifier round and a level's draft states."""

    @pytest.mark.parametrize("make", [verifier_round, frontier_states], ids=["round", "frontier"])
    def test_reads_like_a_list(self, make, monkeypatch):
        items, expected, built = make(monkeypatch)
        n = len(expected)
        assert isinstance(items, Sequence) and len(items) == n and n > 5
        assert built() == 0  # nothing is computed until it is read
        assert items[-2] == expected[-2] and built() == 1
        for i in range(-n, n):
            assert items[i] == expected[i]
        parts = (slice(None), slice(3, 9), slice(None, None, -2), slice(-5, None), slice(60, 70))
        for part in parts:
            assert items[part] == expected[part]  # a slice is a list
        assert list(items) == expected and list(reversed(items)) == expected[::-1]
        for index in (n, -n - 1):
            with pytest.raises(IndexError):
                items[index]

    @pytest.mark.parametrize("order", ["reversed", "slices", "nodes"])
    def test_a_round_reads_the_same_in_any_order(self, order, monkeypatch):
        items, expected, _ = verifier_round(monkeypatch)  # no key folded yet
        if order == "reversed":
            read = list(reversed(items))[::-1]
        elif order == "slices":
            deepest = items[:-8:-1]  # the last seven positions, last first
            read = items[:-7] + deepest[::-1]
        else:
            nodes = [d.argmax for d in items.nodes]
            read = [items.root.argmax] + nodes
        assert read == expected


class TestVerifierBatch:
    def test_out_of_vocabulary_token_on_an_unread_node_raises(self, monkeypatch):
        draws = record_draws(monkeypatch)
        v = HashVerifier(seed=5)
        state = state_of(7)
        tree = build_tree(state, NoisyDraft(v, 0.5, 6.0), TreeParams(), v.vocab_size)
        deepest = [i for i, node in enumerate(tree.nodes) if node.depth == 4]
        first, last = deepest[0], deepest[-1]
        assert first < last
        cases = [
            ({last: v.vocab_size}, last),
            # Two outside the vocabulary: the lower index is named, even when
            # the other holds the larger token, and whichever is numpy.
            ({first: np.int64(257), last: 1000}, first),
            ({first: 256, last: np.int64(300)}, first),
        ]
        for bad, named in cases:
            nodes = list(tree.nodes)
            for i, token in bad.items():
                nodes[i] = nodes[i]._replace(token=token)
            bad_tree = dataclasses.replace(tree, nodes=tuple(nodes))
            draws.clear()
            # Every token is checked when the round is made, read or not.
            with pytest.raises(TreeStructureError) as raised:
                HashVerifier(seed=5).batch(state, bad_tree)
            assert str(raised.value) == (
                f"node {named} token {bad[named]} is outside vocabulary [0, 256)"
            )
            assert draws == []

    def test_single_node_tree_matches_next(self, monkeypatch):
        v = HashVerifier(seed=2)
        draft = NoisyDraft(v, agreement_p=1.0, noise_sigma=1.0)
        state = state_of(4, 5)
        params = TreeParams(top_k=1, max_depth=1, max_nodes=1)
        tree = build_tree(state, draft, params, v.vocab_size)
        assert len(tree.nodes) == 1
        extended = state.extend(tree.nodes[0].token)
        draws = record_draws(monkeypatch)
        result = HashVerifier(seed=2).batch(state, tree)  # empty memo: every prefix is drawn
        list(result)  # a position, the root too, is drawn when it is read
        drawn = dict(draws)
        assert result[1] == drawn[stream_key(extended, b"verifier", 2)]
        assert result[0] == drawn[stream_key(state, b"verifier", 2)]
        assert len(draws) == 2
        assert result[1] == v.next(extended)
        assert result[0] == v.next(state)

    def test_batch_equals_serial_recomputation(self, monkeypatch):
        """Oracle: walk each node's ancestor path and query next() serially."""
        draws = record_draws(monkeypatch)
        rng = np.random.default_rng(42)
        for _ in range(25):
            v = HashVerifier(seed=7)  # an empty memo, so batch draws every prefix
            state = state_of(*rng.integers(0, 256, size=rng.integers(0, 5)))
            tree = random_tree(rng, max_nodes=30)
            draws.clear()
            result = v.batch(state, tree)
            list(result)  # a position, the root too, is drawn when it is read
            drawn = dict(draws)
            # Tree paths are distinct, so each prefix is its own draw.
            assert len(drawn) == len(draws) == len(tree.nodes) + 1
            assert result[0] == drawn[stream_key(state, b"verifier", 7)]
            for i in range(len(tree.nodes)):
                prefix = state.extend_many(token_path(tree, i))
                assert result[i + 1] == drawn[stream_key(prefix, b"verifier", 7)]
                assert result[i + 1] == v.next(prefix)

    def test_fresh_round_draws_nothing_until_read(self, monkeypatch):
        draws = record_draws(monkeypatch)
        tree = random_tree(np.random.default_rng(8), max_nodes=30)
        result = HashVerifier(seed=11).batch(state_of(3, 1), tree)
        assert draws == [] and len(result) == len(tree.nodes) + 1
        assert [result.root.argmax] + [d.argmax for d in result.nodes] == list(result)
        assert len(draws) == len(result)

    def test_numpy_node_tokens_score_like_ints(self):
        class Index:
            """An integer-like that only indexes: its values have no order."""

            def __init__(self, value):
                self.value = value

            def __index__(self):
                return self.value

        rng = np.random.default_rng(5)
        tree = random_tree(rng, max_nodes=20)
        retyped = [
            dataclasses.replace(
                tree, nodes=tuple(n._replace(token=kind(n.token)) for n in tree.nodes)
            )
            for kind in (np.int64, Index)
        ]
        v = HashVerifier(seed=3)
        for prompt in ("a", "b", "c", "d"):
            state = state_of(1, 2, prompt=prompt)
            expected = v.batch(state, tree)[1:]
            for other in retyped:
                assert v.batch(state, other)[1:] == expected

    def test_max_budget_tree_yields_one_distribution_per_node(self):
        v = HashVerifier(seed=1)
        draft = NoisyDraft(v, agreement_p=0.5, noise_sigma=6.0)
        state = state_of()
        params = TreeParams(top_k=8, max_depth=4, max_nodes=50)
        tree = build_tree(state, draft, params, v.vocab_size)
        assert len(tree.nodes) == 50
        assert len(v.batch(state, tree)) - 1 == 50

    def test_malformed_tree_is_structural_error(self):
        from specdec.draft_tree import ROOT, DraftNode, DraftTree, TreeParams, TreeStructureError

        nodes = (
            DraftNode(token=1, parent=ROOT, depth=1, cum_score=-0.1),
            DraftNode(token=2, parent=5, depth=2, cum_score=-0.2),  # dangling parent
        )
        # The tree rejects itself, so no verifier is ever handed it.
        with pytest.raises(TreeStructureError):
            DraftTree(nodes=nodes, params=TreeParams(top_k=2, max_depth=2, max_nodes=10))

    def test_thread_safety_of_reads(self):
        v = HashVerifier(seed=13)
        rng = np.random.default_rng(3)
        state = state_of(1)
        tree = random_tree(rng, max_nodes=40)
        expected = v.batch(state, tree)[1:]
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(lambda _: v.batch(state, tree), range(16)))
        for result in results:
            assert result[1:] == expected

    def test_shared_models_decode_like_private_ones_across_threads(self):
        params = TreeParams(top_k=3, max_depth=3, max_nodes=12)
        policy = AcceptancePolicy.relaxed(3)
        # Each state is decoded by two threads at once, so both extend it
        # and share the models' caches.
        states = [state_of(*range(i, i + 48), prompt=f"t{i}") for i in range(8)]

        def decode(verifier, draft, state):
            return decode_episode(state, verifier, draft, params, policy, 40)

        def private(state):
            verifier = HashVerifier(seed=8)
            return decode(verifier, NoisyDraft(verifier, 0.5, 6.0), state)

        expected = [private(s) for s in states]
        verifier = HashVerifier(seed=8)
        draft = NoisyDraft(verifier, 0.5, 6.0)
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
        draft = NoisyDraft(recording, 0.5, 6.0)
        tree = build_tree(state, draft, params, recording.vocab_size)
        tree_prefixes = {state.emitted, *recording.prefixes}
        tree_prefixes.update(state.emitted + token_path(tree, i) for i in range(len(tree.nodes)))

        class ReadLog(Sequence):
            """One round's argmaxes, logging the positions read (0 is the root)."""

            def __init__(self, items):
                self.items, self.read = items, set()

            def __len__(self):
                return len(self.items)

            def __getitem__(self, i):
                self.read.add(i)
                return self.items[i]

        class Logging:
            """The engine's verifier: each round logs what acceptance reads of it."""

            def __init__(self, inner):
                self.inner, self.vocab_size, self.logs = inner, inner.vocab_size, []

            def batch(self, s, t):
                self.logs.append(ReadLog(self.inner.batch(s, t)))
                return self.logs[-1]

        draws = record_draws(monkeypatch)
        inner = HashVerifier(seed=4)
        verifier = Logging(inner)
        draft = NoisyDraft(inner, 0.5, 6.0)
        _, outcomes = decode_episode(state, verifier, draft, params, AcceptancePolicy.strict(), 1)
        assert len(outcomes) == 1
        # The root, what the draft scored and what acceptance read; nothing else.
        prefixes = {state.emitted, *recording.prefixes}
        prefixes.update(state.emitted + token_path(tree, i - 1) for i in verifier.logs[0].read if i)
        expected = {stream_key(state_of(*p), b"verifier", 4) for p in prefixes}
        keys = [key for key, _ in draws]
        assert len(keys) == len(set(keys)) == len(prefixes) < len(tree_prefixes)
        assert set(keys) == expected

    def test_a_step_draws_no_depth_four_leaf_but_the_chosen_tip(self, monkeypatch):
        draws = record_draws(monkeypatch)
        params = TreeParams()  # the default tree: the draft never expands depth 4
        tips = unread = 0
        for seed in range(8):
            for policy in (AcceptancePolicy.strict(), AcceptancePolicy.relaxed(9)):
                verifier = HashVerifier(seed=seed)  # an empty memo
                draft = NoisyDraft(verifier, 0.5, 6.0)
                state = state_of(seed, prompt=f"leaf{seed}")
                draws.clear()
                _, (outcome,) = decode_episode(state, verifier, draft, params, policy, 1)
                drawn = {key for key, _ in draws}
                tree = build_tree(state, draft, params, verifier.vocab_size)
                path = enumerate_paths(tree)[outcome.chosen_path]
                tip = path[outcome.accepted - 1] if outcome.accepted else None
                for i, node in enumerate(tree.nodes):
                    if node.depth == 4:
                        prefix = state.extend_many(token_path(tree, i))
                        assert (stream_key(prefix, b"verifier", seed) in drawn) == (i == tip)
                        tips += i == tip
                        unread += i != tip
        assert tips and unread

    def test_batch_serves_what_next_scored_from_the_memo(self, monkeypatch):
        draws = record_draws(monkeypatch)
        v = HashVerifier(seed=6)
        state = state_of(1, 2)
        tree = build_tree(
            state, NoisyDraft(v, 0.5, 6.0), TreeParams(top_k=2, max_depth=2), v.vocab_size
        )
        first = v.next(state)
        # The draft scored each depth-1 node's prefix when it expanded it.
        expanded = {
            i: v.next(state.extend(node.token))
            for i, node in enumerate(tree.nodes)
            if node.depth == 1
        }
        drawn = len(draws)
        result = v.batch(state, tree)
        assert result[0] == first
        assert expanded and all(result[i + 1] == token for i, token in expanded.items())
        assert len(draws) == drawn  # served from the memo
        leaf = next(i for i, node in enumerate(tree.nodes) if node.depth == 2)
        result[leaf + 1]  # a prefix nothing scored yet
        assert len(draws) == drawn + 1

    def test_memo_is_bounded_without_batched_rounds(self):
        v = HashVerifier(seed=6)
        state = state_of()
        for token in range(3 * MEMO_LIMIT):
            v.next(state)
            state = state.extend(token % 256)
        assert v._memo.cache_info().currsize <= MEMO_LIMIT


    def test_steps_wider_than_the_memo_keep_the_guarantees(self):
        params = TreeParams(top_k=16, max_depth=4, max_nodes=300)
        state = state_of(1, 2, 3)
        verifier = HashVerifier(seed=9)
        draft = NoisyDraft(verifier, 0.5, 6.0)
        tree = build_tree(state, draft, params, verifier.vocab_size)
        # One step scores the root and every node: more prefixes than the memo holds.
        assert len(tree.nodes) + 1 > MEMO_LIMIT
        fresh = HashVerifier(seed=9)
        strict, _ = decode_episode(state, verifier, draft, params, AcceptancePolicy.strict(), 28)
        assert strict == ar_decode(state, fresh, 28)
        relaxed, _ = decode_episode(state, verifier, draft, params, AcceptancePolicy.relaxed(9), 28)
        assert len(relaxed) == 28
        for i, token in enumerate(relaxed):
            reference = fresh.next(state.extend_many(relaxed[:i]))
            assert 0 <= token < verifier.vocab_size and abs(token - reference) <= 9


class TestNoisyDraft:
    def test_the_benchmark_s_older_name_is_the_class(self):
        # ``bench/run.py`` builds its draft as ``specdec.make_noisy_draft``;
        # nothing else calls that name, so ``__all__`` leaves it out.
        assert specdec.make_noisy_draft is NoisyDraft
        assert "make_noisy_draft" not in specdec.__all__

    def test_k1_with_full_agreement_is_verifier_argmax(self):
        v = HashVerifier(seed=21)
        draft = NoisyDraft(v, agreement_p=1.0, noise_sigma=1.0)
        for i in range(50):
            state = state_of(i % 256, (3 * i) % 256)
            (((token, logp),),) = draft.propose_many([state], 1)
            assert token == v.next(state)
            assert logp <= 0.0

    def test_top8_distinct_and_sorted(self):
        v = HashVerifier(seed=22)
        draft = NoisyDraft(v, agreement_p=0.5, noise_sigma=6.0)
        state = state_of(100)
        (props,) = draft.propose_many([state], 8)
        tokens = [t for t, _ in props]
        scores = [s for _, s in props]
        assert len(set(tokens)) == 8
        assert scores == sorted(scores, reverse=True)

    def test_k_larger_than_vocab_rejected(self):
        v = HashVerifier(seed=1)
        draft = NoisyDraft(v, agreement_p=1.0, noise_sigma=1.0)
        with pytest.raises(ValueError):
            draft.propose_many([state_of()], 257)
        with pytest.raises(ValueError):
            draft.propose_many([state_of()], 0)

    def test_bad_k_raises_at_call_time(self):
        # Proposals are made lazily, but a bad ``k`` fails before any is read.
        draft = NoisyDraft(HashVerifier(seed=1), agreement_p=1.0, noise_sigma=1.0)
        for wrapped in (draft, TimedDraft(draft, 0.0)):
            with pytest.raises(ValueError, match="k must be"):
                wrapped.propose_many([state_of()], 0)
            with pytest.raises(ValueError, match="k must be"):
                wrapped.propose_many([], 0)

    def test_timed_draft_declares_the_inner_bound(self):
        draft = NoisyDraft(HashVerifier(seed=1), agreement_p=0.5, noise_sigma=6.0)
        assert TimedDraft(draft, 0.0).max_log_score == draft.max_log_score < 0.0
        assert TimedDraft(WithBound(draft), 0.0).max_log_score == 0.0

    @pytest.mark.parametrize("latency", [float("inf"), float("nan"), -1.0])
    def test_latency_wrappers_reject_non_finite_or_negative_latency(self, latency):
        # An infinite latency would spin forever once a round is called.
        verifier = HashVerifier(seed=1)
        draft = NoisyDraft(verifier, agreement_p=0.5, noise_sigma=6.0)
        with pytest.raises(ValueError, match="latency"):
            TimedVerifier(verifier, latency)
        with pytest.raises(ValueError, match="latency"):
            TimedDraft(draft, latency)

    def test_full_agreement_tracks_argmax_everywhere(self):
        v = HashVerifier(seed=23)
        draft = NoisyDraft(v, agreement_p=1.0, noise_sigma=4.0)
        rng = np.random.default_rng(1)
        for _ in range(10_000):
            tokens = tuple(int(t) for t in rng.integers(0, 256, size=rng.integers(0, 4)))
            state = state_of(*tokens)
            top = list(draft.propose_many([state], 1))[0][0][0]
            assert top == v.next(state)

    def test_deterministic_proposals(self):
        v = HashVerifier(seed=24)
        draft = NoisyDraft(v, agreement_p=0.3, noise_sigma=5.0, seed=9)
        again = NoisyDraft(v, agreement_p=0.3, noise_sigma=5.0, seed=9)
        state = state_of(7, 7, 7)
        first = list(draft.propose_many([state], 8))
        assert first == list(again.propose_many([state], 8))
        # A repeated query is served from the per-center ranking and must not
        # hand out the stored list itself.
        first[0].clear()
        assert list(draft.propose_many([state, state], 8)) == list(
            again.propose_many([state, state], 8)
        )

    def test_agreement_calibration_three_sigma(self):
        """Empirical top-1 agreement over 100k prefixes within 3 SE of p."""
        p = 0.7
        v = HashVerifier(seed=25)
        draft = NoisyDraft(v, agreement_p=p, noise_sigma=6.0)
        n = 100_000
        agree = 0
        for i in range(n):
            state = PrefixState(prompt_id=f"cal{i}", observation_id="o")
            top = list(draft.propose_many([state], 1))[0][0][0]
            agree += top == v.next(state)
        se = (p * (1 - p) / n) ** 0.5
        # Clamping at the vocabulary edge can fold a displacement back onto
        # the argmax, adding ~(1-p) * 2/V * one_sided_tail of accidental
        # agreement; with sigma=6 and V=256 that is ~1e-3, inside 3 SE here.
        assert abs(agree / n - p) < 3 * se + 2e-3

    def test_invalid_parameters_rejected(self):
        v = HashVerifier(seed=1)
        with pytest.raises(ValueError):
            NoisyDraft(v, agreement_p=1.5, noise_sigma=1.0)
        for sigma in (0.0, float("nan")):
            with pytest.raises(ValueError):
                NoisyDraft(v, agreement_p=0.5, noise_sigma=sigma)
            with pytest.raises(ValueError):
                displacement_pmf(sigma, 256)


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
