"""Draft tree construction, budget pruning, validation, and path enumeration."""

import dataclasses
import math
import random
import types
from collections.abc import Sequence
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from specdec import models
from specdec.draft_tree import (
    ROOT,
    DraftNode,
    DraftTree,
    TreeParams,
    TreeStructureError,
    build_tree,
    enumerate_paths,
)
from specdec.models import HashVerifier, PrefixState, make_noisy_draft

from helpers import WithBound, random_tree, rebuilt, token_path

VOCAB = 256  # HashVerifier's default vocabulary


def models_for(seed, agreement_p=0.5, noise_sigma=6.0):
    verifier = HashVerifier(seed=seed)
    draft = make_noisy_draft(verifier, agreement_p=agreement_p, noise_sigma=noise_sigma)
    return verifier, draft


def exhaustive_rerank_oracle(state, draft, params):
    """Reference construction: enumerate the *full* k-ary candidate tree,
    rank every candidate globally, and keep the best ``max_nodes`` whose
    parents are kept.  Valid because a child never outranks its parent.
    Returns the kept paths with their cumulative scores.
    """
    candidates = {}  # path -> cum_score
    frontier = [((), 0.0)]
    for _ in range(params.max_depth):
        next_frontier = []
        for path, cum in frontier:
            (proposals,) = draft.propose_many([state.extend_many(path)], params.top_k)
            for token, logp in proposals:
                child = path + (token,)
                candidates[child] = cum + logp
                next_frontier.append((child, cum + logp))
        frontier = next_frontier

    ranked = sorted(candidates.items(), key=lambda kv: (-kv[1], len(kv[0]), kv[0]))
    kept = {}
    for path, cum in ranked:
        if len(kept) == params.max_nodes:
            break
        if len(path) > 1 and path[:-1] not in kept:
            continue
        kept[path] = cum
    return kept


class TiedDraft:
    """Proposes log-scores from ``scores``, by default {0.0, -0.5, -1.0} so
    ranks tie often; each prefix always gets the same proposals.  Returns a
    list, so every proposal exists whether ``build_tree`` reads it or not."""

    def __init__(self, seed, scores=(0.0, -0.5, -1.0)):
        self.seed, self.scores = seed, scores

    def propose_many(self, states, k):
        proposals = []
        for state in states:
            rng = np.random.default_rng([self.seed, *state.emitted])
            tokens = rng.choice(6, size=min(k, 6), replace=False)
            scores = sorted(rng.choice(self.scores, size=len(tokens)), reverse=True)
            proposals.append([(int(t), float(s)) for t, s in zip(tokens, scores)])
        return proposals


class LazyRecorder:
    """Wraps a draft; records each level's states and how many were read."""

    def __init__(self, inner):
        self.inner, self.levels = inner, []

    def propose_many(self, states, k):
        read = []
        self.levels.append((list(states), read))
        for state, props in zip(states, self.inner.propose_many(states, k)):
            read.append(state)
            yield props


class PoisonedDraft:
    """Eager draft: ``inner``'s lists, with a bad one for the ``poisoned`` prefix."""

    def __init__(self, inner, poisoned):
        self.inner, self.poisoned = inner, poisoned

    def propose_many(self, states, k):
        out = list(self.inner.propose_many(states, k))
        for state, props in zip(states, out):
            if state.emitted == self.poisoned:
                props[0] = (props[0][0], float("nan"))
        return out


class ReorderedDraft:
    """Wraps a draft; hands back each proposal list worst-first, or shuffled
    by a seeded shuffle when ``seed`` is given."""

    def __init__(self, inner, seed=None):
        self.inner = inner
        self.rng = None if seed is None else random.Random(seed)

    def propose_many(self, states, k):
        for props in self.inner.propose_many(states, k):
            props = list(props)
            if self.rng is None:
                props.reverse()
            else:
                self.rng.shuffle(props)
            yield props


class LevelRecorder:
    """Wraps a draft; keeps the states object of each level and counts the
    proposal lists ``build_tree`` reads from it, without touching the states."""

    def __init__(self, inner):
        self.inner, self.levels, self.read = inner, [], []

    def propose_many(self, states, k):
        self.levels.append(states)
        self.read.append(0)
        for props in self.inner.propose_many(states, k):
            self.read[-1] += 1
            yield props


def oracle_frontiers(state, draft, params):
    """Each level's frontier paths, best first, from the oracle: level 1
    expands the root, and level d the depth d-1 nodes of the best tree that
    stops at depth d-1."""
    frontiers = [[()]]
    for depth in range(1, params.max_depth):
        kept = exhaustive_rerank_oracle(state, draft, dataclasses.replace(params, max_depth=depth))
        paths = [path for path in kept if len(path) == depth]
        if not paths:
            break
        frontiers.append(paths)
    return frontiers


class TestBuildTree:
    def test_single_level_is_draft_top_k(self):
        verifier, draft = models_for(1)
        state = PrefixState()
        params = TreeParams(top_k=3, max_depth=1, max_nodes=50)
        tree = build_tree(state, draft, params, VOCAB)
        expected = [t for t, _ in list(draft.propose_many([state], 3))[0]]
        assert len(tree.nodes) == 3
        assert sorted(n.token for n in tree.nodes) == sorted(expected)
        assert all(n.parent == ROOT and n.depth == 1 for n in tree.nodes)

    def test_reference_parameters_fill_budget_exactly(self):
        # top_k=8, depth=4: 8 + 64 + ... candidates, capped at 50 nodes.
        verifier, draft = models_for(2)
        state = PrefixState()
        tree = build_tree(state, draft, TreeParams(top_k=8, max_depth=4, max_nodes=50), VOCAB)
        assert len(tree.nodes) == 50
        tree.validate()

    def test_matches_exhaustive_rerank_oracle(self):
        def check(state, draft, params):
            tree = rebuilt(build_tree(state, draft, params, VOCAB))
            kept = exhaustive_rerank_oracle(state, draft, params)
            built = {token_path(tree, i): tree.nodes[i].cum_score for i in range(len(tree.nodes))}
            assert set(built) == set(kept)
            for path, cum in built.items():
                assert cum == pytest.approx(kept[path], rel=1e-12)
            return tree

        def random_params():
            return TreeParams(
                top_k=int(rng.integers(1, 5)),
                max_depth=int(rng.integers(1, 5)),
                max_nodes=int(rng.integers(1, 21)),
            )

        rng = np.random.default_rng(0)
        for trial in range(400):
            verifier, draft = models_for(
                int(rng.integers(0, 10_000)),
                agreement_p=float(rng.uniform(0, 1)),
                noise_sigma=float(rng.uniform(0.5, 8.0)),
            )
            params = random_params()
            state = PrefixState(
                prompt_id=f"t{trial}",
                emitted=tuple(int(t) for t in rng.integers(0, 256, size=rng.integers(0, 3))),
            )
            check(state, draft, params)
        # Ties everywhere: children as good as their parents, equal siblings.
        for trial in range(200):
            check(PrefixState(prompt_id=f"tie{trial}"), TiedDraft(trial), random_params())
        # The ranking appends children while the list has room and sorts
        # once, when it fills or when a level ends short of full.  Each
        # draft here proposes exactly top_k, so the fill point is known.
        fills = [
            (TreeParams(top_k=2, max_depth=3, max_nodes=50), 2 + 4 + 8),  # never fills
            (TreeParams(top_k=2, max_depth=3, max_nodes=6), 2 + 4),  # on level 2's last child
            (TreeParams(top_k=3, max_depth=3, max_nodes=7), 7),  # on level 2's 4th of 9
        ]
        for params, size in fills:
            for seed in range(8):
                state = PrefixState(prompt_id=f"fill{seed}")
                for draft in (models_for(seed)[1], TiedDraft(seed)):
                    assert len(check(state, draft, params).nodes) == size

    def test_eager_drafts_match_oracle_at_every_budget(self):
        # Eager lists for cut frontier nodes go unread; the tree must not change.
        scores = (0.0, -1e-300, -0.5, -1.0, -40.0, -1e6, -1e300)
        for seed in range(6):
            draft = TiedDraft(seed, scores)
            for top_k, max_depth in ((2, 4), (3, 3), (6, 2), (1, 4)):
                for max_nodes in range(1, 31):
                    params = TreeParams(top_k=top_k, max_depth=max_depth, max_nodes=max_nodes)
                    state = PrefixState(prompt_id=f"eager{seed}")
                    tree = build_tree(state, draft, params, VOCAB)
                    tree.validate()
                    kept = exhaustive_rerank_oracle(state, draft, params)
                    assert [token_path(tree, i) for i in range(len(tree.nodes))] == list(kept)
                    assert [n.cum_score for n in tree.nodes] == list(kept.values())

    def test_default_tree_reads_a_strict_prefix_of_some_level(self):
        verifier, draft = models_for(3)
        state = PrefixState(prompt_id="lazy")
        recorder = LazyRecorder(draft)
        tree = build_tree(state, recorder, TreeParams(), VOCAB)
        assert tree.nodes == build_tree(state, draft, TreeParams(), VOCAB).nodes
        assert len(recorder.levels) == TreeParams().max_depth
        for given, read in recorder.levels:
            assert read == given[: len(read)]
        assert any(len(read) < len(given) for given, read in recorder.levels)

    def test_bad_proposal_fails_only_where_it_is_read(self):
        verifier, draft = models_for(3)
        state = PrefixState(prompt_id="lazy")
        recorder = LazyRecorder(draft)
        tree = build_tree(state, recorder, TreeParams(), VOCAB)
        given, read = next((g, r) for g, r in recorder.levels if len(r) < len(g))
        cut, kept = given[len(read)].emitted, read[-1].emitted
        poisoned = build_tree(state, PoisonedDraft(draft, cut), TreeParams(), VOCAB)
        assert poisoned.nodes == tree.nodes
        with pytest.raises(TreeStructureError, match="log-score nan"):
            build_tree(state, PoisonedDraft(draft, kept), TreeParams(), VOCAB)

    def test_proposal_order_does_not_change_the_tree(self):
        # Drafts need not list proposals best first: a worst-first or shuffled
        # list must build the oracle's tree, in the oracle's order.
        def check(state, draft, params, trial):
            kept = exhaustive_rerank_oracle(state, draft, params)
            for reordered in (ReorderedDraft(draft), ReorderedDraft(draft, seed=trial)):
                tree = rebuilt(build_tree(state, reordered, params, VOCAB))
                assert [token_path(tree, i) for i in range(len(tree.nodes))] == list(kept)
                assert [n.cum_score for n in tree.nodes] == list(kept.values())

        rng = np.random.default_rng(13)
        for trial in range(200):
            params = TreeParams(
                top_k=int(rng.integers(1, 5)),
                max_depth=int(rng.integers(1, 5)),
                max_nodes=int(rng.integers(1, 21)),
            )
            verifier, draft = models_for(
                int(rng.integers(0, 10_000)),
                agreement_p=float(rng.uniform(0, 1)),
                noise_sigma=float(rng.uniform(0.5, 8.0)),
            )
            check(PrefixState(prompt_id=f"order{trial}"), draft, params, trial)
            check(PrefixState(prompt_id=f"tie{trial}"), TiedDraft(trial), params, trial)

    def test_budget_respected_under_fuzzing(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            verifier, draft = models_for(int(rng.integers(0, 1000)))
            params = TreeParams(
                top_k=int(rng.integers(1, 9)),
                max_depth=int(rng.integers(1, 6)),
                max_nodes=int(rng.integers(1, 61)),
            )
            state = PrefixState(prompt_id=str(rng.integers(1 << 30)))
            tree = rebuilt(build_tree(state, draft, params, VOCAB))
            assert 1 <= len(tree.nodes) <= params.max_nodes
            assert max(n.depth for n in tree.nodes) <= params.max_depth

    def test_child_scores_never_exceed_parent(self):
        verifier, draft = models_for(9)
        state = PrefixState()
        tree = build_tree(state, draft, TreeParams(top_k=4, max_depth=4, max_nodes=40), VOCAB)
        for node in tree.nodes:
            parent_score = 0.0 if node.parent == ROOT else tree.nodes[node.parent].cum_score
            assert node.cum_score <= parent_score + 1e-12

    def test_identical_inputs_build_identical_trees(self):
        for seed in range(5):
            verifier, draft = models_for(seed)
            state = PrefixState(prompt_id="d")
            params = TreeParams(top_k=8, max_depth=4, max_nodes=50)
            a = build_tree(state, draft, params, VOCAB)
            b = build_tree(state, draft, params, VOCAB)
            assert a.nodes == b.nodes

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            TreeParams(top_k=0)
        with pytest.raises(ValueError):
            TreeParams(max_depth=0)
        with pytest.raises(ValueError):
            TreeParams(max_nodes=0)

    @pytest.mark.parametrize("field", ["top_k", "max_depth", "max_nodes"])
    def test_non_integer_params_rejected(self, field):
        # A fractional budget would build an over-budget tree or fail deep in numpy.
        for value in (2.5, 3.0, "3", None):
            with pytest.raises(ValueError, match=f"{field} must be an integer"):
                TreeParams(**{field: value})
        params = TreeParams(**{field: np.int64(3)})
        assert getattr(params, field) == 3 and type(getattr(params, field)) is int


class TestFrontierStates:
    """``build_tree`` hands the draft each level's states as a lazy sequence."""

    def test_len_is_the_frontier_size_at_every_level(self):
        rng = np.random.default_rng(17)
        for trial in range(100):
            params = TreeParams(
                top_k=int(rng.integers(1, 5)),
                max_depth=int(rng.integers(1, 5)),
                max_nodes=int(rng.integers(1, 21)),
            )
            verifier, draft = models_for(int(rng.integers(0, 10_000)))
            for inner in (draft, TiedDraft(trial)):
                state = PrefixState(prompt_id=f"len{trial}")
                recorder = LevelRecorder(inner)
                build_tree(state, recorder, params, VOCAB)
                frontiers = oracle_frontiers(state, inner, params)
                assert [len(states) for states in recorder.levels] == list(map(len, frontiers))

    def test_states_read_like_a_tuple(self):
        verifier, draft = models_for(5)
        root = PrefixState(prompt_id="seq", emitted=(3, 1, 4))
        recorder = LevelRecorder(draft)
        build_tree(root, recorder, TreeParams(), VOCAB)
        frontiers = oracle_frontiers(root, draft, TreeParams())
        assert len(recorder.levels) == len(frontiers) == TreeParams().max_depth
        for states, paths in zip(recorder.levels, frontiers):
            expected = tuple(root.extend_many(path) for path in paths)
            n = len(expected)
            assert isinstance(states, Sequence) and len(states) == n
            assert tuple(states) == expected
            assert [s.key for s in states] == [s.key for s in expected]
            assert [states[i] for i in range(-n, n)] == [expected[i] for i in range(-n, n)]
            assert [states[i].key for i in range(-n, n)] == [expected[i].key for i in range(-n, n)]
            for index in (n, -n - 1):
                with pytest.raises(IndexError):
                    states[index]
            for cut in (slice(None), slice(1, None, 2), slice(-3, None), slice(None, None, -1),
                        slice(5, 2), slice(2, 100)):
                assert tuple(states[cut]) == expected[cut]
                assert [s.key for s in states[cut]] == [s.key for s in expected[cut]]
            assert list(reversed(states)) == list(reversed(expected))
            assert states.index(expected[-1]) == n - 1 and expected[0] in states

    @pytest.mark.parametrize(
        "params, level", [(TreeParams(2, 3, 50), 3), (TreeParams(1, 1200, 1200), 1100)],
        ids=["tree", "deep-chain"],
    )
    def test_states_of_unread_parents_are_built_first(self, params, level):
        class ReadsOneLevel:
            """Proposes the same tokens everywhere and reads only ``level``'s states."""

            def __init__(self):
                self.levels = []

            def propose_many(self, states, k):
                self.levels.append(list(states) if len(self.levels) == level - 1 else None)
                return [[(10, -0.1), (11, -0.2)][:k]] * len(states)

        root = PrefixState(prompt_id="unread", emitted=(2, 7))
        draft = ReadsOneLevel()
        tree = build_tree(root, draft, params, VOCAB)
        read = draft.levels[level - 1]
        expected = [
            root.extend_many(token_path(tree, i))
            for i, n in enumerate(tree.nodes) if n.depth == level - 1
        ]
        assert read and read == expected
        assert [s.key for s in read] == [s.key for s in expected]

    def test_states_past_the_cut_are_never_built(self, monkeypatch):
        built = []
        extend = PrefixState.extend

        def counting(self, token):
            built.append(token)
            return extend(self, token)

        verifier, draft = models_for(3)
        state = PrefixState(prompt_id="lazy")
        recorder = LevelRecorder(draft)
        monkeypatch.setattr(PrefixState, "extend", counting)
        build_tree(state, recorder, TreeParams(), VOCAB)
        monkeypatch.undo()
        # The root level reads ``state`` itself; every later read builds one state.
        assert len(built) == sum(recorder.read[1:])
        assert sum(recorder.read) < sum(map(len, recorder.levels))


class TestLogScoreBound:
    """A draft's declared ``max_log_score`` only stops reading earlier."""

    @staticmethod
    def built(tree):
        return [(token_path(tree, i), n.cum_score) for i, n in enumerate(tree.nodes)]

    def test_bounded_build_equals_hidden_bound_and_oracle(self):
        rng = np.random.default_rng(29)
        oracle_checked = 0
        for trial in range(120):
            params = TreeParams(
                top_k=int(rng.integers(1, 9)),
                max_depth=int(rng.integers(1, 7)),
                max_nodes=int(rng.integers(1, 61)),
            )
            verifier, noisy = models_for(
                int(rng.integers(0, 10_000)),
                agreement_p=float(rng.uniform(0, 1)),
                noise_sigma=float(rng.uniform(0.5, 8.0)),
            )
            # Tied scores that reach the declared bound exactly, so a best
            # child can tie the list's last entry.
            tied = WithBound(TiedDraft(trial, (-0.5, -1.0, -1.5)), -0.5)
            state = PrefixState(prompt_id=f"bound{trial}")
            for draft in (noisy, tied):
                tree = rebuilt(build_tree(state, draft, params, VOCAB))
                assert self.built(tree) == self.built(
                    rebuilt(build_tree(state, WithBound(draft), params, VOCAB))
                )
                # The oracle drafts every candidate: skip the widest, deepest
                # trees.  A tied draft proposes at most 6 tokens.
                width = min(params.top_k, 6) if draft is tied else params.top_k
                if sum(width**d for d in range(1, params.max_depth + 1)) <= 5_000:
                    kept = exhaustive_rerank_oracle(state, draft, params)
                    assert self.built(tree) == list(kept.items())
                    oracle_checked += 1
        assert oracle_checked >= 150

    def test_bounded_build_reads_fewer_states(self):
        def reads(draft, params, state):
            recorder = LevelRecorder(draft)
            if hasattr(draft, "max_log_score"):
                recorder.max_log_score = draft.max_log_score
            rebuilt(build_tree(state, recorder, params, VOCAB))
            return sum(recorder.read)

        rng = np.random.default_rng(31)
        for trial in range(100):
            params = TreeParams(
                top_k=int(rng.integers(1, 9)),
                max_depth=int(rng.integers(1, 7)),
                max_nodes=int(rng.integers(1, 61)),
            )
            verifier, draft = models_for(int(rng.integers(0, 10_000)))
            state = PrefixState(prompt_id=f"reads{trial}")
            assert reads(draft, params, state) <= reads(WithBound(draft), params, state)
        verifier, draft = models_for(3)
        state = PrefixState(prompt_id="lazy")
        assert reads(draft, TreeParams(), state) < reads(WithBound(draft), TreeParams(), state)

    @pytest.mark.parametrize("vocab_size", [2, 3, 17, 256])
    def test_noisy_draft_bound_is_attained_and_never_exceeded(self, vocab_size):
        draft = make_noisy_draft(HashVerifier(vocab_size=vocab_size), 0.5, 6.0)
        bound = draft.max_log_score
        assert -math.inf < bound <= 0.0
        for k in (1, 8):
            scores = [
                logp
                for center in range(vocab_size)
                for _, logp in models._ranked(vocab_size, center, min(k, vocab_size))
            ]
            assert max(scores) == bound

    def test_proposal_above_the_declared_bound_rejected(self):
        proposals = [(10, -0.5), (11, -0.7), (12, -0.9)]
        params = TreeParams(top_k=3, max_depth=3, max_nodes=5)
        build_tree(PrefixState(), WithBound(FixedDraft(proposals), -0.5), params, VOCAB)
        with pytest.raises(TreeStructureError, match="log-score"):
            build_tree(PrefixState(), WithBound(FixedDraft(proposals), -0.6), params, VOCAB)

    @pytest.mark.parametrize("bound", [0.5, float("nan"), -math.inf, "x"])
    def test_bad_bound_rejected(self, bound):
        draft = WithBound(FixedDraft([(10, -0.5)]), bound)
        with pytest.raises(TreeStructureError, match="max_log_score"):
            build_tree(PrefixState(), draft, TreeParams(), VOCAB)


class FixedDraft:
    """Proposes the same ``(token, log-score)`` list for every state."""

    def __init__(self, proposals):
        self.proposals = proposals

    def propose_many(self, states, k):
        return [list(self.proposals[:k]) for _ in states]


class TestBadProposals:
    PARAMS = TreeParams(top_k=3, max_depth=3, max_nodes=5)

    @pytest.mark.parametrize(
        "proposals",
        [
            # Unchecked, children outrank their parents and the tree
            # silently shrinks to 2 of its 5 budgeted nodes.
            [(10, 0.3), (11, 0.2), (12, 0.1)],
            [(10, -0.1), (11, float("nan")), (12, -0.3)],
            [(10, -0.1), (11, float("inf")), (12, -0.3)],
            [(10, -0.1), (11, float("-inf")), (12, -0.3)],
        ],
        ids=["positive", "nan", "inf", "-inf"],
    )
    def test_non_finite_or_positive_log_score_rejected(self, proposals):
        with pytest.raises(TreeStructureError, match="log-score"):
            build_tree(PrefixState(), FixedDraft(proposals), self.PARAMS, VOCAB)

    @pytest.mark.parametrize(
        "proposals",
        [
            [(10.5, -0.1), (11, -0.2), (12, -0.3)],
            [("7", -0.1), (11, -0.2), (12, -0.3)],
            [(10, "x"), (11, -0.2), (12, -0.3)],
            [7, (11, -0.2), (12, -0.3)],
            [(1, -0.1, 0), (11, -0.2), (12, -0.3)],
            # Unchecked, an array score builds a tree whose ``cum_score`` is
            # an array, and a Decimal one fails with a stray TypeError.
            [(10, np.array([-1.0])), (11, -0.2), (12, -0.3)],
            [(10, Decimal("-1")), (11, -0.2), (12, -0.3)],
        ],
        ids=["float-token", "str-token", "str-score", "bare-token", "triple", "array-score",
             "decimal-score"],
    )
    def test_malformed_proposal_rejected(self, proposals):
        with pytest.raises(TreeStructureError) as caught:
            build_tree(PrefixState(), FixedDraft(proposals), self.PARAMS, VOCAB)
        expected = f"draft proposal {proposals[0]!r} is not an (int, log-score) pair"
        assert str(caught.value) == expected

    @pytest.mark.parametrize(
        "proposals, message",
        [
            ([(300, -0.1)], "draft token 300 outside vocabulary [0, 256)"),
            ([(-1, -0.1)], "draft token -1 outside vocabulary [0, 256)"),
            ([(10, 0.5)], "draft log-score 0.5 for token 10 is not finite and <= 0.0"),
            ([(10, -0.1), (10, -0.2)], "draft proposed token 10 twice under ()"),
            # Checked in order: pair, vocabulary, score, duplicate.
            ([(np.int64(300), float("nan"))], "draft token 300 outside vocabulary [0, 256)"),
            ([(300, "x")], "draft proposal (300, 'x') is not an (int, log-score) pair"),
            ([(10, -0.1), (10, float("nan"))],
             "draft log-score nan for token 10 is not finite and <= 0.0"),
            ([(10, -0.1), (np.int64(10), -0.2)], "draft proposed token 10 twice under ()"),
            ([(np.uint8(5), np.float64(0.5))],
             "draft log-score 0.5 for token 5 is not finite and <= 0.0"),
            ([(True, -0.1), (1, Fraction(-1, 2))], "draft proposed token 1 twice under ()"),
        ],
        ids=["vocab-high", "vocab-low", "score", "duplicate", "vocab-before-score",
             "pair-before-vocab", "score-before-duplicate", "numpy-duplicate", "numpy-score",
             "bool-duplicate"],
    )
    def test_each_check_keeps_its_message_and_order(self, proposals, message):
        with pytest.raises(TreeStructureError) as caught:
            build_tree(PrefixState(), FixedDraft(proposals), self.PARAMS, VOCAB)
        assert str(caught.value) == message

    @pytest.mark.parametrize(
        "token_type, score_type",
        [(np.int64, float), (int, np.float64), (np.uint16, Fraction), (np.int32, np.float64)],
        ids=["int64", "float64", "uint16-fraction", "int32-float64"],
    )
    def test_integer_and_real_likes_build_the_plain_tree(self, token_type, score_type):
        class Retyped:
            """Hands on every other proposal with its token and log-score retyped."""

            def propose_many(self, states, k):
                for props in draft.propose_many(states, k):
                    yield [
                        (token_type(t), score_type(lp)) if i % 2 else (t, lp)
                        for i, (t, lp) in enumerate(props)
                    ]

        verifier, draft = models_for(17)
        state = PrefixState(prompt_id="retyped", emitted=(4, 2))
        tree = build_tree(state, Retyped(), TreeParams(), VOCAB)
        assert tree == build_tree(state, draft, TreeParams(), VOCAB)
        assert len(tree.nodes) == TreeParams().max_nodes
        assert all(type(node.token) is int for node in tree.nodes)

    def test_bool_tokens_build_the_plain_tree(self):
        plain = [(1, -0.25), (0, -0.5)]
        tree = build_tree(PrefixState(), FixedDraft([(True, -0.25), (False, -0.5)]), self.PARAMS,
                          VOCAB)
        assert tree == build_tree(PrefixState(), FixedDraft(plain), self.PARAMS, VOCAB)
        assert len(tree.nodes) == 5
        assert all(type(node.token) is int for node in tree.nodes)

    @pytest.mark.parametrize("result", [None, [5]], ids=["none-result", "int-proposals"])
    def test_non_iterable_proposals_rejected(self, result):
        # Unchecked, both fail with a stray TypeError from ``iter``.
        draft = types.SimpleNamespace(propose_many=lambda states, k: result)
        with pytest.raises(TreeStructureError, match="iterable"):
            build_tree(PrefixState(), draft, TreeParams(2, 2, 5), VOCAB)

    def test_numpy_tokens_stored_as_ints(self):
        plain = [(10, -0.1), (11, -0.2), (12, -0.3)]
        numpy = [(np.int64(10), -0.1), (np.int32(11), np.float64(-0.2)), (np.uint8(12), -0.3)]
        tree = build_tree(PrefixState(), FixedDraft(numpy), self.PARAMS, VOCAB)
        assert all(type(node.token) is int for node in tree.nodes)
        assert tree == build_tree(PrefixState(), FixedDraft(plain), self.PARAMS, VOCAB)

    def test_duplicate_token_under_one_parent_rejected(self):
        draft = FixedDraft([(10, -0.1), (10, -0.2), (12, -0.3)])
        with pytest.raises(TreeStructureError, match="twice"):
            build_tree(PrefixState(), draft, self.PARAMS, VOCAB)

    def test_zero_log_score_accepted(self):
        draft = FixedDraft([(10, 0.0), (11, -0.2), (12, -0.3)])
        tree = build_tree(PrefixState(), draft, self.PARAMS, VOCAB)
        tree.validate()
        assert len(tree.nodes) == 5


class TestValidate:
    def test_dangling_parent_rejected(self):
        nodes = (
            DraftNode(token=5, parent=ROOT, depth=1, cum_score=-0.1),
            DraftNode(token=6, parent=7, depth=2, cum_score=-0.2),
        )
        with pytest.raises(TreeStructureError):
            DraftTree(nodes=nodes, params=TreeParams(top_k=2, max_depth=2, max_nodes=50))

    def test_duplicate_sibling_tokens_rejected(self):
        nodes = (
            DraftNode(token=5, parent=ROOT, depth=1, cum_score=-0.1),
            DraftNode(token=5, parent=ROOT, depth=1, cum_score=-0.2),
        )
        with pytest.raises(TreeStructureError):
            DraftTree(nodes=nodes, params=TreeParams(top_k=2, max_depth=2, max_nodes=50))
        # Below the root: a repeat under one parent fails, the same token
        # under two parents is two distinct paths.
        for parents, valid in (((0, 0), False), ((0, 1), True)):
            nodes = (
                DraftNode(token=5, parent=ROOT, depth=1, cum_score=-0.1),
                DraftNode(token=6, parent=ROOT, depth=1, cum_score=-0.2),
                DraftNode(token=7, parent=parents[0], depth=2, cum_score=-0.3),
                DraftNode(token=7, parent=parents[1], depth=2, cum_score=-0.4),
            )
            params = TreeParams(top_k=2, max_depth=2, max_nodes=50)
            if valid:
                DraftTree(nodes=nodes, params=params)
            else:
                with pytest.raises(TreeStructureError, match="repeats"):
                    DraftTree(nodes=nodes, params=params)

    @pytest.mark.parametrize("token", [-3, 2.5, "7", None], ids=["negative", "float", "str", "none"])
    def test_node_token_must_be_an_integer_at_least_zero(self, token):
        nodes = (
            DraftNode(token=5, parent=ROOT, depth=1, cum_score=-0.1),
            DraftNode(token=token, parent=0, depth=2, cum_score=-0.2),
        )
        # The tree is never built, so a bad token never reaches a verifier's
        # key fold or an emitted step.
        with pytest.raises(TreeStructureError, match="not an integer >= 0"):
            DraftTree(nodes=nodes, params=TreeParams(top_k=2, max_depth=2, max_nodes=50))

    def test_node_token_outside_the_vocabulary_rejected(self):
        nodes = (
            DraftNode(token=5, parent=ROOT, depth=1, cum_score=-0.1),
            DraftNode(token=300, parent=0, depth=2, cum_score=-0.2),
        )
        # A tree has no vocabulary; the verifier that scores it checks its own.
        tree = DraftTree(nodes=nodes, params=TreeParams(top_k=2, max_depth=2, max_nodes=50))
        with pytest.raises(TreeStructureError, match="outside vocabulary"):
            HashVerifier(vocab_size=VOCAB, seed=0).batch(PrefixState(), tree)
        HashVerifier(vocab_size=301, seed=0).batch(PrefixState(), tree)

    def test_replace_with_malformed_nodes_rejected(self):
        tree = build_tree(PrefixState(), models_for(4)[1], TreeParams(), VOCAB)
        dangling = tree.nodes[-1]._replace(parent=len(tree.nodes))
        with pytest.raises(TreeStructureError, match="dangling"):
            dataclasses.replace(tree, nodes=tree.nodes[:-1] + (dangling,))
        with pytest.raises(TreeStructureError, match="exceed budget"):
            dataclasses.replace(tree, params=TreeParams(max_nodes=len(tree.nodes) - 1))
        # A list of nodes is stored as a tuple, so it cannot be mutated afterwards.
        assert dataclasses.replace(tree, nodes=list(tree.nodes)).nodes == tree.nodes

    def test_integer_like_node_tokens_accepted(self):
        # Numpy and ``bool`` tokens, parents and depths are stored as ``int``s,
        # whether the tree is constructed or copied by ``dataclasses.replace``.
        params = TreeParams(top_k=2, max_depth=3, max_nodes=50)
        plain = (
            DraftNode(token=0, parent=ROOT, depth=1, cum_score=-0.1),
            DraftNode(token=255, parent=0, depth=2, cum_score=-0.2),
            DraftNode(token=1, parent=ROOT, depth=1, cum_score=-0.3),
            DraftNode(token=7, parent=1, depth=3, cum_score=-0.4),
        )
        integer_like = (
            DraftNode(token=np.uint8(0), parent=np.int64(ROOT), depth=True, cum_score=-0.1),
            DraftNode(token=np.int64(255), parent=False, depth=np.int32(2), cum_score=-0.2),
            DraftNode(token=True, parent=np.int8(ROOT), depth=np.uint64(1), cum_score=-0.3),
            DraftNode(token=np.int16(7), parent=True, depth=np.int64(3), cum_score=-0.4),
        )
        twin = DraftTree(nodes=plain, params=params)
        built = DraftTree(nodes=integer_like, params=params)
        replaced = dataclasses.replace(twin, nodes=list(integer_like))
        for tree in (built, replaced):
            for node in tree.nodes:
                assert type(node.token) is type(node.parent) is type(node.depth) is int
            assert tree == twin and tree.nodes == plain
            tree.validate()

    def test_non_integer_parent_rejected(self):
        params = TreeParams(top_k=2, max_depth=2, max_nodes=50)
        first = DraftNode(token=5, parent=ROOT, depth=1, cum_score=-0.1)
        child = DraftNode(token=6, parent=0.0, depth=2, cum_score=-0.2)
        with pytest.raises(TreeStructureError, match="node 1 parent 0.0 .* not an integer"):
            DraftTree(nodes=(first, child), params=params)
        DraftTree(nodes=(first, child._replace(parent=np.int64(0))), params=params)

    def test_non_integer_depth_rejected(self):
        # Accepted, a depth of 2.0 would index a per-dimension threshold in verify_tree.
        params = TreeParams(top_k=2, max_depth=2, max_nodes=50)
        first = DraftNode(token=5, parent=ROOT, depth=1, cum_score=-0.1)
        child = DraftNode(token=6, parent=0, depth=2.0, cum_score=-0.2)
        with pytest.raises(TreeStructureError, match="node 1 .* depth 2.0 is not an integer"):
            DraftTree(nodes=(first, child), params=params)
        DraftTree(nodes=(first, child._replace(depth=np.int64(2))), params=params)


class TestEnumeratePaths:
    def test_single_node(self):
        tree = DraftTree(
            nodes=(DraftNode(token=3, parent=ROOT, depth=1, cum_score=-0.5),),
            params=TreeParams(top_k=1, max_depth=1, max_nodes=1),
        )
        assert enumerate_paths(tree) == [[0]]

    def test_full_binary_tree_depth_two(self):
        nodes = (
            DraftNode(token=0, parent=ROOT, depth=1, cum_score=-0.1),
            DraftNode(token=1, parent=ROOT, depth=1, cum_score=-0.2),
            DraftNode(token=0, parent=0, depth=2, cum_score=-0.3),
            DraftNode(token=1, parent=0, depth=2, cum_score=-0.4),
            DraftNode(token=0, parent=1, depth=2, cum_score=-0.5),
            DraftNode(token=1, parent=1, depth=2, cum_score=-0.6),
        )
        tree = DraftTree(nodes=nodes, params=TreeParams(top_k=2, max_depth=2, max_nodes=50))
        paths = enumerate_paths(tree)
        assert len(paths) == 4
        assert all(len(p) == 2 for p in paths)

    def test_path_count_equals_leaf_count(self):
        rng = np.random.default_rng(3)
        for _ in range(80):
            tree = random_tree(rng, max_nodes=50)
            children = {n.parent for n in tree.nodes if n.parent != ROOT}
            leaves = len(tree.nodes) - len(children)
            assert len(enumerate_paths(tree)) == leaves

    def test_paths_ordered_by_descending_leaf_score(self):
        rng = np.random.default_rng(4)
        for _ in range(40):
            verifier, draft = models_for(int(rng.integers(0, 100)))
            state = PrefixState(prompt_id=str(rng.integers(1 << 30)))
            tree = build_tree(state, draft, TreeParams(top_k=3, max_depth=3, max_nodes=25), VOCAB)
            paths = enumerate_paths(tree)
            scores = [tree.nodes[p[-1]].cum_score for p in paths]
            assert scores == sorted(scores, reverse=True)
