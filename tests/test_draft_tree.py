"""Draft tree construction, budget pruning, validation, and path enumeration."""

import numpy as np
import pytest

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

from helpers import random_tree


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
    """Proposes log-scores from {0.0, -0.5, -1.0}, so ranks tie often; each
    prefix always gets the same proposals."""

    def __init__(self, seed):
        self.seed = seed

    def propose_many(self, states, k):
        proposals = []
        for state in states:
            rng = np.random.default_rng([self.seed, *state.emitted])
            tokens = rng.choice(6, size=min(k, 6), replace=False)
            scores = sorted(rng.choice([0.0, -0.5, -1.0], size=len(tokens)), reverse=True)
            proposals.append([(int(t), float(s)) for t, s in zip(tokens, scores)])
        return proposals


class TestBuildTree:
    def test_single_level_is_draft_top_k(self):
        verifier, draft = models_for(1)
        state = PrefixState()
        params = TreeParams(top_k=3, max_depth=1, max_nodes=50)
        tree = build_tree(state, draft, params)
        expected = [t for t, _ in draft.propose_many([state], 3)[0]]
        assert len(tree.nodes) == 3
        assert sorted(n.token for n in tree.nodes) == sorted(expected)
        assert all(n.parent == ROOT and n.depth == 1 for n in tree.nodes)

    def test_reference_parameters_fill_budget_exactly(self):
        # top_k=8, depth=4: 8 + 64 + ... candidates, capped at 50 nodes.
        verifier, draft = models_for(2)
        state = PrefixState()
        tree = build_tree(state, draft, TreeParams(top_k=8, max_depth=4, max_nodes=50))
        assert len(tree.nodes) == 50
        tree.validate()

    def test_matches_exhaustive_rerank_oracle(self):
        def check(state, draft, params):
            tree = build_tree(state, draft, params)
            tree.validate()
            kept = exhaustive_rerank_oracle(state, draft, params)
            built = {tree.token_path(i): tree.nodes[i].cum_score for i in range(len(tree.nodes))}
            assert set(built) == set(kept)
            for path, cum in built.items():
                assert cum == pytest.approx(kept[path], rel=1e-12)

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
            tree = build_tree(state, draft, params)
            assert 1 <= len(tree.nodes) <= params.max_nodes
            assert max(n.depth for n in tree.nodes) <= params.max_depth

    def test_child_scores_never_exceed_parent(self):
        verifier, draft = models_for(9)
        state = PrefixState()
        tree = build_tree(state, draft, TreeParams(top_k=4, max_depth=4, max_nodes=40))
        for node in tree.nodes:
            parent_score = 0.0 if node.parent == ROOT else tree.nodes[node.parent].cum_score
            assert node.cum_score <= parent_score + 1e-12

    def test_identical_inputs_build_identical_trees(self):
        for seed in range(5):
            verifier, draft = models_for(seed)
            state = PrefixState(prompt_id="d")
            params = TreeParams(top_k=8, max_depth=4, max_nodes=50)
            a = build_tree(state, draft, params)
            b = build_tree(state, draft, params)
            assert a.nodes == b.nodes

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            TreeParams(top_k=0)
        with pytest.raises(ValueError):
            TreeParams(max_depth=0)
        with pytest.raises(ValueError):
            TreeParams(max_nodes=0)


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
            build_tree(PrefixState(), FixedDraft(proposals), self.PARAMS)

    def test_duplicate_token_under_one_parent_rejected(self):
        draft = FixedDraft([(10, -0.1), (10, -0.2), (12, -0.3)])
        with pytest.raises(TreeStructureError, match="twice"):
            build_tree(PrefixState(), draft, self.PARAMS)

    def test_zero_log_score_accepted(self):
        draft = FixedDraft([(10, 0.0), (11, -0.2), (12, -0.3)])
        tree = build_tree(PrefixState(), draft, self.PARAMS)
        tree.validate()
        assert len(tree.nodes) == 5


class TestValidate:
    def test_dangling_parent_rejected(self):
        nodes = (
            DraftNode(token=5, parent=ROOT, depth=1, cum_score=-0.1),
            DraftNode(token=6, parent=7, depth=2, cum_score=-0.2),
        )
        tree = DraftTree(nodes=nodes, params=TreeParams(top_k=2, max_depth=2, max_nodes=50))
        with pytest.raises(TreeStructureError):
            tree.validate()

    def test_duplicate_sibling_tokens_rejected(self):
        nodes = (
            DraftNode(token=5, parent=ROOT, depth=1, cum_score=-0.1),
            DraftNode(token=5, parent=ROOT, depth=1, cum_score=-0.2),
        )
        tree = DraftTree(nodes=nodes, params=TreeParams(top_k=2, max_depth=2, max_nodes=50))
        with pytest.raises(TreeStructureError):
            tree.validate()


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
            tree = build_tree(state, draft, TreeParams(top_k=3, max_depth=3, max_nodes=25))
            paths = enumerate_paths(tree)
            scores = [tree.nodes[p[-1]].cum_score for p in paths]
            assert scores == sorted(scores, reverse=True)
