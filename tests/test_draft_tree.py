"""Draft tree construction, budget pruning, flattening, and path enumeration."""

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
    flatten,
)
from specdec.models import HashVerifier, PrefixState, make_noisy_draft

from helpers import ancestors_by_pointer_walk, random_tree


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
        rng = np.random.default_rng(0)
        for trial in range(400):
            verifier, draft = models_for(
                int(rng.integers(0, 10_000)),
                agreement_p=float(rng.uniform(0, 1)),
                noise_sigma=float(rng.uniform(0.5, 8.0)),
            )
            params = TreeParams(
                top_k=int(rng.integers(1, 5)),
                max_depth=int(rng.integers(1, 5)),
                max_nodes=int(rng.integers(1, 21)),
            )
            state = PrefixState(
                prompt_id=f"t{trial}",
                emitted=tuple(int(t) for t in rng.integers(0, 256, size=rng.integers(0, 3))),
            )
            tree = build_tree(state, draft, params)
            tree.validate()

            kept = exhaustive_rerank_oracle(state, draft, params)
            built = {tree.token_path(i): tree.nodes[i].cum_score for i in range(len(tree.nodes))}
            assert set(built) == set(kept)
            for path, cum in built.items():
                assert cum == pytest.approx(kept[path], rel=1e-12)

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


class TestFlatten:
    def _chain(self, tokens):
        nodes = [
            DraftNode(token=t, parent=i - 1 if i else ROOT, depth=i + 1, cum_score=-0.1 * (i + 1))
            for i, t in enumerate(tokens)
        ]
        return DraftTree(nodes=tuple(nodes), params=TreeParams(top_k=1, max_depth=len(tokens), max_nodes=50))

    def test_chain_gives_causal_mask(self):
        tokens, parents, mask = flatten(self._chain([10, 20, 30]))
        assert tokens == [10, 20, 30]
        assert parents == [ROOT, 0, 1]
        expected = np.tril(np.ones((3, 3), dtype=bool))
        assert (mask == expected).all()

    def test_siblings_are_not_ancestors(self):
        nodes = (
            DraftNode(token=5, parent=ROOT, depth=1, cum_score=-0.1),
            DraftNode(token=1, parent=0, depth=2, cum_score=-0.3),
            DraftNode(token=2, parent=0, depth=2, cum_score=-0.4),
        )
        tree = DraftTree(nodes=nodes, params=TreeParams(top_k=2, max_depth=2, max_nodes=50))
        _, _, mask = flatten(tree)
        assert mask[1].tolist() == [True, True, False]
        assert mask[2].tolist() == [True, False, True]

    def test_mask_rows_match_pointer_walk(self):
        rng = np.random.default_rng(2)
        for _ in range(60):
            tree = random_tree(rng, max_nodes=50)
            _, _, mask = flatten(tree)
            for i in range(len(tree.nodes)):
                expected = np.zeros(len(tree.nodes), dtype=bool)
                expected[ancestors_by_pointer_walk(tree, i)] = True
                assert (mask[i] == expected).all()

    def test_dangling_parent_rejected(self):
        nodes = (
            DraftNode(token=5, parent=ROOT, depth=1, cum_score=-0.1),
            DraftNode(token=6, parent=7, depth=2, cum_score=-0.2),
        )
        tree = DraftTree(nodes=nodes, params=TreeParams(top_k=2, max_depth=2, max_nodes=50))
        with pytest.raises(TreeStructureError):
            flatten(tree)

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
