"""Acceptance suite: one test per exit criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Every tolerance is pinned here; nothing is deferred to later
calibration.
"""

import dataclasses
import json
import time
from contextlib import contextmanager

import numpy as np
import pytest

from specdec.action_space import bin_distance
from specdec.cli import main
from specdec.config import RunConfig
from specdec.draft_tree import TreeParams, build_tree, enumerate_paths
from specdec.harness import measure_speedup, run_batch
from specdec.models import HashVerifier, NoisyDraft, PrefixState
from specdec.report import aggregate, render_json, validate_report
from specdec.verify import AcceptancePolicy, ar_decode, decode_episode, verify_tree

from helpers import (
    ScriptedDraft,
    ScriptedVerifier,
    chain_expected_accepted,
    chain_q,
    random_tree,
    reference_verify_path,
    token_path,
)


@contextmanager
def criterion(name):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE [FAIL] {name}")
        raise
    print(f"\nACCEPTANCE [PASS] {name} ({time.perf_counter() - start:.1f}s)")


def policy_of(r: int) -> AcceptancePolicy:
    return AcceptancePolicy.relaxed(r) if r else AcceptancePolicy.strict()


def test_losslessness_strict_equals_ar():
    """decode_episode(r=0) is token-identical to ar_decode on 1000 configs."""
    with criterion("losslessness: strict speculative decoding == AR"):
        rng = np.random.default_rng(2024)
        checked = 0
        for i in range(1000):
            verifier = HashVerifier(seed=int(rng.integers(0, 1 << 31)))
            draft = NoisyDraft(
                verifier,
                agreement_p=float(rng.uniform(0.0, 1.0)),
                noise_sigma=float(rng.uniform(0.5, 8.0)),
                seed=int(rng.integers(0, 1 << 31)),
            )
            params = TreeParams(
                top_k=int(rng.integers(1, 9)),
                max_depth=int(rng.integers(1, 6)),
                max_nodes=int(rng.integers(1, 51)),
            )
            length = int(rng.choice([7, 14, 21]))
            state = PrefixState(prompt_id=f"ll{i}")
            tokens, _ = decode_episode(
                state, verifier, draft, params, AcceptancePolicy.strict(), length
            )
            assert tokens == ar_decode(state, verifier, length), (
                f"config {i}: strict decode diverged from AR ({params})"
            )
            checked += 1
        assert checked == 1000


def test_relaxed_soundness_fuzzed():
    """Every accepted draft token is within the effective r of its argmax."""
    with criterion("relaxed soundness: accepted tokens within effective r"):
        rng = np.random.default_rng(7)
        steps = 0
        while steps < 10_000:
            tree = random_tree(rng, max_nodes=50)
            verified = [int(t) for t in rng.integers(0, 256, size=len(tree.nodes) + 1)]
            start = int(rng.integers(0, 21))
            if rng.random() < 0.3:
                overrides = [int(t) for t in rng.integers(0, 13, size=7)]
                policy = AcceptancePolicy.relaxed(int(rng.integers(0, 13)), overrides)
                thresholds = overrides
            else:
                r = int(rng.integers(0, 13))
                policy = policy_of(r)
                thresholds = [policy.effective_r(d) for d in range(7)]

            outcome = verify_tree(tree, verified, policy, start)
            steps += 1

            path = enumerate_paths(tree)[outcome.chosen_path]
            for i in range(outcome.accepted):
                token = tree.nodes[path[i]].token
                argmax = verified[0] if i == 0 else verified[path[i - 1] + 1]
                dim = (start + i) % 7
                assert bin_distance(token, argmax) <= thresholds[dim]
                assert outcome.emitted[i] == token
                assert outcome.reference[i] == argmax
        assert steps >= 10_000


def test_step_monotonicity_in_r():
    """For fixed (prefix, tree), accepted length never drops as r grows."""
    with criterion("step monotonicity: accepted length non-decreasing in r"):
        rng = np.random.default_rng(11)
        ladder = (0, 1, 2, 3, 5, 7, 9, 12, 15, 20)
        pairs = 0

        # Half synthetic trees with random argmaxes...
        for _ in range(500):
            tree = random_tree(rng, max_nodes=50)
            verified = [int(t) for t in rng.integers(0, 256, size=len(tree.nodes) + 1)]
            start = int(rng.integers(0, 7))
            lengths = [
                verify_tree(tree, verified, policy_of(r), start).accepted for r in ladder
            ]
            assert lengths == sorted(lengths), f"non-monotone: {lengths}"
            pairs += 1

        # ...half built by the engine against the real verifier.
        for i in range(500):
            verifier = HashVerifier(seed=i)
            draft = NoisyDraft(verifier, agreement_p=0.4, noise_sigma=5.0)
            state = PrefixState(prompt_id=f"mono{i}", emitted=(int(rng.integers(0, 256)),))
            params = TreeParams(top_k=3, max_depth=4, max_nodes=20)
            tree = build_tree(state, draft, params, verifier.vocab_size)
            scores = verifier.batch(state, tree)
            verified = list(scores)
            lengths = [
                verify_tree(tree, verified, policy_of(r), state.position).accepted
                for r in ladder
            ]
            assert lengths == sorted(lengths), f"non-monotone: {lengths}"
            pairs += 1
        assert pairs >= 1000


def test_oracle_equivalence():
    """verify_tree == path-enumeration oracle; build_tree == global re-rank."""
    with criterion("oracle equivalence: verify_tree and build_tree vs brute force"):
        rng = np.random.default_rng(13)

        for _ in range(1000):
            tree = random_tree(rng, max_nodes=50)
            verified = [int(t) for t in rng.integers(0, 256, size=len(tree.nodes) + 1)]
            r = int(rng.integers(0, 12))
            start = int(rng.integers(0, 7))
            outcome = verify_tree(tree, verified, policy_of(r), start)

            best_accepted, best_idx, best_emitted = -1, -1, None
            for idx, node_path in enumerate(enumerate_paths(tree)):
                tokens = [tree.nodes[j].token for j in node_path]
                argmaxes = [verified[0]] + [verified[j + 1] for j in node_path]
                accepted, nxt = reference_verify_path(tokens, argmaxes, lambda dim: r, start)
                if accepted > best_accepted:
                    best_accepted = accepted
                    best_idx = idx
                    best_emitted = tuple(tokens[:accepted]) + (nxt,)
            assert (outcome.accepted, outcome.chosen_path, outcome.emitted) == (
                best_accepted,
                best_idx,
                best_emitted,
            )

        # Budget pruning vs exhaustive global re-ranking on small trees.
        for i in range(500):
            verifier = HashVerifier(seed=int(rng.integers(0, 10_000)))
            draft = NoisyDraft(
                verifier,
                agreement_p=float(rng.uniform(0, 1)),
                noise_sigma=float(rng.uniform(0.5, 8.0)),
            )
            params = TreeParams(
                top_k=int(rng.integers(1, 5)),
                max_depth=int(rng.integers(1, 5)),
                max_nodes=int(rng.integers(1, 21)),
            )
            state = PrefixState(prompt_id=f"or{i}")
            tree = build_tree(state, draft, params, verifier.vocab_size)

            candidates = {}
            frontier = [((), 0.0)]
            for _ in range(params.max_depth):
                nxt = []
                for path, cum in frontier:
                    (proposals,) = draft.propose_many([state.extend_many(path)], params.top_k)
                    for token, logp in proposals:
                        candidates[path + (token,)] = cum + logp
                        nxt.append((path + (token,), cum + logp))
                frontier = nxt
            ranked = sorted(candidates.items(), key=lambda kv: (-kv[1], len(kv[0]), kv[0]))
            kept = {}
            for path, cum in ranked:
                if len(kept) == params.max_nodes:
                    break
                if len(path) > 1 and path[:-1] not in kept:
                    continue
                kept[path] = cum
            built = {token_path(tree, j) for j in range(len(tree.nodes))}
            assert built == set(kept)


def test_relaxation_gain_analogue():
    """Synthetic noisy draft: r=9 lifts tokens-per-pass >=25% over r=0,
    and both match the brute-force expectation within 2%."""
    with criterion("relaxation gain: >=25% tokens-per-pass, expectation within 2%"):
        p, sigma, depth, vocab = 0.5, 6.0, 4, 256
        expected = {
            r: 1.0 + chain_expected_accepted(chain_q(p, sigma, vocab, r), depth)
            for r in (0, 9)
        }
        assert expected[9] >= 1.25 * expected[0]

        config = dataclasses.replace(
            RunConfig(),
            episodes=500,
            target_length=140,
            top_k=1,
            tree_depth=depth,
            max_nodes=depth,
            agreement_p=p,
            noise_sigma=sigma,
            r_values=(0, 9),
            seed=99,
        )
        stats = run_batch(config)
        report = aggregate(stats, config)
        by_r = {row.r: row for row in report.policies}

        for r in (0, 9):
            measured = by_r[r].tokens_per_pass
            assert measured == pytest.approx(expected[r], rel=0.02), (
                f"r={r}: measured {measured:.4f} vs expected {expected[r]:.4f}"
            )
        assert by_r[9].tokens_per_pass >= 1.25 * by_r[0].tokens_per_pass

        # Relaxation moves histogram mass from zero-length steps to full
        # acceptance, per the same truncated-geometric expectation.
        assert by_r[9].length_proportions[0] < by_r[0].length_proportions[0]
        assert by_r[9].length_proportions[4] > by_r[0].length_proportions[4]


def test_speedup_analogue():
    """verify=20ms, draft=1ms, depth=4: measured within 10% of analytic."""
    with criterion("speedup analogue: measured within 10% of analytic"):
        config = dataclasses.replace(
            RunConfig(),
            episodes=2,
            target_length=70,
            top_k=1,
            tree_depth=4,
            max_nodes=4,
            agreement_p=1.0,
            noise_sigma=1.0,
            r_values=(0,),
            verify_latency=0.020,
            draft_latency=0.001,
            seed=5,
        )
        measurement = measure_speedup(config)[0]
        assert measurement.analytic is not None
        assert measurement.measured == pytest.approx(measurement.analytic, rel=0.10), (
            f"measured {measurement.measured:.3f} vs analytic {measurement.analytic:.3f}"
        )


def test_report_identities(tmp_path):
    """Proportions sum to 1, histogram mean + 1 == tokens/pass, stable bytes."""
    with criterion("report identities and byte-stable outputs"):
        config = dataclasses.replace(
            RunConfig(), episodes=5, target_length=28, r_values=(0, 3, 9), seed=21
        )
        stats = run_batch(config)
        report = aggregate(stats, config)
        validate_report(report)
        for row in report.policies:
            assert abs(sum(row.length_proportions) - 1.0) <= 1e-9
            assert row.tokens_per_pass == 1.0 + row.mean_accepted  # exact
            assert sum(row.histogram) == row.steps
        assert render_json(aggregate(run_batch(config), config)) == render_json(report)

        paths = [tmp_path / "r1.json", tmp_path / "r2.json"]
        for path in paths:
            code = main(
                [
                    "bench",
                    "--episodes",
                    "3",
                    "--length",
                    "14",
                    "--seed",
                    "8",
                    "--format",
                    "json",
                    "--out",
                    str(path),
                ]
            )
            assert code == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()
        json.loads(paths[0].read_text())  # well-formed machine output


def test_scripted_trace_replay():
    """Scripted argmax trace [137,128,128,109,98,82,256]: relaxed acceptance
    finishes the 7-token action in 3 verification rounds, strict needs 5."""
    with criterion("scripted trace replay: 3 rounds relaxed vs 5 strict"):
        sequence = [137, 128, 128, 109, 98, 82, 256]
        drafts = [128, 128, 117, 100, 98, 93, 247]
        # Per-position distances: 9, 0, 11, 9, 0, 11, 9.
        assert [bin_distance(d, s) for d, s in zip(drafts, sequence)] == [9, 0, 11, 9, 0, 11, 9]

        vocab = 257  # the replayed trace contains token 256
        verifier = ScriptedVerifier(sequence, vocab_size=vocab)
        draft = ScriptedDraft(drafts, vocab_size=vocab)
        params = TreeParams(top_k=1, max_depth=4, max_nodes=50)
        state = PrefixState(prompt_id="trace")

        strict_tokens, strict_outcomes = decode_episode(
            state, verifier, draft, params, AcceptancePolicy.strict(), 7
        )
        relaxed_tokens, relaxed_outcomes = decode_episode(
            state, verifier, draft, params, AcceptancePolicy.relaxed(9), 7
        )

        assert len(strict_outcomes) == 5, f"strict took {len(strict_outcomes)} rounds"
        assert len(relaxed_outcomes) == 3, f"relaxed took {len(relaxed_outcomes)} rounds"
        assert strict_tokens == tuple(sequence)  # strict mode reproduces the trace
        assert all(
            bin_distance(t, s) <= 9 for t, s in zip(relaxed_tokens, sequence)
        )  # relaxed stays within the threshold of the trace
