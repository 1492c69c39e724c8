"""Batch runner statistics, success proxy, and the speedup estimates."""

import dataclasses
import time

import numpy as np
import pytest

from specdec.config import ConfigValueError, RunConfig
from specdec.draft_tree import TreeParams
from specdec.harness import (
    CostModel,
    EpisodeStats,
    _episode_state,
    analytic_speedup,
    build_models,
    measure_speedup,
    policy_for_r,
    run_batch,
    run_episode,
    success_proxy,
)
from specdec.models import PrefixState
from specdec.report import aggregate, render_json, validate_report
from specdec.verify import AcceptancePolicy, VerifyOutcome, ar_decode, decode_episode

from helpers import (
    PreviousFrameDraft,
    SmoothVerifier,
    chain_expected_accepted,
    chain_q,
    drift_surrogate,
    frame_expected,
    tree_expected_tokens_per_pass,
)


def small_config(**kwargs) -> RunConfig:
    base = dict(episodes=4, target_length=28, r_values=(0, 9))
    base.update(kwargs)
    return dataclasses.replace(RunConfig(), **base)


# The README's drift tables: seed 0, 16 episodes of 70 tokens (160 tokens
# per dimension, 1,120 in all).
DRIFT_CONFIG = dataclasses.replace(
    RunConfig(), seed=0, episodes=16, target_length=70, r_values=(0, 1, 3, 5, 9, 12)
)


def assert_drift_table(rows, pinned):
    """``rows`` match ``pinned``, one entry per r of ``DRIFT_CONFIG``:
    (tokens/pass, |emitted - reference| summed per dimension, tokens off
    the reference, median xyz mm, median rotation mrad)."""
    assert list(rows) == list(pinned)
    for r, (tokens, bins, off, xyz, rot) in pinned.items():
        row = rows[r]
        assert row.tokens_per_pass == pytest.approx(tokens, abs=5e-6)
        assert row.mean_abs_bins == tuple(b / 160 for b in bins)
        assert row.off_frac == off / 1120
        assert (row.xyz_mm, row.rot_mrad) == pytest.approx((xyz, rot), abs=5e-6)
    # Strict acceptance is lossless, so every drift figure is exactly 0.
    strict = rows[0]
    assert strict.mean_abs_bins == (0.0,) * 7
    assert strict.off_frac == strict.xyz_mm == strict.rot_mrad == 0.0


class TestRunBatch:
    def test_strict_single_episode_matches_exactly(self):
        config = small_config(episodes=1, r_values=(0,))
        (stats,) = run_batch(config)
        assert stats.mode == "strict"
        assert stats.success  # r=0 emits the verifier argmax everywhere
        for outcome in stats.outcomes:
            for token, ref in zip(outcome.emitted, outcome.reference):
                assert token == ref

    def test_same_master_seed_reproduces_aggregates(self):
        config = small_config(episodes=6, seed=77)
        a = aggregate(run_batch(config), config)
        b = aggregate(run_batch(config), config)
        assert render_json(a) == render_json(b)

    def test_histogram_counts_sum_to_steps(self):
        config = small_config()
        stats = run_batch(config)
        for row in aggregate(stats, config).policies:
            episodes = [s for s in stats if s.r == row.r]
            assert sum(row.histogram) == row.steps == sum(s.steps for s in episodes)

    def test_tokens_per_pass_identity(self):
        for stats in run_batch(small_config()):
            emitted = sum(len(o.emitted) for o in stats.outcomes)
            # 1 + accepted/steps and emitted/steps can differ in the last bit.
            assert stats.tokens_per_pass == pytest.approx(emitted / stats.steps, rel=1e-15)

    def test_histogram_mass_shifts_with_r(self):
        config = small_config(episodes=40, target_length=70, r_values=(0, 3, 9), top_k=1)
        report = aggregate(run_batch(config), config)
        by_r = {row.r: row for row in report.policies}
        # Expected ordering comes from the displacement kernel, not the run.
        expected = {
            r: chain_expected_accepted(chain_q(0.5, 6.0, 256, r), config.tree_depth)
            for r in (0, 3, 9)
        }
        assert expected[0] < expected[3] < expected[9]
        assert by_r[0].mean_accepted < by_r[3].mean_accepted < by_r[9].mean_accepted
        # Mass at length 0 shrinks as the threshold widens.
        assert by_r[0].length_proportions[0] > by_r[3].length_proportions[0]
        assert by_r[3].length_proportions[0] > by_r[9].length_proportions[0]

    def test_tree_oracle_reduces_to_the_chain_closed_form(self):
        for r in (0, 3, 9):
            for depth in (1, 4, 6):
                chain = TreeParams(top_k=1, max_depth=depth, max_nodes=depth)
                expected = 1.0 + chain_expected_accepted(chain_q(0.5, 6.0, 256, r), depth)
                oracle = tree_expected_tokens_per_pass(0.5, 6.0, 256, r, chain)
                assert oracle == pytest.approx(expected, abs=1e-12)

    def test_default_tree_tokens_per_pass_matches_oracle(self):
        # Steps are independent draws of one accepted-length law (every
        # prefix is fresh), so the per-step standard error bounds the gap.
        # The oracle ignores the vocabulary edges, a bias far inside 4 SE.
        config = small_config(episodes=30, target_length=70, r_values=(0, 9), seed=2026)
        stats = run_batch(config)
        for r in config.r_values:
            per_step = np.array([1 + o.accepted for s in stats if s.r == r for o in s.outcomes])
            measured = per_step.mean()
            stderr = per_step.std(ddof=1) / np.sqrt(len(per_step))
            expected = tree_expected_tokens_per_pass(
                config.agreement_p, config.noise_sigma, config.vocab_size, r,
                config.tree_params(),
            )
            assert abs(measured - expected) <= 4.0 * stderr, (
                f"r={r}: measured {measured:.4f} +- {stderr:.4f} vs oracle {expected:.4f}"
            )

    def test_per_frame_oracle_figures(self):
        # Each 7-token action decoded on its own, as the paper does, with
        # each step's depth capped at the tokens left in its frame.  These
        # are the README's per-frame figures: a property of the synthetic
        # pair at the default tree and 20 ms / 1 ms, not a measurement.
        # A two-token frame under a one-node chain checks the chain itself:
        # one drafted step, then one AR step unless the draft was accepted.
        q = chain_q(0.5, 6.0, 256, 9)
        chain = TreeParams(top_k=1, max_depth=1, max_nodes=1)
        assert frame_expected(0.5, 6.0, 256, 9, chain, frame=2) == pytest.approx(
            (2.0 / (2.0 - q), 1.0 / (2.0 - q)), abs=1e-12
        )
        cost = CostModel(verify_latency=0.020, draft_latency=0.001)
        pinned = {  # r: (tokens per pass, draft rounds per pass, analytic speedup)
            0: (2.07996, 2.81160, 1.82360),
            3: (2.99858, 2.62717, 2.65042),
            9: (3.42529, 2.50562, 3.04394),
        }
        for r, (tokens, rounds, speedup) in pinned.items():
            got = frame_expected(0.5, 6.0, 256, r, TreeParams())
            assert got == pytest.approx((tokens, rounds), abs=1e-5)
            assert analytic_speedup(cost, rounds, tokens) == pytest.approx(speedup, abs=1e-5)
            # Capping depth at the frame's end always costs tokens per pass.
            assert tokens < tree_expected_tokens_per_pass(0.5, 6.0, 256, r, TreeParams())

    def test_drift_surrogate_table(self):
        # The README's drift-surrogate table, on the default config.
        pinned = {  # r: as in ``assert_drift_table``
            0: (2.30426, (0, 0, 0, 0, 0, 0, 0), 0, 0.0, 0.0),
            1: (3.24646, (47, 50, 41, 42, 42, 45, 48), 315, 1.13836, 6.01785),
            3: (3.99301, (78, 116, 83, 89, 88, 106, 97), 357, 2.27747, 9.95902),
            5: (4.39313, (178, 182, 149, 162, 130, 159, 163), 409, 3.65383, 12.73083),
            9: (4.72614, (265, 217, 206, 236, 272, 272, 264), 438, 6.07378, 32.98766),
            12: (4.96460, (288, 279, 233, 387, 350, 304, 260), 460, 7.72348, 37.23123),
        }
        assert_drift_table(drift_surrogate(run_batch(DRIFT_CONFIG), DRIFT_CONFIG), pinned)

    def test_smooth_pair_drift_surrogate_table(self):
        # The README's second drift table: the same settings, decoded by the
        # pair whose draft never calls the verifier.  Every verifier step is
        # within 2 bins of the previous frame's token, which the draft
        # proposes first, so from r = 3 on every step after the first frame
        # accepts a full depth-4 path and the rows stop changing.
        config = DRIFT_CONFIG
        verifier, draft = SmoothVerifier(seed=0), PreviousFrameDraft()
        stats = [
            run_episode(
                verifier, draft, config.tree_params(), policy_for_r(r), _episode_state(episode),
                config.target_length, config.success_tolerance, episode,
            )
            for r in config.r_values
            for episode in range(config.episodes)
        ]
        full_path = (3.6, (136, 145, 139, 149, 131, 138, 159), 658, 2.37586, 9.25933)
        pinned = {  # r: as in ``assert_drift_table``
            0: (2.30550, (0, 0, 0, 0, 0, 0, 0), 0, 0.0, 0.0),
            1: (3.34593, (85, 79, 80, 86, 78, 84, 86), 578, 1.40842, 7.81250),
            3: full_path,
            5: full_path,
            9: full_path,
            12: full_path,
        }
        assert_drift_table(drift_surrogate(stats, config), pinned)

    def test_invalid_config_raises_descriptive_error(self):
        from specdec.config import ConfigValueError

        with pytest.raises(ConfigValueError, match="top_k"):
            run_batch(small_config(top_k=300))
        # A config built directly skips parsing, and validation still rejects NaN.
        with pytest.raises(ConfigValueError, match="noise_sigma"):
            run_batch(small_config(noise_sigma=float("nan")))


class TestSuccessProxy:
    def test_identical_sequences_pass(self):
        seq = tuple(range(14))
        assert success_proxy(seq, seq, 0)

    def test_boundary_tolerance(self):
        reference = (10,) * 14
        drifted = (10,) * 13 + (10 + 4,)
        assert success_proxy(drifted, reference, 4)
        assert not success_proxy(drifted, reference, 3)

    def test_length_mismatch_is_structural(self):
        with pytest.raises(ValueError, match="length"):
            success_proxy((1,) * 14, (1,) * 7, 5)

    def test_partial_frames_rejected(self):
        with pytest.raises(ValueError, match="frames"):
            success_proxy((1,) * 10, (1,) * 10, 5)

    def test_relaxed_run_passes_at_tolerance_r_drops_below(self):
        verifier, draft = build_models(small_config())
        params = TreeParams(top_k=4, max_depth=4, max_nodes=30)
        policy = AcceptancePolicy.relaxed(9)
        passed_at_9 = passed_at_4 = 0
        episodes = 20
        for episode in range(episodes):
            tokens, outcomes = decode_episode(
                PrefixState(prompt_id=f"sp{episode}"), verifier, draft, params, policy, 70
            )
            reference = [t for o in outcomes for t in o.reference][: len(tokens)]
            passed_at_9 += success_proxy(tokens, reference, 9)
            passed_at_4 += success_proxy(tokens, reference, 4)
        assert passed_at_9 == episodes  # drift bound: every token within r
        assert passed_at_4 < episodes


class TestAnalyticSpeedup:
    def test_free_drafts_speedup_is_tokens_per_pass(self):
        cost = CostModel(verify_latency=0.02, draft_latency=0.0)
        assert analytic_speedup(cost, depth=4, tokens_per_pass=3.3) == pytest.approx(3.3)

    def test_no_accepted_drafts_and_free_drafts_is_one(self):
        cost = CostModel(verify_latency=0.02, draft_latency=0.0)
        assert analytic_speedup(cost, depth=4, tokens_per_pass=1.0) == pytest.approx(1.0)

    def test_reference_arithmetic(self):
        cost = CostModel(verify_latency=0.020, draft_latency=0.001)
        assert analytic_speedup(cost, depth=4, tokens_per_pass=2.4) == pytest.approx(2.0)

    def test_cost_model_validation(self):
        with pytest.raises(ValueError):
            CostModel(verify_latency=0.0, draft_latency=0.001)
        with pytest.raises(ValueError):
            CostModel(verify_latency=0.01, draft_latency=-0.001)
        for latencies in ((float("nan"), 0.001), (0.01, float("nan"))):
            with pytest.raises(ValueError):
                CostModel(*latencies)
        CostModel(verify_latency=0.01, draft_latency=0.0)  # free drafts allowed

    @pytest.mark.parametrize("latency", [float("inf"), float("nan"), -1.0])
    def test_cost_model_latencies_must_be_finite(self, latency):
        with pytest.raises(ValueError):
            CostModel(verify_latency=latency, draft_latency=0.001)
        with pytest.raises(ValueError):
            CostModel(verify_latency=0.01, draft_latency=latency)


class TestMeasureSpeedup:
    def test_config_without_latencies_rejected(self):
        config = small_config(episodes=1, target_length=14)
        with pytest.raises(ConfigValueError, match="verify_latency and draft_latency"):
            measure_speedup(config)

    def test_overhead_regime_slower_than_ar(self):
        # Draft as expensive as the verifier: the analytic model predicts
        # tokens_per_pass / (1 + depth) < 1 for an imperfect draft.
        config = small_config(
            episodes=1,
            target_length=14,
            top_k=1,
            agreement_p=0.5,
            r_values=(0,),
            verify_latency=0.004,
            draft_latency=0.004,
        )
        measurement = measure_speedup(config)[0]
        assert measurement.measured < 1.0
        assert measurement.analytic < 1.0

    def test_measured_tracks_analytic_with_injected_latencies(self):
        config = small_config(
            episodes=1,
            target_length=35,
            top_k=1,
            agreement_p=1.0,
            r_values=(0,),
            verify_latency=0.010,
            draft_latency=0.0005,
        )
        measurement = measure_speedup(config)[0]
        assert measurement.tokens_per_pass == pytest.approx(5.0)
        # The injected waits end on time, but the host work between them
        # stretches when another process shares the CPU.  So each side of
        # the ratio adds the host time of the same calls, timed on the
        # models without latencies, to its injected time: rounds x latency.
        # Greedy decoding is one verifier round per token; each step of this
        # top-1 chain is one verifier round and max_depth draft rounds.  How
        # much of a step the engine costs is gated elsewhere, by the
        # benchmark's ``speedup_efficiency`` on latency-default.
        verifier, draft = build_models(config)
        params, length = config.tree_params(), config.target_length
        state = _episode_state(0)
        start = time.perf_counter()
        ar_decode(state, verifier, length)
        ar_host = time.perf_counter() - start
        start = time.perf_counter()
        _, outcomes = decode_episode(
            state, verifier, draft, params, AcceptancePolicy.strict(), length
        )
        sd_host = time.perf_counter() - start
        ar_injected = length * config.verify_latency
        step_latency = config.verify_latency + params.max_depth * config.draft_latency
        sd_injected = len(outcomes) * step_latency
        assert ar_injected / sd_injected == pytest.approx(measurement.analytic)
        expected = (ar_injected + ar_host) / (sd_injected + sd_host)
        assert measurement.measured == pytest.approx(expected, rel=0.10)


class TestAggregateReport:
    def test_perfect_draft_distribution_is_all_max_length(self):
        config = small_config(episodes=3, agreement_p=1.0, r_values=(0,), top_k=1)
        report = aggregate(run_batch(config), config)
        row = report.policies[0]
        assert row.length_proportions[4] == pytest.approx(1.0)
        assert sum(row.length_proportions) == pytest.approx(1.0, abs=1e-9)
        assert row.tokens_per_pass == pytest.approx(5.0)

    def test_proportions_sum_to_one_fuzzed(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            config = small_config(
                episodes=int(rng.integers(1, 5)),
                seed=int(rng.integers(0, 1000)),
                agreement_p=float(rng.uniform(0.2, 0.9)),
                r_values=(0, int(rng.integers(1, 12))),
            )
            report = aggregate(run_batch(config), config)
            validate_report(report)
            for row in report.policies:
                assert sum(row.length_proportions) == pytest.approx(1.0, abs=1e-9)
                assert row.tokens_per_pass == 1.0 + row.mean_accepted

    def test_estimated_speedup_requires_cost_model(self):
        config = small_config(episodes=2)
        report = aggregate(run_batch(config), config)
        assert all(row.estimated_speedup is None for row in report.policies)

        with_cost = small_config(episodes=2, verify_latency=0.02, draft_latency=0.001)
        report = aggregate(run_batch(with_cost), with_cost)
        assert all(row.estimated_speedup is not None for row in report.policies)

    def test_relaxed_tokens_per_pass_dominates_strict(self):
        """Shared-randomness workload: relaxation can only help, checked at 3 sigma."""
        config = small_config(episodes=60, target_length=70, top_k=1, r_values=(0, 9))
        report = aggregate(run_batch(config), config)
        by_r = {row.r: row for row in report.policies}
        strict, relaxed = by_r[0], by_r[9]
        # Conservative SE bound: step acceptance varies within [0, depth].
        se = config.tree_depth / (min(strict.steps, relaxed.steps)) ** 0.5
        assert relaxed.tokens_per_pass >= strict.tokens_per_pass - 3 * se
        assert relaxed.tokens_per_pass > strict.tokens_per_pass  # comfortably, in fact

    def test_report_positions_six_column_mode(self):
        config = small_config(episodes=2, report_positions=6)
        report = aggregate(run_batch(config), config)
        assert all(len(row.per_position_mean) == 6 for row in report.policies)

    def test_empty_stats_rejected(self):
        with pytest.raises(ValueError):
            aggregate([], small_config())

    def test_per_position_mean_counts_from_the_start_position(self):
        config = small_config(r_values=(9,))
        verifier, draft = build_models(config)
        state = PrefixState(prompt_id="mid", emitted=(5, 6, 7))
        stats = run_episode(
            verifier, draft, config.tree_params(), AcceptancePolicy.relaxed(9), state, 28, 5
        )
        sums, counts = [0] * 7, [0] * 7
        position = 3
        for outcome in stats.outcomes:
            sums[position % 7] += outcome.accepted
            counts[position % 7] += 1
            position += len(outcome.emitted)
        expected = tuple(sums[i] / counts[i] if counts[i] else None for i in range(7))
        (row,) = aggregate([stats], config).policies
        assert row.per_position_mean == expected

    def test_outcome_deeper_than_the_tree_rejected(self):
        config = small_config(r_values=(0,))
        outcome = VerifyOutcome(
            accepted=config.tree_depth + 1,
            emitted=(1,) * (config.tree_depth + 2),
            reference=(1,) * (config.tree_depth + 2),
            bonus_used=True,
            chosen_path=0,
            position=0,
        )
        stats = EpisodeStats(mode="strict", r=0, episode=0, outcomes=(outcome,), success=True)
        with pytest.raises(ValueError, match="exceeds tree depth"):
            aggregate([stats], config)
