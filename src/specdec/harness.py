"""Batch episode runner: seeded episodes, success proxy, and speedup.

It runs the model pair, tree parameters and cost model a ``RunConfig``
builds.  Episodes are seeded and independent, so a batch is reproducible
from the master seed alone.  Each episode keeps its verification outcomes,
and each outcome the position it was verified at; ``report.aggregate``
derives the acceptance histogram and per-position averages from them.

Task success needs a robot simulator, which is out of scope here.  As a
surrogate, an episode "succeeds" when every emitted token stays within a
tolerance of the verifier argmax for its own position (the reference trace
recorded during decoding).  This is a token-space drift bound, not a claim
about downstream task performance.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Sequence

from .action_space import CHUNK_SIZE, bin_distance
from .config import ConfigValueError, CostModel, RunConfig, build_models
from .draft_tree import TreeParams
from .models import PrefixState, TimedDraft, TimedVerifier
from .verify import AcceptancePolicy, VerifyOutcome, ar_decode, decode_episode


@dataclass(frozen=True)
class EpisodeStats:
    """One decoded episode for one policy: its outcomes, each with its position, and success."""

    mode: str
    r: int
    episode: int
    outcomes: tuple[VerifyOutcome, ...]
    success: bool

    @property
    def steps(self) -> int:
        return len(self.outcomes)

    @property
    def tokens_per_pass(self) -> float:
        """One verifier token plus the mean draft tokens accepted per step."""
        return 1.0 + sum(o.accepted for o in self.outcomes) / self.steps


def policy_for_r(r: int, per_dimension_r: Sequence[int] | None = None) -> AcceptancePolicy:
    """Strict matching for r=0, whatever the overrides; distance relaxation otherwise."""
    return AcceptancePolicy(r, per_dimension_r if r else None)


def success_proxy(tokens: Sequence[int], reference: Sequence[int], tolerance_bins: int) -> bool:
    """True iff every aligned token pair stays within ``tolerance_bins``.

    Both sequences must have the same length and consist of whole 7-token
    action frames.
    """
    if len(tokens) != len(reference):
        raise ValueError(f"sequence lengths differ: {len(tokens)} vs {len(reference)}")
    if len(tokens) % CHUNK_SIZE != 0:
        raise ValueError(f"sequences must be whole {CHUNK_SIZE}-token frames")
    return all(bin_distance(a, b) <= tolerance_bins for a, b in zip(tokens, reference))


def run_episode(
    verifier,
    draft,
    params: TreeParams,
    policy: AcceptancePolicy,
    state: PrefixState,
    length: int,
    success_tolerance: int,
    episode: int = 0,
) -> EpisodeStats:
    """Decode one episode and check its tokens against the verifier's reference."""
    tokens, outcomes = decode_episode(state, verifier, draft, params, policy, length)
    reference = [t for outcome in outcomes for t in outcome.reference][: len(tokens)]
    return EpisodeStats(
        mode=policy.mode,
        r=policy.r,
        episode=episode,
        outcomes=tuple(outcomes),
        success=success_proxy(tokens, reference, success_tolerance),
    )


def _episode_state(index: int) -> PrefixState:
    return PrefixState(prompt_id=f"ep{index:06d}", observation_id=f"obs{index:06d}")


def run_batch(config: RunConfig) -> list[EpisodeStats]:
    """Run ``episodes`` seeded episodes for every policy, in ``r_values`` order."""
    verifier, draft = build_models(config)
    params = config.tree_params()
    return [
        run_episode(
            verifier,
            draft,
            params,
            policy_for_r(r, config.per_dimension_r),
            _episode_state(episode),
            config.target_length,
            config.success_tolerance,
            episode=episode,
        )
        for r in config.r_values
        for episode in range(config.episodes)
    ]


def analytic_speedup(cost: CostModel, depth: int, tokens_per_pass: float) -> float:
    """Expected wall-clock ratio vs AR decoding under the latency model.

    AR spends one verifier round per token; a speculative pass spends one
    verifier round plus ``depth`` draft rounds for ``tokens_per_pass``
    tokens.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    if tokens_per_pass <= 0.0:
        raise ValueError("tokens_per_pass must be positive")
    return tokens_per_pass * cost.verify_latency / (
        cost.verify_latency + depth * cost.draft_latency
    )


@dataclass(frozen=True)
class SpeedupMeasurement:
    """Measured AR-vs-speculative wall-clock comparison on a fixed workload.

    ``tokens_per_pass`` counts committed tokens only, and ``analytic`` is
    priced from it; a ``PolicyReport`` row also counts the last step's
    overshoot past ``target_length``, so its two figures read higher.
    """

    measured: float
    analytic: float
    ar_seconds: float
    sd_seconds: float
    tokens_per_pass: float
    tokens: int


def measure_speedup(config: RunConfig) -> dict[int, SpeedupMeasurement]:
    """Time AR and speculative decoding on identical seeded workloads.

    Returns one measurement per threshold, in ``r_values`` order.  Greedy
    decoding does not depend on ``r``, so it is timed once and every
    measurement shares its ``ar_seconds``.  The config's latencies are
    injected around every model round, so each ratio compares model cost
    plus the engine's own overhead.  Raises ``ConfigValueError`` when the
    config sets no latencies: the ratio would then time bookkeeping alone.
    """
    cost = config.cost_model()
    if cost is None:
        raise ConfigValueError("measure_speedup needs verify_latency and draft_latency")
    params = config.tree_params()
    verifier, draft = build_models(config)
    timed_verifier = TimedVerifier(verifier, cost.verify_latency)
    timed_draft = TimedDraft(draft, cost.draft_latency)
    states = [_episode_state(i) for i in range(config.episodes)]

    start = time.perf_counter()
    for state in states:
        ar_decode(state, timed_verifier, config.target_length)
    ar_seconds = time.perf_counter() - start

    # Committed tokens per verifier round; both runs commit exactly
    # episodes * target_length tokens, so the ratio is apples to apples.
    tokens = config.episodes * config.target_length
    measurements = {}
    for r in config.r_values:
        policy = policy_for_r(r, config.per_dimension_r)
        steps = 0
        start = time.perf_counter()
        for state in states:
            _, outcomes = decode_episode(
                state, timed_verifier, timed_draft, params, policy, config.target_length
            )
            steps += len(outcomes)
        sd_seconds = time.perf_counter() - start
        tpp = tokens / steps
        measurements[r] = SpeedupMeasurement(
            measured=ar_seconds / sd_seconds,
            analytic=analytic_speedup(cost, params.max_depth, tpp),
            ar_seconds=ar_seconds,
            sd_seconds=sd_seconds,
            tokens_per_pass=tpp,
            tokens=tokens,
        )
    return measurements
