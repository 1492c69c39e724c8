"""Aggregated reports: one row per policy, rendered as JSON, CSV, or text.

Each row is pooled from the episodes' outcomes: a histogram of draft tokens
accepted per verification step, mean acceptance by start position in the
7-token frame, and tokens per pass (histogram mean plus the verifier token).

Outputs are byte-stable for a fixed config and master seed: no timestamps,
fixed float formatting, sorted JSON keys.  Wall-clock figures only appear
when a latency measurement was explicitly requested, since timing and
byte-stability cannot coexist.
"""

from __future__ import annotations

import io
import json
from dataclasses import asdict, dataclass

from .action_space import CHUNK_SIZE
from .config import RunConfig
from .harness import EpisodeStats, SpeedupMeasurement, analytic_speedup

SCHEMA_VERSION = 1

# Acceptance-length columns in the distribution section; the last bucket
# absorbs every longer step.
LENGTH_BUCKETS = ("0", "1", "2", "3", "4", "5+")


@dataclass(frozen=True)
class PolicyReport:
    """Pooled statistics for one acceptance policy across a batch.

    ``tokens_per_pass`` and ``estimated_speedup`` count each step's whole
    ``emitted``, the last step's overshoot past ``target_length`` included;
    ``measured``'s two count committed tokens only, so they read lower.
    """

    mode: str
    r: int
    episodes: int
    steps: int
    histogram: tuple[int, ...]
    length_proportions: tuple[float, ...]  # aligned with LENGTH_BUCKETS
    per_position_mean: tuple[float | None, ...]
    mean_accepted: float
    tokens_per_pass: float
    success_rate: float
    estimated_speedup: float | None
    measured: SpeedupMeasurement | None = None


@dataclass(frozen=True)
class Report:
    schema_version: int
    config: dict
    policies: tuple[PolicyReport, ...]


def aggregate(
    stats: list[EpisodeStats],
    config: RunConfig,
    measurements: dict[int, SpeedupMeasurement] | None = None,
) -> Report:
    """Pool per-episode statistics into one report row per policy."""
    if not stats:
        raise ValueError("no episode statistics to aggregate")
    measurements = measurements or {}
    cost = config.cost_model()

    by_policy: dict[tuple[str, int], list[EpisodeStats]] = {}
    for stat in stats:
        by_policy.setdefault((stat.mode, stat.r), []).append(stat)

    depth = config.tree_depth
    rows = []
    for (mode, r), group in by_policy.items():
        histogram = [0] * (depth + 1)
        position_sums = [0] * CHUNK_SIZE
        position_counts = [0] * CHUNK_SIZE
        for stat in group:
            for outcome in stat.outcomes:
                if outcome.accepted > depth:
                    raise ValueError(
                        f"episode {stat.episode} (r={r}): accepted length "
                        f"{outcome.accepted} exceeds tree depth {depth}"
                    )
                histogram[outcome.accepted] += 1
                position_sums[outcome.position % CHUNK_SIZE] += outcome.accepted
                position_counts[outcome.position % CHUNK_SIZE] += 1

        steps = sum(histogram)
        mean_accepted = sum(i * c for i, c in enumerate(histogram)) / steps
        tokens_per_pass = 1.0 + mean_accepted

        proportions = [0.0] * len(LENGTH_BUCKETS)
        for length, count in enumerate(histogram):
            proportions[min(length, len(LENGTH_BUCKETS) - 1)] += count / steps

        per_position = tuple(
            (position_sums[i] / position_counts[i]) if position_counts[i] else None
            for i in range(config.report_positions)
        )

        rows.append(
            PolicyReport(
                mode=mode,
                r=r,
                episodes=len(group),
                steps=steps,
                histogram=tuple(histogram),
                length_proportions=tuple(proportions),
                per_position_mean=per_position,
                mean_accepted=mean_accepted,
                tokens_per_pass=tokens_per_pass,
                success_rate=sum(1 for s in group if s.success) / len(group),
                estimated_speedup=(
                    analytic_speedup(cost, depth, tokens_per_pass) if cost is not None else None
                ),
                measured=measurements.get(r),
            )
        )

    return Report(
        schema_version=SCHEMA_VERSION,
        config=config.to_json_dict(),
        policies=tuple(rows),
    )


def validate_report(report: Report) -> None:
    """Check the internal identities every report must satisfy."""
    for row in report.policies:
        total = sum(row.length_proportions)
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"policy r={row.r}: proportions sum to {total!r}, not 1")
        if row.tokens_per_pass != 1.0 + row.mean_accepted:
            raise ValueError(f"policy r={row.r}: tokens_per_pass != 1 + mean accepted")
        if sum(row.histogram) != row.steps:
            raise ValueError(f"policy r={row.r}: histogram does not sum to step count")


def render_json(report: Report) -> str:
    payload = asdict(report)
    for row in payload["policies"]:
        row["measured_speedup"] = row.pop("measured")
        row["length_buckets"] = LENGTH_BUCKETS
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def render_csv(report: Report) -> str:
    out = io.StringIO()
    out.write(
        "mode,r,length_bucket,proportion,steps,tokens_per_pass,success_rate,estimated_speedup\n"
    )
    for row in report.policies:
        est = "" if row.estimated_speedup is None else f"{row.estimated_speedup:.6f}"
        for bucket, proportion in zip(LENGTH_BUCKETS, row.length_proportions):
            out.write(
                f"{row.mode},{row.r},{bucket},{proportion:.6f},{row.steps},"
                f"{row.tokens_per_pass:.6f},{row.success_rate:.6f},{est}\n"
            )
    return out.getvalue()


def _fmt(value: float | None, width: int = 8) -> str:
    if value is None:
        return " " * (width - 1) + "-"
    return f"{value:{width}.4f}"


def render_table(report: Report) -> str:
    lines = []
    lines.append("policy     episodes  steps   tokens/pass  success   est.speedup  meas.speedup")
    for row in report.policies:
        name = "strict" if row.mode == "strict" else f"r={row.r}"
        est = _fmt(row.estimated_speedup, 11)
        meas = _fmt(row.measured.measured, 12) if row.measured else "           -"
        lines.append(
            f"{name:<9} {row.episodes:>8}  {row.steps:>6}  {row.tokens_per_pass:>11.4f}"
            f"  {row.success_rate:>7.4f}  {est}  {meas}"
        )

    lines.append("")
    lines.append("acceptance-length distribution (fraction of verification steps)")
    header = "policy    " + "".join(f"{b:>9}" for b in LENGTH_BUCKETS)
    lines.append(header)
    for row in report.policies:
        name = "strict" if row.mode == "strict" else f"r={row.r}"
        cells = "".join(f"{p:>9.4f}" for p in row.length_proportions)
        lines.append(f"{name:<9} {cells}")

    lines.append("")
    positions = len(report.policies[0].per_position_mean) if report.policies else 0
    lines.append("mean accepted length by start position (position mod 7)")
    lines.append("policy    " + "".join(f"{i:>9}" for i in range(positions)))
    for row in report.policies:
        name = "strict" if row.mode == "strict" else f"r={row.r}"
        cells = "".join(
            f"{v:>9.4f}" if v is not None else f"{'-':>9}" for v in row.per_position_mean
        )
        lines.append(f"{name:<9} {cells}")

    return "\n".join(lines) + "\n"


def render_ablation_json(report: Report) -> str:
    payload = {
        "schema_version": report.schema_version,
        "config": report.config,
        "sweep": [
            {"r": row.r, "tokens_per_pass": row.tokens_per_pass, "success_rate": row.success_rate}
            for row in report.policies
        ],
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def render_ablation_csv(report: Report) -> str:
    out = io.StringIO()
    out.write("r,tokens_per_pass,success_rate\n")
    for row in report.policies:
        out.write(f"{row.r},{row.tokens_per_pass:.6f},{row.success_rate:.6f}\n")
    return out.getvalue()


def render_ablation_table(report: Report) -> str:
    lines = ["    r  tokens/pass  success_rate"]
    for row in report.policies:
        lines.append(f"{row.r:>5}  {row.tokens_per_pass:>11.4f}  {row.success_rate:>12.4f}")
    return "\n".join(lines) + "\n"
