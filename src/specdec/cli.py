"""Command-line entry point.

Subcommands:

* ``decode`` — run a single episode and print its verification trace.
* ``bench``  — run the batch for every configured policy and emit a report.
* ``ablate`` — sweep the relaxation thresholds and emit the tokens-per-pass
  and success-rate curve.

Exit codes: 0 on success, 1 when a ``bench`` or ``ablate`` report fails
an identity check, 2 for argparse usage errors, 3 for a missing config
file, 4 for malformed or non-UTF-8 JSON, 5 for out-of-range, unknown or
repeated config values, 6 when ``--out`` cannot be written, which is
checked before any episode runs.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from .action_space import CHUNK_SIZE, detokenize
from .config import REPORT_FORMATS, ConfigError, ConfigValueError, RunConfig, parse_config
from .harness import measure_speedup, run_batch
from .report import (
    aggregate,
    render_ablation_csv,
    render_ablation_json,
    render_ablation_table,
    render_csv,
    render_json,
    render_table,
    validate_report,
)

# The renderer for each command's report, by ``--format``.
_RENDERERS = {
    "bench": {"json": render_json, "csv": render_csv, "table": render_table},
    "ablate": {
        "json": render_ablation_json,
        "csv": render_ablation_csv,
        "table": render_ablation_table,
    },
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="specdec",
        description="Speculative decoding engine for discretized action tokens.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, help_text in (
        ("decode", "decode one episode and print the step-by-step trace"),
        ("bench", "run seeded episode batches and report acceptance statistics"),
        ("ablate", "sweep relaxation thresholds and report the resulting curve"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", metavar="PATH", help="JSON config file")
        p.add_argument("--seed", type=int, help="master seed (fallback: $SPECDEC_SEED)")
        p.add_argument(
            "--r",
            type=int,
            action="append",
            dest="r_values",
            metavar="INT",
            help="relaxation threshold; repeat to sweep (0 = strict)",
        )
        p.add_argument("--top-k", type=int, dest="top_k", help="draft proposals per node")
        p.add_argument("--depth", type=int, dest="tree_depth", help="draft tree depth")
        p.add_argument("--max-nodes", type=int, dest="max_nodes", help="draft tree node budget")
        p.add_argument("--episodes", type=int, help="episodes per policy")
        p.add_argument("--length", type=int, dest="target_length", help="tokens per episode")
        p.add_argument("--format", choices=REPORT_FORMATS, help="report format")
        p.add_argument("--out", metavar="PATH", help="write the report here instead of stdout")
    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    """Each flag's ``dest`` is its config key; ``--config`` names the file to read."""
    overrides = {k: v for k, v in vars(args).items() if k not in ("command", "config")}
    return parse_config(args.config, overrides)


def _write(out: str, mode: str, text: str = "") -> int:
    """Open ``out`` in ``mode`` and write ``text``; returns the exit code."""
    try:
        with open(out, mode, encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        sys.stderr.write(f"error: cannot write {out!r}: {exc.strerror}\n")
        return 6
    return 0


def _emit(text: str, out: str | None) -> int:
    """Write the output to ``out`` or stdout; returns the exit code."""
    if out is None:
        sys.stdout.write(text)
        return 0
    return _write(out, "w", text)


def _cmd_decode(config: RunConfig) -> int:
    """Decode episode 0 under the first threshold and print its trace."""
    stats = run_batch(dataclasses.replace(config, episodes=1, r_values=config.r_values[:1]))[0]
    lines = [
        f"policy: {stats.mode}"
        + (f" (r={stats.r})" if stats.mode == "relaxed" else "")
        + f", length: {config.target_length}, seed: {config.seed}"
    ]
    for step, outcome in enumerate(stats.outcomes, start=1):
        drafted = list(outcome.emitted[: outcome.accepted])
        tail = outcome.emitted[-1]
        tail_kind = "bonus" if outcome.bonus_used else "correction"
        lines.append(
            f"step {step:>3}: pos {outcome.position:>4}  accepted {outcome.accepted} {drafted}"
            f"  {tail_kind} {tail}"
        )
    emitted = [t for outcome in stats.outcomes for t in outcome.emitted][: config.target_length]

    lines.append(f"tokens: {emitted}")
    for start in range(0, len(emitted), CHUNK_SIZE):
        chunk = emitted[start : start + CHUNK_SIZE]
        values = detokenize(chunk, config.dimension_bounds, config.vocab_size)
        rendered = ", ".join(f"{v:+.5f}" for v in values)
        lines.append(f"action {start // CHUNK_SIZE}: [{rendered}]")
    lines.append(
        f"steps: {stats.steps}, tokens/pass: {stats.tokens_per_pass:.4f}, "
        f"success(tol={config.success_tolerance}): {stats.success}"
    )
    return _emit("\n".join(lines) + "\n", config.out)


def _cmd_report(command: str, config: RunConfig) -> int:
    """Run the batch for every threshold and emit the ``bench`` or ``ablate`` report.

    Report rows follow ``r_values``.  Only the ``bench`` renderers show
    measured speedup, so ``ablate`` times nothing.
    """
    stats = run_batch(config)
    measured = command == "bench" and config.measure_speedup
    rep = aggregate(stats, config, measure_speedup(config) if measured else None)
    try:
        validate_report(rep)
    except ValueError as exc:
        sys.stderr.write(f"report identity check failed: {exc}\n")
        return 1
    return _emit(_RENDERERS[command][config.format](rep), config.out)


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = _config_from_args(args)
        if args.command == "ablate" and len(config.r_values) < 2:
            raise ConfigValueError("ablation needs at least 2 r values to sweep")
        # Appending nothing checks ``--out`` before any episode runs, and
        # leaves an existing file as it is.
        if config.out is not None and (code := _write(config.out, "a")):
            return code
        if args.command == "decode":
            return _cmd_decode(config)
        return _cmd_report(args.command, config)
    except ConfigError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
