"""Speculative decoding engine for discretized action tokens.

A draft model proposes a tree of candidate action tokens, a verifier checks
the tree in one batched round, and a distance-relaxed acceptance rule
trades exactness for longer accepted runs.  Synthetic seeded models make
every experiment reproducible without trained weights.
"""

from .action_space import (
    CHUNK_SIZE,
    DIMENSION_NAMES,
    DimensionBounds,
    bin_distance,
    detokenize,
    tokenize,
)
from .config import ConfigError, RunConfig, parse_config
from .draft_tree import (
    DraftNode,
    DraftTree,
    TreeParams,
    TreeStructureError,
    build_tree,
    enumerate_paths,
    flatten,
)
from .harness import (
    CostModel,
    EpisodeStats,
    SpeedupMeasurement,
    analytic_speedup,
    measure_speedup,
    run_batch,
    run_episode,
    success_proxy,
)
from .models import (
    Distribution,
    HashVerifier,
    NoisyDraft,
    PrefixState,
    TimedDraft,
    TimedVerifier,
    TreeDistributions,
    displacement_pmf,
    make_noisy_draft,
)
from .report import Report, aggregate, render_csv, render_json, render_table, validate_report
from .verify import (
    AcceptancePolicy,
    VerifyOutcome,
    accept_token,
    ar_decode,
    decode_episode,
    verify_path,
    verify_tree,
)

__version__ = "0.1.0"

__all__ = [
    "AcceptancePolicy",
    "CHUNK_SIZE",
    "ConfigError",
    "CostModel",
    "DIMENSION_NAMES",
    "DimensionBounds",
    "Distribution",
    "DraftNode",
    "DraftTree",
    "EpisodeStats",
    "HashVerifier",
    "NoisyDraft",
    "PrefixState",
    "Report",
    "RunConfig",
    "SpeedupMeasurement",
    "TimedDraft",
    "TimedVerifier",
    "TreeDistributions",
    "TreeParams",
    "TreeStructureError",
    "VerifyOutcome",
    "accept_token",
    "aggregate",
    "analytic_speedup",
    "ar_decode",
    "bin_distance",
    "build_tree",
    "decode_episode",
    "detokenize",
    "displacement_pmf",
    "enumerate_paths",
    "flatten",
    "make_noisy_draft",
    "measure_speedup",
    "parse_config",
    "render_csv",
    "render_json",
    "render_table",
    "run_batch",
    "run_episode",
    "success_proxy",
    "tokenize",
    "validate_report",
    "verify_path",
    "verify_tree",
    "__version__",
]
