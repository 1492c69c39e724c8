"""Speculative decoding engine for discretized action tokens.

A draft model proposes a tree of candidate action tokens, a verifier checks
the tree in one batched round, and a distance-relaxed acceptance rule
trades exactness for longer accepted runs.  Synthetic seeded models make
every experiment reproducible without trained weights.
"""

from .action_space import (
    CHUNK_SIZE,
    DimensionBounds,
    bin_distance,
    detokenize,
)
from .config import ConfigError, CostModel, RunConfig, parse_config
from .draft_tree import (
    DraftNode,
    DraftTree,
    TreeParams,
    build_tree,
    enumerate_paths,
)
from .harness import (
    EpisodeStats,
    SpeedupMeasurement,
    analytic_speedup,
    measure_speedup,
    run_batch,
    run_episode,
    success_proxy,
)
from .models import (
    HashVerifier,
    NoisyDraft,
    PrefixState,
    TimedDraft,
    TimedVerifier,
    TreeStructureError,
    displacement_pmf,
    make_noisy_draft,  # for ``bench/run.py`` only, so not in ``__all__``
)
from .report import Report, aggregate, render_csv, render_json, render_table, validate_report
from .verify import (
    AcceptancePolicy,
    VerifyOutcome,
    ar_decode,
    decode_episode,
    verify_tree,
)

__version__ = "0.1.0"

__all__ = [
    "AcceptancePolicy",
    "CHUNK_SIZE",
    "ConfigError",
    "CostModel",
    "DimensionBounds",
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
    "TreeParams",
    "TreeStructureError",
    "VerifyOutcome",
    "aggregate",
    "analytic_speedup",
    "ar_decode",
    "bin_distance",
    "build_tree",
    "decode_episode",
    "detokenize",
    "displacement_pmf",
    "enumerate_paths",
    "measure_speedup",
    "parse_config",
    "render_csv",
    "render_json",
    "render_table",
    "run_batch",
    "run_episode",
    "success_proxy",
    "validate_report",
    "verify_tree",
    "__version__",
]
