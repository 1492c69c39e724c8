"""Pinned digests: seeded tokens and report bytes must not drift.

The other determinism tests compare two runs of the same code, so they
cannot see a change that alters every run alike.  These digests were
recorded once; a performance change to the engine must reproduce them
byte for byte.  A deliberate behaviour change updates them and says so.
"""

import dataclasses
import hashlib
import json

import pytest

from specdec.cli import main
from specdec.config import RunConfig
from specdec.harness import run_batch
from specdec.report import aggregate, render_json


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize(
    "overrides, tokens_digest, report_digest",
    [
        pytest.param(
            dict(episodes=3, target_length=35),
            "b1efdfe61c673bfa8d06f377cdd3e3f462529a869ed3c1eaee05a6a2fc75fc90",
            "415ece8a68e2353aed4403bfcb2394cc6b1c0d1788af70c39b77cc280b6c496f",
            id="tree",
        ),
        pytest.param(
            dict(episodes=2, target_length=140, top_k=1, max_nodes=4),
            "d32719a796c4b01c9ca4a475e3a465076daf48904547d87e14a5e57c6fb9ec0a",
            "ae3d3664f2af0a77d7aced0d78090f5982a086fe22ed25c78d6a179ec7a4cf18",
            id="chain",
        ),
    ],
)
def test_seeded_run_matches_pinned_digests(overrides, tokens_digest, report_digest):
    config = dataclasses.replace(RunConfig(), r_values=(0, 9), seed=5, **overrides)
    stats = run_batch(config)
    tokens = ",".join(str(t) for s in stats for o in s.outcomes for t in o.emitted)
    assert sha256(tokens) == tokens_digest
    assert sha256(render_json(aggregate(stats, config))) == report_digest


ABLATE_ARGS = ["ablate", "--episodes", "3", "--length", "14", "--seed", "5"]

# Non-default bounds and vocabulary, so that the ``decode`` action lines pin
# ``detokenize``'s values.  An argument equal to ``"BOUNDS_CONFIG"`` names a
# file holding this config.
BOUNDS_CONFIG = {
    "vocab_size": 1000,
    "dimension_bounds": [
        [-0.1, 0.3], [-0.02, 0.07], [0.013, 0.29], [-1.5, 0.5], [-0.3, 0.3], [-3.0, 3.0], [-1.0, 1.0]
    ],
}


@pytest.mark.parametrize(
    "argv, digest",
    [
        pytest.param(
            ABLATE_ARGS + ["--r", "0", "--r", "5", "--r", "9", "--format", "json"],
            "1642c892022fde6110a51585c2c04d739ce422e5202b4a69cef05be214d6e48b",
            id="ablate-json",
        ),
        pytest.param(
            ABLATE_ARGS + ["--r", "0", "--r", "5", "--r", "9", "--format", "csv"],
            "2424cc41e3103d0eec42bde344b2302391883461e3da99bd11b54b0d220004fc",
            id="ablate-csv",
        ),
        pytest.param(
            ABLATE_ARGS + ["--r", "0", "--r", "5", "--r", "9", "--format", "table"],
            "c31c2a04c9a411d23e2bc4525bcbfb8f2114c4a9ac7da388d8d73d161cac7e0c",
            id="ablate-table",
        ),
        pytest.param(
            ["decode", "--seed", "5", "--length", "35", "--r", "9"],
            "0f59c81ade979874f6f428bd2f83e29fa6bcaee86384af0b0771ed6140d352b1",
            id="decode",
        ),
        pytest.param(
            ["decode", "--config", "BOUNDS_CONFIG", "--seed", "5", "--length", "35", "--r", "9"],
            "5cc95b69a2f3b83bc1575865320e6da99fd3d20cf8d16f109b3300a2522b2808",
            id="decode-bounds",
        ),
        pytest.param(
            ["bench", "--episodes", "4", "--format", "json", "--seed", "0"],
            "0cb3334daac9c6783ceae0a7f5b1e73b2f642806a452ce0dc83555382d6b7764",
            id="bench-json-seed0",
        ),
        pytest.param(
            ["bench", "--episodes", "4", "--format", "json", "--seed", "99"],
            "444aef8be72145b73a107159c91790019c8e6a247d36707b92d994750e3d309a",
            id="bench-json-seed99",
        ),
        pytest.param(
            # The first default threshold is 0, so this decode is strict.
            ["decode", "--seed", "99", "--length", "35"],
            "e88aa03baf8d5f9babe06b65daf6e9289b5d69424d2f1a9cf5a8a8c69560ad80",
            id="decode-strict",
        ),
    ],
)
def test_cli_output_matches_pinned_digest(argv, digest, tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(BOUNDS_CONFIG))
    argv = [str(path) if arg == "BOUNDS_CONFIG" else arg for arg in argv]
    assert main(argv) == 0
    assert sha256(capsys.readouterr().out) == digest


# The CSV and table renderers, on a config with latencies, per-dimension
# thresholds and six report positions, which the digests above leave out.
LATENCY_CONFIG = {
    "episodes": 3,
    "target_length": 35,
    "seed": 5,
    "r_values": [0, 9],
    "per_dimension_r": [9, 9, 9, 9, 9, 9, 0],
    "verify_latency": 0.02,
    "draft_latency": 0.001,
    "report_positions": 6,
}


@pytest.mark.parametrize(
    "fmt, digest",
    [
        pytest.param(
            "csv", "32539def3651dbc2af50b5a88767818371e8fff07be40759eea769c6dbd5a298", id="csv"
        ),
        pytest.param(
            "table", "6c9b1e0eac49b173b4424b9ed1ae0c2e2dc86506ac3005167e06f5de3c211e91", id="table"
        ),
    ],
)
def test_bench_render_matches_pinned_digest(fmt, digest, tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(LATENCY_CONFIG))
    assert main(["bench", "--config", str(path), "--format", fmt]) == 0
    assert sha256(capsys.readouterr().out) == digest
