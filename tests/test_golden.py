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
            "0a928d93d761bda746b1a4a93d4659a343722ab9867aa91e36001ec5ba43d138",
            "c2f472bf000ff6e95017f0fd24f8aaaa9742bbe47decc173bdcb63f7b9b23e30",
            id="tree",
        ),
        pytest.param(
            dict(episodes=2, target_length=140, top_k=1, max_nodes=4),
            "4979257238d61bb11744f0e7532925279d302a2a5e73a7ee572e1604dc071fa2",
            "1c263d1ddd1c550d59ca33c63cf37915f4e3bccb17aebcb5f655cf5e0c646b88",
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


@pytest.mark.parametrize(
    "argv, digest",
    [
        pytest.param(
            ABLATE_ARGS + ["--r", "0", "--r", "5", "--r", "9", "--format", "json"],
            "19b69836882924dae0b3cf39f3f2b17e8412191743414aebe04aa84999681d6b",
            id="ablate-json",
        ),
        pytest.param(
            ABLATE_ARGS + ["--r", "0", "--r", "5", "--r", "9", "--format", "csv"],
            "0e735f7a71f8a618525ab6744c5808afcb53666538445f2d11df2555c957fa9d",
            id="ablate-csv",
        ),
        pytest.param(
            ABLATE_ARGS + ["--r", "0", "--r", "5", "--r", "9", "--format", "table"],
            "0b8cc47fabd303daa15627fdae1affe39cef1666b6fd517088c1cf00be7dd0d2",
            id="ablate-table",
        ),
        pytest.param(
            ["decode", "--seed", "5", "--length", "35", "--r", "9"],
            "c0a5a40fd4f38a52ee8151773e6e4c62217e7f631a790f87305e690378ca51cf",
            id="decode",
        ),
    ],
)
def test_cli_output_matches_pinned_digest(argv, digest, capsys):
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
        ("csv", "7f5a6f47bce35df2dae9b87b8e3352b23a0718bf52b27350055313a824f598de"),
        ("table", "7ee6de84fa28cc5408fbd896fc7bc491565618c49213edbe64a593ace0d263ee"),
    ],
)
def test_bench_render_matches_pinned_digest(fmt, digest, tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(LATENCY_CONFIG))
    assert main(["bench", "--config", str(path), "--format", fmt]) == 0
    assert sha256(capsys.readouterr().out) == digest
