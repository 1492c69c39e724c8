"""Pinned digests: seeded tokens and report bytes must not drift.

The other determinism tests compare two runs of the same code, so they
cannot see a change that alters every run alike.  These digests were
recorded once; a performance change to the engine must reproduce them
byte for byte.  A deliberate behaviour change updates them and says so.
"""

import dataclasses
import hashlib

import pytest

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
            "e18db0de014e8dac804f7f4246551ada0d373efc6af42113b6e04584a8b2473c",
            id="tree",
        ),
        pytest.param(
            dict(episodes=2, target_length=140, top_k=1, max_nodes=4),
            "4979257238d61bb11744f0e7532925279d302a2a5e73a7ee572e1604dc071fa2",
            "f51dd388b1630de4761232de927042b2a2d3bf9f4f6129c7b57c6dae7368d794",
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
