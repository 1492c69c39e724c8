"""The benchmark's whole ``main()`` runs on the engine as it is.

``bench/test_wrappers.py`` exercises the tracer's wrappers but never the
benchmark's entry point, so an engine change that breaks ``aggregate``,
``render_json``, ``validate_report`` or the tracer inside ``main`` would
otherwise pass this suite and fail only in a full benchmark run.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("trace", [0, 1])
def test_benchmark_main_runs_clean(trace):
    command = [
        sys.executable, str(ROOT / "bench" / "run.py"), "--workload", "chain-long",
        "--seed", "0", "--seconds", "0", "--trace", str(trace),
    ]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr[-2000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0
