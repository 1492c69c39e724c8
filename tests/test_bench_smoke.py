"""The benchmark's whole ``main()`` runs on the engine as it is.

``bench/test_wrappers.py`` exercises the tracer's wrappers but never the
benchmark's entry point, so an engine change that breaks ``aggregate``,
``render_json``, ``validate_report`` or the tracer inside ``main`` would
otherwise pass this suite and fail only in a full benchmark run.

The benchmark writes its reports under its own ``bench/out/``, so it runs
from a copy of what it reads, and a test run leaves the checkout as it was.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def bench_copy(dest: Path) -> Path:
    """Copy the engine source and the benchmark's inputs under ``dest``."""
    ignore = shutil.ignore_patterns("__pycache__")
    shutil.copytree(ROOT / "src", dest / "src", ignore=ignore)
    shutil.copytree(ROOT / "bench" / "workloads", dest / "bench" / "workloads")
    for path in (ROOT / "BENCHMARK.json", ROOT / "bench" / "digests.json",
                 *ROOT.glob("bench/*.py")):
        shutil.copy2(path, dest / path.relative_to(ROOT))
    return dest


@pytest.mark.parametrize("trace", [0, 1])
def test_benchmark_main_runs_clean(trace, tmp_path):
    root = bench_copy(tmp_path)
    command = [
        sys.executable, str(root / "bench" / "run.py"), "--workload", "chain-long",
        "--seed", "0", "--seconds", "0", "--trace", str(trace),
    ]
    done = subprocess.run(command, cwd=root, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr[-2000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0
