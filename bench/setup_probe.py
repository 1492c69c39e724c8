"""Time one workload set-up in a fresh interpreter.

    python3 bench/setup_probe.py CONFIG SEED

Imports the engine (library and CLI modules), parses and validates the
workload config, and constructs the seeded models with the engine's own
``specdec.harness.build_models``, then prints one JSON line with the wall
seconds each part took and the CPU seconds of the whole (``cpu_s``, every
thread of the process).  ``run.py`` starts this several times per run and
reports the median ``cpu_s`` as ``setup_s``: on a shared 2-vCPU host,
twenty back-to-back set-ups spread (inter-quartile) by 25% of the median in
wall time and by 13% in CPU time.  Interpreter start-up itself is not
counted.
"""

import json
import sys
import time
from pathlib import Path


def main(config_path: str, seed: int) -> None:
    t0, cpu0 = time.perf_counter(), time.process_time()
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    import specdec
    import specdec.cli  # noqa: F401  (the CLI's import cost is part of set-up)
    from specdec.harness import build_models

    t1 = time.perf_counter()
    config = specdec.parse_config(config_path, {"seed": seed})
    t2 = time.perf_counter()
    build_models(config)
    t3, cpu3 = time.perf_counter(), time.process_time()
    print(json.dumps({"import_s": t1 - t0, "parse_s": t2 - t1, "build_s": t3 - t2,
                      "total_s": t3 - t0, "cpu_s": cpu3 - cpu0}))


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]))
