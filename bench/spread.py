"""Run the benchmark over several seeds and report each metric's spread.

    python3 bench/spread.py --workload NAME [--seeds 0-9] [--out FILE]

Runs ``bench/run.py`` untraced once per seed, one after another, with the
``run_seconds`` of ``BENCHMARK.json``; the default seeds are those whose
digests ``digests.json`` records.  For every metric it prints the
median, the quartiles (``statistics.quantiles(values, n=4)``) and the
inter-quartile distance as a share of the median, next to the metric's
bound: a spread above a third of the bound is flagged.  ``--out`` writes
the runs and the summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def seed_list(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_list, default=seed_list("0-9"))
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    seconds = spec["run_seconds"]

    runs = []
    for seed in args.seeds:
        out = subprocess.run(
            [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            capture_output=True, text=True, timeout=900, check=True, cwd=ROOT,
        )
        lines = out.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        digest = next((line for line in lines if line.startswith("digest ")), "")
        runs.append({"seed": seed, "digest": digest, **result})
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']} "
              f"{digest.split(':')[1].split('{')[0].strip() if digest else ''}", flush=True)

    summary = {}
    print(f"{'metric':42s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'iqr/med':>8s} {'bound':>6s}")
    for name in runs[0]["metrics"]:
        values = [run["metrics"][name]["value"] for run in runs]
        q1, median, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / abs(median) if median else 0.0
        bound = bounds.get(name)
        flag = "  <-- over bound/3" if bound is not None and spread > bound / 3 else ""
        summary[name] = {"median": median, "q1": q1, "q3": q3, "spread": spread}
        print(f"{name:42s} {median:12.5g} {q1:12.5g} {q3:12.5g} {spread:8.4f} "
              f"{'' if bound is None else bound:>6}{flag}")
    if args.out:
        args.out.write_text(json.dumps(
            {"workload": args.workload, "seconds": seconds,
             "summary": summary, "runs": runs}, indent=2) + "\n")


if __name__ == "__main__":
    main()
