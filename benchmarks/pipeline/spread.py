#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, measured as the benchmark
harness measures it.

Usage (from the repository root)::

    python3 benchmarks/pipeline/spread.py --first-seed 100 --count 10 \\
        --out benchmarks/pipeline/results/spread-seeds100-109.json \\
        [--against benchmarks/pipeline/results/spread-seeds0-9.json]

Runs every workload declared in ``BENCHMARK.json`` once per seed, round
robin (every workload at one seed, then the next seed), each run with the
harness's command line ``run.py --workload W --seed S --seconds
RUN_SECONDS --trace 0`` plus ``--out``.  For every workload and end-to-end
metric it prints the median of the runs and their spread, (q3 − q1) ÷
median with the quartiles of ``statistics.quantiles(n=4)``, beside the
metric's bound.  ``--against`` names an earlier sweep's file and also
prints how far each median moved from it, as a share of the earlier one.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
WORK = HERE / ".work"


def spread(values: Sequence[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def run_once(workload: str, seed: int, seconds: int) -> Dict:
    WORK.mkdir(parents=True, exist_ok=True)
    with tempfile.NamedTemporaryFile(suffix=".json", dir=WORK) as out:
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "benchmarks/pipeline/run.py", "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
             "--out", out.name],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True, timeout=600,
        )
        wall = time.perf_counter() - t0
        report = json.loads(Path(out.name).read_text())
    return {
        "seed": seed,
        "wall_s": wall,
        "result": json.loads(proc.stdout.strip().splitlines()[-1]),
        "raw": {k: report["stats"][k]["median"]
                for k in ("raw_states_per_s", "raw_setup_s", "host_factor")},
    }


def summary(spec: Dict, runs: Dict[str, List[Dict]]) -> Dict[str, Dict]:
    out: Dict[str, Dict] = {}
    for workload, rows in runs.items():
        out[workload] = {}
        for m in spec["end_to_end"]:
            values = [r["result"]["metrics"][m["name"]]["value"] for r in rows]
            out[workload][m["name"]] = {
                "median": statistics.median(values),
                "spread": spread(values),
                "bound": m["bound"],
            }
    return out


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--first-seed", type=int, required=True)
    parser.add_argument("--count", type=int, default=10)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--against", type=Path, help="an earlier sweep's --out file")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    seeds = list(range(args.first_seed, args.first_seed + args.count))

    runs: Dict[str, List[Dict]] = {w: [] for w in workloads}
    for seed in seeds:
        for workload in workloads:
            runs[workload].append(run_once(workload, seed, spec["run_seconds"]))
    doc = {"seeds": seeds, "run_seconds": spec["run_seconds"],
           "summary": summary(spec, runs), "runs": runs}
    args.out.write_text(json.dumps(doc, indent=1) + "\n")

    earlier = json.loads(args.against.read_text())["summary"] if args.against else {}
    correct = all(r["result"]["correct"] for rows in runs.values() for r in rows)
    print(f"seeds {seeds[0]}-{seeds[-1]}, every run correct: {correct}")
    for workload, metrics in doc["summary"].items():
        for name, row in metrics.items():
            line = (f"{workload:20s} {name:14s} median {row['median']:12.6g}"
                    f"  spread {row['spread']:6.3f}  bound {row['bound']:.2f}")
            before = earlier.get(workload, {}).get(name)
            if before:
                moved = row["median"] / before["median"] - 1.0
                line += f"  moved {moved:+.3f}"
            print(line)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
