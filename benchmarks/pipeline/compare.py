#!/usr/bin/env python3
"""Paired comparison of two source trees on the pipeline benchmark.

Usage (from the repository root)::

    python3 benchmarks/pipeline/compare.py PARENT_DIR CHANGE_DIR \\
        [--workload W ...] [--pairs 10] [--seconds 10] [--seed 0] [--out FILE]

``PARENT_DIR`` and ``CHANGE_DIR`` are source trees holding ``src/repro``
(for example ``git archive REV | tar -x -C DIR``).  Both sides are
measured by *this* benchmark's code with identical settings, so a change
to the benchmark itself cannot move the result.

For every cell it runs ``--pairs`` pairs (at least ten), all at the one
``--seed``, alternating which side runs first, and checks that both sides
of a pair saw identical inputs (``poset_digest``).  Because every run sees
the same inputs, the parent's spread is run-to-run noise only.  A claimed
gain must also hold at a seed not used while the change was written:
rerun with another ``--seed``.

Per end-to-end metric and cell it reports each side's median and
quartiles, the share of pairs the change won (ties count for neither side)
and a verdict.  The tolerance is the metric's bound from
``BENCHMARK.json`` times the parent's median, but at least the metric's
absolute floor (:data:`FLOORS`):

* ``worse`` — more repetitions failed on the change, or its median is
  worse than the parent's by more than the tolerance;
* ``improved`` — the change won at least nine tenths of the pairs and its
  median beats the parent's by more than the parent's quartile distance
  and the floor;
* ``unresolved`` — the parent's quartile distance exceeds the tolerance
  and not every change run beats every parent run;
* ``within bound`` — otherwise.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

from run import select_cells, summarize

HERE = Path(__file__).resolve().parent
BENCHMARK = HERE.parents[1] / "BENCHMARK.json"
WORK = HERE / ".work"
MIN_PAIRS = 10
#: Absolute floors of the tolerance for metrics whose values are small:
#: ``setup_s`` is a few milliseconds on ``detect-hedc``, where host noise
#: alone moves it by more than the relative bound.
FLOORS = {"setup_s": 0.002, "peak_rss_mb": 1.0}


def verdict(
    parent: Sequence[float],
    change: Sequence[float],
    better: str,
    bound: float,
    parent_failed: int = 0,
    change_failed: int = 0,
    floor: float = 0.0,
) -> Dict[str, object]:
    """Compare paired samples (``parent[k]`` and ``change[k]`` ran back to
    back on the same inputs)."""
    sign = 1.0 if better == "higher" else -1.0
    ps, cs = summarize(parent), summarize(change)
    pm, cm, pq1, pq3 = ps["median"], cs["median"], ps["q1"], ps["q3"]
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    win_frac = wins / len(parent)
    ahead = sign * (cm - pm)  # > 0: the change's median is better
    tolerance = max(bound * abs(pm), floor)
    all_better = min(sign * c for c in change) > max(sign * p for p in parent)
    if change_failed > parent_failed or ahead < -tolerance:
        result = "worse"
    elif win_frac >= 0.9 and ahead > max(pq3 - pq1, floor):
        result = "improved"
    elif pq3 - pq1 > tolerance and not all_better:
        result = "unresolved"
    else:
        result = "within bound"
    return {
        "parent": {"median": pm, "q1": pq1, "q3": pq3, "failed": parent_failed},
        "change": {"median": cm, "q1": cs["q1"], "q3": cs["q3"], "failed": change_failed},
        "win_frac": win_frac,
        "gain": ahead / pm if pm else 0.0,
        "parent_spread": (pq3 - pq1) / pm if pm else 0.0,
        "verdict": result,
    }


def run_pairs(
    cell: str, pairs: int, seed: int, measure: Callable[[str, str, int], Dict]
) -> Dict[str, List[Dict]]:
    """``pairs`` back-to-back pairs of one cell, all at ``seed``; the side
    that runs first alternates.  ``measure(side, cell, seed)`` returns one
    run's full report."""
    runs: Dict[str, List[Dict]] = {"parent": [], "change": []}
    for k in range(pairs):
        order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        pair = {side: measure(side, cell, seed) for side in order}
        digests = {pair[side]["inputs"]["poset_digest"] for side in order}
        if len(digests) != 1:
            raise SystemExit(f"{cell} pair {k}: the two sides saw different inputs")
        for side in runs:
            runs[side].append(pair[side])
    return runs


def run_side(src: Path, cell: str, seed: int, seconds: float) -> Dict:
    WORK.mkdir(parents=True, exist_ok=True)
    with tempfile.NamedTemporaryFile(suffix=".json", dir=WORK) as out:
        cmd = [
            sys.executable, str(HERE / "run.py"), "--src", str(src),
            "--workload", cell, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0", "--out", out.name,
        ]
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL, timeout=900)
        return json.loads(Path(out.name).read_text())


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", action="append",
                        help="cell or workload (repeatable; default: all)")
    parser.add_argument("--pairs", type=int, default=MIN_PAIRS)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--seed", type=int, default=0,
                        help="the inputs' seed, the same for every pair")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    if args.pairs < MIN_PAIRS:
        parser.error(f"--pairs must be at least {MIN_PAIRS}")
    spec = json.loads(BENCHMARK.read_text())
    seconds = args.seconds or spec["run_seconds"]
    srcs = {"parent": args.parent / "src", "change": args.change / "src"}
    for side, src in srcs.items():
        if not (src / "repro").is_dir():
            parser.error(f"{side}: no src/repro under {src.parent}")

    sys.path.insert(0, str(HERE.parents[1] / "src"))
    import cells as cell_table

    names: List[str] = []
    for name in args.workload or [None]:
        names += [c.name for c in select_cells(cell_table.CELLS, name)]

    def measure(side: str, cell: str, seed: int) -> Dict:
        return run_side(srcs[side], cell, seed, seconds)

    report: Dict[str, Dict] = {}
    for cell in names:
        runs = run_pairs(cell, args.pairs, args.seed, measure)
        rows = {}
        for m in spec["end_to_end"]:
            parent = [r["metrics"][m["name"]]["value"] for r in runs["parent"]]
            change = [r["metrics"][m["name"]]["value"] for r in runs["change"]]
            rows[m["name"]] = verdict(
                parent, change, m["better"], m["bound"],
                sum(r["failed"] for r in runs["parent"]),
                sum(r["failed"] for r in runs["change"]),
                FLOORS.get(m["name"], 0.0),
            )
        report[cell] = rows

    for m in spec["end_to_end"]:
        print(f"\n{m['name']} ({m['unit']}, {m['better']} is better, bound {m['bound']:.0%})")
        print(f"{'cell':22s} {'parent median [q1, q3]':>34s} {'change median [q1, q3]':>34s}"
              f" {'wins':>5s} {'verdict':>13s}")
        for cell, rows in report.items():
            row = rows[m["name"]]
            p, c = row["parent"], row["change"]
            print(f"{cell:22s} {p['median']:12.5g} [{p['q1']:.5g}, {p['q3']:.5g}]"
                  f"{'':>2s} {c['median']:12.5g} [{c['q1']:.5g}, {c['q3']:.5g}]"
                  f" {row['win_frac']:5.0%} {row['verdict']:>13s}")
    if args.out:
        args.out.write_text(json.dumps({"seed": args.seed, "cells": report}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
