"""Enumeration-core throughput — the packed-kernel acceptance gate.

Single-core states/sec of every lexical-order subroutine (``lexical``,
``lexical-packed``) plus the space-efficient level
traversal (``level-space``) on the Table-2 raw posets (one event per
access): raytracer, sor and tsp (4 threads each) and hedc (8 threads,
the one raw poset wide enough for the bitmask kernel's prefix state to
pay; its reference ``lexical`` walk takes about 30 s).  Unlike the
Table-1 bench, whose artifacts land only under ``benchmarks/results/``,
this one pins the hot-path numbers in a **root-level**
``BENCH_enumeration_core.json`` so a perf regression in the enumeration
core shows up in review like every other layer's gate.

Acceptance: ``lexical-packed`` ≥ 5× ``lexical`` on the
raytracer raw poset (single core, counting mode), every subroutine
enumerates the identical state count, and the measured peak-memory curve
(:func:`repro.analysis.memory.peak_memory_curve`) shows ``level-space``
flat (one live cut) where ``bfs`` grows with lattice width.

``BENCH_ENUM_SMOKE=1`` restricts to the small sor poset with a relaxed
≥ 3× gate for the CI smoke job.
"""

import json
import os
import time
from pathlib import Path

import pytest

from repro.analysis.memory import peak_memory_curve
from repro.detector.hb import poset_from_trace
from repro.enumeration.base import make_enumerator
from repro.workloads.registry import DETECTION_WORKLOADS

SMOKE = bool(int(os.environ.get("BENCH_ENUM_SMOKE", "0")))

NAMES = ("sor",) if SMOKE else ("raytracer", "sor", "tsp", "hedc")
SUBROUTINES = ("lexical", "lexical-packed", "level-space")

#: The workload the speedup gate applies to, and the required ratio.
GATE_NAME = "sor" if SMOKE else "raytracer"
GATE_RATIO = 3.0 if SMOKE else 5.0

MEMORY_WIDTHS = (2, 3, 4) if SMOKE else (2, 3, 4, 5, 6)
#: Required bfs/level-space traced-peak ratio at the widest width.  The
#: smoke widths are small enough that fixed allocator overheads dilute
#: the gap, so the smoke gate is looser.
MEMORY_TRACED_RATIO = 2.0 if SMOKE else 3.0

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "BENCH_enumeration_core.json"

_results: dict = {}


def _raw_poset(name):
    return poset_from_trace(
        DETECTION_WORKLOADS[name].trace(), merge_collections=False
    )


def _best_seconds(fn, min_batch=0.01, min_total=0.25):
    """Seconds per call of ``fn``, from the fastest batch of calls.

    A batch repeats ``fn`` for at least ``min_batch`` seconds (its size
    doubles until it does), and batches run until they sum to at least
    ``min_total`` seconds, so a walk of tens of microseconds is timed
    over the whole budget rather than over a capped number of calls.
    """
    calls = 1
    while True:
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        elapsed = time.perf_counter() - t0
        if elapsed >= min_batch:
            break
        calls *= 2
    best, total = elapsed, elapsed
    while total < min_total:
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        elapsed = time.perf_counter() - t0
        best = min(best, elapsed)
        total += elapsed
    return best / calls


@pytest.mark.parametrize("name", NAMES)
def test_measure_throughput(name):
    poset = _raw_poset(name)
    entry = _results.setdefault(name, {})
    entry["threads"] = poset.num_threads
    entry["events"] = poset.num_events
    subs = entry.setdefault("subroutines", {})
    counts = set()
    for sub in SUBROUTINES:
        enumerator = make_enumerator(sub, poset)
        result = enumerator.enumerate()  # warm caches, get the count
        counts.add(result.states)
        seconds = _best_seconds(lambda e=enumerator: e.enumerate(None))
        record = {
            "states": result.states,
            "seconds": seconds,
            "states_per_second": result.states / seconds,
            "peak_live": result.peak_live,
        }
        kernel = getattr(enumerator, "kernel", None)
        if kernel is not None:
            record["kernel"] = kernel
        # visitor-mode throughput for the two headline algorithms: the
        # counting fast path is not doing the talking on its own
        if sub in ("lexical", "lexical-packed"):
            sink = [].append
            visit_seconds = _best_seconds(
                lambda e=enumerator, s=sink: e.enumerate(s)
            )
            record["visit_states_per_second"] = result.states / visit_seconds
        subs[sub] = record
    assert len(counts) == 1, f"{name}: state counts diverge: {subs}"
    entry["states"] = counts.pop()


def test_memory_curve():
    rows = peak_memory_curve(widths=MEMORY_WIDTHS, chain_length=3)
    _results["memory_curve"] = rows
    by_algo: dict = {}
    for row in rows:
        by_algo.setdefault(row["algorithm"], []).append(row)
    # level-space holds exactly one live cut at every width...
    assert all(r["peak_live"] == 1 for r in by_algo["level-space"])
    assert all(r["peak_live"] == 1 for r in by_algo["lexical"])
    # ...while bfs's live set grows monotonically with lattice width
    bfs_live = [r["peak_live"] for r in sorted(by_algo["bfs"], key=lambda r: r["width"])]
    assert bfs_live == sorted(bfs_live) and bfs_live[-1] > bfs_live[0]
    assert bfs_live[-1] >= 50 * 1  # widest config dwarfs the O(n) traversals
    # the *measured* traced peak shows the same shape
    widest = max(MEMORY_WIDTHS)
    bfs_widest = next(
        r for r in by_algo["bfs"] if r["width"] == widest
    )
    level_widest = next(
        r for r in by_algo["level-space"] if r["width"] == widest
    )
    assert (
        bfs_widest["traced_peak_bytes"]
        > MEMORY_TRACED_RATIO * level_widest["traced_peak_bytes"]
    )


def test_emit_json(artifact_sink):
    assert all(name in _results for name in NAMES)
    assert "memory_curve" in _results
    lines = ["enumeration core (single-core states/sec, counting mode):"]
    for name in NAMES:
        entry = _results[name]
        base = entry["subroutines"]["lexical"]["states_per_second"]
        for sub in SUBROUTINES:
            r = entry["subroutines"][sub]
            lines.append(
                f"  {name:10s} {sub:14s} {r['states_per_second']:>12,.0f}/s "
                f"({r['states_per_second'] / base:5.2f}x lexical)"
            )
    gate = _results[GATE_NAME]["subroutines"]
    ratio = (
        gate["lexical-packed"]["states_per_second"]
        / gate["lexical"]["states_per_second"]
    )
    lines.append(
        f"  gate: lexical-packed {ratio:.2f}x lexical on {GATE_NAME} "
        f"(required ≥ {GATE_RATIO}x{', smoke' if SMOKE else ''})"
    )
    payload = {
        "benchmark": "enumeration_core",
        "smoke": SMOKE,
        "gate": {
            "workload": GATE_NAME,
            "required_ratio": GATE_RATIO,
            "measured_ratio": ratio,
        },
        "workloads": {name: _results[name] for name in NAMES},
        "memory_curve": _results["memory_curve"],
    }
    OUT.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    artifact_sink("BENCH_enumeration_core", "\n".join(lines))
    assert ratio >= GATE_RATIO, lines
    if not SMOKE:
        # the visitor-mode path must clear the bar too, not just counting
        visit_ratio = (
            gate["lexical-packed"]["visit_states_per_second"]
            / gate["lexical"]["visit_states_per_second"]
        )
        assert visit_ratio >= GATE_RATIO, visit_ratio
