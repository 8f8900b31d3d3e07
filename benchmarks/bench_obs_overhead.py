"""Observability overhead — what tracing costs, and that not tracing is free.

For the sor and raytracer event posets (raw access posets, one event per
access) the same serial enumeration runs four ways: the plain driver
(``observer=None``), the driver behind the default no-op
:class:`~repro.obs.NullObserver`, fully traced with a live
:class:`~repro.obs.Observer` (spans + metrics + windowed rates, no
progress stream), and traced with a 100 Hz
:class:`~repro.obs.SamplingProfiler` attached on top.  Totals must be
identical; the measured overheads land in
``benchmarks/results/BENCH_obs_overhead.json``.

The targets apply where observability matters: runs long enough to be
worth watching (raytracer's raw poset enumerates ~1M states over seconds)
must stay under 3% traced, under 5% traced **with the profiler sampling**,
and ~0% with the no-op observer.  On sub-millisecond posets the fixed
per-span cost is proportionally visible, so the small-poset guard is
loose; all numbers are reported.

``BENCH_OBS_SMOKE=1`` (CI) restricts the run to the sor poset and skips
the overhead assertions — a smoke check that the instrumented paths run,
not a timing measurement on shared runners.
"""

import json
import os
import statistics
import time
from collections import defaultdict

import pytest

from repro.core.paramount import ParaMount
from repro.detector.hb import events_from_trace
from repro.obs import NullObserver, Observer, SamplingProfiler
from repro.poset.poset import Poset
from repro.workloads.registry import DETECTION_WORKLOADS

from conftest import RESULTS_DIR

SMOKE = bool(int(os.environ.get("BENCH_OBS_SMOKE", "0")))

#: name -> timing rounds (the raytracer raw poset runs for seconds).
NAMES = {"sor": 5} if SMOKE else {"sor": 15, "raytracer": 5}

#: Overhead targets on the long-running poset.
TRACED_TARGET = 0.03
NOOP_TARGET = 0.02
PROFILED_TARGET = 0.05
PROFILE_HZ = 100.0

#: The overhead targets are fractions of the reference ``lexical``
#: kernel's run time, the program they were recorded on; the packed
#: default runs several times faster, so the same fixed per-task and
#: per-span costs would weigh several times more against it.
SUBROUTINE = "lexical"

_results: dict = {}

_posets: dict = {}


def workload_poset(name: str) -> Poset:
    if name not in _posets:
        trace = DETECTION_WORKLOADS[name].trace()
        events = events_from_trace(trace, merge_collections=False)
        chains = defaultdict(list)
        for event in events:
            chains[event.tid].append(event)
        _posets[name] = Poset(
            [chains.get(t, []) for t in range(trace.num_threads)],
            insertion=[event.eid for event in events],
        )
    return _posets[name]


def _entry(name: str) -> dict:
    return _results.setdefault(name, {})


def _timed(run) -> float:
    t0 = time.perf_counter()
    run()
    return time.perf_counter() - t0


@pytest.mark.parametrize("name", sorted(NAMES))
def test_overhead_paired(name):
    """Time all three variants interleaved round by round, so slow drift
    on a shared machine cancels out of the overhead ratios."""
    poset = workload_poset(name)

    def profiled_run():
        observer = Observer()
        with SamplingProfiler(observer, hz=PROFILE_HZ):
            return ParaMount(poset, SUBROUTINE, observer=observer).run()

    variants = {
        "baseline": lambda: ParaMount(poset, SUBROUTINE).run(),
        "noop": lambda: ParaMount(poset, SUBROUTINE, observer=NullObserver()).run(),
        "traced": lambda: ParaMount(poset, SUBROUTINE, observer=Observer()).run(),
        "profiled": profiled_run,
    }
    baseline = ParaMount(poset, SUBROUTINE).run()
    observer = Observer()
    traced = ParaMount(poset, SUBROUTINE, observer=observer).run()
    assert traced.states == baseline.states
    assert ParaMount(poset, SUBROUTINE, observer=NullObserver()).run().states == (
        baseline.states
    )
    assert profiled_run().states == baseline.states
    # the trace really covers the run: one enumerate span per task
    enumerated = [
        s
        for s in observer.spans()
        if s.category == "enumerate" and not s.is_instant
    ]
    assert len(enumerated) == len(traced.tasks)

    samples: dict = {key: [] for key in variants}
    for _ in range(NAMES[name]):
        for key, run in variants.items():
            samples[key].append(_timed(run))
    _entry(name).update(
        baseline_seconds=statistics.median(samples["baseline"]),
        noop_seconds=statistics.median(samples["noop"]),
        traced_seconds=statistics.median(samples["traced"]),
        profiled_seconds=statistics.median(samples["profiled"]),
        # overhead = median of the per-round paired ratios, so slow drift
        # across rounds cancels instead of skewing one variant's median
        noop_overhead=statistics.median(
            n / b - 1.0 for n, b in zip(samples["noop"], samples["baseline"])
        ),
        traced_overhead=statistics.median(
            t / b - 1.0 for t, b in zip(samples["traced"], samples["baseline"])
        ),
        profiled_overhead=statistics.median(
            p / b - 1.0
            for p, b in zip(samples["profiled"], samples["baseline"])
        ),
        profile_hz=PROFILE_HZ,
        states=baseline.states,
        events=poset.num_events,
        spans=len(observer.spans()),
    )


def test_emit_json(artifact_sink):
    assert set(_results) == set(NAMES)
    lines = ["observability overhead (serial enumeration):"]
    for name in sorted(NAMES):
        r = _results[name]
        lines.append(
            f"  {name:10s} baseline {r['baseline_seconds'] * 1e3:9.3f}ms  "
            f"noop {r['noop_overhead'] * 100:+6.2f}%  "
            f"traced {r['traced_overhead'] * 100:+6.2f}%  "
            f"profiled {r['profiled_overhead'] * 100:+6.2f}%  "
            f"({r['events']} events, {r['states']} states, {r['spans']} spans)"
        )
    lines.append(
        f"  targets (long-running poset): noop {NOOP_TARGET * 100:.0f}%, "
        f"traced {TRACED_TARGET * 100:.0f}%, "
        f"profiled@{PROFILE_HZ:.0f}Hz {PROFILED_TARGET * 100:.0f}%"
    )
    payload = {
        "benchmark": "obs_overhead",
        "smoke": SMOKE,
        "noop_target": NOOP_TARGET,
        "traced_target": TRACED_TARGET,
        "profiled_target": PROFILED_TARGET,
        "workloads": _results,
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    out = RESULTS_DIR / "BENCH_obs_overhead.json"
    out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    artifact_sink("BENCH_obs_overhead", "\n".join(lines))
    if SMOKE:
        return  # shared CI runners: report, don't gate on timing
    # Enforced where observability pays for itself: the poset whose
    # enumeration runs for seconds.  The tiny sor poset's fixed per-span
    # cost is proportionally visible, so its guard is loose.
    assert _results["raytracer"]["noop_overhead"] < NOOP_TARGET
    assert _results["raytracer"]["traced_overhead"] < TRACED_TARGET
    assert _results["raytracer"]["profiled_overhead"] < PROFILED_TARGET
    assert _results["sor"]["traced_overhead"] < 0.5
