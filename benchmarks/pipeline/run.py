#!/usr/bin/env python3
"""Pipeline benchmark: measured end-to-end throughput of online race
detection and parallel enumeration, with a traced per-layer breakdown.

Usage (from the repository root)::

    python3 benchmarks/pipeline/run.py --seed 0                  # every cell
    python3 benchmarks/pipeline/run.py --seed 0 --workload enum-dense
    python3 benchmarks/pipeline/run.py --seed 0 --workload detect-tsp --trace 1
    python3 benchmarks/pipeline/run.py --seed 0 --smoke          # < 1 min

``--workload`` names a cell (``enum-dense-threads``) or a whole workload
(``enum-dense``: its three backends).  A single cell is measured in this
process; several cells each run in a fresh child process, so every cell's
``peak_rss_mb`` is its own.

Per cell: the inputs are generated from the seed (several times; the
median is ``setup_s``), the reference answer is computed once, one
untimed warm-up runs, then a closed loop — one client, no think time —
repeats the public API call until ``--seconds`` have passed.  Every
repetition is checked; one that raises, exceeds its timeout or returns a
wrong answer counts as failed.  Every timed set-up and repetition is
followed by a calibration pass, and its time is reported at the reference
host's speed (:class:`HostSpeed`); the raw medians are printed beside
them.  ``--trace 1`` then also runs one traced setup and one traced
repetition (see ``layers.py``) and reports the per-layer metrics instead
of the end-to-end ones.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it print every metric by name with its unit, its quartiles and sample
count.  ``--out`` also writes the full report (samples, input digests,
host) as JSON.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
WORK = HERE / ".work"

#: Measuring time per cell when ``--seconds`` is not given.
SECONDS = 20.0
SMOKE_SECONDS = 0.5
#: Set-up is repeated at least this often and for at least this long.
SETUP_MIN_REPS = 5
SETUP_MIN_SECONDS = 1.5
SETUP_MAX_REPS = 200
#: One calibration pass: fixed interpreter work that calls nothing of the
#: program under test (see :class:`HostSpeed`).
CALIBRATION_LOOPS = 60_000
#: Seconds one calibration pass takes on the reference host outside its
#: slow phases; normalized times are expressed at that speed.  Changing it
#: (or the pass) rescales every normalized metric, so it stays fixed.
REFERENCE_CALIBRATION_S = 0.019
#: A repetition still running after this long fails (and is interrupted).
REP_TIMEOUT = 60.0
#: Untraced serial repetitions timed as the base of dist.speedup_vs_serial.
SERIAL_BASE_REPS = 3

END_TO_END = {
    "states_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "runtime.capture_s": "s",
    "runtime.ops": "count",
    "detector.hb.self_s": "s",
    "detector.hb.events": "count",
    "core.online.self_s": "s",
    "core.online.inserts": "count",
    "core.online.insert_ms_p50": "ms",
    "core.online.insert_ms_tail": "ms",
    "poset.builder.append_s": "s",
    "poset.builder.frontier_s": "s",
    "poset.builder.frontier_calls": "count",
    "poset.packed.build_s": "s",
    "core.intervals.self_s": "s",
    "core.intervals.count": "count",
    "core.scheduling.self_s": "s",
    "core.scheduling.tasks": "count",
    "core.scheduling.split_intervals": "count",
    "enumeration.self_s": "s",
    "enumeration.calls": "count",
    "enumeration.states": "count",
    "enumeration.states_per_busy_s": "1/s",
    "enumeration.task_ms_p50": "ms",
    "enumeration.task_ms_tail": "ms",
    "enumeration.useful_frac": "ratio",
    "predicates.self_s": "s",
    "predicates.checks": "count",
    "core.executors.self_s": "s",
    "core.executors.wait_ms_p50": "ms",
    "core.executors.wait_ms_tail": "ms",
    "core.executors.overhead_ms_per_task": "ms",
    "core.executors.steals": "count",
    "dist.self_s": "s",
    "dist.spawn_s": "s",
    "dist.stop_s": "s",
    "dist.overhead_ms_per_task": "ms",
    "dist.busy_frac": "ratio",
    "dist.redispatches": "count",
    "dist.leases_expired": "count",
    "dist.speedup_vs_serial": "ratio",
    "resilience.checkpoint.self_s": "s",
    "resilience.checkpoint.records": "count",
    "resilience.checkpoint.bytes": "bytes",
    "unattributed_s": "s",
    "tracer_s": "s",
    "traced_wall_s": "s",
    "trace_overhead_frac": "ratio",
}

#: Per-layer self times that, with ``unattributed_s``, partition the
#: traced repetition's wall time (``tracer_s`` is the part of
#: ``unattributed_s`` spent in the tracer's own bookkeeping).
SELF_METRICS = (
    "detector.hb.self_s",
    "core.online.self_s",
    "poset.builder.append_s",
    "poset.builder.frontier_s",
    "core.intervals.self_s",
    "core.scheduling.self_s",
    "enumeration.self_s",
    "predicates.self_s",
    "core.executors.self_s",
    "dist.self_s",
    "resilience.checkpoint.self_s",
)

#: Layers whose metrics are not tied to a wrapped symbol of the same layer.
_CELL_LEVEL = ("unattributed_s", "tracer_s", "traced_wall_s", "trace_overhead_frac")


class RepTimeout(Exception):
    """A repetition ran past :data:`REP_TIMEOUT`."""


@dataclass
class Rep:
    seconds: float
    states: int
    problems: List[str]
    outcome: Any = None
    #: Host-speed factor of this repetition (see :class:`HostSpeed`).
    factor: float = 1.0

    @property
    def ok(self) -> bool:
        return not self.problems


@dataclass
class Measurement:
    """Everything one cell's run produced."""

    cell: str
    seed: int
    inputs: Dict[str, Any] = field(default_factory=dict)
    setup_seconds: List[float] = field(default_factory=list)
    setup_factors: List[float] = field(default_factory=list)
    reps: List[Rep] = field(default_factory=list)
    warmup: Optional[Rep] = None
    metrics: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    stats: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    absent: Dict[str, str] = field(default_factory=dict)
    spans_path: Optional[str] = None

    @property
    def attempted(self) -> int:
        return len(self.reps)

    @property
    def failed(self) -> int:
        return sum(not r.ok for r in self.reps)

    @property
    def correct(self) -> bool:
        warm_ok = self.warmup is None or self.warmup.ok
        return warm_ok and self.attempted > 0 and self.failed == 0

    def problems(self) -> List[str]:
        reps = ([self.warmup] if self.warmup else []) + self.reps
        return [p for r in reps for p in r.problems]

    def result_line(self) -> Dict[str, Any]:
        return {
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": self.metrics,
        }

    def as_json(self) -> Dict[str, Any]:
        doc = self.result_line()
        doc.update(
            cell=self.cell,
            seed=self.seed,
            inputs=self.inputs,
            stats=self.stats,
            absent=self.absent,
            problems=self.problems()[:20],
            samples={
                "setup_s": self.setup_seconds,
                "setup_factor": self.setup_factors,
                "rep_s": [r.seconds for r in self.reps],
                "rep_factor": [r.factor for r in self.reps],
            },
            host=host_info(),
        )
        if self.spans_path:
            doc["spans"] = self.spans_path
        return doc


# ---------------------------------------------------------------------- #
# measurement


class _Timeout:
    """Interrupt the main thread after ``seconds`` (SIGALRM)."""

    def __init__(self, seconds: float):
        self.seconds = seconds

    def _fire(self, signum, frame):
        raise RepTimeout(f"repetition exceeded {self.seconds:.0f}s")

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._fire)
        signal.setitimer(signal.ITIMER_REAL, self.seconds)

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)


#: Operands of the calibration pass's big-integer loop, as wide as the
#: dense workload's event bitmasks.
_MASKS = tuple(((1 << 640) - 1) // (2 * k + 3) for k in range(64))


def calibration_pass() -> float:
    """Seconds of one pass of fixed pure-Python work: small-integer
    arithmetic with a dict, then 640-bit bitwise operations, the two kinds
    of work the measured calls spend their time in.  The collector is off
    during the pass, so the size of the program's heap cannot change it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        acc = 0
        table = {}
        for i in range(CALIBRATION_LOOPS):
            acc = (acc * 31 + i) & 0xFFFFFFFF
            table[acc & 255] = i
        bits = x = 0
        for i in range(CALIBRATION_LOOPS // 2):
            mask = _MASKS[i & 63]
            x = (x | (mask >> (i & 7))) & ~(bits & mask)
            bits ^= x
            if not x & 1:
                x = mask
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class HostSpeed:
    """Tracks how fast the host runs right now.

    The reference host is a shared VM whose speed drifts by up to 1.6×
    in phases lasting seconds to minutes, slowing the program and a fixed
    loop alike.  A calibration pass runs before the first timed call and
    after every one; a call's *factor* is :data:`REFERENCE_CALIBRATION_S`
    over the mean of the passes on either side of it.  A time multiplied
    by its factor is that time at the reference host's usual speed.  The
    passes share no code with the program, so a change to the program
    moves its times and not the factors.
    """

    def __init__(self) -> None:
        self._before = calibration_pass()

    def factor(self) -> float:
        """Factor of the call that ran since the previous pass."""
        after = calibration_pass()
        factor = REFERENCE_CALIBRATION_S / ((self._before + after) / 2)
        self._before = after
        return factor


def run_rep(cell, inputs, oracle, workdir: Path, around=None) -> Rep:
    """One checked repetition; the clock (and ``around``, e.g. a traced
    root) covers only the call, not the checks."""
    t0 = time.perf_counter()
    outcome = None
    try:
        with _Timeout(REP_TIMEOUT), around or contextlib.nullcontext():
            outcome = cell.run(inputs, workdir)
        seconds = time.perf_counter() - t0
        problems = cell.check(outcome, oracle)
    except Exception as exc:  # noqa: BLE001 - a failed repetition, reported
        return Rep(time.perf_counter() - t0, 0, [f"{type(exc).__name__}: {exc}"])
    finally:
        journal = None if outcome is None else outcome.journal
        if journal is not None and journal.exists():
            outcome.journal_bytes = journal.stat().st_size
            journal.unlink()
    return Rep(seconds, outcome.states, problems, outcome)


def measure(
    cell,
    seed: int,
    sizes,
    seconds: float,
    traced: bool = False,
    smoke: bool = False,
    targets=None,
) -> Measurement:
    """Measure one cell; see the module docstring for the protocol."""
    m = Measurement(cell=cell.name, seed=seed)
    WORK.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    try:
        speed = HostSpeed()
        begun = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            inputs = cell.setup(seed, sizes)
            m.setup_seconds.append(time.perf_counter() - t0)
            m.setup_factors.append(speed.factor())
            done = len(m.setup_seconds)
            if smoke or done >= SETUP_MAX_REPS or (
                done >= SETUP_MIN_REPS
                and time.perf_counter() - begun >= SETUP_MIN_SECONDS
            ):
                break
        m.inputs = cell.describe(inputs)
        oracle = cell.oracle(inputs)
        m.inputs["states"] = oracle["states"]
        m.warmup = run_rep(cell, inputs, oracle, workdir)
        speed = HostSpeed()
        begun = time.perf_counter()
        while time.perf_counter() - begun < seconds:
            rep = run_rep(cell, inputs, oracle, workdir)
            rep.factor = speed.factor()
            rep.outcome = None  # checked; keeping it would grow peak RSS
            m.reps.append(rep)
        ok = [r for r in m.reps if r.ok and r.seconds > 0]
        m.stats["states_per_s"] = summarize([r.states / (r.seconds * r.factor) for r in ok])
        m.stats["setup_s"] = summarize(
            [s * f for s, f in zip(m.setup_seconds, m.setup_factors)]
        )
        m.stats["raw_states_per_s"] = summarize([r.states / r.seconds for r in ok])
        m.stats["raw_setup_s"] = summarize(m.setup_seconds)
        m.stats["host_factor"] = summarize([r.factor for r in m.reps])
        m.stats["rep_s"] = summarize([r.seconds * r.factor for r in ok])
        if not traced:
            m.metrics = {
                "states_per_s": metric(m.stats["states_per_s"]["median"], "states_per_s"),
                "setup_s": metric(m.stats["setup_s"]["median"], "setup_s"),
                "peak_rss_mb": metric(peak_rss_mb(), "peak_rss_mb"),
            }
        else:
            trace_cell(m, cell, inputs, oracle, seed, sizes, workdir, targets)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return m


def trace_cell(m: Measurement, cell, inputs, oracle, seed, sizes, workdir, targets):
    """One traced setup and one traced repetition -> per-layer metrics."""
    import layers

    base_s = None
    if cell.backend == "dist":
        import cells

        serial = cells.Cell(cell.workload, "serial")
        speed = HostSpeed()
        base = []
        for _ in range(SERIAL_BASE_REPS):
            rep = run_rep(serial, inputs, oracle, workdir)
            factor = speed.factor()
            if rep.ok:
                base.append(rep.seconds * factor)
        base_s = statistics.median(base) if base else None
    tracer = layers.Tracer() if targets is None else layers.Tracer(targets)
    tracer.install()
    try:
        with tracer.root("setup", "setup"):
            traced_inputs = cell.setup(seed, sizes)
        speed = HostSpeed()
        rep = run_rep(cell, inputs, oracle, workdir, around=tracer.root("rep", "rep"))
    finally:
        tracer.restore()
    rep.factor = speed.factor()
    m.reps.append(rep)
    if cell.describe(traced_inputs)["poset_digest"] != m.inputs["poset_digest"]:
        rep.problems.append("traced set-up generated different inputs")
    m.absent = dict(tracer.absent)
    untraced_s = m.stats["rep_s"]["median"]
    values = breakdown(tracer, cell, rep, untraced_s, base_s)
    m.metrics = {
        name: metric(value, name)
        for name, value in values.items()
        if _layer_of(name) not in m.absent
    }
    WORK.mkdir(parents=True, exist_ok=True)
    path = WORK / f"spans-{cell.name}-seed{seed}.jsonl"
    tracer.write_jsonl(path)
    m.spans_path = str(path.relative_to(ROOT))


def _layer_of(metric_name: str) -> Optional[str]:
    if metric_name in _CELL_LEVEL:
        return None
    return metric_name.rsplit(".", 1)[0]


def breakdown(tracer, cell, rep: Rep, untraced_s, serial_s) -> Dict[str, float]:
    """Per-layer metrics of the traced repetition (and traced set-up)."""
    from layers import percentile, tail

    rep_spans = tracer.run_spans("rep")
    setup_spans = tracer.run_spans("setup")
    agg = tracer.run_aggregates("rep")
    layer_self = tracer.layer_self("rep")
    root = next(s for s in rep_spans if s.parent is None)
    by_id = {s.span_id: s for s in rep_spans}
    outcome = rep.outcome
    result = None if outcome is None or cell.detect else outcome.value

    def named(name, spans=rep_spans):
        return [s for s in spans if s.name == name]

    def self_of(name):
        return sum(s.self_time for s in named(name))

    def total(spans, key):
        return sum(s.attrs.get(key, 0) for s in spans)

    v: Dict[str, float] = {}
    capture = named("run_program", setup_spans)
    v["runtime.capture_s"] = sum(s.duration for s in capture)
    v["runtime.ops"] = total(capture, "count")

    v["detector.hb.self_s"] = layer_self.get("detector.hb", 0.0)
    v["detector.hb.events"] = (
        outcome.value.poset_events if cell.detect and outcome is not None else 0
    )

    inserts = [s.duration * 1e3 for s in named("OnlineParaMount.insert")]
    v["core.online.self_s"] = layer_self.get("core.online", 0.0)
    v["core.online.inserts"] = len(inserts)
    v["core.online.insert_ms_p50"] = percentile(inserts, 50)
    v["core.online.insert_ms_tail"] = tail(inserts)[1]

    frontier = agg.get("BuilderView.frontier_events", [0, 0.0, 0.0])
    v["poset.builder.append_s"] = self_of("PosetBuilder.append_stamped")
    v["poset.builder.frontier_s"] = frontier[2]
    v["poset.builder.frontier_calls"] = frontier[0]
    v["poset.packed.build_s"] = sum(
        s.duration for s in named("Poset.packed_tables", setup_spans)
    )

    v["core.intervals.self_s"] = layer_self.get("core.intervals", 0.0)
    v["core.intervals.count"] = total(named("compute_intervals"), "count")
    plans = named("plan_schedule")
    v["core.scheduling.self_s"] = layer_self.get("core.scheduling", 0.0)
    v["core.scheduling.tasks"] = total(plans, "tasks")
    v["core.scheduling.split_intervals"] = total(plans, "split")

    # Enumeration: in-process spans, or the dist workers' own task seconds
    # (separate processes), whose parallel share of the dispatch window is
    # busy seconds / workers.
    enum_spans = named("bounded_enumeration")
    dist_self = layer_self.get("dist", 0.0)
    if cell.backend == "dist" and result is not None:
        task_ms = [t.seconds * 1e3 for t in result.tasks]
        states = sum(t.states for t in result.tasks)
        work = sum(t.work for t in result.tasks)
        busy = sum(t.seconds for t in result.tasks)
        share = min(busy / result.workers, dist_self)
        enum_self = layer_self.get("enumeration", 0.0) + share
        dist_self -= share
    else:
        task_ms = [s.duration * 1e3 for s in enum_spans]
        states = total(enum_spans, "states")
        work = total(enum_spans, "work")
        busy = sum(s.duration for s in enum_spans)
        enum_self = layer_self.get("enumeration", 0.0)
    v["enumeration.self_s"] = enum_self
    v["enumeration.calls"] = len(task_ms)
    v["enumeration.states"] = states
    v["enumeration.states_per_busy_s"] = states / busy if busy else 0.0
    v["enumeration.task_ms_p50"] = percentile(task_ms, 50)
    v["enumeration.task_ms_tail"] = tail(task_ms)[1]
    v["enumeration.useful_frac"] = states / work if work else 0.0

    checks = agg.get("DataRacePredicate.check", [0, 0.0, 0.0])
    v["predicates.self_s"] = checks[2]
    v["predicates.checks"] = checks[0]

    map_ids = {s.span_id for s in rep_spans if s.layer == "core.executors"}
    waits = [
        (s.start - by_id[s.parent].start) * 1e3
        for s in enum_spans
        if s.parent in map_ids
    ]
    executor_self = layer_self.get("core.executors", 0.0)
    v["core.executors.self_s"] = executor_self
    v["core.executors.wait_ms_p50"] = percentile(waits, 50)
    v["core.executors.wait_ms_tail"] = tail(waits)[1]
    v["core.executors.overhead_ms_per_task"] = (
        executor_self / len(waits) * 1e3 if waits else 0.0
    )
    v["core.executors.steals"] = result.steals if result is not None else 0

    dist_maps = named("DistributedExecutor.map_tasks") if result is not None else []
    spawns = named("spawn_local_workers")
    first_lease = tracer.first_truthy.get("LeaseTable.next_for")
    dist_tasks = len(result.tasks) if dist_maps else 0
    v["dist.self_s"] = dist_self
    v["dist.spawn_s"] = (
        first_lease - spawns[0].start
        if spawns and first_lease is not None and first_lease <= root.end
        else 0.0
    )
    v["dist.stop_s"] = sum(s.duration for s in named("Coordinator.stop"))
    v["dist.overhead_ms_per_task"] = (
        dist_self / dist_tasks * 1e3 if dist_tasks else 0.0
    )
    window = sum(s.duration for s in dist_maps)
    v["dist.busy_frac"] = (
        busy / (result.workers * window) if dist_maps and window else 0.0
    )
    v["dist.redispatches"] = result.redispatches if dist_maps else 0
    v["dist.leases_expired"] = result.leases_expired if dist_maps else 0
    dist_s = untraced_s if cell.backend == "dist" else None
    v["dist.speedup_vs_serial"] = (
        serial_s / dist_s if serial_s and dist_s else 0.0
    )

    records = named("CheckpointJournal.record")
    v["resilience.checkpoint.self_s"] = layer_self.get("resilience.checkpoint", 0.0)
    v["resilience.checkpoint.records"] = len(records)
    v["resilience.checkpoint.bytes"] = (
        outcome.journal_bytes if outcome is not None else 0
    )

    v["unattributed_s"] = layer_self.get("unattributed", 0.0) + layer_self["tracer"]
    v["tracer_s"] = layer_self["tracer"]
    v["traced_wall_s"] = root.duration
    v["trace_overhead_frac"] = (
        root.duration * rep.factor / untraced_s - 1.0 if untraced_s else 0.0
    )
    return v


# ---------------------------------------------------------------------- #
# small helpers


def summarize(samples: Sequence[float]) -> Dict[str, Any]:
    """Median, quartiles, tail percentile and count of ``samples``."""
    from layers import tail

    if not samples:
        return {"n": 0, "median": 0.0, "q1": 0.0, "q3": 0.0,
                "tail_pct": None, "tail": 0.0}
    if len(samples) >= 2:
        q1, _, q3 = statistics.quantiles(samples, n=4)
    else:
        q1 = q3 = samples[0]
    pct, value = tail(samples)
    return {
        "n": len(samples),
        "median": statistics.median(samples),
        "q1": q1,
        "q3": q3,
        "tail_pct": pct,
        "tail": value,
    }


def metric(value: float, name: str) -> Dict[str, Any]:
    unit = END_TO_END.get(name) or PER_LAYER[name]
    return {"value": value, "unit": unit}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def host_info() -> Dict[str, Any]:
    try:
        import numpy  # noqa: F401

        numpy_ok = True
    except ImportError:
        numpy_ok = False
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "numpy_importable": numpy_ok,
        "REPRO_NO_NUMPY": os.environ.get("REPRO_NO_NUMPY", ""),
    }


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def print_measurement(m: Measurement) -> None:
    info = " ".join(f"{k}={_fmt(v)}" for k, v in m.inputs.items())
    print(f"# {m.cell} seed={m.seed} {info}")
    rows = [(name, entry["value"], entry["unit"]) for name, entry in m.metrics.items()]
    if not m.spans_path:
        rows += [
            (name, m.stats[name]["median"], unit)
            for name, unit in (
                ("raw_states_per_s", "1/s"), ("raw_setup_s", "s"), ("host_factor", "ratio")
            )
        ]
    for name, value, unit in rows:
        line = f"{name:38s} {_fmt(value):>14s} {unit}"
        stats = m.stats.get(name)
        if stats:
            tail_label = (
                f"p{stats['tail_pct']:g}" if stats["tail_pct"] is not None else "tail n/a"
            )
            line += (
                f"  (median of {stats['n']}; q1 {_fmt(stats['q1'])}, "
                f"q3 {_fmt(stats['q3'])}; {tail_label} {_fmt(stats['tail'])})"
            )
        print(line)
    print(f"{'failed_frac':38s} {m.failed}/{m.attempted}")
    for layer, why in m.absent.items():
        print(f"absent: {layer} — {why}")
    for problem in m.problems()[:5]:
        print(f"problem: {problem}")
    if m.spans_path:
        print(f"spans: {m.spans_path}")


# ---------------------------------------------------------------------- #
# command line


def select_cells(cells, name: Optional[str]):
    if name is None:
        return list(cells)
    chosen = [c for c in cells if name in (c.name, c.workload)]
    if not chosen:
        names = sorted({c.name for c in cells} | {c.workload for c in cells})
        raise SystemExit(f"run.py: unknown workload {name!r}; one of {names}")
    return chosen


def run_children(args, chosen) -> int:
    """Measure each cell in a fresh child process and gather the reports."""
    reports = {}
    WORK.mkdir(parents=True, exist_ok=True)
    for cell in chosen:
        fd, out = tempfile.mkstemp(prefix="cell-", suffix=".json", dir=WORK)
        os.close(fd)
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", cell.name, "--seed", str(args.seed),
               "--trace", str(args.trace), "--out", out]
        if args.seconds is not None:
            cmd += ["--seconds", str(args.seconds)]
        if args.smoke:
            cmd.append("--smoke")
        if args.src:
            cmd += ["--src", args.src]
        try:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
            print("\n".join(proc.stdout.splitlines()[:-1]))
            reports[cell.name] = json.loads(Path(out).read_text())
        except (subprocess.TimeoutExpired, json.JSONDecodeError, OSError) as exc:
            print(f"# {cell.name}: child failed: {exc}")
            reports[cell.name] = {"correct": False, "attempted": 1, "failed": 1,
                                  "metrics": {}}
        finally:
            Path(out).unlink(missing_ok=True)
    doc = {
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "host": host_info(),
        "cells": reports,
    }
    if args.out:
        Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    print(json.dumps({
        "correct": all(r["correct"] for r in reports.values()),
        "attempted": sum(r["attempted"] for r in reports.values()),
        "failed": sum(r["failed"] for r in reports.values()),
        "metrics": {
            f"{cell}/{name}": entry
            for cell, r in reports.items()
            for name, entry in r["metrics"].items()
        },
    }))
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="a cell or a workload (default: all)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help=f"measuring time per cell (default {SECONDS:g}; "
                             f"smoke {SMOKE_SECONDS:g})")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report the per-layer breakdown instead")
    parser.add_argument("--smoke", action="store_true", help="small inputs")
    parser.add_argument("--out", help="write the full report as JSON here")
    parser.add_argument("--src", help="source tree to measure (default: ./src)")
    args = parser.parse_args(argv)

    src = Path(args.src).resolve() if args.src else ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"run.py: no repro package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import cells

    chosen = select_cells(cells.CELLS, args.workload)
    if len(chosen) > 1:
        return run_children(args, chosen)
    seconds = args.seconds
    if seconds is None:
        seconds = SMOKE_SECONDS if args.smoke else SECONDS
    m = measure(
        chosen[0],
        args.seed,
        cells.SMOKE if args.smoke else cells.FULL,
        seconds,
        traced=bool(args.trace),
        smoke=args.smoke,
    )
    print_measurement(m)
    if args.out:
        Path(args.out).write_text(json.dumps(m.as_json(), indent=1) + "\n")
    sys.stdout.flush()
    print(json.dumps(m.result_line()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
