"""The RV-runtime baseline detector (paper [22], jPredictor's successor).

A behavioural model of the tool the paper compares against (Tables 2–3),
built from its documented properties:

* **offline, 2-pass** (Table 3): the first pass logs raw access events with
  clocks — *no* event-collection merging, so its poset is far larger than
  ParaMount's; the second pass pre-processes the log into the poset index.
* **BFS enumeration** (Cooper–Marzullo) over the whole lattice with a
  bounded heap — the exponential intermediate-state storage that makes it
  run out of memory on large posets (raytracer in Table 2; half of
  Table 1's posets for the plain BFS column).
* **weaker causality for reporting**: jPredictor-lineage tools use *sliced
  causality*, a deliberately relaxed order that predicts more schedules and
  therefore reports races — typically benign initialization races — that
  full happened-before tools rule out (the paper's §5.2 discussion of the
  ``set`` benchmarks and the ``arraylist1`` false alarm).  We model this
  with a second, weak clock per event (process order + fork/join only):
  initialization writes race under the weak order even when lock edges
  order them under full HB.
* **monitor wait/notify unsupported**: the paper reports RV runtime "throws
  exceptions on some benchmarks"; the concrete trigger we model is monitor
  condition-waiting — exactly what the affected benchmarks (arraylist, tsp,
  hedc) exercise.  Detection runs on the trace prefix up to the first
  wait/notify, matching the paper's footnote that some races were
  "acquired before the exception is thrown".
"""

from __future__ import annotations

from collections import defaultdict
from typing import List, Optional

from repro.detector.hb import HBFrontEnd
from repro.detector.report import (
    STATUS_EXCEPTION,
    STATUS_OK,
    STATUS_OOM,
    DetectionReport,
    RaceRecord,
)
from repro.enumeration.bfs import BFSEnumerator
from repro.errors import OutOfMemoryError
from repro.poset.event import Event
from repro.poset.poset import Poset
from repro.predicates.data_race import DataRacePredicate, events_are_concurrent
from repro.runtime.trace import Trace, TraceOp
from repro.util.timing import Stopwatch

__all__ = ["RVRuntimeDetector", "WeakOrderRacePredicate"]

#: Default cap on live intermediate global states (the "2 GB heap" stand-in).
DEFAULT_MEMORY_BUDGET = 6_000


def _aux_concurrent(a: Event, b: Event) -> bool:
    """Concurrency under the clock carried in the ``weak_vc`` slot.

    Inside the RV detector, poset events are stamped with the *sliced*
    clock in ``vc`` (the enumeration walks the sliced lattice) while the
    *full* happened-before clock rides in ``weak_vc`` — so this helper
    tests full-HB concurrency for RV's poset events.
    """
    if a.tid == b.tid or a.weak_vc is None or b.weak_vc is None:
        return False
    return (
        a.weak_vc[a.tid] > b.weak_vc[a.tid]
        and b.weak_vc[b.tid] > a.weak_vc[b.tid]
    )


class WeakOrderRacePredicate(DataRacePredicate):
    """RV's race predicate over the sliced lattice.

    A conflicting frontier pair is reported when it is concurrent under
    full happened-before (a true HB race — carried in the ``weak_vc``
    slot of RV's re-stamped events), or when either access is an
    initialization write and the pair is concurrent under the sliced order
    (``vc``) — the benign extras the paper attributes to RV.  No init
    filtering is applied.
    """

    name = "data-race(weak-order)"

    def __init__(self, benign_vars: frozenset, report: DetectionReport):
        super().__init__(filter_init=False, benign_vars=benign_vars, report=report)

    def _check_pair(self, a: Event, b: Event) -> bool:
        sliced = events_are_concurrent(a, b)  # structural (sliced) clocks
        full = _aux_concurrent(a, b)  # true happened-before clocks
        if not full and not sliced:
            return False
        found = False
        for acc_a in a.accesses:
            for acc_b in b.accesses:
                if not acc_a.conflicts_with(acc_b):
                    continue
                racy = full or (sliced and (acc_a.is_init or acc_b.is_init))
                if not racy:
                    continue
                self.report.record(
                    RaceRecord(
                        var=acc_a.var,
                        first=(a.tid, acc_a.op),
                        second=(b.tid, acc_b.op),
                        benign=acc_a.var in self.benign_vars
                        or acc_a.is_init
                        or acc_b.is_init,
                    )
                )
                found = True
        return found


class RVRuntimeDetector:
    """Offline BFS-based general predicate detector (the RV baseline)."""

    name = "RV runtime"

    def __init__(self, memory_budget: int = DEFAULT_MEMORY_BUDGET):
        self.memory_budget = memory_budget

    def run(
        self, trace: Trace, benign_vars: frozenset = frozenset()
    ) -> DetectionReport:
        """Run both offline passes plus BFS detection on one trace."""
        report = DetectionReport(detector=self.name, benchmark=trace.program_name)
        ops, hit_unsupported = self._supported_prefix(trace)
        with Stopwatch() as sw:
            try:
                self._detect(trace.num_threads, ops, benign_vars, report)
                report.status = STATUS_EXCEPTION if hit_unsupported else STATUS_OK
                if hit_unsupported:
                    report.error = (
                        "monitor wait/notify is unsupported by the RV baseline; "
                        "detection ran on the trace prefix only"
                    )
            except OutOfMemoryError as exc:
                report.status = STATUS_OOM
                report.error = str(exc)
        report.elapsed = sw.elapsed
        return report

    # ------------------------------------------------------------------ #

    @staticmethod
    def _supported_prefix(trace: Trace):
        """The trace prefix before the first wait/notify operation."""
        for i, op in enumerate(trace.ops):
            if op.kind in ("wait", "notify"):
                return trace.ops[:i], True
        return trace.ops, False

    def _detect(
        self,
        num_threads: int,
        ops: List[TraceOp],
        benign_vars: frozenset,
        report: DetectionReport,
    ) -> None:
        # Pass 1: log raw access events with full and weak clocks.
        events: List[Event] = []
        front_end = HBFrontEnd(
            num_threads,
            events.append,
            merge_collections=False,
            track_weak_clocks=True,
        )
        for op in ops:
            front_end.process(op)
        front_end.finish()
        # Pass 2: pre-process — group per thread, build the poset index.
        poset = self._build_poset(num_threads, events)
        report.poset_events = poset.num_events
        # Detection: BFS over the entire lattice, predicate on every state.
        predicate = WeakOrderRacePredicate(benign_vars=benign_vars, report=report)
        bfs = BFSEnumerator(poset, memory_budget=self.memory_budget)

        def visit(cut) -> None:
            predicate.check(cut, poset.frontier_events(cut), new_event=None)

        result = bfs.enumerate(visit)
        report.states_enumerated = result.states

    @staticmethod
    def _build_poset(num_threads: int, events: List[Event]) -> Poset:
        """Build the *sliced* poset RV enumerates.

        The structural clock (``vc``) is the sliced/weak clock, so the BFS
        walks the sliced lattice — the relaxed order under which the extra
        schedules RV predicts exist.  The full happened-before clock is
        preserved in the ``weak_vc`` slot for the predicate's true-race
        test.  (The sliced lattice is a superset of the HB lattice, which
        also compounds the BFS memory blow-up this baseline suffers from.)
        """
        chains = defaultdict(list)
        for e in events:
            chains[e.tid].append(
                Event(
                    tid=e.tid,
                    idx=e.idx,
                    vc=e.weak_vc,
                    kind=e.kind,
                    obj=e.obj,
                    accesses=e.accesses,
                    weak_vc=e.vc,
                )
            )
        return Poset(
            [chains.get(t, []) for t in range(num_threads)],
            insertion=[e.eid for e in events],
        )
