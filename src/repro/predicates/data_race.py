"""The data-race predicate (paper Algorithms 5 and 6).

A data race is a pair of conflicting accesses (same variable, at least one
write) by different threads that may execute concurrently.  On an
enumerated global state, the predicate compares the new event ``e`` against
the other threads' frontier events; with event collections (§4.4) each
comparison scans the collections' stored accesses (Algorithm 6's inner
loops).

One correction relative to the paper's pseudo-code: Algorithms 5–6 omit an
explicit concurrency test, relying on the claim that frontier events of
different threads are never HB-ordered.  That claim holds when lock events
are materialized in the poset (Part I's construction) but *not* in the
optimized collection poset, where HB between collections flows transitively
through clock merges — e.g. a lock-ordered writer/reader pair can both be
frontier-maximal in some state.  We therefore check
:func:`events_are_concurrent` before reporting, which is what makes the
detector report exactly the true HB-races (the tests cross-validate against
an exhaustive pairwise oracle).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Sequence, Set, Tuple

from repro.poset.event import Event
from repro.predicates.base import StatePredicate
from repro.types import Cut

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids an import cycle)
    from repro.detector.report import DetectionReport

__all__ = ["DataRacePredicate", "events_are_concurrent"]


def events_are_concurrent(a: Event, b: Event) -> bool:
    """Clock-based concurrency test (neither event happened before the
    other)."""
    if a.tid == b.tid:
        return False
    return a.vc[a.tid] > b.vc[a.tid] and b.vc[b.tid] > a.vc[b.tid]


class DataRacePredicate(StatePredicate):
    """Algorithm 6 over event collections (Algorithm 5 is the special case
    of singleton collections).

    Parameters
    ----------
    filter_init:
        When True (the ParaMount detector's behaviour, §5.2), access pairs
        where either side is an initialization write never race.  The RV
        baseline runs with ``filter_init=False``, which is where its benign
        extra reports come from.
    benign_vars:
        Variables known benign (test-driver state); reported races on them
        are flagged ``benign`` so tables can annotate false alarms.
    report:
        Optional shared :class:`DetectionReport` that race findings are
        recorded into.
    """

    name = "data-race"

    def __init__(
        self,
        filter_init: bool = True,
        benign_vars: frozenset = frozenset(),
        report: "Optional[DetectionReport]" = None,
    ):
        # Imported here, not at module level: the detector package's
        # __init__ imports this module, so a top-level import would cycle.
        from repro.detector.report import DetectionReport

        self.filter_init = filter_init
        self.benign_vars = benign_vars
        self.report = report if report is not None else DetectionReport(
            detector="data-race", benchmark="?"
        )
        #: Pairs already checked, to skip duplicate work across states.
        self._checked_pairs: Set[Tuple[Tuple[int, int], Tuple[int, int]]] = set()
        #: The online interval being checked (its new event) and the
        #: frontier events already compared with that event.
        self._interval_event: Optional[Event] = None
        self._interval_seen: Set[Tuple[int, int]] = set()

    def check(
        self,
        cut: Cut,
        frontier: Sequence[Optional[Event]],
        new_event: Optional[Event] = None,
    ) -> bool:
        """Check the state's frontier for racing access pairs.

        Online (``new_event`` given): compare ``e`` against every other
        thread's frontier event — the literal Algorithm 6.  Offline: compare
        all frontier pairs (the shape of Figure 3's predicate).

        Online, consecutive states of one interval share most frontier
        events, so a per-interval set of the frontier events already
        compared with ``e`` sits in front of the global pair memo.  It
        drops nothing the memo would not: a pair is only ever compared in
        the interval of its later-inserted event (the earlier one's
        interval ends at a cut that excludes the later event), and the
        memo still catches repeats when intervals interleave.
        """
        found = False
        if new_event is not None:
            if new_event is not self._interval_event:
                self._interval_event = new_event
                self._interval_seen = set()
            seen = self._interval_seen
            tid = new_event.tid
            for other in frontier:
                if other is None or other.tid == tid:
                    continue
                key = (other.tid, other.idx)
                if key in seen:
                    continue
                seen.add(key)
                found |= self._check_pair(new_event, other)
        else:
            n = len(frontier)
            for i in range(n):
                a = frontier[i]
                if a is None:
                    continue
                for j in range(i + 1, n):
                    b = frontier[j]
                    if b is None:
                        continue
                    found |= self._check_pair(a, b)
        return found

    def _check_pair(self, a: Event, b: Event) -> bool:
        key = (a.eid, b.eid) if a.eid <= b.eid else (b.eid, a.eid)
        if key in self._checked_pairs:
            # Already examined in a previous state; re-report nothing, but
            # the pair may have raced before — treat as no new finding.
            return False
        self._checked_pairs.add(key)
        if not events_are_concurrent(a, b):
            return False
        from repro.detector.report import RaceRecord

        found = False
        for acc_a in a.accesses:
            for acc_b in b.accesses:
                if not acc_a.conflicts_with(acc_b):
                    continue
                if self.filter_init and (acc_a.is_init or acc_b.is_init):
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
