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

from itertools import combinations
from typing import TYPE_CHECKING, Iterable, Optional, Sequence, Set, Tuple

from repro.poset.event import Event
from repro.predicates.base import StatePredicate
from repro.types import Cut, CutVisitor

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids an import cycle)
    from repro.core.intervals import Interval
    from repro.detector.report import DetectionReport
    from repro.poset.builder import BuilderView

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

    Every route compares events through one pair routine,
    :meth:`_check_pair` (concurrency test, conflicting accesses, init
    filter, report), which subclasses override to change the race
    semantics.

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
        from repro.detector.report import DetectionReport, RaceRecord

        self.filter_init = filter_init
        self.benign_vars = benign_vars
        self.report = report if report is not None else DetectionReport(
            detector="data-race", benchmark="?"
        )
        self._race_record = RaceRecord
        #: Pairs :meth:`check` already handed to :meth:`_check_pair`.
        self._checked_pairs: Set[Tuple[Tuple[int, int], Tuple[int, int]]] = set()

    def check(
        self,
        cut: Cut,
        frontier: Sequence[Optional[Event]],
        new_event: Optional[Event] = None,
    ) -> bool:
        """Check one state's frontier for racing access pairs.

        With ``new_event`` (the per-state form of the online check):
        compare ``e`` against every other thread's frontier event — the
        literal Algorithm 6.  Offline: compare all frontier pairs (the
        shape of Figure 3's predicate).  A pair memo shared by every call
        hands each pair to :meth:`_check_pair` once.
        """
        if new_event is not None:
            tid = new_event.tid
            pairs: Iterable[Tuple[Event, Event]] = [
                (new_event, other)
                for other in frontier
                if other is not None and other.tid != tid
            ]
        else:
            pairs = combinations([ev for ev in frontier if ev is not None], 2)
        checked = self._checked_pairs
        found = False
        for a, b in pairs:
            key = (a.eid, b.eid) if a.eid <= b.eid else (b.eid, a.eid)
            if key not in checked:
                checked.add(key)
                found |= self._check_pair(a, b)
        return found

    def interval_visitor(
        self, event: Event, interval: "Interval", view: "BuilderView"
    ) -> CutVisitor:
        """Algorithm 6 on every state of ``I(e)``, each pair compared once.

        Every state of the interval lies between ``interval.lo`` and
        ``interval.hi``, so for each other thread ``j`` a flag per index in
        ``[lo[j], hi[j]]`` records the frontier events already compared
        with ``e``.  A state's cut is read directly; only a frontier event
        not yet compared reaches :meth:`_check_pair`, in the order the
        per-state :meth:`check` meets it.  Once every flag is set, the
        remaining states of the interval cost one test each.

        Column ``lo[j]`` gets no flag, and a thread whose box holds only
        that column gets no flags at all: ``lo`` is ``Gmin(e) = e.vc``, so
        the column holds no event or one in ``e``'s past, a pair that both
        pair routines reject (RV's too: its ``weak_vc`` clock is absent
        here, and elsewhere orders every pair ``vc`` orders).  Every other
        event of the box is concurrent with ``e``: it was inserted before
        ``e`` and is not in ``e``'s past.

        No memo across intervals: a pair ``(e, f)`` is only ever examined
        in ``I(e)``, because ``f`` lies in a state ``≤ Gbnd(e)`` and so
        precedes ``e`` in ``→p`` (``I(f)`` ends before ``e`` exists).  The
        flags live in the visitor, so intervals enumerated concurrently
        never share them.
        """
        pair = self._check_pair
        event_at = view.event
        tid = event.tid
        threads = []
        remaining = 0
        for j, (low, high) in enumerate(zip(interval.lo, interval.hi)):
            if j == tid or low == high:
                continue
            seen = bytearray(high - low + 1)
            seen[0] = 1  # e's past, or no event of thread j
            threads.append((j, low, seen))
            remaining += high - low

        def visit(cut: Cut) -> None:
            nonlocal remaining
            if remaining:
                for j, low, seen in threads:
                    k = cut[j] - low
                    if not seen[k]:
                        seen[k] = 1
                        remaining -= 1
                        pair(event, event_at(j, cut[j]))

        return visit

    def _check_pair(self, a: Event, b: Event) -> bool:
        """The pair routine: report every conflicting access pair of two
        concurrent events (init writes filtered when ``filter_init``)."""
        if not events_are_concurrent(a, b):
            return False
        found = False
        for acc_a in a.accesses:
            for acc_b in b.accesses:
                if not acc_a.conflicts_with(acc_b):
                    continue
                if self.filter_init and (acc_a.is_init or acc_b.is_init):
                    continue
                self.report.record(
                    self._race_record(
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
