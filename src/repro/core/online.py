"""The online ParaMount worker — the paper's Algorithm 4.

Events arrive one at a time while the monitored program runs.  Each
insertion happens inside one critical section that (a) appends the event to
the poset, (b) reads ``Gmin(e)`` off the event's clock, and (c) snapshots
the per-thread maxima as ``Gbnd(e)`` — the builder's
:meth:`~repro.poset.builder.PosetBuilder.append_stamped` is exactly that
atomic block.  ``I(e)`` is then made by
:func:`~repro.core.intervals.interval_of` and enumerated *outside* the
critical section by :func:`~repro.core.bounded.bounded_enumeration` — the
offline driver's maker and piece path, so Algorithm 4 is Algorithm 1 over
a growing event list — possibly concurrently with further insertions and
other interval enumerations (Theorem 3: an enumeration bounded by
``Gbnd(e)`` never looks at events inserted later, so there is no
interference).  Predicate work follows the same unit: a factory builds one
visitor per interval, and the enumeration calls it on every state of
``I(e)``.

Because the insertion order is, by construction, a linear extension of
happened-before (the builder rejects anything else), the online intervals
partition the lattice of the final poset exactly as in the offline case —
the equivalence the tests check.
"""

from __future__ import annotations

import threading
from typing import Callable, List, Optional

from repro.core.bounded import bounded_enumeration, locked
from repro.core.intervals import Interval, interval_of
from repro.core.metrics import IntervalStats, ParaMountResult
from repro.enumeration.base import DEFAULT_SUBROUTINE, make_enumerator
from repro.obs.observer import ensure_observer
from repro.poset.builder import BuilderView, PosetBuilder
from repro.poset.event import Event
from repro.poset.poset import Poset
from repro.types import CutVisitor
from repro.util.log import get_logger

__all__ = ["OnlineParaMount"]

logger = get_logger(__name__)

#: Builds the visitor of one interval from ``(e, I(e), live view)``;
#: :meth:`repro.predicates.base.StatePredicate.interval_visitor` is one.
IntervalVisitorFactory = Callable[[Event, Interval, BuilderView], CutVisitor]


class OnlineParaMount:
    """Online, parallel enumeration of global states from a live event feed.

    Parameters
    ----------
    num_threads:
        Width of the monitored computation.
    subroutine:
        Bounded sequential subroutine, by its name in
        :data:`~repro.enumeration.base.ENUMERATORS`.  The default
        ``"lexical-packed"`` is the paper's bounded lexical algorithm over
        the builder's live packed tables
        (:meth:`~repro.poset.builder.BuilderView.packed_tables`), with the
        same visit sequence as the reference ``"lexical"``;
        ``"level-space"`` and ``"bfs"`` are accepted too.
    interval_visitor:
        Optional factory called once per inserted event ``e`` with ``e``,
        its interval ``I(e)`` and the worker's live
        :class:`~repro.poset.builder.BuilderView`; the enumeration calls
        the visitor it returns with the cut of every state of ``I(e)``
        (a :class:`~repro.types.RunVisitor` with each run of states).
        This is where a predicate detector plugs in (paper Figure 7):
        pass a predicate's
        :meth:`~repro.predicates.base.StatePredicate.interval_visitor`.
        When insertions come from multiple threads, state the visitors
        share must be thread-safe (pass ``synchronized=True`` to get a
        built-in mutex).
    synchronized:
        Run the factory, every visit and the statistics under a mutex so
        :meth:`insert` may be called from concurrently running threads.
    memory_budget:
        Per-interval cap on live intermediate states.
    observer:
        Optional :class:`repro.obs.Observer`.  Every insertion records a
        ``clock`` span (the critical section: append + stamp), feeds
        ``events_inserted_total`` and drives the observer's live progress
        reporter, if any; its interval gets the same ``enumerate`` span
        and canonical enumeration series as an offline piece.  The
        default no-op observer leaves the hot path untouched.
    """

    def __init__(
        self,
        num_threads: int,
        subroutine: str = DEFAULT_SUBROUTINE,
        interval_visitor: Optional[IntervalVisitorFactory] = None,
        synchronized: bool = False,
        memory_budget: Optional[int] = None,
        observer=None,
    ):
        self.builder = PosetBuilder(num_threads)
        self._view = self.builder.view()
        self._subroutine = make_enumerator(
            subroutine, self._view, memory_budget=memory_budget
        )
        self._interval_visitor = interval_visitor
        self._lock = threading.Lock() if synchronized else None
        self._result = ParaMountResult()
        self._intervals: List[Interval] = []
        self.observer = ensure_observer(observer)

    @property
    def num_threads(self) -> int:
        """Width of the monitored computation."""
        return self.builder.num_threads

    def insert(self, event: Event) -> IntervalStats:
        """Insert one event and enumerate its interval ``I(e)``.

        Returns the interval's statistics.  May be called concurrently from
        many threads when constructed with ``synchronized=True`` — the
        paper's detector calls it from the thread that just executed the
        event ("no additional threads are spawned for ParaMount", §5.2).

        An event whose clock :mod:`repro.poset.validate` refuses raises
        its :class:`~repro.errors.PosetError` here, and the poset, the
        intervals and the totals stay as they were.
        """
        obs = self.observer
        with obs.span("append_stamped", "clock"):
            # Algorithm 4 lines 1–5
            gbnd = self.builder.append_stamped(event)
        if obs.enabled:
            obs.counter("events_inserted_total").inc()
        if obs.progress is not None:
            obs.progress.on_event()
        interval = interval_of(event.eid, event.vc, gbnd)
        factory = self._interval_visitor
        lock = self._lock
        visit = None
        if factory is not None:
            if lock is None:
                visit = factory(event, interval, self._view)
            else:
                with lock:
                    visit = locked(factory(event, interval, self._view), lock)
        stats = bounded_enumeration(self._subroutine, interval, visit, obs)
        if lock is None:
            self._result.add_interval(stats)
            self._intervals.append(interval)
        else:
            with lock:
                self._result.add_interval(stats)
                self._intervals.append(interval)
        return stats

    @property
    def result(self) -> ParaMountResult:
        """Aggregate statistics over all intervals enumerated so far."""
        return self._result

    @property
    def intervals(self) -> List[Interval]:
        """The intervals enumerated so far, in insertion order: the ``→p``
        order the builder recorded, which
        :class:`~repro.core.intervals.IntervalIndex` needs.

        Inserts from several threads may finish their intervals in another
        order, so the list is put in insertion order here, when it is read,
        and :meth:`insert` pays nothing for it.
        """
        done = {interval.event: interval for interval in self._intervals}
        return [
            done[eid] for eid in self.builder.insertion_order() if eid in done
        ]

    def snapshot_poset(self) -> Poset:
        """Freeze the poset built so far (e.g. at program termination)."""
        return self.builder.build()
