"""Bounded enumeration of one piece — the paper's Algorithm 2.

The paper's insight (§3.2) is that *any* sequential enumeration algorithm
becomes a ParaMount subroutine once it (1) respects interval bounds and
(2) enumerates each state in the interval exactly once.  Our sequential
enumerators already expose a trusted ``walk`` of an interval; this module
packages the call with what every piece needs on every path — its timing,
its ``I(e)`` span and the observer's ``task_done`` — so the offline driver
(Algorithm 1) and the online worker (Algorithm 4) run one piece path, and
:func:`locked` is how both serialize a visitor shared by concurrent
pieces.  The drivers select the subroutine by name through
:func:`repro.enumeration.base.make_enumerator`, the way the paper
instantiates L-Para ("bounded lexical": ``"lexical-packed"``, the default,
or its reference ``"lexical"``) and B-Para ("bounded BFS": ``"bfs"``, or
``"level-space"`` in O(n) live space).
"""

from __future__ import annotations

import threading
import time
from typing import Optional

from repro.core.intervals import Interval
from repro.core.metrics import IntervalStats
from repro.enumeration.base import Enumerator
from repro.obs.observer import NULL_OBSERVER, Observer
from repro.types import CutVisitor, RunVisitor

__all__ = ["bounded_enumeration", "locked"]


def bounded_enumeration(
    subroutine: Enumerator,
    interval: Interval,
    visit: Optional[CutVisitor] = None,
    observer: Observer = NULL_OBSERVER,
) -> IntervalStats:
    """Enumerate every consistent global state in ``interval`` exactly once.

    This is Algorithm 2 generalized over subroutines: the subroutine starts
    from the interval's least state and stops at its boundary state.  For
    the first interval in ``→p`` the lower bound is the zero cut, which adds
    exactly the empty global state (see :mod:`repro.core.intervals`).

    The piece runs on the subroutine's unchecked
    :meth:`~repro.enumeration.base.Enumerator.walk`, so ``interval`` must
    have ``lo ≤ hi ≤ lengths`` with ``lo`` a consistent cut.  Its two
    makers guarantee it: :func:`~repro.core.intervals.interval_of` takes
    ``lo`` from an admitted, hence transitively closed, clock or the zero
    cut, below ``Gbnd(e)``, and :func:`~repro.core.scheduling.pivot_split`
    keeps the parent's ``lo`` or joins it with a clock, keeping ``lo ≤
    hi``.  Bounds from anywhere else go to ``enumerate_interval``.

    The piece is timed on ``observer``'s clock, so
    ``IntervalStats.seconds`` and the piece's ``I(e)`` span (attributes
    ``event``, ``states`` and ``work``) share one timeline on every
    executor path; the observer then gets the stats through
    :meth:`~repro.obs.observer.Observer.task_done`.  The default no-op
    observer records nothing, and the piece is timed with
    ``time.perf_counter`` looked up at call time, so unobserved runs stay
    on the uninstrumented path.

    Returns the interval's :class:`IntervalStats` (Lemma 1 gives the
    exactly-once property per interval; Theorem 2 lifts it to the whole
    lattice across intervals).
    """
    clock = observer.clock if observer.enabled else time.perf_counter
    t0 = clock()
    result = subroutine.walk(interval.lo, interval.hi, visit)
    seconds = clock() - t0
    stats = IntervalStats(
        event=interval.event,
        lo=interval.lo,
        hi=interval.hi,
        states=result.states,
        work=result.work,
        peak_live=result.peak_live,
        seconds=seconds,
    )
    if observer.enabled:
        observer.record(
            f"I({interval.event})",
            "enumerate",
            t0,
            seconds,
            attrs={
                "event": str(interval.event),
                "states": stats.states,
                "work": stats.work,
            },
        )
        observer.task_done(stats)
    return stats


def locked(visit: CutVisitor, lock: threading.Lock) -> CutVisitor:
    """``visit`` with every call made under ``lock``, for a visitor that
    pieces running on several threads share.

    A :class:`~repro.types.RunVisitor` stays one: the lock is taken once
    per run, and the run's done signal passes through.
    """
    if isinstance(visit, RunVisitor):
        run = visit.run

        def locked_run(cut, j, c0, c1):
            with lock:
                return run(cut, j, c0, c1)

        return RunVisitor(locked_run)

    def locked_visit(cut):
        with lock:
            visit(cut)

    return locked_visit
