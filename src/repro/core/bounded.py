"""Bounded enumeration of one interval — the paper's Algorithm 2.

The paper's insight (§3.2) is that *any* sequential enumeration algorithm
becomes a ParaMount subroutine once it (1) respects interval bounds and
(2) enumerates each state in the interval exactly once.  Our sequential
enumerators already expose ``enumerate_interval``; this module packages the
call with the interval bookkeeping (empty-state ownership) so both the
offline driver (Algorithm 1) and the online worker (Algorithm 4) share one
code path, and so the subroutine is selected by name exactly the way the
paper instantiates B-Para ("bounded BFS") and L-Para ("bounded lexical").
"""

from __future__ import annotations

import time
from typing import Callable, Optional

from repro.core.intervals import Interval
from repro.core.metrics import IntervalStats
from repro.enumeration.base import Enumerator, make_enumerator
from repro.types import CutVisitor

__all__ = ["bounded_enumeration", "make_bounded_subroutine"]

Clock = Callable[[], float]


def make_bounded_subroutine(
    name: str, poset, memory_budget: Optional[int] = None
) -> Enumerator:
    """Instantiate the sequential subroutine for a ParaMount run.

    ``name`` is ``"lexical"`` (L-Para), ``"lexical-fast"`` /
    ``"lexical-packed"`` (the tuned and packed-kernel variants of L-Para),
    ``"level-space"`` (B-Para's level order in O(n) live space), ``"bfs"``
    (B-Para) or ``"dfs"`` (validation).  ``memory_budget`` caps the
    subroutine's live intermediate states, modeling a bounded heap.

    Subroutines travel by *name* through every executor (dist workers
    re-instantiate from the name plus the shipped poset); the
    packed subroutines convert interval bounds to their flat-array form
    inside ``enumerate_interval``, so neither closures nor packed tables
    ever cross the wire.
    """
    return make_enumerator(name, poset, memory_budget=memory_budget)


def bounded_enumeration(
    subroutine: Enumerator,
    interval: Interval,
    visit: Optional[CutVisitor] = None,
    clock: Optional[Clock] = None,
) -> IntervalStats:
    """Enumerate every consistent global state in ``interval`` exactly once.

    This is Algorithm 2 generalized over subroutines: the subroutine starts
    from the interval's least state and stops at its boundary state.  For
    the first interval in ``→p`` the lower bound is the zero cut, which adds
    exactly the empty global state (see :mod:`repro.core.intervals`).

    ``clock`` is the seconds source that times the task (default
    ``time.perf_counter``); the drivers pass their observer's injected
    clock so ``IntervalStats.seconds`` and any recorded spans share one
    timeline on every executor path.

    Returns the interval's :class:`IntervalStats` (Lemma 1 gives the
    exactly-once property per interval; Theorem 2 lifts it to the whole
    lattice across intervals).
    """
    if clock is None:
        clock = time.perf_counter
    t0 = clock()
    result = subroutine.enumerate_interval(interval.lo, interval.hi, visit)
    return IntervalStats(
        event=interval.event,
        lo=interval.lo,
        hi=interval.hi,
        states=result.states,
        work=result.work,
        peak_live=result.peak_live,
        seconds=clock() - t0,
    )
