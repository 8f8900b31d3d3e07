"""The interval partition at the heart of ParaMount (paper §3.1).

For a total order ``→p`` over the events (any linear extension of
happened-before — Property 1) and each event ``e``:

* ``Gmin(e)`` is the least global state containing ``e``, read directly off
  the vector clock: ``Gmin(e) = e.vc`` (§2.2);
* ``Gbnd(e)`` is the global state containing exactly the events ordered at
  or before ``e``: ``Gbnd(e) = {f | f = e ∨ f →p e}`` (Definition 1),
  which is always consistent (Theorem 1);
* the interval ``I(e) = {G | Gmin(e) ≤ G ≤ Gbnd(e)}`` (Definition 2).

The intervals partition the full set of consistent global states: every
state belongs to the interval of the ``→p``-last event in it (Lemma 2), and
to no other (Lemma 3).  The empty state is special-cased into the first
event's interval (paper Figure 6a) by lowering that interval's bound to the
zero cut — which adds exactly the empty state, since the only consistent
cut below ``Gbnd(e₁)`` not containing ``e₁`` is empty (``e₁`` is
``→p``-first).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Optional, Sequence

from repro.errors import IntervalError
from repro.poset.poset import Poset
from repro.types import Cut, EventId
from repro.util.cuts import cut_leq, zero_cut

__all__ = [
    "Interval",
    "IntervalIndex",
    "compute_intervals",
    "interval_of",
    "interval_of_cut",
]


@dataclass(frozen=True)
class Interval:
    """One enumeration interval ``I(e)`` with its bounds.

    ``lo`` is ``Gmin(e)`` except for the first event in ``→p``, whose ``lo``
    is the zero cut so the empty global state is enumerated exactly once.
    """

    event: EventId
    lo: Cut
    hi: Cut
    #: True only for the first event in the total order (owns the empty state).
    owns_empty: bool = False

    def contains(self, cut: Sequence[int]) -> bool:
        """Membership test ``G ∈ I(e)`` (componentwise bounds check)."""
        return cut_leq(self.lo, cut) and cut_leq(cut, self.hi)

    @cached_property
    def size_bound(self) -> int:
        """Product of per-thread slacks + 1 — an upper bound on the interval
        size.  Cached: the scheduler compares it inside sort keys and
        split/steal loops, so it must not be recomputed per comparison.
        """
        v = 1
        for a, b in zip(self.lo, self.hi):
            v *= b - a + 1
        return v



def interval_of(event: EventId, gmin: Cut, gbnd: Cut) -> Interval:
    """The interval ``I(e) = [Gmin(e), Gbnd(e)]`` of one event (Definition 2).

    Both drivers make their intervals here: :func:`compute_intervals`
    offline, and :meth:`repro.core.online.OnlineParaMount.insert` from the
    builder's boundary snapshot.  The ``→p``-first event, whose ``Gbnd``
    holds one event, owns the empty state: its ``lo`` is the zero cut.
    """
    if sum(gbnd) == 1:
        return Interval(event, zero_cut(len(gbnd)), gbnd, owns_empty=True)
    return Interval(event, gmin, gbnd)


def compute_intervals(
    poset: Poset, order: Optional[Sequence[EventId]] = None
) -> List[Interval]:
    """Compute the full interval partition for a poset and total order.

    ``order`` defaults to the poset's recorded insertion order.  The walk
    maintains the per-thread counts of emitted events, so ``Gbnd(e)`` is
    read off in ``O(n)`` per event — ``O(n·|E|)`` total, matching the
    paper's per-worker ``O(n)`` cost (§3.4).

    Raises :class:`IntervalError` if the order is not a permutation of the
    events or produces inconsistent bounds (both would indicate the order is
    not a linear extension).
    """
    if order is None:
        if poset.insertion is None:
            raise IntervalError(
                "no total order given and the poset has no insertion order"
            )
        order = poset.insertion
    n = poset.num_threads
    if len(order) != poset.num_events:
        raise IntervalError(
            f"total order covers {len(order)} events, poset has {poset.num_events}"
        )
    counts = [0] * n
    intervals: List[Interval] = []
    for tid, idx in order:
        if idx != counts[tid] + 1:
            raise IntervalError(
                f"order is not a linear extension: event ({tid},{idx}) "
                f"appears after {counts[tid]} events of thread {tid}"
            )
        counts[tid] += 1
        hi = tuple(counts)
        gmin = poset.vc(tid, idx)
        if not cut_leq(gmin, hi):
            raise IntervalError(
                f"order is not a linear extension: Gmin({(tid, idx)})={gmin} "
                f"exceeds Gbnd={hi}"
            )
        intervals.append(interval_of((tid, idx), gmin, hi))
    return intervals


class IntervalIndex:
    """O(n)-per-query interval membership via Lemma 2.

    A consistent cut ``G`` belongs to the interval of its ``→p``-last
    event.  The frontier event of each thread ``t`` in ``G`` is
    ``(t, G[t])``, and within a chain the ``→p`` position grows with the
    index, so the ``→p``-last event of ``G`` is the frontier event with the
    greatest ``→p`` position — an ``O(n)`` argmax over a precomputed
    position table, replacing the old linear scan over all ``|E|``
    intervals.

    ``intervals`` must be the full partition in ``→p`` order (exactly what
    :func:`compute_intervals` returns).
    """

    def __init__(self, intervals: Sequence[Interval]):
        self._intervals = tuple(intervals)
        self._position: Dict[EventId, int] = {
            iv.event: i for i, iv in enumerate(self._intervals)
        }
        if len(self._position) != len(self._intervals):
            raise IntervalError("intervals contain duplicate events")
        self._empty_owner: Optional[Interval] = next(
            (iv for iv in self._intervals if iv.owns_empty), None
        )

    def of_cut(self, cut: Sequence[int]) -> Optional[Interval]:
        """The interval owning ``cut`` (Lemma 2), or ``None`` when the cut
        is outside every interval (e.g. an inconsistent cut)."""
        position = self._position
        best = -1
        for t, c in enumerate(cut):
            if c:
                pos = position.get((t, c), -1)
                if pos < 0:
                    return None  # frontier event unknown to this partition
                if pos > best:
                    best = pos
        owner = self._intervals[best] if best >= 0 else self._empty_owner
        if owner is None or not owner.contains(cut):
            return None
        return owner


def interval_of_cut(
    poset: Poset,
    intervals: Sequence[Interval],
    cut: Cut,
    validate: bool = False,
) -> Optional[Interval]:
    """The unique interval containing ``cut``, or ``None`` if no interval
    does (which for a consistent cut would contradict Lemma 2).

    Resolved in ``O(n)`` through the ``→p``-last frontier event of the cut
    (:class:`IntervalIndex`; Lemma 2).  Repeated queries against one
    partition should build an :class:`IntervalIndex` once instead of
    calling this helper, which rebuilds the position table per call.

    With ``validate=True`` the original exhaustive scan also runs: it
    cross-checks the fast answer, and raises :class:`IntervalError` if the
    cut lies in two intervals (a partition violation) or if the two
    resolutions disagree.
    """
    fast = IntervalIndex(intervals).of_cut(cut)
    if not validate:
        return fast
    found: Optional[Interval] = None
    for interval in intervals:
        if interval.contains(cut):
            if found is not None:
                raise IntervalError(
                    f"cut {cut} is in two intervals: {found.event} and "
                    f"{interval.event} — partition violated"
                )
            found = interval
    if found is not fast:
        raise IntervalError(
            f"cut {cut}: Lemma-2 resolution gives "
            f"{fast.event if fast else None}, exhaustive scan gives "
            f"{found.event if found else None}"
        )
    return found
