"""Adaptive interval scheduling: split, largest-first dispatch, stealing.

ParaMount's intervals partition the lattice (Theorem 2) but their sizes
are wildly skewed — the total-order ablation shows a skewed linear
extension concentrating nearly all states in a handful of intervals, so
parallel wall-clock is bottlenecked on the largest interval no matter how
many workers run.  This module is the scheduling layer between
:func:`~repro.core.intervals.compute_intervals` and the executors:

* **recursive splitting** (paper Figure 6a): any interval ``[lo, hi]`` can
  be decomposed into disjoint sub-intervals by lowering its bound.  Pick
  the pivot event ``e = (t, hi[t])`` on the largest-slack thread (the same
  pivot rule as the ideal-counting DP in :mod:`repro.poset.ideals`); the
  cuts *without* ``e`` form the box ``[lo, hi − e]`` and the cuts *with*
  ``e`` form ``[lo ∨ vc(e), hi]`` — disjoint boxes whose consistent cuts
  exactly tile the parent's (every consistent cut containing ``e``
  dominates ``vc(e)``).  Splitting recurses until every piece's
  :attr:`~repro.core.intervals.Interval.size_bound` fits a per-worker
  budget;
* **largest-first dispatch**: tasks are ordered by descending size bound
  so the critical-path interval starts immediately instead of landing
  last in FIFO order (classic LPT list scheduling);
* **work stealing** is performed by the executors
  (:class:`~repro.core.executors.WorkStealingThreadExecutor`, and the
  :mod:`repro.dist` lease table, which re-dispatches reclaimed leases
  heaviest first); this module supplies the task weights they use.

Sub-intervals keep their parent's ``event`` identity, so per-event
statistics, checkpoint identity (journal records are keyed by
``(event, lo, hi)``), and the sanitizer's disjointness check all survive
splitting unchanged.  :func:`validate_split` is the partition-preservation
check: sub-interval size bounds stay within the parent's and the exact
consistent-cut counts (via the independent ideal-counting DP) sum to it.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.core.intervals import Interval
from repro.errors import IntervalError
from repro.poset.poset import Poset
from repro.types import Cut, EventId
from repro.util.cuts import cut_join, cut_leq

__all__ = [
    "SchedulePolicy",
    "SchedulePlan",
    "pivot_split",
    "split_interval",
    "validate_split",
    "plan_schedule",
]

#: Schedule names accepted by ``ParaMount(schedule=...)`` and the CLI.
SCHEDULE_NAMES = ("fifo", "largest", "split", "split-steal", "adaptive")


@dataclass(frozen=True)
class SchedulePolicy:
    """How interval tasks are shaped and ordered before execution.

    The named presets (``SchedulePolicy.parse``):

    ``"fifo"``
        The pre-scheduling behavior: one task per interval, dispatched in
        ``→p`` order.  Kept as an escape hatch — preferable when tasks are
        near-uniform (splitting buys nothing) or when a run must be
        byte-compatible with a journal written before scheduling existed.
    ``"largest"``
        One task per interval, dispatched largest-first (LPT).
    ``"split"``
        Largest-first plus recursive splitting of oversized intervals.
    ``"split-steal"`` / ``"adaptive"``
        ``"split"`` plus a hint that work-stealing backends should be
        used where available.  This is the default policy.
    """

    largest_first: bool = True
    split: bool = True
    steal: bool = True
    #: Target number of tasks per worker; the split budget is
    #: ``total size bound / (workers · oversubscribe)``.
    oversubscribe: int = 4
    #: Cap on the number of pieces one interval may be split into.
    max_parts: int = 64
    #: Run :func:`validate_split` on every split (exact count check via
    #: the ideal-counting DP) — for tests and diagnostics, not hot paths.
    validate: bool = False

    @property
    def name(self) -> str:
        if not self.largest_first:
            return "fifo"
        if not self.split:
            return "largest"
        return "split-steal" if self.steal else "split"

    @classmethod
    def parse(
        cls, spec: Union[None, str, "SchedulePolicy"]
    ) -> "SchedulePolicy":
        """Resolve ``None`` / a preset name / an explicit policy."""
        if spec is None:
            return cls()  # adaptive: split + largest-first + steal
        if isinstance(spec, cls):
            return spec
        name = str(spec).lower()
        if name == "fifo":
            return cls(largest_first=False, split=False, steal=False)
        if name == "largest":
            return cls(largest_first=True, split=False, steal=False)
        if name == "split":
            return cls(largest_first=True, split=True, steal=False)
        if name in ("split-steal", "adaptive"):
            return cls(largest_first=True, split=True, steal=True)
        raise ValueError(
            f"unknown schedule {spec!r}; expected one of {SCHEDULE_NAMES}"
        )


@dataclass
class SchedulePlan:
    """The concrete task list produced by :func:`plan_schedule`."""

    policy: SchedulePolicy
    #: Tasks in dispatch order (sub-intervals keep the parent's event).
    tasks: List[Interval]
    #: Per-task size budget used for splitting (``None`` when unsplit).
    budget: Optional[int]
    #: Identity string recorded in checkpoint journals: two runs produce
    #: interchangeable journals iff their descriptors match.
    descriptor: str
    #: Number of parent intervals that were split.
    split_intervals: int = 0
    #: Pieces per split parent event (1 for unsplit parents is omitted).
    parts_of: Dict[EventId, int] = field(default_factory=dict)

    def descriptors(self) -> List[Tuple[EventId, Cut, Cut]]:
        """The task triples in dispatch order — the wire form of the plan.

        Each ``(event, lo, hi)`` triple is simultaneously the checkpoint
        :class:`~repro.resilience.checkpoint.TaskKey` and everything a
        remote worker needs (with the poset) to re-run the task, which is
        what lets the distributed backend ship descriptors instead of
        closures.
        """
        return [(iv.event, iv.lo, iv.hi) for iv in self.tasks]


def pivot_split(
    poset: Poset, interval: Interval
) -> Optional[Tuple[Interval, Optional[Interval]]]:
    """One Figure-6a decomposition step, or ``None`` if unsplittable.

    The pivot is the maximal in-range event of the largest-slack thread —
    the same rule that keeps the ideal-counting DP balanced.  Returns
    ``(without, with_)`` where ``without`` excludes the pivot event and
    ``with_`` (possibly ``None`` when no consistent cut in the box
    contains the pivot) forces its causal past via the vector clock.
    """
    lo, hi = interval.lo, interval.hi
    pivot = -1
    slack = 0
    for t in range(len(lo)):
        s = hi[t] - lo[t]
        if s > slack:
            slack = s
            pivot = t
    if pivot < 0:  # a single cut: nothing to split
        return None
    e_idx = hi[pivot]
    without = Interval(
        event=interval.event,
        lo=lo,
        hi=hi[:pivot] + (e_idx - 1,) + hi[pivot + 1 :],
        owns_empty=interval.owns_empty,
    )
    forced = cut_join(lo, poset.vc(pivot, e_idx))
    with_: Optional[Interval] = None
    if cut_leq(forced, hi):
        with_ = Interval(event=interval.event, lo=forced, hi=hi)
    return without, with_


def split_interval(
    poset: Poset,
    interval: Interval,
    budget: int,
    max_parts: int = 64,
) -> List[Interval]:
    """Recursively split ``interval`` until every piece's size bound fits
    ``budget`` (or ``max_parts`` pieces exist), largest piece first.

    The pieces are pairwise-disjoint boxes whose consistent cuts exactly
    tile the parent's — the property :func:`validate_split` certifies and
    the property-based tests exercise on random posets.
    """
    if budget < 1:
        raise ValueError(f"budget must be ≥ 1, got {budget}")
    if interval.size_bound <= budget:
        return [interval]
    # Max-heap on size bound; the counter breaks ties deterministically.
    counter = 0
    heap: List[Tuple[int, int, Interval]] = [
        (-interval.size_bound, counter, interval)
    ]
    done: List[Interval] = []
    while heap and len(heap) + len(done) < max_parts:
        neg_bound, _, piece = heapq.heappop(heap)
        if -neg_bound <= budget:
            done.append(piece)
            continue
        split = pivot_split(poset, piece)
        if split is None:
            done.append(piece)
            continue
        without, with_ = split
        for part in (without, with_):
            if part is not None:
                counter += 1
                heapq.heappush(heap, (-part.size_bound, counter, part))
    done.extend(piece for _, _, piece in heap)
    return done


def validate_split(
    poset: Poset, parent: Interval, parts: Sequence[Interval]
) -> None:
    """Partition-preservation check for one split.

    Raises :class:`IntervalError` unless (1) every piece keeps the
    parent's event, (2) every piece's box lies inside the parent's, so the
    size bounds cannot exceed it, (3) the boxes are pairwise disjoint, and
    (4) the exact consistent-cut counts — computed by the independent
    ideal-counting DP — sum to the parent's count.
    """
    from repro.poset.ideals import count_ideals_in_interval

    for piece in parts:
        if piece.event != parent.event:
            raise IntervalError(
                f"split piece changed identity: {piece.event} != {parent.event}"
            )
        if not (cut_leq(parent.lo, piece.lo) and cut_leq(piece.hi, parent.hi)):
            raise IntervalError(
                f"split piece [{piece.lo}, {piece.hi}] escapes parent "
                f"[{parent.lo}, {parent.hi}]"
            )
    for i, a in enumerate(parts):
        for b in parts[i + 1 :]:
            if cut_leq(a.lo, b.hi) and cut_leq(b.lo, a.hi):
                raise IntervalError(
                    f"split pieces overlap: [{a.lo}, {a.hi}] and "
                    f"[{b.lo}, {b.hi}]"
                )
    total = sum(
        count_ideals_in_interval(poset, piece.lo, piece.hi) for piece in parts
    )
    expected = count_ideals_in_interval(poset, parent.lo, parent.hi)
    if total != expected:
        raise IntervalError(
            f"split of {parent.event} lost states: pieces count {total}, "
            f"parent counts {expected}"
        )


def plan_schedule(
    poset: Poset,
    intervals: Sequence[Interval],
    policy: Union[None, str, SchedulePolicy],
    workers: int,
) -> SchedulePlan:
    """Turn the static interval partition into a dispatchable task list.

    Scheduling only engages with more than one worker: a serial run gains
    nothing from extra task boundaries or reordering, so with
    ``workers <= 1`` the plan is the partition itself in ``→p`` order —
    byte-identical behavior to the pre-scheduling driver.  With more
    workers, intervals whose size bound exceeds the per-worker budget
    ``total / (workers · oversubscribe)`` are split, and tasks are
    dispatched largest-first.
    """
    policy = SchedulePolicy.parse(policy)
    tasks: List[Interval] = list(intervals)
    budget: Optional[int] = None
    split_intervals = 0
    parts_of: Dict[EventId, int] = {}
    if policy.split and workers > 1 and tasks:
        total = sum(iv.size_bound for iv in tasks)
        budget = max(total // (workers * policy.oversubscribe), 1)
        shaped: List[Interval] = []
        for interval in tasks:
            parts = split_interval(poset, interval, budget, policy.max_parts)
            if len(parts) > 1:
                if policy.validate:
                    validate_split(poset, interval, parts)
                split_intervals += 1
                parts_of[interval.event] = len(parts)
            shaped.extend(parts)
        tasks = shaped
    if policy.largest_first and workers > 1:
        # Stable sort: equally-sized tasks stay in →p order.
        tasks.sort(key=lambda iv: -iv.size_bound)
    descriptor = (
        "unsplit"
        if budget is None
        else f"split(budget={budget},cap={policy.max_parts})"
    )
    return SchedulePlan(
        policy=policy,
        tasks=tasks,
        budget=budget,
        descriptor=descriptor,
        split_intervals=split_intervals,
        parts_of=parts_of,
    )
