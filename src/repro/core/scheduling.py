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
  heaviest first); this module supplies the task weights they use;
* **coalescing** (:func:`coalesce`), the dual of splitting: consecutive
  pieces in ``→p`` order join one *run*, the unit every executor
  dispatches, while the run's summed size bound stays within the plan's
  :attr:`~SchedulePlan.cap` — the largest piece's bound, or the split
  budget if smaller.  No run outweighs a piece the plan already has, so
  tiny intervals stop paying one task's fixed cost each without any task
  growing past today's largest.

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
from repro.types import EventId
from repro.util.cuts import cut_join, cut_leq

__all__ = [
    "SchedulePolicy",
    "SchedulePlan",
    "pivot_split",
    "split_interval",
    "validate_split",
    "plan_schedule",
    "coalesce",
]

#: Schedule names accepted by ``ParaMount(schedule=...)`` and the CLI.
SCHEDULE_NAMES = ("fifo", "largest", "split", "split-steal", "adaptive")

#: Target number of tasks per worker; the split budget is
#: ``total size bound / (workers · OVERSUBSCRIBE)``.
OVERSUBSCRIBE = 4

#: Cap on the number of pieces one interval may be split into (recorded
#: in the journal descriptor, so it is part of a split plan's identity).
MAX_PARTS = 64


@dataclass(frozen=True)
class SchedulePolicy:
    """How interval tasks are shaped and ordered before execution.

    The named presets (``SchedulePolicy.parse``):

    ``"fifo"``
        The pre-scheduling behavior: no splitting, tasks dispatched in
        ``→p`` order.  Kept as an escape hatch — preferable when tasks are
        near-uniform (splitting buys nothing) or when a run must be
        byte-compatible with a journal written before scheduling existed.
    ``"largest"``
        No splitting, tasks dispatched largest-first (LPT).
    ``"split-steal"`` / ``"split"`` / ``"adaptive"``
        Largest-first plus recursive splitting of oversized intervals;
        the executors balance the pieces by stealing.  This is the
        default policy.
    """

    largest_first: bool = True
    split: bool = True

    @property
    def name(self) -> str:
        if not self.largest_first:
            return "fifo"
        if not self.split:
            return "largest"
        return "split-steal"

    @classmethod
    def parse(
        cls, spec: Union[None, str, "SchedulePolicy"]
    ) -> "SchedulePolicy":
        """Resolve ``None`` / a preset name / an explicit policy."""
        if spec is None:
            return cls()  # adaptive: split + largest-first
        if isinstance(spec, cls):
            return spec
        name = str(spec).lower()
        if name == "fifo":
            return cls(largest_first=False, split=False)
        if name == "largest":
            return cls(largest_first=True, split=False)
        if name in ("split", "split-steal", "adaptive"):
            return cls(largest_first=True, split=True)
        raise ValueError(
            f"unknown schedule {spec!r}; expected one of {SCHEDULE_NAMES}"
        )


@dataclass
class SchedulePlan:
    """The concrete piece list produced by :func:`plan_schedule`.

    A *piece* is an interval or a split sub-interval; journals hold one
    record per piece.  :func:`coalesce` groups the pieces into the runs
    the executors dispatch.
    """

    policy: SchedulePolicy
    #: Pieces in dispatch order (sub-intervals keep the parent's event).
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
    #: Largest summed size bound of a coalesced run: the largest piece's
    #: bound, or the split budget if smaller.
    cap: int = 0
    #: True when ``tasks`` are in largest-first order (more than one
    #: worker under a largest-first policy), ``→p`` order otherwise.
    largest_first: bool = False


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
    max_parts: int = MAX_PARTS,
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
    ``total / (workers · OVERSUBSCRIBE)`` are split, and tasks are
    dispatched largest-first.
    """
    policy = SchedulePolicy.parse(policy)
    tasks: List[Interval] = list(intervals)
    budget: Optional[int] = None
    split_intervals = 0
    parts_of: Dict[EventId, int] = {}
    if policy.split and workers > 1 and tasks:
        total = sum(iv.size_bound for iv in tasks)
        budget = max(total // (workers * OVERSUBSCRIBE), 1)
        shaped: List[Interval] = []
        for interval in tasks:
            parts = split_interval(poset, interval, budget)
            if len(parts) > 1:
                split_intervals += 1
                parts_of[interval.event] = len(parts)
            shaped.extend(parts)
        tasks = shaped
    largest_first = policy.largest_first and workers > 1
    if largest_first:
        # Stable sort: equally-sized tasks stay in →p order.
        tasks.sort(key=lambda iv: -iv.size_bound)
    cap = max((iv.size_bound for iv in tasks), default=0)
    if budget is not None:
        cap = min(cap, budget)
    descriptor = (
        "unsplit"
        if budget is None
        else f"split(budget={budget},cap={MAX_PARTS})"
    )
    return SchedulePlan(
        policy=policy,
        tasks=tasks,
        budget=budget,
        descriptor=descriptor,
        split_intervals=split_intervals,
        parts_of=parts_of,
        cap=cap,
        largest_first=largest_first,
    )


def coalesce(
    plan: SchedulePlan,
    pending: Sequence[Interval],
    order: Sequence[Interval],
) -> List[List[Interval]]:
    """Group the ``pending`` pieces of ``plan`` into runs, one per task.

    The dual of Figure-6a splitting: walking the pieces in ``→p`` order
    (``order`` is the partition in ``→p``; split pieces of one interval stay
    in plan order), each piece joins the current run while the run's summed
    size bound stays within ``plan.cap``; a piece at or above the cap forms
    its own run.  A serial plan keeps its runs in ``→p`` order, so the
    serial visit sequence is the partition's; a largest-first plan
    dispatches its runs largest-first by summed size bound.

    Only the pending pieces are grouped — a resumed run regroups what is
    left — while the cap comes from the whole plan, so no run of any
    resumption outweighs a piece of the plan.  The grouping is not part of
    a journal's identity: records stay one per piece.
    """
    if plan.largest_first:
        rank = {iv.event: i for i, iv in enumerate(order)}
        pending = sorted(pending, key=lambda iv: rank[iv.event])
    runs: List[List[Interval]] = []
    weights: List[int] = []
    run: List[Interval] = []
    weight = 0
    for piece in pending:
        bound = piece.size_bound
        if run and weight + bound > plan.cap:
            runs.append(run)
            weights.append(weight)
            run = []
            weight = 0
        run.append(piece)
        weight += bound
    if run:
        runs.append(run)
        weights.append(weight)
    if plan.largest_first:
        # Stable: equally heavy runs keep →p order.
        by_weight = sorted(range(len(runs)), key=lambda i: -weights[i])
        runs = [runs[i] for i in by_weight]
    return runs
