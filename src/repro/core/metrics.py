"""Result records for ParaMount runs.

Each interval's enumeration produces an :class:`IntervalStats`; the driver
aggregates them into a :class:`ParaMountResult`.  These records feed the
simulated-parallel scheduler (:mod:`repro.core.simulated`) and the
experiment tables, so they carry abstract work/memory metrics alongside the
state counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import zip_longest
from typing import Any, List, Optional, Tuple

from repro.types import Cut, EventId
from repro.util.cuts import cut_join, cut_meet

__all__ = [
    "IntervalStats",
    "TaskFailure",
    "DegradationEvent",
    "ExecutorReport",
    "ParaMountResult",
]


@dataclass(frozen=True)
class IntervalStats:
    """Cost record of enumerating one interval ``I(e)``.

    With adaptive scheduling an interval may be split into sub-intervals
    (same ``event``, disjoint boxes); each sub-task produces its own stats
    and the driver folds them back with :meth:`merged`.
    """

    event: EventId
    lo: Cut
    hi: Cut
    states: int
    work: int
    peak_live: int
    #: Measured enumeration seconds for this task (0.0 when untimed).
    seconds: float = 0.0

    def merged(self, other: "IntervalStats") -> "IntervalStats":
        """Combine two sub-interval records of the same event.

        Counts and times add; the bounds become the enclosing box (for
        Figure-6a splits that is exactly the parent interval's box once
        every piece is merged); peak memory is the max, since sub-tasks of
        one interval never run concurrently on the same worker heap.
        """
        if other.event != self.event:
            raise ValueError(
                f"cannot merge stats of {self.event} with {other.event}"
            )
        return IntervalStats(
            event=self.event,
            lo=cut_meet(self.lo, other.lo),
            hi=cut_join(self.hi, other.hi),
            states=self.states + other.states,
            work=self.work + other.work,
            peak_live=max(self.peak_live, other.peak_live),
            seconds=self.seconds + other.seconds,
        )


@dataclass(frozen=True)
class TaskFailure:
    """Provenance of one interval task that failed permanently.

    Recorded (never raised) when a task exhausted its
    :class:`~repro.core.executors.RetryPolicy`: the run completes with the
    failure on the record, so a partial result is still usable and the
    missing intervals are identifiable — by Theorem 2 the lost states are
    exactly the failed intervals' states, nothing else.
    """

    task_index: int
    attempts: int
    error: str
    executor: str = ""
    #: The interval's event, filled in by the ParaMount driver.
    event: Optional[EventId] = None


@dataclass(frozen=True)
class DegradationEvent:
    """One graceful-degradation step, recorded on the result.

    ``kind`` is ``"executor"`` (a distributed run finishing in-process
    what no worker finished) or ``"subroutine"`` (a BFS interval exceeding
    its memory budget falling back to bounded lexical).
    """

    kind: str
    from_name: str
    to_name: str
    reason: str


@dataclass
class ExecutorReport:
    """What one :meth:`~repro.core.executors.Executor.map_tasks` gather
    returns: every task's result plus the gather's provenance.

    ``results`` is in task order and holds ``None`` where a task failed
    permanently or was skipped.  The provenance fields are named as on
    :class:`ParaMountResult`, and the ParaMount driver copies them over in
    one place; a ``TaskFailure.task_index`` indexes this gather's task
    list.
    """

    results: List[Any] = field(default_factory=list)
    failures: List[TaskFailure] = field(default_factory=list)
    degradations: List[DegradationEvent] = field(default_factory=list)
    retries: int = 0
    steals: int = 0
    worker_load: List[float] = field(default_factory=list)
    redispatches: int = 0
    leases_expired: int = 0
    hosts: List[str] = field(default_factory=list)
    deadline_expired: bool = False

    def add(self, other: "ExecutorReport") -> None:
        """Add ``other``'s run provenance to this report.

        Counters add up, per-worker busy seconds add lane by lane, hosts
        are merged in first-seen order and degradations are appended.
        ``results`` and ``failures`` are left alone: their task indices
        belong to ``other``'s gather.
        """
        self.degradations.extend(other.degradations)
        self.retries += other.retries
        self.steals += other.steals
        self.worker_load = [
            a + b
            for a, b in zip_longest(
                self.worker_load, other.worker_load, fillvalue=0.0
            )
        ]
        self.redispatches += other.redispatches
        self.leases_expired += other.leases_expired
        self.hosts += [h for h in other.hosts if h not in self.hosts]
        self.deadline_expired = self.deadline_expired or other.deadline_expired


@dataclass
class ParaMountResult:
    """Aggregate outcome of a ParaMount run.

    ``states``/``work``/``peak_live`` are the sums/maxima over intervals;
    ``order_work`` is the cost of computing the total order and interval
    bounds (the ``O(|E| + |H|)`` + ``O(n)``-per-worker part of §3.4);
    ``wall_time`` is the measured wall-clock of the actual run, whatever
    executor performed it.
    """

    states: int = 0
    work: int = 0
    peak_live: int = 0
    order_work: int = 0
    wall_time: float = 0.0
    intervals: List[IntervalStats] = field(default_factory=list)
    #: Intervals whose task failed permanently (retries exhausted).
    failures: List[TaskFailure] = field(default_factory=list)
    #: Graceful-degradation steps taken during the run.
    degradations: List[DegradationEvent] = field(default_factory=list)
    #: Task re-submissions performed by a resilient executor.
    retries: int = 0
    #: Intervals restored from a checkpoint journal instead of re-enumerated.
    resumed_intervals: int = 0
    #: Per-piece stats in dispatch order (== ``intervals`` when unsplit);
    #: the executors ran them grouped into runs, one task per run.
    tasks: List[IntervalStats] = field(default_factory=list)
    #: Schedule that shaped the task list ("fifo", "largest", "split-steal").
    schedule: str = "fifo"
    #: Workers the schedule was planned for.
    workers: int = 1
    #: Intervals the scheduler split into sub-intervals.
    split_intervals: int = 0
    #: Tasks taken from another worker's deque by a stealing executor.
    steals: int = 0
    #: Measured per-worker busy seconds (stealing executors only).
    worker_load: List[float] = field(default_factory=list)
    #: True when a ``--deadline`` budget expired before every interval ran;
    #: the result then covers only the intervals that finished in time.
    deadline_expired: bool = False
    #: Leases re-dispatched to a surviving worker (distributed runs only).
    redispatches: int = 0
    #: Leases that expired unacknowledged (crashed/hung/partitioned worker).
    leases_expired: int = 0
    #: Remote hosts that committed at least one interval (distributed runs).
    hosts: List[str] = field(default_factory=list)

    def add_interval(self, stats: IntervalStats) -> None:
        """Fold one interval's stats into the aggregate."""
        self.intervals.append(stats)
        self.states += stats.states
        self.work += stats.work
        if stats.peak_live > self.peak_live:
            self.peak_live = stats.peak_live

    def interval_work(self) -> List[int]:
        """Per-interval work vector in ``→p`` order (scheduler input)."""
        return [s.work for s in self.intervals]

    def interval_sizes(self) -> List[int]:
        """Per-interval state counts in ``→p`` order."""
        return [s.states for s in self.intervals]

    def load_imbalance(self) -> float:
        """Max/mean of per-interval work (1.0 = perfectly balanced).

        Reported by the total-order ablation: skewed linear extensions
        produce a few giant intervals that bound parallel speedup.
        """
        works = [s.work for s in self.intervals if s.work > 0]
        if not works:
            return 1.0
        mean = sum(works) / len(works)
        return max(works) / mean if mean else 1.0

    def schedule_imbalance(self) -> float:
        """Max/mean of per-*worker* load under the executed schedule.

        The counterpart of :meth:`load_imbalance` after splitting/stealing:
        per-task imbalance would stay high after a split (the mean shrinks
        as tasks multiply), so the meaningful quantity is how evenly the
        post-split tasks pack onto the workers.  Uses the measured
        per-worker busy time when a stealing executor reported it;
        otherwise packs ``tasks`` (falling back to ``intervals``) onto
        ``workers`` bins with the same greedy largest-first list scheduling
        the executors use — by each task's *measured* ``seconds`` when
        every task carries one (the serial and thread paths time tasks via
        the driver's injected clock, dist workers time their own), by modeled ``work`` only
        for records that predate the timing fix (e.g. old checkpoints).
        """
        loads = [x for x in self.worker_load if x > 0]
        if not loads:
            tasks = self.tasks or self.intervals
            if tasks and all(s.seconds > 0 for s in tasks):
                works = sorted((s.seconds for s in tasks), reverse=True)
            else:
                works = sorted(
                    (s.work for s in tasks if s.work > 0), reverse=True
                )
            if not works:
                return 1.0
            bins = [0.0] * max(self.workers, 1)
            for w in works:
                k = bins.index(min(bins))
                bins[k] += w
            loads = [b for b in bins if b > 0]
        mean = sum(loads) / len(loads)
        return max(loads) / mean if mean else 1.0

    def summary_row(self) -> Tuple[int, int, int, float]:
        """(states, work, peak_live, wall_time) for table rendering."""
        return (self.states, self.work, self.peak_live, self.wall_time)

    @property
    def complete(self) -> bool:
        """True when every interval was enumerated — no permanent failures
        and no intervals abandoned to a wall-clock deadline."""
        return not self.failures and not self.deadline_expired

    @property
    def degraded(self) -> bool:
        """True when the run recorded any degradation step."""
        return bool(self.degradations)
