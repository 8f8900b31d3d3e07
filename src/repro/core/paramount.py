"""The offline ParaMount driver — the paper's Algorithm 1.

Given a poset, ParaMount:

1. fixes a total order ``→p`` (a topological sort, or the poset's recorded
   insertion order — Property 1 either way);
2. derives every event's interval ``I(e) = [Gmin(e), Gbnd(e)]``
   (:mod:`repro.core.intervals`);
3. hands the intervals to an executor, each enumerated independently by the
   bounded sequential subroutine (Algorithm 2) — oversized intervals split
   and consecutive tiny ones coalesced into runs
   (:mod:`repro.core.scheduling`), one :class:`~repro.core.executors.Task`
   per run, weighted by the run's summed size bound and carrying its
   pieces, passed with the run's :class:`~repro.core.executors.RunContext`.
   Each piece runs through
   :func:`~repro.core.bounded.bounded_enumeration`, the piece path the
   online worker shares; this driver adds only what it alone configures:
   the deadline skip and the ``degrade_on_oom`` fallback;
4. aggregates counts and cost meters into a
   :class:`~repro.core.metrics.ParaMountResult`.

Because the intervals partition the lattice (Theorem 2), the union of the
workers' outputs is exactly the set of consistent global states, each
visited exactly once — regardless of executor, worker count, or subroutine.

The same disjointness makes every interval task *idempotent*, which is
what the resilience plumbing rides on: a
:class:`~repro.resilience.ResilientExecutor` may retry or degrade tasks,
keeping the outcome of every task that finished so that none visits or
journals its states twice (its failures and degradations come back in
its :class:`~repro.core.metrics.ExecutorReport` and land on the result), a
checkpoint journal (:class:`~repro.resilience.CheckpointJournal`) lets a
killed run resume enumerating only its unfinished intervals, and a BFS
interval that exceeds its memory budget can fall back to the default
bounded lexical subroutine (``degrade_on_oom``) instead of aborting the
run.
"""

from __future__ import annotations

import threading
import time
from dataclasses import replace
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Union

from repro.core.bounded import bounded_enumeration, locked
from repro.core.executors import Executor, RunContext, SerialExecutor, Task
from repro.core.intervals import Interval, compute_intervals
from repro.core.metrics import DegradationEvent, IntervalStats, ParaMountResult
from repro.core.scheduling import (
    SchedulePlan,
    SchedulePolicy,
    coalesce,
    plan_schedule,
)
from repro.enumeration.base import DEFAULT_SUBROUTINE, make_enumerator
from repro.errors import OutOfMemoryError
from repro.obs.observer import Observer, ensure_observer
from repro.poset.poset import Poset
from repro.poset.topological import topological_order
from repro.types import CutVisitor, EventId
from repro.util.log import get_logger
from repro.util.timing import Stopwatch

__all__ = ["ParaMount"]

logger = get_logger(__name__)

OrderSpec = Union[None, Sequence[EventId], Callable[[Poset], Sequence[EventId]]]
ScheduleSpec = Union[None, str, SchedulePolicy]


class ParaMount:
    """Parallel enumeration of all consistent global states of a poset.

    Parameters
    ----------
    poset:
        The input poset of events.
    subroutine:
        Sequential algorithm run inside each interval, by name
        (:data:`~repro.enumeration.base.ENUMERATORS`): ``"lexical-packed"``
        (L-Para on the packed kernel, the default), ``"lexical"`` (its
        reference), ``"bfs"`` (B-Para) or ``"level-space"``.  A checkpoint
        journal resumes only under the subroutine that wrote it.
    order:
        The total order ``→p``: ``None`` (use the poset's insertion order,
        falling back to a topological sort), an explicit event-id sequence,
        or a callable ``poset -> order``.
    executor:
        Backend executing interval tasks (default
        :class:`~repro.core.executors.SerialExecutor`).  Its
        :class:`~repro.core.metrics.ExecutorReport` may hold ``None`` for
        permanently failed tasks (e.g. under
        :class:`~repro.resilience.ResilientExecutor`); the run then
        completes with the failures recorded in the result instead of
        raising.
    memory_budget:
        Per-task cap on live intermediate states (models a bounded heap for
        the BFS subroutine).
    checkpoint:
        Optional interval checkpoint journal — a
        :class:`~repro.resilience.CheckpointJournal` or a path.  Each task
        is a run of consecutive pieces (intervals or split sub-intervals,
        :func:`~repro.core.scheduling.coalesce`); a finished run appends
        one record per piece in one write, so a kill loses at most the
        in-flight runs, none larger than the plan's largest piece.  On a
        later run with the same journal, only unfinished pieces are
        re-enumerated (their states are *not* re-visited, so a user
        visitor sees only the fresh pieces' states on a resumed run).
    degrade_on_oom:
        When true, an interval whose BFS enumeration exceeds
        ``memory_budget`` is re-enumerated with the default subroutine
        (bounded lexical, O(n) live state) instead of raising
        :class:`~repro.errors.OutOfMemoryError`; each fallback is recorded
        as a ``"subroutine"`` degradation in the result.
    schedule:
        Task-shaping policy (:mod:`repro.core.scheduling`): ``None`` (the
        adaptive default — recursive splitting of oversized intervals plus
        largest-first dispatch), a preset name (``"fifo"``, ``"largest"``,
        ``"split"``, ``"split-steal"``), or an explicit
        :class:`~repro.core.scheduling.SchedulePolicy`.  Scheduling only
        reshapes the task list when the executor has more than one worker;
        serial runs behave exactly like ``"fifo"``.  ``"fifo"`` is the
        pre-scheduling behavior, kept as an escape hatch for near-uniform
        partitions and for resuming journals written before splitting
        existed.
    observer:
        Optional :class:`~repro.obs.Observer` receiving spans (interval
        partitioning, schedule planning, every enumeration task, checkpoint
        flushes, degradations) and metrics (``states_enumerated_total``,
        ``intervals_split_total``, ``steals_total``,
        ``retry_attempts_total``, ``enumeration_seconds``).  The default is
        the shared no-op observer, which leaves results byte-identical to
        an unobserved run.  The observer's injected clock also times every
        interval task, so ``IntervalStats.seconds`` is measured on the
        same timeline as the recorded spans.
    deadline:
        Global wall-clock budget in seconds.  Once it expires, no further
        interval task starts (in-flight ones finish and are kept); the
        run returns a partial result with ``deadline_expired=True``
        instead of running past the budget.  By Theorem 2 the partial
        result undercounts by exactly the skipped intervals' states, and
        a checkpoint journal lets a later run finish only those.
    """

    def __init__(
        self,
        poset: Poset,
        subroutine: str = DEFAULT_SUBROUTINE,
        order: OrderSpec = None,
        executor: Optional[Executor] = None,
        memory_budget: Optional[int] = None,
        checkpoint=None,
        degrade_on_oom: bool = False,
        schedule: ScheduleSpec = None,
        observer: Optional[Observer] = None,
        deadline: Optional[float] = None,
    ):
        self.poset = poset
        self.subroutine_name = subroutine
        self.executor = executor if executor is not None else SerialExecutor()
        self.memory_budget = memory_budget
        self.degrade_on_oom = degrade_on_oom
        self.schedule = SchedulePolicy.parse(schedule)
        self.observer = ensure_observer(observer)
        #: Global wall-clock budget in seconds (``None`` = unbounded).
        #: When it expires mid-run, dispatch stops, in-flight intervals
        #: drain, and the result comes back partial with
        #: ``deadline_expired=True`` (so ``complete`` is False).
        self.deadline = deadline
        if isinstance(checkpoint, (str, Path)):
            from repro.resilience.checkpoint import CheckpointJournal

            checkpoint = CheckpointJournal(checkpoint)
        self.checkpoint = checkpoint
        if callable(order):
            self._order: Sequence[EventId] = order(poset)
        elif order is not None:
            self._order = order
        elif poset.insertion is not None:
            self._order = poset.insertion
        else:
            self._order = topological_order(poset)
        with self.observer.span(
            "compute_intervals", "plan", events=poset.num_events
        ):
            self.intervals: List[Interval] = compute_intervals(
                poset, self._order
            )

    @property
    def order(self) -> Sequence[EventId]:
        """The total order ``→p`` in use."""
        return self._order

    def run(self, visit: Optional[CutVisitor] = None) -> ParaMountResult:
        """Enumerate every consistent global state exactly once.

        ``visit`` is called once per state (a
        :class:`~repro.types.RunVisitor` once per run on the packed
        kernel); with more than one worker the
        calls may arrive from multiple threads, so the visitor is wrapped in
        a mutex (states of one interval still arrive in the subroutine's
        order; interleaving across intervals is arbitrary, exactly as in
        the paper's parallel enumeration).  An executor whose workers
        cannot call back into this process (the distributed backend)
        refuses a run with a visitor.
        """
        subroutine = make_enumerator(
            self.subroutine_name, self.poset, memory_budget=self.memory_budget
        )
        wrapped = self._wrap_visitor(visit)

        obs = self.observer
        with obs.span(
            "plan_schedule",
            "plan",
            intervals=len(self.intervals),
            workers=self.executor.num_workers,
        ):
            plan = plan_schedule(
                self.poset,
                self.intervals,
                self.schedule,
                self.executor.num_workers,
            )
        with obs.span("load_checkpoint", "checkpoint"):
            completed = self._load_checkpoint(plan)
        pending = (
            [iv for iv in plan.tasks if (iv.event, iv.lo, iv.hi) not in completed]
            if completed
            else plan.tasks
        )
        runs = coalesce(plan, pending, self.intervals)
        journal = self.checkpoint
        degradations: List[DegradationEvent] = []
        log_lock = threading.Lock()
        deadline_at = (
            time.monotonic() + self.deadline
            if self.deadline is not None
            else None
        )
        deadline_skips: List[EventId] = []
        # What the tasks close over, for a descriptor-shipping executor to
        # re-run them from (event, lo, hi) descriptors on remote hosts.
        context = RunContext(
            poset=self.poset,
            subroutine=self.subroutine_name,
            memory_budget=self.memory_budget,
            journal=journal,
            deadline_at=deadline_at,
            visits=visit is not None,
            observer=obs,
        )
        if obs.enabled and plan.split_intervals:
            obs.counter("intervals_split_total").inc(plan.split_intervals)
        if obs.progress is not None:
            obs.progress.set_total(len(plan.tasks))
            for _ in completed:
                obs.progress.on_task_done(0, 0.0)

        def enumerate_piece(interval: Interval) -> Optional[IntervalStats]:
            if deadline_at is not None and time.monotonic() >= deadline_at:
                # past the wall-clock budget: skip instead of starting
                with log_lock:
                    deadline_skips.append(interval.event)
                return None
            try:
                return bounded_enumeration(subroutine, interval, wrapped, obs)
            except OutOfMemoryError as exc:
                if not self.degrade_on_oom:
                    raise
                # Bounded lexical keeps O(n) live state: always fits.
                fallback = make_enumerator(
                    DEFAULT_SUBROUTINE,
                    self.poset,
                    memory_budget=self.memory_budget,
                )
                stats = bounded_enumeration(fallback, interval, wrapped, obs)
                with log_lock:
                    degradations.append(
                        DegradationEvent(
                            kind="subroutine",
                            from_name=self.subroutine_name,
                            to_name=DEFAULT_SUBROUTINE,
                            reason=f"interval {interval.event}: {exc}",
                        )
                    )
                logger.warning(
                    "interval %s degraded %s -> %s: %s",
                    interval.event,
                    self.subroutine_name,
                    DEFAULT_SUBROUTINE,
                    exc,
                    extra={
                        "degrade_kind": "subroutine",
                        "degrade_from": self.subroutine_name,
                        "degrade_to": DEFAULT_SUBROUTINE,
                        "interval_event": str(interval.event),
                    },
                )
                if obs.enabled:
                    obs.instant(
                        "degrade_subroutine",
                        "enumerate",
                        event=str(interval.event),
                        to=DEFAULT_SUBROUTINE,
                    )
                return stats

        def make_task(run: List[Interval]) -> Task:
            def enumerate_run() -> List[Optional[IntervalStats]]:
                out = [enumerate_piece(interval) for interval in run]
                if journal is not None:
                    finished = [stats for stats in out if stats is not None]
                    if finished:
                        journal.record(*finished, observer=obs)
                return out

            return Task(
                enumerate_run,
                weight=sum(iv.size_bound for iv in run),
                pieces=run,
            )

        result = ParaMountResult()
        # O(n·|E|) to build →p and all interval bounds (§3.4).
        result.order_work = self.poset.num_events * self.poset.num_threads
        try:
            with Stopwatch() as sw:
                with obs.span(
                    "map_tasks", "schedule", tasks=len(runs), pieces=len(pending)
                ):
                    report = self.executor.map_tasks(
                        [make_task(run) for run in runs],
                        context,
                    )
        finally:
            if journal is not None:
                journal.close()
        by_task: Dict[tuple, IntervalStats] = dict(completed)
        for run, run_stats in zip(runs, report.results):
            if run_stats is None:
                continue
            for interval, stats in zip(run, run_stats):
                if stats is not None:
                    by_task[(interval.event, interval.lo, interval.hi)] = stats
        # Per-piece stats in dispatch order; then fold the (possibly split)
        # pieces back into one record per interval, in →p order.
        by_event: Dict[EventId, IntervalStats] = {}
        for task_iv in plan.tasks:
            stats = by_task.get((task_iv.event, task_iv.lo, task_iv.hi))
            if stats is None:
                continue
            result.tasks.append(stats)
            prior = by_event.get(task_iv.event)
            by_event[task_iv.event] = (
                stats if prior is None else prior.merged(stats)
            )
        for interval in self.intervals:  # aggregate in →p order
            stats = by_event.get(interval.event)
            if stats is not None:
                if stats.lo != interval.lo or stats.hi != interval.hi:
                    # Report the parent's bounds even if some piece failed.
                    stats = replace(stats, lo=interval.lo, hi=interval.hi)
                result.add_interval(stats)
        result.wall_time = sw.elapsed
        result.resumed_intervals = len(completed)
        result.degradations.extend(degradations)
        result.schedule = plan.policy.name
        result.workers = self.executor.num_workers
        result.split_intervals = plan.split_intervals
        if deadline_skips:
            result.deadline_expired = True
            logger.warning(
                "deadline expired with %d task(s) unstarted",
                len(deadline_skips),
            )
        # The executor's provenance: a failed run fails each of its
        # pieces, every failure named by its piece's event.
        for failure in report.failures:
            if 0 <= failure.task_index < len(runs):
                result.failures.extend(
                    replace(failure, event=interval.event)
                    for interval in runs[failure.task_index]
                )
            else:
                result.failures.append(failure)
        result.degradations.extend(report.degradations)
        result.retries = report.retries
        result.steals = report.steals
        result.worker_load = list(report.worker_load)
        result.redispatches = report.redispatches
        result.leases_expired = report.leases_expired
        result.hosts = list(report.hosts)
        result.deadline_expired = result.deadline_expired or report.deadline_expired
        return result

    # ------------------------------------------------------------------ #

    def _load_checkpoint(self, plan: SchedulePlan) -> Dict[tuple, IntervalStats]:
        if self.checkpoint is None:
            return {}
        from repro.resilience.checkpoint import poset_digest

        return self.checkpoint.load(
            poset_digest(self.poset),
            self.subroutine_name,
            plan.tasks,
            schedule=plan.descriptor,
        )

    def _wrap_visitor(self, visit: Optional[CutVisitor]) -> Optional[CutVisitor]:
        if visit is None or self.executor.num_workers <= 1:
            return visit
        return locked(visit, threading.Lock())
