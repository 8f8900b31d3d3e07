"""Execution backends for ParaMount workers.

The paper runs one Java thread per worker pulling events off the total
order (Algorithm 1).  We provide:

* :class:`SerialExecutor` — run interval tasks in ``→p`` order on the
  calling thread (the baseline, and the engine underneath the simulated
  parallel machine);
* :class:`WorkStealingThreadExecutor` — a real shared-memory thread pool
  with per-worker deques and largest-first stealing.  Functionally
  identical to the paper's setup; on CPython the GIL serializes the
  compute so it demonstrates correctness under concurrency, not speedup
  (the speedup experiments use :mod:`repro.core.simulated` — DESIGN.md
  §3).

True process parallelism is :class:`repro.dist.DistributedExecutor`, which
leases interval descriptors to local or remote worker processes.

One input contract: :meth:`Executor.map_tasks` takes :class:`Task` values
and the gather's :class:`RunContext`.  Nothing about a run is written onto
an executor, so one executor serves any number of runs, each reporting
only to its own context's observer; wrappers (such as the resilient
executor's retry guard) replace only a task's ``fn``.

Every executor returns one :class:`~repro.core.metrics.ExecutorReport`
per gather: the results in task order, so per-interval statistics line up
with the ``→p`` order regardless of backend, plus the gather's provenance
(steals, per-worker load, retries, failures, …).

Failure model (see DESIGN.md §"Fault model and recovery"): in-process, a
task fails only by raising, and the exception propagates unchanged out of
the gather (a thread cannot die apart from its process).
:class:`repro.resilience.ResilientExecutor` retries tasks that raise, on
the bounded-retry/backoff schedule of :class:`RetryPolicy`; worker-process
faults are the lease table's (:mod:`repro.dist`).
"""

from __future__ import annotations

import threading
import time
from abc import ABC, abstractmethod
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Deque, List, Optional, Sequence

from repro.core.intervals import Interval
from repro.core.metrics import ExecutorReport
from repro.obs.observer import NULL_OBSERVER, Observer
from repro.poset.poset import Poset
from repro.util.rng import DeterministicRng, derive_seed

if TYPE_CHECKING:
    from repro.resilience.checkpoint import CheckpointJournal

__all__ = [
    "Executor",
    "RetryPolicy",
    "RunContext",
    "SerialExecutor",
    "Task",
    "WorkStealingThreadExecutor",
]


@dataclass(frozen=True)
class Task:
    """One unit of work: calling the task calls ``fn``.

    ``weight`` is what work-stealing executors deal and steal by (the
    ParaMount driver's run's summed size bound); ``pieces`` are the
    interval pieces a descriptor-shipping executor leases instead of
    ``fn``.
    """

    fn: Callable[[], Any]
    weight: int = 1
    pieces: Sequence[Interval] = ()

    def __call__(self) -> Any:
        return self.fn()


@dataclass(frozen=True)
class RunContext:
    """The run a gather belongs to, passed with its tasks (empty for a
    gather made outside a driver).

    In-process executors read only ``observer``.  A descriptor-shipping
    executor re-creates the tasks from the rest (``deadline_at`` is a
    :func:`time.monotonic` instant) and refuses ``visits``: tasks that
    call a user visitor back.
    """

    poset: Optional[Poset] = None
    subroutine: Optional[str] = None
    memory_budget: Optional[int] = None
    journal: Optional["CheckpointJournal"] = None
    deadline_at: Optional[float] = None
    visits: bool = False
    observer: Observer = NULL_OBSERVER


#: The context of a gather made outside a driver.
NO_CONTEXT = RunContext()


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retry with exponential backoff and deterministic jitter.

    ``max_attempts`` counts *total* tries of one task (1 = no retry).  The
    delay before retry ``k`` (1-based) is
    ``min(base_delay · backoff^(k-1), max_delay)``, stretched by up to
    ``jitter`` (a fraction) drawn from :mod:`repro.util.rng` so that
    concurrent retriers seeded identically still produce reproducible —
    yet decorrelated — schedules.
    """

    max_attempts: int = 3
    base_delay: float = 0.01
    backoff: float = 2.0
    max_delay: float = 1.0
    jitter: float = 0.25
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be ≥ 1, got {self.max_attempts}")
        if self.base_delay < 0 or self.max_delay < 0:
            raise ValueError("delays must be ≥ 0")
        if self.backoff < 1.0:
            raise ValueError(f"backoff must be ≥ 1, got {self.backoff}")

    def delay(self, attempt: int) -> float:
        """Backoff delay in seconds before retry number ``attempt`` (≥ 1)."""
        d = min(self.base_delay * self.backoff ** max(attempt - 1, 0), self.max_delay)
        if self.jitter and d > 0:
            rng = DeterministicRng(derive_seed(self.seed, "retry", attempt))
            d *= 1.0 + self.jitter * rng.random()
        return d


class Executor(ABC):
    """Maps a list of :class:`Task` values to an :class:`ExecutorReport`
    whose results are in task order."""

    #: Short backend name used in experiment tables.
    name: str = "abstract"

    def __init__(self, num_workers: int = 1):
        if num_workers < 1:
            raise ValueError(f"num_workers must be ≥ 1, got {num_workers}")
        #: Worker count (the paper's "number of threads").
        self.num_workers = num_workers

    @abstractmethod
    def map_tasks(
        self, tasks: Sequence[Task], context: RunContext = NO_CONTEXT
    ) -> ExecutorReport:
        """Run all tasks of one gather of ``context``'s run; report their
        results in task order."""


def _queue_depth_recorder(obs: Observer) -> Callable[[int], None]:
    """One gather's feed of the live ``queue_depth`` gauge and the trace
    counter track, called with the number of unfinished tasks after each
    completion.

    The gauge is updated on every completion (a set is cheap); counter
    samples go to the trace at most every ~250ms so a million-task run
    does not bloat the span buffers.  A no-op without an enabled observer.
    """
    if not obs.enabled:
        return lambda remaining: None
    sampled_at = [float("-inf")]

    def record(remaining: int) -> None:
        obs.gauge("queue_depth").set(remaining)
        now = obs.clock()
        if now - sampled_at[0] >= 0.25 or remaining == 0:
            sampled_at[0] = now
            obs.counter_sample("queue_depth", remaining)

    return record


class SerialExecutor(Executor):
    """Run tasks one after another on the calling thread."""

    name = "serial"

    def __init__(self) -> None:
        super().__init__(num_workers=1)

    def map_tasks(
        self, tasks: Sequence[Task], context: RunContext = NO_CONTEXT
    ) -> ExecutorReport:
        record_depth = _queue_depth_recorder(context.observer)
        results: List[Any] = []
        n = len(tasks)
        for index, task in enumerate(tasks):
            results.append(task())
            record_depth(n - index - 1)
        return ExecutorReport(results=results)


class WorkStealingThreadExecutor(Executor):
    """A thread pool with per-worker deques and largest-first stealing.

    Tasks run concurrently, so callers must pass thread-safe visitors (the
    ParaMount driver wraps the user's visitor in a lock).

    Each worker owns a deque of tasks dealt LPT-style by
    :attr:`Task.weight` (the ParaMount driver sets it to the run's summed
    size bound).  Deques hold tasks in descending weight, so a worker
    always runs its largest remaining task next; a worker whose deque
    drains steals the largest pending task across all other deques.
    Combined with interval splitting this bounds the schedule's makespan
    the way LPT list scheduling does, without trusting the initial deal.

    The gather's report counts ``steals`` (tasks executed by a worker
    other than the one they were dealt to) and holds each worker's
    measured busy seconds as ``worker_load``.  An enabled context
    observer gets one ``worker_start`` marker per worker lane and a
    ``steal`` marker plus ``steals_total`` bump per steal.

    The gather joins its workers.  After a task raises, no further task
    is handed out; the tasks already running finish, and the first error
    is re-raised.
    """

    name = "threads-steal"

    def map_tasks(
        self, tasks: Sequence[Task], context: RunContext = NO_CONTEXT
    ) -> ExecutorReport:
        if not tasks:
            return ExecutorReport()
        obs = context.observer
        observe = obs.enabled
        record_depth = _queue_depth_recorder(obs)
        n = len(tasks)
        weights = [task.weight for task in tasks]
        k = min(self.num_workers, n)
        # LPT deal: heaviest task to the least-loaded deque.  Tasks arrive
        # at each deque in descending weight, so its front is its largest.
        deques: List[Deque[int]] = [deque() for _ in range(k)]
        loads = [0] * k
        for i in sorted(range(n), key=lambda i: (-weights[i], i)):
            w = loads.index(min(loads))
            deques[w].append(i)
            loads[w] += weights[i]
        lock = threading.Lock()
        results: List[Any] = [None] * n
        remaining = [n]
        steals = [0]
        busy = [0.0] * k
        errors: List[BaseException] = []

        def next_index(worker: int) -> Optional[int]:
            with lock:
                if errors:
                    return None
                if deques[worker]:
                    return deques[worker].popleft()
                victim = None
                for q in deques:
                    if q and (victim is None or weights[q[0]] > weights[victim[0]]):
                        victim = q
                if victim is None:
                    return None
                steals[0] += 1
                index = victim.popleft()
                if observe:
                    obs.instant(
                        "steal", "schedule", task=index, weight=weights[index]
                    )
                    obs.counter("steals_total").inc()
                    obs.gauge("tasks_queued").set(
                        sum(len(q) for q in deques)
                    )
                return index

        def worker_loop(worker: int) -> None:
            if observe:
                # Every worker opens its trace lane even if it never wins a
                # task (on a GIL-bound host one thread may drain the deal).
                obs.instant("worker_start", "schedule", dealt=len(deques[worker]))
            while True:
                index = next_index(worker)
                if index is None:
                    return
                t0 = time.perf_counter()
                try:
                    value = tasks[index]()
                except BaseException as exc:  # re-raised by the gather
                    with lock:
                        errors.append(exc)
                    return
                busy[worker] += time.perf_counter() - t0
                with lock:
                    results[index] = value
                    remaining[0] -= 1
                    left = remaining[0]
                record_depth(left)

        threads = [
            threading.Thread(
                target=worker_loop, args=(w,), daemon=True, name=f"steal-{w}"
            )
            for w in range(k)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if errors:
            raise errors[0]
        return ExecutorReport(results=results, steals=steals[0], worker_load=busy)
