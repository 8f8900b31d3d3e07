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

Every executor returns one :class:`~repro.core.metrics.ExecutorReport`
per gather: the results in task order, so per-interval statistics line up
with the ``→p`` order regardless of backend, plus the gather's provenance
(steals, per-worker load, retries, failures, …).

Failure model (see DESIGN.md §"Fault model and recovery"): exceptions
raised *by* a task propagate unchanged; infrastructure failures — such as
a pool that stops making progress — surface as typed
:class:`~repro.errors.ExecutorError` subclasses so callers can retry or
degrade.  :class:`RetryPolicy` is the bounded-retry/backoff schedule of
:class:`repro.resilience.ResilientExecutor`.
"""

from __future__ import annotations

import threading
import time
from abc import ABC, abstractmethod
from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, List, Optional, Sequence, TypeVar

from repro.core.metrics import ExecutorReport
from repro.errors import ExecutorTimeoutError
from repro.util.log import get_logger
from repro.util.rng import DeterministicRng, derive_seed

logger = get_logger(__name__)

__all__ = [
    "Executor",
    "RetryPolicy",
    "SerialExecutor",
    "WorkStealingThreadExecutor",
]

T = TypeVar("T")


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
    """Maps a list of zero-argument tasks to an :class:`ExecutorReport`
    whose results are in task order."""

    #: Short backend name used in experiment tables.
    name: str = "abstract"

    #: Optional :class:`repro.obs.Observer` — the ParaMount driver wires
    #: its own in before mapping when observability is enabled; stealing
    #: executors emit steal markers and counters through it.
    observer = None

    def __init__(self, num_workers: int = 1):
        if num_workers < 1:
            raise ValueError(f"num_workers must be ≥ 1, got {num_workers}")
        #: Worker count (the paper's "number of threads").
        self.num_workers = num_workers

    def bind_run(
        self,
        poset,
        subroutine: str,
        memory_budget: Optional[int] = None,
        journal=None,
        deadline_at: Optional[float] = None,
        visits: bool = False,
    ) -> None:
        """Receive the run context before the driver's :meth:`map_tasks`.

        ``visits`` says whether the driver's tasks call back into this
        process for every state (a user visitor or a sanitizer).  The
        in-process executors run the driver's closures as they are and
        ignore the context; a descriptor-shipping executor re-creates the
        tasks from it.
        """

    @abstractmethod
    def map_tasks(self, tasks: Sequence[Callable[[], T]]) -> ExecutorReport:
        """Run all tasks; report their results in task order."""

    def _record_queue_depth(self, remaining: int) -> None:
        """Feed the live ``queue_depth`` gauge and the trace counter track.

        The gauge is updated on every completion (a set is cheap); counter
        samples go to the trace at most every ~250ms so a million-task run
        does not bloat the span buffers.  No-op without an enabled
        observer — the unobserved path pays one attribute check.
        """
        obs = self.observer
        if obs is None or not getattr(obs, "enabled", False):
            return
        obs.gauge("queue_depth").set(remaining)
        now = obs.clock()
        last = getattr(self, "_depth_sampled_at", None)
        if last is None or now - last >= 0.25 or remaining == 0:
            self._depth_sampled_at = now
            obs.counter_sample("queue_depth", remaining)


class SerialExecutor(Executor):
    """Run tasks one after another on the calling thread."""

    name = "serial"

    def __init__(self) -> None:
        super().__init__(num_workers=1)

    def map_tasks(self, tasks: Sequence[Callable[[], T]]) -> ExecutorReport:
        results: List[T] = []
        n = len(tasks)
        for index, task in enumerate(tasks):
            results.append(task())
            self._record_queue_depth(n - index - 1)
        return ExecutorReport(results=results)


class WorkStealingThreadExecutor(Executor):
    """A thread pool with per-worker deques and largest-first stealing.

    Tasks run concurrently, so callers must pass thread-safe visitors (the
    ParaMount driver wraps the user's visitor in a lock).

    Each worker owns a deque of tasks dealt LPT-style by task ``weight``
    (read from the task's ``weight`` attribute, defaulting to 1 — the
    ParaMount driver sets it to the run's summed size bound).  Deques hold
    tasks in descending weight, so a worker always runs its largest
    remaining task next; a worker whose deque drains steals the largest
    pending task across all other deques.  Combined with interval
    splitting this bounds the schedule's makespan the way LPT list
    scheduling does, without trusting the initial deal.

    The gather's report counts ``steals`` (tasks executed by a worker
    other than the one they were dealt to) and holds each worker's
    measured busy seconds as ``worker_load``.

    ``task_timeout`` bounds the *no-progress* window: if no task
    completes for that long, the gather gives up and raises
    :class:`~repro.errors.ExecutorTimeoutError` carrying the lowest
    unfinished task index (running threads cannot be interrupted; they
    are abandoned as daemons and their results discarded, which is safe
    because tasks are idempotent).
    """

    name = "threads-steal"

    def __init__(self, num_workers: int = 1, task_timeout: Optional[float] = None):
        super().__init__(num_workers=num_workers)
        #: No-progress window in seconds (``None`` = wait forever).
        self.task_timeout = task_timeout

    def map_tasks(self, tasks: Sequence[Callable[[], T]]) -> ExecutorReport:
        if not tasks:
            return ExecutorReport()
        obs = self.observer
        observe = obs is not None and getattr(obs, "enabled", False)
        n = len(tasks)
        weights = [getattr(task, "weight", 1) for task in tasks]
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
        progress = threading.Condition(lock)
        results: List[Optional[T]] = [None] * n
        finished = [False] * n
        completed = [0]
        steals = [0]
        busy = [0.0] * k
        errors: List[BaseException] = []
        stop = [False]

        def next_index(worker: int) -> Optional[int]:
            with lock:
                if stop[0] or errors:
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
                except BaseException as exc:  # propagated by the gather
                    with progress:
                        errors.append(exc)
                        progress.notify_all()
                    return
                busy[worker] += time.perf_counter() - t0
                with progress:
                    results[index] = value
                    finished[index] = True
                    completed[0] += 1
                    remaining = n - completed[0]
                    progress.notify_all()
                self._record_queue_depth(remaining)

        threads = [
            threading.Thread(
                target=worker_loop, args=(w,), daemon=True, name=f"steal-{w}"
            )
            for w in range(k)
        ]
        for thread in threads:
            thread.start()
        timed_out: Optional[int] = None
        with progress:
            while completed[0] < n and not errors:
                before = completed[0]
                progress.wait(timeout=self.task_timeout)
                if (
                    self.task_timeout is not None
                    and completed[0] == before
                    and not errors
                    and completed[0] < n
                ):
                    stop[0] = True
                    timed_out = next(i for i in range(n) if not finished[i])
                    break
        if timed_out is not None:
            logger.warning(
                "no task completed within %.3fs; abandoning run at task %d",
                self.task_timeout or 0.0,
                timed_out,
                extra={
                    "executor": self.name,
                    "task_index": timed_out,
                    "timeout_seconds": self.task_timeout or 0.0,
                },
            )
            raise ExecutorTimeoutError(
                timed_out, self.task_timeout or 0.0, executor=self.name
            )
        for thread in threads:
            thread.join()
        if errors:
            raise errors[0]
        return ExecutorReport(results=results, steals=steals[0], worker_load=busy)
