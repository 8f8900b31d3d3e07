"""The resilient executor: bounded retry, timeouts, and a degradation ladder.

:class:`ResilientExecutor` runs interval tasks on a *ladder* of in-process
backends (by default ``threads → serial``, the graceful-degradation
cascade).  Failures are handled at two granularities:

* **task-level** — every task runs inside a guard that captures its
  exception; a failed task is retried with exponential backoff
  (:class:`~repro.core.executors.RetryPolicy`) and, once its attempts are
  exhausted, recorded as a :class:`~repro.core.metrics.TaskFailure` while
  the rest of the batch completes.  The returned list holds ``None`` at
  permanently-failed positions.
* **batch-level** — infrastructure failures abort a whole gather: a hung
  task (:class:`~repro.errors.ExecutorTimeoutError`) or an injected crash
  from a :class:`~repro.resilience.faults.FaultInjectingExecutor` rung.
  The pending tasks are simply resubmitted (idempotent intervals make the
  wasted partial work harmless); repeated breakage steps one rung down
  the ladder, recorded as a
  :class:`~repro.core.metrics.DegradationEvent`.

Worker-process faults are handled by
:class:`repro.dist.DistributedExecutor` instead: its lease table
re-dispatches a crashed or hung worker's intervals.

The ParaMount driver drains :meth:`ResilientExecutor.drain_log` into
:class:`~repro.core.metrics.ParaMountResult`, so failed-task provenance,
retry counts, and every degradation step surface in the run's result.
"""

from __future__ import annotations

import os
import time
from typing import Callable, List, Optional, Sequence, Tuple

from repro.core.executors import (
    Executor,
    RetryPolicy,
    SerialExecutor,
    ThreadExecutor,
    WorkStealingThreadExecutor,
)
from repro.core.metrics import DegradationEvent, TaskFailure
from repro.errors import ExecutorTimeoutError
from repro.resilience.faults import FAULT_NONE, FaultSpec, apply_fault
from repro.util.log import get_logger

__all__ = ["ResilientExecutor", "default_ladder"]

logger = get_logger(__name__)

_OK = "ok"
_ERR = "err"


def default_ladder(
    workers: int = 0,
    task_timeout: Optional[float] = None,
    steal: bool = False,
) -> List[Executor]:
    """The standard degradation cascade: ``threads → serial``.

    Interval tasks in the offline driver close over the poset and visitor,
    so every rung runs in-process; true process parallelism goes through
    :class:`repro.dist.DistributedExecutor`, whose leases ship interval
    descriptors instead of closures.

    With ``steal=True`` the thread rung is a
    :class:`~repro.core.executors.WorkStealingThreadExecutor`, so the
    adaptive schedule's split tasks are balanced by deque stealing rather
    than the pool's arrival order.
    """
    thread_cls = WorkStealingThreadExecutor if steal else ThreadExecutor
    return [
        thread_cls(workers or os.cpu_count() or 1, task_timeout=task_timeout),
        SerialExecutor(),
    ]


class ResilientExecutor(Executor):
    """Order-preserving executor that retries, times out, and degrades.

    Parameters
    ----------
    ladder:
        Backends to try, fastest first (default :func:`default_ladder`).
    retry:
        Bounded-retry schedule; ``max_attempts`` applies per task, and the
        same count bounds consecutive batch-level breakages tolerated on
        one rung before stepping down.
    fault_spec:
        Optional fault plan applied *inside* the per-task guard, giving
        deterministically attributed crash/hang/slow/poison faults (the
        test harness's primary injection point).
    """

    name = "resilient"

    def __init__(
        self,
        ladder: Optional[Sequence[Executor]] = None,
        retry: Optional[RetryPolicy] = None,
        fault_spec: Optional[FaultSpec] = None,
    ):
        rungs = list(ladder) if ladder is not None else default_ladder()
        if not rungs:
            raise ValueError("ladder must contain at least one executor")
        super().__init__(num_workers=max(e.num_workers for e in rungs))
        self.ladder = rungs
        self.retry = retry if retry is not None else RetryPolicy()
        self.fault_spec = fault_spec
        self.failures: List[TaskFailure] = []
        self.degradations: List[DegradationEvent] = []
        self.retries: int = 0

    def drain_log(
        self,
    ) -> Tuple[List[TaskFailure], List[DegradationEvent], int]:
        """Return and clear the accumulated (failures, degradations, retries)."""
        log = (self.failures, self.degradations, self.retries)
        self.failures, self.degradations, self.retries = [], [], 0
        return log

    # ------------------------------------------------------------------ #

    def map_tasks(self, tasks: Sequence[Callable[[], object]]) -> List[object]:
        # Forward the driver-wired observer down the ladder so stealing
        # rungs emit steal markers into the same trace.
        obs = self.observer
        if obs is not None and getattr(obs, "enabled", False):
            for rung_exec in self.ladder:
                if getattr(rung_exec, "observer", None) is None:
                    rung_exec.observer = obs
        n = len(tasks)
        results: List[object] = [None] * n
        fail_count = [0] * n  # task-attributed failures (charges the retry budget)
        execs = [0] * n  # executions started (the fault plan's attempt index)
        pending = list(range(n))
        rung = 0
        rung_breaks = 0  # batch-level breakages on the current rung

        while pending:
            executor = self.ladder[rung]
            batch = []
            for i in pending:
                batch.append(self._guard(tasks[i], i, execs[i]))
                execs[i] += 1
            try:
                outs = executor.map_tasks(batch)
            except Exception as exc:  # timeout, injected crash
                # The whole gather was lost; everything pending is simply
                # resubmitted — idempotent intervals make the wasted
                # partial work harmless.  Only a timeout names a culprit,
                # and only the culprit is charged an attempt.
                if isinstance(exc, ExecutorTimeoutError):
                    offender = pending[exc.task_index]
                    fail_count[offender] += 1
                    if fail_count[offender] >= self.retry.max_attempts:
                        self.failures.append(
                            TaskFailure(
                                task_index=offender,
                                attempts=fail_count[offender],
                                error=str(exc),
                                executor=executor.name,
                            )
                        )
                        pending = [i for i in pending if i != offender]
                rung_breaks += 1
                if rung_breaks >= self.retry.max_attempts:
                    if rung + 1 < len(self.ladder):
                        self._degrade(rung, str(exc))
                        rung += 1
                        rung_breaks = 0
                    else:
                        self._fail_all(
                            pending,
                            fail_count,
                            f"batch aborted repeatedly on the last rung: {exc}",
                            executor.name,
                        )
                        break
                if pending:
                    self.retries += len(pending)
                    self._observe_retries(len(pending), str(exc))
                    time.sleep(self.retry.delay(min(rung_breaks + 1, 8)))
                continue

            still: List[int] = []
            for i, out in zip(pending, outs):
                status, payload = out
                if status == _OK:
                    results[i] = payload
                    continue
                fail_count[i] += 1
                if fail_count[i] >= self.retry.max_attempts:
                    self.failures.append(
                        TaskFailure(
                            task_index=i,
                            attempts=fail_count[i],
                            error=payload,
                            executor=executor.name,
                        )
                    )
                else:
                    still.append(i)
            if still:
                self.retries += len(still)
                self._observe_retries(len(still), "task error")
                time.sleep(
                    self.retry.delay(min(max(fail_count[i] for i in still), 8))
                )
            pending = still

        return results

    # ------------------------------------------------------------------ #

    def _guard(self, task, index: int, attempt: int):
        """Wrap a task to capture its exception and inject guarded faults."""
        spec = self.fault_spec

        def guarded():
            try:
                if spec is not None:
                    kind = spec.decide(index, attempt)
                    if kind != FAULT_NONE:
                        apply_fault(kind, spec, index, attempt)
                return (_OK, task())
            except Exception as exc:
                return (_ERR, f"{type(exc).__name__}: {exc}")

        # Stable identity for a FaultInjectingExecutor rung: retried
        # subsets keep their original task index.
        guarded.fault_key = index  # type: ignore[attr-defined]
        # Scheduling weight survives the wrapping, so a work-stealing rung
        # still deals and steals by interval size.
        guarded.weight = getattr(task, "weight", 1)  # type: ignore[attr-defined]
        return guarded

    def _observe_retries(self, count: int, reason: str) -> None:
        obs = self.observer
        if obs is not None and getattr(obs, "enabled", False):
            obs.counter("retry_attempts_total").inc(count)
            obs.instant("retry", "resilience", tasks=count, reason=reason)

    def _degrade(self, rung: int, reason: str) -> None:
        from_name = self.ladder[rung].name
        to_name = self.ladder[rung + 1].name
        logger.warning(
            "degrading %s -> %s: %s",
            from_name,
            to_name,
            reason,
            extra={
                "degrade_kind": "executor",
                "degrade_from": from_name,
                "degrade_to": to_name,
            },
        )
        obs = self.observer
        if obs is not None and getattr(obs, "enabled", False):
            obs.instant(
                "degrade_executor",
                "resilience",
                to=to_name,
                reason=reason[:120],
            )
        self.degradations.append(
            DegradationEvent(
                kind="executor",
                from_name=from_name,
                to_name=to_name,
                reason=reason,
            )
        )

    def _fail_all(
        self,
        pending: List[int],
        fail_count: List[int],
        reason: str,
        executor_name: str,
    ) -> None:
        for i in pending:
            self.failures.append(
                TaskFailure(
                    task_index=i,
                    attempts=fail_count[i],
                    error=reason,
                    executor=executor_name,
                )
            )
