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
  Tasks that finished inside the lost gather keep their outcome and only
  the rest are resubmitted; repeated breakage steps one rung down the
  ladder, recorded as a :class:`~repro.core.metrics.DegradationEvent`.

Exactly once: a task's visits and journal writes are side effects, so the
guard keeps each task's outcome in a per-call list and runs the body under
a per-task lock.  An attempt that reaches its body after another attempt
of the same task finished (a hung attempt waking after its retry) returns
that outcome without running; one that arrives while another is inside
the body waits for it.  An attempt already inside its body when a timeout
abandons its gather still finishes, since threads cannot be cancelled:
its retry waits for that outcome, so a body that never returns holds its
retries too.

Worker-process faults are handled by
:class:`repro.dist.DistributedExecutor` instead: its lease table
re-dispatches a crashed or hung worker's intervals.

Each :meth:`ResilientExecutor.map_tasks` returns one
:class:`~repro.core.metrics.ExecutorReport` holding the failed-task
provenance, retry count, and every degradation step, which the ParaMount
driver copies onto the run's result.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import replace
from typing import List, Optional, Sequence

from repro.core.executors import (
    NO_CONTEXT,
    Executor,
    RetryPolicy,
    RunContext,
    SerialExecutor,
    Task,
    WorkStealingThreadExecutor,
)
from repro.core.metrics import DegradationEvent, ExecutorReport, TaskFailure
from repro.errors import ExecutorTimeoutError
from repro.obs.observer import Observer
from repro.resilience.faults import FAULT_NONE, FaultSpec, apply_fault
from repro.util.log import get_logger

__all__ = ["ResilientExecutor", "default_ladder"]

logger = get_logger(__name__)

_OK = "ok"
_ERR = "err"


def default_ladder(
    workers: int = 0, task_timeout: Optional[float] = None
) -> List[Executor]:
    """The standard degradation cascade: ``threads → serial``.

    Interval tasks in the offline driver close over the poset and visitor,
    so every rung runs in-process; true process parallelism goes through
    :class:`repro.dist.DistributedExecutor`, whose leases ship interval
    descriptors instead of closures.  The thread rung is a
    :class:`~repro.core.executors.WorkStealingThreadExecutor`, so the
    adaptive schedule's split tasks are balanced by deque stealing.
    """
    return [
        WorkStealingThreadExecutor(
            workers or os.cpu_count() or 1, task_timeout=task_timeout
        ),
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

    Every rung gather gets the caller's :class:`RunContext`, so stealing
    rungs mark their steals on the run's observer.  The returned report
    adds up the reports of every rung gather that returned (steals,
    per-worker load, …) on top of this executor's own failures,
    degradations and retries.  A gather that raised lost its report (not
    the outcomes of the tasks it finished), so steals made inside it are
    not counted.
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

    # ------------------------------------------------------------------ #

    def map_tasks(
        self, tasks: Sequence[Task], context: RunContext = NO_CONTEXT
    ) -> ExecutorReport:
        obs = context.observer
        n = len(tasks)
        report = ExecutorReport(results=[None] * n)
        results = report.results
        fail_count = [0] * n  # task-attributed failures (charges the retry budget)
        execs = [0] * n  # executions started (the fault plan's attempt index)
        # Each task's final outcome, set by the first attempt to finish it
        # (or when it is given up), and the lock an attempt holds inside
        # the task's body: visits and journal writes are side effects, so
        # no attempt runs a body another attempt is in or has finished.
        done: List[Optional[tuple]] = [None] * n
        locks = [threading.Lock() for _ in range(n)]
        pending = list(range(n))
        rung = 0
        rung_breaks = 0  # batch-level breakages on the current rung

        def give_up(i: int, error: str, executor: str) -> None:
            done[i] = (_ERR, error)
            report.failures.append(
                TaskFailure(
                    task_index=i,
                    attempts=fail_count[i],
                    error=error,
                    executor=executor,
                )
            )

        while pending:
            executor = self.ladder[rung]
            batch = []
            for i in pending:
                batch.append(self._guard(tasks[i], i, execs[i], done, locks[i]))
                execs[i] += 1
            try:
                rung_report = executor.map_tasks(batch, context)
            except Exception as exc:  # timeout, injected crash
                # The gather was lost, but not the tasks that finished
                # inside it: they keep their outcome, and only the rest are
                # resubmitted.  Only a timeout names a culprit, and only
                # the culprit is charged an attempt.
                timed_out = isinstance(exc, ExecutorTimeoutError)
                offender = pending[exc.task_index] if timed_out else None
                outcomes = [(i, done[i]) for i in pending]
                for i, outcome in outcomes:
                    if outcome is not None:
                        results[i] = outcome[1]
                pending = [i for i, outcome in outcomes if outcome is None]
                if offender in pending:
                    fail_count[offender] += 1
                    if fail_count[offender] >= self.retry.max_attempts:
                        give_up(offender, str(exc), executor.name)
                        pending.remove(offender)
                if not pending:
                    break
                rung_breaks += 1
                if rung_breaks >= self.retry.max_attempts:
                    if rung + 1 < len(self.ladder):
                        report.degradations.append(
                            self._degrade(rung, str(exc), obs)
                        )
                        rung += 1
                        rung_breaks = 0
                    else:
                        reason = f"batch aborted repeatedly on the last rung: {exc}"
                        for i in pending:
                            give_up(i, reason, executor.name)
                        break
                report.retries += len(pending)
                self._observe_retries(len(pending), str(exc), obs)
                time.sleep(self.retry.delay(min(rung_breaks + 1, 8)))
                continue

            report.add(rung_report)
            still: List[int] = []
            for i, out in zip(pending, rung_report.results):
                status, payload = out
                if status == _OK:
                    results[i] = payload
                    continue
                fail_count[i] += 1
                if fail_count[i] >= self.retry.max_attempts:
                    give_up(i, payload, executor.name)
                else:
                    still.append(i)
            if still:
                report.retries += len(still)
                self._observe_retries(len(still), "task error", obs)
                time.sleep(
                    self.retry.delay(min(max(fail_count[i] for i in still), 8))
                )
            pending = still

        return report

    # ------------------------------------------------------------------ #

    def _guard(
        self, task: Task, index: int, attempt: int, done: list, lock: threading.Lock
    ) -> Task:
        """Wrap a task's ``fn`` to capture its exception, inject guarded
        faults, and run the body under ``lock`` only while ``done[index]``
        holds no outcome for the task."""
        spec = self.fault_spec

        def guarded():
            try:
                if spec is not None:
                    kind = spec.decide(index, attempt)
                    if kind != FAULT_NONE:
                        apply_fault(kind, spec, index, attempt)
                with lock:
                    if done[index] is None:
                        done[index] = (_OK, task.fn())
                    return done[index]
            except Exception as exc:
                return (_ERR, f"{type(exc).__name__}: {exc}")

        return replace(task, fn=guarded)

    def _observe_retries(self, count: int, reason: str, obs: Observer) -> None:
        if obs.enabled:
            obs.counter("retry_attempts_total").inc(count)
            obs.instant("retry", "resilience", tasks=count, reason=reason)

    def _degrade(self, rung: int, reason: str, obs: Observer) -> DegradationEvent:
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
        if obs.enabled:
            obs.instant(
                "degrade_executor",
                "resilience",
                to=to_name,
                reason=reason[:120],
            )
        return DegradationEvent(
            kind="executor",
            from_name=from_name,
            to_name=to_name,
            reason=reason,
        )
