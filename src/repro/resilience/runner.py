"""The resilient executor: bounded per-task retry on one executor.

:class:`ResilientExecutor` runs every attempt of every task on one inner
executor, inside a guard that captures the task's exception (and applies
an optional :class:`~repro.resilience.faults.FaultSpec` first).  In-process
a task fails only by raising, so a gather always returns every outcome: a
retry round resubmits only the tasks that raised, with exponential backoff
(:class:`~repro.core.executors.RetryPolicy`), and a task whose attempts are
exhausted is recorded as a :class:`~repro.core.metrics.TaskFailure` while
the rest of the batch completes.  The returned list holds ``None`` at
permanently-failed positions.

Exactly once by construction: no attempt outlives its gather, so two
attempts of one task never overlap, and a task that returned is never
resubmitted.  A body that raises partway (after visiting some states or
writing journal records) is re-run from its start.

Worker-process faults are handled by
:class:`repro.dist.DistributedExecutor` instead: its lease table
re-dispatches a crashed or hung worker's intervals.

Each :meth:`ResilientExecutor.map_tasks` returns one
:class:`~repro.core.metrics.ExecutorReport` holding the failed-task
provenance and retry count on top of the inner gathers' provenance, which
the ParaMount driver copies onto the run's result.
"""

from __future__ import annotations

import time
from dataclasses import replace
from typing import List, Optional, Sequence

from repro.core.executors import (
    NO_CONTEXT,
    Executor,
    RetryPolicy,
    RunContext,
    Task,
)
from repro.core.metrics import ExecutorReport, TaskFailure
from repro.obs.observer import Observer
from repro.resilience.faults import FaultSpec, apply_fault

__all__ = ["ResilientExecutor"]


class ResilientExecutor(Executor):
    """Order-preserving executor that retries tasks that raise.

    Parameters
    ----------
    inner:
        The executor every attempt runs on.
    retry:
        Bounded-retry schedule; ``max_attempts`` applies per task.
    fault_spec:
        Optional fault plan applied *inside* the per-task guard, giving
        deterministically attributed crash/slow/poison faults (the test
        harness's injection point).

    Every inner gather gets the caller's :class:`RunContext`, so a
    stealing executor marks its steals on the run's observer.  The
    returned report adds up the reports of every inner gather (steals,
    per-worker load, …) on top of this executor's own failures and
    retries.
    """

    name = "resilient"

    def __init__(
        self,
        inner: Executor,
        retry: Optional[RetryPolicy] = None,
        fault_spec: Optional[FaultSpec] = None,
    ):
        super().__init__(num_workers=inner.num_workers)
        self.inner = inner
        self.retry = retry if retry is not None else RetryPolicy()
        self.fault_spec = fault_spec

    def map_tasks(
        self, tasks: Sequence[Task], context: RunContext = NO_CONTEXT
    ) -> ExecutorReport:
        n = len(tasks)
        report = ExecutorReport(results=[None] * n)
        failed = [0] * n  # attempts that raised: the fault plan's attempt index
        pending = list(range(n))
        while pending:
            gather = self.inner.map_tasks(
                [self._guard(tasks[i], i, failed[i]) for i in pending], context
            )
            report.add(gather)
            still: List[int] = []
            for i, (ok, payload) in zip(pending, gather.results):
                if ok:
                    report.results[i] = payload
                    continue
                failed[i] += 1
                if failed[i] < self.retry.max_attempts:
                    still.append(i)
                    continue
                report.failures.append(
                    TaskFailure(
                        task_index=i,
                        attempts=failed[i],
                        error=payload,
                        executor=self.inner.name,
                    )
                )
            if still:
                report.retries += len(still)
                self._observe_retries(len(still), context.observer)
                time.sleep(self.retry.delay(min(max(failed[i] for i in still), 8)))
            pending = still
        return report

    def _guard(self, task: Task, index: int, attempt: int) -> Task:
        """Wrap a task's ``fn`` to inject its planned fault and return
        ``(True, value)`` or ``(False, error)`` instead of raising."""
        spec = self.fault_spec

        def guarded():
            try:
                if spec is not None:
                    apply_fault(spec.decide(index, attempt), spec, index, attempt)
                return True, task.fn()
            except Exception as exc:
                return False, f"{type(exc).__name__}: {exc}"

        return replace(task, fn=guarded)

    def _observe_retries(self, count: int, obs: Observer) -> None:
        if obs.enabled:
            obs.counter("retry_attempts_total").inc(count)
            obs.instant("retry", "resilience", tasks=count, reason="task error")
