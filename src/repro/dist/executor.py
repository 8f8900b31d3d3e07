"""``DistributedExecutor`` — the coordinator/worker backend as an executor.

Plugs into :class:`~repro.core.paramount.ParaMount` exactly like the
in-process executors: ``map_tasks`` takes the driver's
:class:`~repro.core.executors.Task` list and the run's
:class:`~repro.core.executors.RunContext`, and reports the tasks' stats in
order.  A task's ``fn`` never crosses the wire, and neither does the
poset: each worker holds the context's poset before it connects (a
spawned local worker inherits it, an external one loads its
``--poset``), and this executor leases only the ``(event, lo, hi)``
descriptors of a task's ``pieces`` plus the poset digest, one lease per
task.  The worker re-runs the bounded subroutine from the descriptors
relative to that poset, subroutine and memory budget, which Theorem 2
guarantees is the identical computation.  The coordinator commits to
the context's journal and reports to its observer — worker acks are
the only report, per-host series included — and stops leasing at the
context's deadline.

Remote workers cannot call back into the driver, so a run with a user
visitor (the context's ``visits``) is refused before any coordinator or
worker starts.

Degradation: a task that raised on a worker is final there (any worker
would raise the same error), and when every remote worker is lost (or
none ever connects) the coordinator stops with tasks undone.  This
executor runs the *original ``fn``* of every task that did not commit,
serially in-process.  Those journal and observe themselves — and apply
the driver's ``degrade_on_oom`` — so the degraded tail is
indistinguishable from a normal local run.  The step is recorded as an
``"executor"`` :class:`~repro.core.metrics.DegradationEvent`; only a
task that fails in-process too becomes a
:class:`~repro.core.metrics.TaskFailure`.
"""

from __future__ import annotations

import time
from typing import Optional, Sequence

from repro.core.executors import NO_CONTEXT, Executor, RunContext, Task
from repro.core.metrics import DegradationEvent, ExecutorReport, TaskFailure
from repro.dist.coordinator import Coordinator
from repro.dist.wire import WireFaults
from repro.dist.worker import spawn_local_workers
from repro.errors import ExecutorError

__all__ = ["DistributedExecutor"]


class DistributedExecutor(Executor):
    """Executes interval tasks on remote worker processes.

    Parameters
    ----------
    workers:
        Planned parallelism; with ``spawn=True`` (default) also the number
        of local worker processes to start per run.
    spawn:
        Start ``workers`` local worker processes
        (:func:`~repro.dist.worker.spawn_local_workers`) on the context's
        poset for each ``map_tasks`` call.  With ``spawn=False`` the
        executor only listens — workers are started externally with
        ``repro-tools worker --connect HOST:PORT --poset FILE``.
    wire_faults:
        Seeded :class:`~repro.dist.wire.WireFaults` injected into the
        first spawned worker (the victim/survivor split recovery tests
        rely on).
    lease_seconds:
        Acknowledgement deadline per leased run; crashed, hung, or
        partitioned workers are detected within one lease period.
    """

    def __init__(
        self,
        workers: int = 2,
        host: str = "127.0.0.1",
        port: int = 0,
        spawn: bool = True,
        lease_seconds: float = 5.0,
        no_worker_grace: float = 10.0,
        wire_faults: Optional[WireFaults] = None,
        http_port: Optional[int] = None,
    ):
        self.workers = workers
        self.host = host
        self.port = port
        self.spawn = spawn
        self.lease_seconds = lease_seconds
        self.no_worker_grace = no_worker_grace
        self.wire_faults = wire_faults
        #: ``None`` disables the coordinator's ops endpoint; ``0`` = any port.
        self.http_port = http_port
        #: The last run's coordinator (tests inspect its lease table).
        self.last_coordinator: Optional[Coordinator] = None

    @property
    def name(self) -> str:
        return f"dist({self.workers})"

    @property
    def num_workers(self) -> int:
        return max(self.workers, 1)

    # ------------------------------------------------------------------ #

    def map_tasks(
        self, tasks: Sequence[Task], context: RunContext = NO_CONTEXT
    ) -> ExecutorReport:
        """Lease the tasks' pieces to worker processes.

        Raises :class:`ValueError` when ``context.visits`` is set: remote
        workers enumerate without calling back, so a visitor would
        silently see none of their states.
        """
        if context.visits:
            raise ValueError(
                "DistributedExecutor cannot run a visitor: "
                "remote workers do not call back into the driver; count "
                "states without one, or use an in-process executor"
            )
        if context.poset is None or context.subroutine is None:
            raise ExecutorError(
                "DistributedExecutor needs the run's poset and subroutine "
                "in its context — run it through ParaMount"
            )
        if not all(task.pieces for task in tasks):
            raise ExecutorError(
                "DistributedExecutor tasks must carry their interval pieces"
            )
        descriptors = [
            [(iv.event, iv.lo, iv.hi) for iv in task.pieces] for task in tasks
        ]
        keys = [run[0] for run in descriptors]
        obs = context.observer
        coord = Coordinator(
            context.poset,
            context.subroutine,
            memory_budget=context.memory_budget,
            journal=context.journal,
            observer=obs,
            host=self.host,
            port=self.port,
            lease_seconds=self.lease_seconds,
            no_worker_grace=self.no_worker_grace,
            http_port=self.http_port,
        )
        self.last_coordinator = coord
        coord.start()
        procs = []
        try:
            if self.spawn and self.workers > 0:
                procs = spawn_local_workers(
                    self.workers,
                    coord.address,
                    context.poset,
                    coord.digest,
                    wire_faults=self.wire_faults,
                )
            committed = coord.execute(
                descriptors,
                [task.weight for task in tasks],
                deadline_at=context.deadline_at,
            )
        finally:
            coord.stop()
            for proc in procs:
                proc.join(timeout=5.0)
                if proc.is_alive():  # e.g. still asleep in a hang fault
                    proc.kill()
                    proc.join()
        counters = coord.robustness_counters()
        report = ExecutorReport(
            results=[committed.get(key) for key in keys],
            redispatches=counters["redispatches"],
            leases_expired=counters["leases_expired"],
            hosts=list(coord.hosts),
        )
        idxs = [i for i, key in enumerate(keys) if key not in committed]
        if not idxs:
            return report
        deadline_hit = (
            context.deadline_at is not None
            and time.monotonic() >= context.deadline_at
        )
        if deadline_hit:
            # drained what we could; the rest is abandoned, not degraded
            report.deadline_expired = True
            for i in idxs:
                if keys[i] in coord.failures:
                    attempts, error, worker = coord.failures[keys[i]]
                    report.failures.append(
                        TaskFailure(
                            task_index=i,
                            attempts=attempts,
                            error=error,
                            executor=f"{self.name}:{worker}",
                        )
                    )
            return report
        # run the original fns serially in-process
        failed = sum(keys[i] in coord.failures for i in idxs)
        report.degradations.append(
            DegradationEvent(
                kind="executor",
                from_name=self.name,
                to_name="serial",
                reason=(
                    f"{len(idxs) - failed} run(s) undone with no remote "
                    f"workers remaining, {failed} raised on a worker"
                ),
            )
        )
        if obs.enabled:
            obs.instant("degrade_executor", "dist", undone=len(idxs), to="serial")
        for i in idxs:
            try:
                report.results[i] = tasks[i]()
            except Exception as exc:  # recorded as a TaskFailure
                report.failures.append(
                    TaskFailure(
                        task_index=i,
                        attempts=coord.table.attempts.get(keys[i], 0) + 1,
                        error=f"{type(exc).__name__}: {exc}",
                        executor="serial",
                    )
                )
        return report
