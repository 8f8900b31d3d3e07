"""``DistributedExecutor`` — the coordinator/worker backend as an executor.

Plugs into :class:`~repro.core.paramount.ParaMount` exactly like the
serial/thread/process executors: ``map_tasks`` takes the driver's task
closures and returns their stats in order.  The closures themselves never
cross the wire — the driver stamps each one with its ``.interval``, and
this executor ships only the ``(event, lo, hi)`` descriptor plus the
poset digest; the worker re-runs the bounded subroutine from the
descriptor, which Theorem 2 guarantees is the identical computation.

The driver hands over run context through the duck-typed ``bind_run``
hook (poset, subroutine, memory budget, journal, deadline), mirroring how
it wires ``executor.observer`` today.

Degradation: when every remote worker is lost (or none ever connects),
the coordinator returns the undone tasks, and tasks that failed on every
remote attempt come back as failures; this executor runs the *original
closures* of both on the in-process fallback (serial by default).
Those closures journal and observe themselves — and apply the driver's
``degrade_on_oom`` — so the degraded tail is indistinguishable from a
normal local run.  The step is recorded as an ``"executor"``
:class:`~repro.core.metrics.DegradationEvent`; only a task the fallback
cannot run either becomes a :class:`~repro.core.metrics.TaskFailure`.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Callable, List, Optional, Sequence, TypeVar

from repro.core.executors import Executor, SerialExecutor
from repro.core.metrics import DegradationEvent, TaskFailure
from repro.dist.coordinator import Coordinator
from repro.dist.wire import WireFaults
from repro.dist.worker import spawn_local_workers
from repro.errors import ExecutorError

__all__ = ["DistributedExecutor"]

T = TypeVar("T")


class DistributedExecutor(Executor):
    """Executes interval tasks on remote worker processes.

    Parameters
    ----------
    workers:
        Planned parallelism; with ``spawn=True`` (default) also the number
        of local worker processes to start per run.
    spawn:
        Start ``workers`` local worker processes
        (:func:`~repro.dist.worker.spawn_local_workers`) for each
        ``map_tasks`` call.  With ``spawn=False`` the executor only
        listens — workers are started externally with
        ``repro-tools worker --connect``.
    wire_faults / fault_workers:
        Seeded :class:`~repro.dist.wire.WireFaults` injected into the
        first ``fault_workers`` spawned workers (the victim/survivor
        split recovery tests rely on).
    lease_seconds:
        Acknowledgement deadline per leased interval; crashed, hung, or
        partitioned workers are detected within one lease period.
    fallback:
        In-process executor for tasks no remote worker ran to completion
        (default :class:`~repro.core.executors.SerialExecutor`).
    poset_path:
        Optional poset file for spawned workers to load themselves
        (otherwise the poset ships over the wire in the welcome).
    """

    def __init__(
        self,
        workers: int = 2,
        host: str = "127.0.0.1",
        port: int = 0,
        spawn: bool = True,
        lease_seconds: float = 5.0,
        heartbeat_seconds: float = 1.0,
        no_worker_grace: float = 10.0,
        wire_faults: Optional[WireFaults] = None,
        fault_workers: int = 1,
        fallback: Optional[Executor] = None,
        poset_path: Optional[Path] = None,
        http_port: Optional[int] = None,
    ):
        self.workers = workers
        self.host = host
        self.port = port
        self.spawn = spawn
        self.lease_seconds = lease_seconds
        self.heartbeat_seconds = heartbeat_seconds
        self.no_worker_grace = no_worker_grace
        self.wire_faults = wire_faults
        self.fault_workers = fault_workers
        self.fallback = fallback
        self.poset_path = poset_path
        #: ``None`` disables the coordinator's ops endpoint; ``0`` = any port.
        self.http_port = http_port
        #: Wired by the ParaMount driver (like every executor's).
        self.observer = None
        # run context, supplied by bind_run
        self._poset = None
        self._subroutine: Optional[str] = None
        self._memory_budget: Optional[int] = None
        self._journal = None
        self._deadline_at: Optional[float] = None
        # per-run provenance, drained by the driver
        self._failures: List[TaskFailure] = []
        self._degradations: List[DegradationEvent] = []
        self.last_redispatches = 0
        self.last_leases_expired = 0
        self.last_hosts: List[str] = []
        self.last_deadline_expired = False
        #: The last run's coordinator (tests inspect its lease table).
        self.last_coordinator: Optional[Coordinator] = None

    @property
    def name(self) -> str:
        return f"dist({self.workers})"

    @property
    def num_workers(self) -> int:
        return max(self.workers, 1)

    # ------------------------------------------------------------------ #
    # driver hooks

    def bind_run(
        self,
        poset,
        subroutine: str,
        memory_budget: Optional[int] = None,
        journal=None,
        deadline_at: Optional[float] = None,
    ) -> None:
        """Receive the run context the wire descriptors are relative to."""
        self._poset = poset
        self._subroutine = subroutine
        self._memory_budget = memory_budget
        self._journal = journal
        self._deadline_at = deadline_at

    def drain_log(self):
        """(failures, degradations, retries) — the resilient-executor
        contract the driver folds into the result."""
        failures, self._failures = self._failures, []
        degradations, self._degradations = self._degradations, []
        return failures, degradations, 0

    # ------------------------------------------------------------------ #

    def map_tasks(self, tasks: Sequence[Callable[[], T]]) -> List[T]:
        if self._poset is None or self._subroutine is None:
            raise ExecutorError(
                "DistributedExecutor needs bind_run(poset, subroutine, ...) "
                "before map_tasks — run it through ParaMount"
            )
        intervals = [getattr(task, "interval", None) for task in tasks]
        if any(iv is None for iv in intervals):
            raise ExecutorError(
                "DistributedExecutor tasks must carry .interval descriptors"
            )
        keys = [(iv.event, iv.lo, iv.hi) for iv in intervals]
        weights = [iv.size_bound for iv in intervals]
        coord = Coordinator(
            self._poset,
            self._subroutine,
            memory_budget=self._memory_budget,
            journal=self._journal,
            observer=self.observer,
            host=self.host,
            port=self.port,
            lease_seconds=self.lease_seconds,
            heartbeat_seconds=self.heartbeat_seconds,
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
                    poset_path=self.poset_path,
                    wire_faults=self.wire_faults,
                    fault_workers=self.fault_workers,
                )
            committed, undone = coord.execute(
                keys, weights, deadline_at=self._deadline_at
            )
        finally:
            coord.stop()
            for proc in procs:
                proc.join(timeout=5.0)
                if proc.is_alive():  # e.g. still asleep in a hang fault
                    proc.kill()
                    proc.join()
        counters = coord.robustness_counters()
        self.last_redispatches = counters["redispatches"]
        self.last_leases_expired = counters["leases_expired"]
        self.last_hosts = list(coord.hosts)
        self.last_deadline_expired = False
        results: List[Optional[T]] = [committed.get(key) for key in keys]
        rerun = set(undone) | set(coord.failures)
        if not rerun:
            return results  # type: ignore[return-value]
        deadline_hit = (
            self._deadline_at is not None
            and time.monotonic() >= self._deadline_at
        )
        if deadline_hit:
            # drained what we could; the rest is abandoned, not degraded
            self.last_deadline_expired = True
            for i, key in enumerate(keys):
                if key in coord.failures:
                    attempts, error, worker = coord.failures[key]
                    self._failures.append(
                        TaskFailure(
                            task_index=i,
                            attempts=attempts,
                            error=error,
                            executor=f"{self.name}:{worker}",
                        )
                    )
            return results  # type: ignore[return-value]
        # run the original closures in-process
        fallback = self.fallback if self.fallback is not None else SerialExecutor()
        idxs = [i for i, key in enumerate(keys) if key in rerun]
        self._degradations.append(
            DegradationEvent(
                kind="executor",
                from_name=self.name,
                to_name=fallback.name,
                reason=(
                    f"{len(undone)} interval(s) undone with no remote "
                    f"workers remaining, {len(coord.failures)} failed on "
                    f"every remote attempt"
                ),
            )
        )
        if self.observer is not None and getattr(self.observer, "enabled", False):
            self.observer.instant(
                "degrade_executor", "dist", undone=len(idxs), to=fallback.name
            )
        local = fallback.map_tasks([_capture_errors(tasks[i]) for i in idxs])
        for i, (stats, error) in zip(idxs, local):
            if error is None:
                results[i] = stats
                continue
            self._failures.append(
                TaskFailure(
                    task_index=i,
                    attempts=coord.table.attempts.get(keys[i], 0) + 1,
                    error=error,
                    executor=fallback.name,
                )
            )
        return results  # type: ignore[return-value]


def _capture_errors(task: Callable[[], T]) -> Callable[[], tuple]:
    """Wrap ``task`` to return ``(result, None)`` or ``(None, error)``."""

    def run() -> tuple:
        try:
            return task(), None
        except Exception as exc:  # recorded as a TaskFailure
            return None, f"{type(exc).__name__}: {exc}"

    # work-stealing fallbacks deal by weight
    run.weight = getattr(task, "weight", 1)  # type: ignore[attr-defined]
    return run
