"""Distributed coordinator/worker backend on the checkpoint substrate.

Theorem 2 makes every ``(event, lo, hi)`` interval idempotent and
independently re-runnable, which is exactly the contract a crash-tolerant
distributed executor needs.  This package composes the existing building
blocks — :func:`~repro.core.scheduling.plan_schedule`,
:class:`~repro.resilience.checkpoint.CheckpointJournal` as the commit log,
the typed :class:`~repro.errors.ExecutorError` hierarchy, and the
observability facade — into repro's one process backend, for
local worker processes and remote hosts alike:

* :mod:`repro.dist.wire` — length-prefixed JSON/pickle frames over stdlib
  sockets, plus seeded wire-level fault injection;
* :mod:`repro.dist.lease` — the lease table: pending → leased → committed,
  with heartbeat-extended expiry and exactly-one-commit semantics;
* :mod:`repro.dist.coordinator` — leases runs of interval descriptors
  (:func:`~repro.core.scheduling.coalesce`) to workers, re-dispatches
  expired leases, commits each run's acknowledgement to the journal;
* :mod:`repro.dist.worker` — connects, verifies the poset digest,
  enumerates a leased run's intervals, acknowledges them in one message;
  starts local worker processes with :mod:`multiprocessing`;
* :mod:`repro.dist.executor` — :class:`DistributedExecutor`, pluggable
  into :class:`~repro.core.paramount.ParaMount` like any other executor,
  running in-process whatever no worker finished.
"""

from repro.dist.coordinator import Coordinator
from repro.dist.executor import DistributedExecutor
from repro.dist.lease import LeaseTable
from repro.dist.wire import WireFaults, decode_frame, encode_frame
from repro.dist.worker import run_worker, spawn_local_workers

__all__ = [
    "Coordinator",
    "DistributedExecutor",
    "LeaseTable",
    "WireFaults",
    "encode_frame",
    "decode_frame",
    "run_worker",
    "spawn_local_workers",
]
