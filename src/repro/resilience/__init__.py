"""Fault-tolerant enumeration runtime (`repro.resilience`).

Theorem 2 makes every interval an idempotent, independently re-runnable
unit of work, so a task that raises, or a crashed, hung, or OOM-killed
worker process, should never cost more than re-running its interval.
This package turns that observation into runtime machinery:

* :mod:`~repro.resilience.faults` — a seeded, deterministic fault-injection
  plan (crashed, slow and poisoned tasks) that the resilient executor's
  guard applies in-process (worker processes of :mod:`repro.dist` take
  :class:`~repro.dist.wire.WireFaults` instead);
* :mod:`~repro.resilience.runner` — :class:`ResilientExecutor`: bounded
  per-task retry with exponential backoff
  (:class:`~repro.core.executors.RetryPolicy`) of the tasks that raise,
  on one inner executor;
* :mod:`~repro.resilience.checkpoint` — an interval checkpoint journal
  (JSON lines keyed by a poset digest) so a killed run resumes enumerating
  only its unfinished intervals, with sanitizer-style identity checks;
* :mod:`~repro.resilience.quarantine` — structured quarantine of malformed
  stream records for the online worker and trace reader.
"""

from repro.core.executors import RetryPolicy
from repro.resilience.checkpoint import CheckpointJournal, poset_digest
from repro.resilience.faults import (
    FAULT_CRASH,
    FAULT_NONE,
    FAULT_POISON,
    FAULT_SLOW,
    FaultSpec,
    apply_fault,
)
from repro.resilience.quarantine import QuarantinedRecord, QuarantineReport
from repro.resilience.runner import ResilientExecutor

__all__ = [
    "RetryPolicy",
    "CheckpointJournal",
    "poset_digest",
    "FAULT_CRASH",
    "FAULT_NONE",
    "FAULT_POISON",
    "FAULT_SLOW",
    "FaultSpec",
    "apply_fault",
    "QuarantinedRecord",
    "QuarantineReport",
    "ResilientExecutor",
]
