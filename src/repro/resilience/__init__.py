"""Fault-tolerant enumeration runtime (`repro.resilience`).

Theorem 2 makes every interval an idempotent, independently re-runnable
unit of work, so a crashed, hung, or OOM-killed worker should never cost
more than re-running its interval.  This package turns that observation
into runtime machinery:

* :mod:`~repro.resilience.faults` — a seeded, deterministic fault-injection
  harness (worker crashes, hangs, slow tasks, poisoned intervals) wrapping
  any in-process executor (worker processes of :mod:`repro.dist` take
  :class:`~repro.dist.wire.WireFaults` instead);
* :mod:`~repro.resilience.runner` — :class:`ResilientExecutor`: per-task
  bounded retry with exponential backoff
  (:class:`~repro.core.executors.RetryPolicy`), gather timeouts, and the
  graceful-degradation cascade down the executor ladder to serial;
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
    FAULT_HANG,
    FAULT_NONE,
    FAULT_POISON,
    FAULT_SLOW,
    FaultInjectingExecutor,
    FaultSpec,
    apply_fault,
)
from repro.resilience.quarantine import QuarantinedRecord, QuarantineReport
from repro.resilience.runner import ResilientExecutor, default_ladder

__all__ = [
    "RetryPolicy",
    "CheckpointJournal",
    "poset_digest",
    "FAULT_CRASH",
    "FAULT_HANG",
    "FAULT_NONE",
    "FAULT_POISON",
    "FAULT_SLOW",
    "FaultSpec",
    "FaultInjectingExecutor",
    "apply_fault",
    "QuarantinedRecord",
    "QuarantineReport",
    "ResilientExecutor",
    "default_ladder",
]
