"""Deterministic fault injection for the enumeration runtime.

The harness perturbs *infrastructure*, never *answers*: a fault makes a
task crash, hang, slow down, or fail permanently ("poison"), but an
interval that does complete always produces its true statistics.  Because
intervals are idempotent (Theorem 2), any retry/degradation strategy that
eventually re-runs the perturbed intervals must converge to the exact
fault-free totals — which is what the resilience test suite asserts,
per seed, on every Table-1 poset.

All randomness flows through :func:`repro.util.rng.derive_seed` keyed by
``(seed, task key, attempt)``: the same spec injects the same faults in
the same places on every run, across processes, regardless of thread
scheduling.

Two injection points cover the in-process execution stack:

* :class:`FaultInjectingExecutor` wraps any in-process
  :class:`~repro.core.executors.Executor`.  Injected crashes abort the
  surrounding gather exactly like a real worker death, so a wrapping
  :class:`~repro.resilience.runner.ResilientExecutor` sees batch-level
  infrastructure failure;
* the resilient executor applies a spec *inside* its per-task guard for
  task-attributed faults.

Worker processes are perturbed by the same discipline through
:class:`repro.dist.wire.WireFaults` — a crash there is a literal
``os._exit`` of a :mod:`repro.dist` worker.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.executors import Executor
from repro.core.metrics import ExecutorReport
from repro.errors import InjectedFaultError, ReproError
from repro.util.rng import DeterministicRng, derive_seed

__all__ = [
    "FAULT_NONE",
    "FAULT_CRASH",
    "FAULT_HANG",
    "FAULT_SLOW",
    "FAULT_POISON",
    "FaultSpec",
    "FaultInjectingExecutor",
    "apply_fault",
]

FAULT_NONE = "none"
FAULT_CRASH = "crash"
FAULT_HANG = "hang"
FAULT_SLOW = "slow"
FAULT_POISON = "poison"


@dataclass(frozen=True)
class FaultSpec:
    """A seeded, deterministic fault plan.

    ``crash``/``hang``/``slow`` are per-attempt probabilities (summing to
    at most 1); ``poison`` is a set of task keys that fail on *every*
    attempt, modeling malformed inputs that no retry can fix.
    ``max_faulty_attempts`` optionally makes attempts at or beyond that
    count fault-free, guaranteeing bounded convergence in tests.
    """

    seed: int = 0
    crash: float = 0.0
    hang: float = 0.0
    slow: float = 0.0
    poison: frozenset = frozenset()
    hang_seconds: float = 0.75
    slow_seconds: float = 0.02
    max_faulty_attempts: Optional[int] = None

    def __post_init__(self) -> None:
        for name in ("crash", "hang", "slow"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} rate must be in [0, 1], got {p}")
        if self.crash + self.hang + self.slow > 1.0:
            raise ValueError("crash + hang + slow rates must not exceed 1")

    def decide(self, key: object, attempt: int) -> str:
        """The fault (if any) for attempt ``attempt`` (0-based) of task
        ``key``.  Deterministic in ``(seed, key, attempt)``."""
        if key in self.poison:
            return FAULT_POISON
        if (
            self.max_faulty_attempts is not None
            and attempt >= self.max_faulty_attempts
        ):
            return FAULT_NONE
        rng = DeterministicRng(derive_seed(self.seed, "fault", key, attempt))
        r = rng.random()
        if r < self.crash:
            return FAULT_CRASH
        r -= self.crash
        if r < self.hang:
            return FAULT_HANG
        r -= self.hang
        if r < self.slow:
            return FAULT_SLOW
        return FAULT_NONE

    @classmethod
    def parse(cls, text: str) -> "FaultSpec":
        """Parse a CLI spec like
        ``"seed=1,crash=0.1,hang=0.05,slow=0.2,poison=3;7,hang_seconds=0.5"``.
        """
        kwargs: Dict[str, object] = {}
        for item in text.split(","):
            item = item.strip()
            if not item:
                continue
            if "=" not in item:
                raise ReproError(
                    f"bad fault spec item {item!r}: expected key=value"
                )
            key, _, value = item.partition("=")
            key = key.strip()
            value = value.strip()
            if key in ("seed", "max_faulty_attempts"):
                kwargs[key] = int(value)
            elif key in ("crash", "hang", "slow", "hang_seconds", "slow_seconds"):
                kwargs[key] = float(value)
            elif key == "poison":
                kwargs[key] = frozenset(
                    int(v) for v in value.split(";") if v.strip()
                )
            else:
                raise ReproError(f"unknown fault spec key {key!r}")
        return cls(**kwargs)  # type: ignore[arg-type]


def apply_fault(kind: str, spec: FaultSpec, key: object, attempt: int) -> None:
    """Perform an injected fault before running the task's real body.

    ``crash``/``poison`` raise :class:`~repro.errors.InjectedFaultError`;
    ``hang`` sleeps for ``hang_seconds`` (long enough to trip a configured
    no-progress timeout, after which the task would complete late — its
    result is discarded by the aborted gather); ``slow`` sleeps briefly
    and lets the task proceed.
    """
    if kind == FAULT_SLOW:
        time.sleep(spec.slow_seconds)
    elif kind == FAULT_HANG:
        time.sleep(spec.hang_seconds)
    elif kind in (FAULT_CRASH, FAULT_POISON):
        raise InjectedFaultError(kind, key, attempt)


class FaultInjectingExecutor(Executor):
    """Wraps any executor, deterministically perturbing the tasks it runs.

    Each task's stable identity is ``task.fault_key`` when the attribute is
    present (the resilient executor stamps original indices on its
    wrappers so retried subsets keep their identity) and the batch position
    otherwise.  Per-key attempt counters persist across ``map_tasks``
    calls, so a retried task draws a *fresh* fault decision — retries can
    succeed.

    Injected crashes propagate out of the wrapped task, aborting the inner
    executor's gather exactly like a real worker death would.  A gather
    that returns hands back the inner executor's report unchanged.
    """

    name = "fault-injecting"

    def __init__(self, inner: Executor, spec: FaultSpec):
        super().__init__(num_workers=inner.num_workers)
        self.inner = inner
        self.spec = spec
        self._attempts: Dict[object, int] = {}
        #: Log of ``(key, attempt, kind)`` for every injected fault.
        self.injected: List[Tuple[object, int, str]] = []

    def map_tasks(self, tasks: Sequence) -> ExecutorReport:
        wrapped = []
        for position, task in enumerate(tasks):
            key = getattr(task, "fault_key", position)
            attempt = self._attempts.get(key, 0)
            self._attempts[key] = attempt + 1
            kind = self.spec.decide(key, attempt)
            if kind != FAULT_NONE:
                self.injected.append((key, attempt, kind))
            wrapped.append(self._wrap(task, kind, key, attempt))
        return self.inner.map_tasks(wrapped)

    def _wrap(self, task, kind: str, key: object, attempt: int):
        spec = self.spec

        def faulty():
            apply_fault(kind, spec, key, attempt)
            return task()

        return faulty
