"""Deterministic fault injection for the enumeration runtime.

The harness perturbs *infrastructure*, never *answers*: a fault makes a
task crash, slow down, or fail permanently ("poison"), but an interval
that does complete always produces its true statistics.  Because
intervals are idempotent (Theorem 2), any retry strategy that eventually
re-runs the perturbed intervals must converge to the exact fault-free
totals — which is what the resilience test suite asserts, per seed, on
every Table-1 poset.  Visits and journal writes are side effects, though,
so a strategy must also never run a finished task again; the differential
oracle (``tests/test_differential.py``) checks that every state is
visited and every piece journaled exactly once under these faults.

All randomness flows through :func:`repro.util.rng.derive_seed` keyed by
``(seed, task key, attempt)``: the same spec injects the same faults in
the same places on every run, across processes, regardless of thread
scheduling.

In-process, a task fails only by raising, so the one injection point is
the :class:`~repro.resilience.runner.ResilientExecutor`'s per-task guard,
which applies a spec before the task's body, keying each task by its
position in the caller's gather.  Worker processes are
perturbed by the same discipline through
:class:`repro.dist.wire.WireFaults` — a crash there is a literal
``os._exit`` of a :mod:`repro.dist` worker, and a hang outlives its lease.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Optional

from repro.errors import InjectedFaultError, ReproError
from repro.util.rng import DeterministicRng, derive_seed

__all__ = [
    "FAULT_NONE",
    "FAULT_CRASH",
    "FAULT_SLOW",
    "FAULT_POISON",
    "FaultSpec",
    "apply_fault",
]

FAULT_NONE = "none"
FAULT_CRASH = "crash"
FAULT_SLOW = "slow"
FAULT_POISON = "poison"


@dataclass(frozen=True)
class FaultSpec:
    """A seeded, deterministic fault plan.

    ``crash``/``slow`` are per-attempt probabilities (summing to at most
    1); ``poison`` is a set of task keys that fail on *every* attempt,
    modeling malformed inputs that no retry can fix.
    ``max_faulty_attempts`` optionally makes attempts at or beyond that
    count fault-free, guaranteeing bounded convergence in tests.
    """

    seed: int = 0
    crash: float = 0.0
    slow: float = 0.0
    poison: frozenset = frozenset()
    slow_seconds: float = 0.02
    max_faulty_attempts: Optional[int] = None

    def __post_init__(self) -> None:
        for name in ("crash", "slow"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} rate must be in [0, 1], got {p}")
        if self.crash + self.slow > 1.0:
            raise ValueError("crash + slow rates must not exceed 1")

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
        if r < self.slow:
            return FAULT_SLOW
        return FAULT_NONE

    @classmethod
    def parse(cls, text: str) -> "FaultSpec":
        """Parse a CLI spec like
        ``"seed=1,crash=0.1,slow=0.2,poison=3;7,slow_seconds=0.5"``.
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
            elif key in ("crash", "slow", "slow_seconds"):
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
    ``slow`` sleeps for ``slow_seconds`` and lets the task proceed.
    """
    if kind == FAULT_SLOW:
        time.sleep(spec.slow_seconds)
    elif kind in (FAULT_CRASH, FAULT_POISON):
        raise InjectedFaultError(kind, key, attempt)
