"""Event objects stored in a poset.

An :class:`Event` records who executed it (thread ``tid``), its 1-based
position ``idx`` within that thread's chain, its vector clock, and optional
operation metadata used by the predicate detectors:

* ``kind`` — operation kind (``"internal"``, ``"read"``, ``"write"``,
  ``"acquire"``, ``"release"``, ``"fork"``, ``"join"``, ``"wait"``,
  ``"notify"``, ...);
* ``obj`` — the shared object the operation touches (variable name, lock
  name, or forked/joined thread id), if any;
* ``accesses`` — for merged *event collections* (paper §4.4), the set of
  per-variable accesses this event stands for.

Events are immutable; equality is by identity of ``(tid, idx)`` within a
poset plus the clock, which uniquely determines an event of an execution.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

from repro.types import Clock, EventId

__all__ = ["Event", "Access", "INTERNAL", "READ", "WRITE", "ACQUIRE", "RELEASE", "FORK", "JOIN", "WAIT", "NOTIFY"]

# Canonical event-kind constants (strings keep traces human-readable).
INTERNAL = "internal"
READ = "read"
WRITE = "write"
ACQUIRE = "acquire"
RELEASE = "release"
FORK = "fork"
JOIN = "join"
WAIT = "wait"
NOTIFY = "notify"


@dataclass(frozen=True)
class Access:
    """A single variable access inside an event collection (paper §4.4).

    ``op`` is :data:`READ` or :data:`WRITE`; ``var`` names the shared
    variable; ``is_init`` marks initialization writes, which the paper's
    detector deliberately ignores when reporting races (§5.2: "we do not
    consider initialization events to ever cause the data race").
    """

    op: str
    var: str
    is_init: bool = False

    def conflicts_with(self, other: "Access") -> bool:
        """True when the two accesses race if concurrent: same variable and
        at least one is a write."""
        return self.var == other.var and (self.op == WRITE or other.op == WRITE)


@dataclass(frozen=True)
class Event:
    """One event of a concurrent execution.

    The clock invariant ``vc[tid] == idx`` holds for every event a poset
    or builder admits (the ``gmin-invariant`` rule of
    :mod:`repro.poset.validate`); it is what lets ``Gmin(e)`` be read
    straight off the clock (paper §2.2).
    """

    tid: int
    idx: int
    vc: Clock
    kind: str = INTERNAL
    obj: Optional[str] = None
    accesses: Tuple[Access, ...] = field(default=())
    #: Optional *weak* clock tracking only process order and fork/join (no
    #: lock-atomicity edges).  The RV-runtime baseline's front-end fills it
    #: to model jPredictor-style sliced causality, whose deliberately weaker
    #: order is the source of that tool's benign extra race reports
    #: (see :mod:`repro.detector.rv_runtime`).
    weak_vc: Optional[Clock] = None

    @property
    def eid(self) -> EventId:
        """The event's identifier ``(tid, idx)``."""
        return (self.tid, self.idx)

    def happened_before(self, other: "Event") -> bool:
        """Lamport happened-before via clock comparison: ``self → other``.

        For Fidge/Mattern clocks, ``e → f`` iff ``e.vc[e.tid] ≤
        f.vc[e.tid]`` and ``e ≠ f``.
        """
        if self.tid == other.tid:
            return self.idx < other.idx
        return self.vc[self.tid] <= other.vc[self.tid]

    def concurrent_with(self, other: "Event") -> bool:
        """True when neither event happened before the other."""
        return (
            self.eid != other.eid
            and not self.happened_before(other)
            and not other.happened_before(self)
        )

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        tag = f"{self.kind}" if self.obj is None else f"{self.kind}({self.obj})"
        return f"e{self.tid}[{self.idx}]:{tag}"
