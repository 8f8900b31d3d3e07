"""Opt-in runtime sanitizers for the simulate → detect → enumerate pipeline.

Three checkers, one per pipeline stage, each asserting the invariants the
correctness argument of the paper rests on:

* :class:`TraceSanitizer` — fed every :class:`~repro.runtime.trace.TraceOp`
  the scheduler emits (``Scheduler(..., sanitizer=...)``): global and
  per-thread sequence monotonicity, lock acquire/release discipline
  (including the wait-releases-then-reacquires protocol), and thread
  lifecycle (start before use, join only of finished threads, no
  operations after end).
* :class:`ClockSanitizer` — fed every :class:`~repro.poset.event.Event`
  the HB front-end emits (``HBFrontEnd(..., sanitizer=...)``): the clock
  admission rules of :mod:`repro.poset.validate`, among them the
  ``vc[tid] == idx`` invariant that lets ``Gmin(e)`` be read straight off
  the clock (§2.2).
* :class:`EnumerationSanitizer` — fed every interval and every enumerated
  cut by the ParaMount driver (``ParaMount(..., sanitizer=...)``):
  ``Gmin(e) ≤ Gbnd(e)`` for every interval, every cut within its
  interval's bounds, and — Theorem 2's disjointness — no global state
  visited twice across intervals.

:class:`PipelineSanitizer` bundles all three behind the union of their
observe interfaces, so one object can be handed to every stage.

By default violations are *collected* (``sanitizer.violations``) so a test
can assert on the whole run; ``strict=True`` raises
:class:`~repro.errors.SanitizerError` at the first violation.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.errors import SanitizerError
from repro.poset.validate import violation
from repro.types import Clock
from repro.util.cuts import cut_leq

__all__ = [
    "ClockSanitizer",
    "EnumerationSanitizer",
    "PipelineSanitizer",
    "SanitizerViolation",
    "TraceSanitizer",
]


@dataclass(frozen=True)
class SanitizerViolation:
    """One violated invariant."""

    invariant: str
    message: str

    def __str__(self) -> str:
        return f"[{self.invariant}] {self.message}"

    def as_diagnostic(self, program: str = "") -> "Diagnostic":
        """This violation as an ``SN001`` (error-severity) diagnostic."""
        from repro.staticcheck.diag import Diagnostic

        return Diagnostic(
            rule="SN001",
            message=self.message,
            program=program,
            evidence={"invariant": self.invariant},
        )


class _Checker:
    """Shared collect-or-raise behavior."""

    def __init__(self, strict: bool = False):
        self.strict = strict
        self.violations: List[SanitizerViolation] = []

    def _flag(self, invariant: str, message: str) -> None:
        violation = SanitizerViolation(invariant=invariant, message=message)
        self.violations.append(violation)
        if self.strict:
            raise SanitizerError(str(violation))

    @property
    def ok(self) -> bool:
        return not self.violations

    def assert_clean(self) -> None:
        """Raise unless the run was violation-free."""
        if self.violations:
            raise SanitizerError(
                f"{len(self.violations)} sanitizer violation(s):\n"
                + "\n".join(str(v) for v in self.violations)
            )


class TraceSanitizer(_Checker):
    """Validates the operation stream the scheduler emits."""

    def __init__(self, strict: bool = False):
        super().__init__(strict)
        self.ops_observed = 0
        self._last_seq = -1
        self._last_seq_by_tid: Dict[int, int] = {}
        self._lock_owner: Dict[str, Optional[int]] = {}
        self._held: Dict[int, Set[str]] = {}
        self._started: Set[int] = set()
        self._ended: Set[int] = set()

    def observe(self, op) -> None:
        self.ops_observed += 1
        tid = op.tid
        if op.seq <= self._last_seq:
            self._flag(
                "seq-monotone",
                f"op seq {op.seq} not greater than previous {self._last_seq}",
            )
        self._last_seq = max(self._last_seq, op.seq)
        prev = self._last_seq_by_tid.get(tid)
        if prev is not None and op.seq <= prev:
            self._flag(
                "seq-monotone",
                f"thread {tid} op seq {op.seq} not greater than its previous {prev}",
            )
        self._last_seq_by_tid[tid] = max(prev if prev is not None else -1, op.seq)

        if tid in self._ended:
            self._flag("lifecycle", f"thread {tid} emitted {op.kind!r} after thread_end")
        if op.kind == "thread_start":
            if tid in self._started:
                self._flag("lifecycle", f"thread {tid} started twice")
            self._started.add(tid)
            return
        if tid not in self._started:
            self._flag("lifecycle", f"thread {tid} emitted {op.kind!r} before thread_start")
            self._started.add(tid)

        if op.kind == "thread_end":
            held = self._held.get(tid)
            if held:
                self._flag(
                    "lock-discipline",
                    f"thread {tid} ended holding lock(s) {sorted(held)}",
                )
            self._ended.add(tid)
        elif op.kind in ("acquire", "wait"):
            # a "wait" record marks the monitor *re-acquisition* after the
            # suspension (the release was emitted separately), so both
            # kinds require the lock to be free and take ownership.
            owner = self._lock_owner.get(op.obj)
            if owner is not None:
                self._flag(
                    "lock-discipline",
                    f"thread {tid} {op.kind}d lock {op.obj!r} owned by thread {owner}",
                )
            self._lock_owner[op.obj] = tid
            self._held.setdefault(tid, set()).add(op.obj)
        elif op.kind == "release":
            owner = self._lock_owner.get(op.obj)
            if owner != tid:
                self._flag(
                    "lock-discipline",
                    f"thread {tid} released lock {op.obj!r} owned by {owner}",
                )
            self._lock_owner[op.obj] = None
            self._held.setdefault(tid, set()).discard(op.obj)
        elif op.kind == "notify":
            owner = self._lock_owner.get(op.obj)
            if owner != tid:
                self._flag(
                    "lock-discipline",
                    f"thread {tid} notified lock {op.obj!r} owned by {owner}",
                )
        elif op.kind == "fork":
            if op.target in self._started:
                self._flag("lifecycle", f"thread {tid} forked already-started thread {op.target}")
        elif op.kind == "join":
            if op.target not in self._ended:
                self._flag(
                    "lifecycle",
                    f"thread {tid} joined thread {op.target} before it ended",
                )


class ClockSanitizer(_Checker):
    """Flags each :mod:`repro.poset.validate` rule an emitted event breaks.
    The first clock fixes the width; every event of the right shape is
    kept, so observation goes on after a violation."""

    def __init__(self, strict: bool = False):
        super().__init__(strict)
        self.events_observed = 0
        self._clocks: List[List[Clock]] = []
        self._admitted: List[int] = []

    def observe_event(self, event) -> None:
        self.events_observed += 1
        tid, vc = event.tid, event.vc
        if not self._clocks:
            self._clocks = [[] for _ in vc]
            self._admitted = [0] * len(vc)
        broken = violation(self._clocks, self._admitted, tid, event.idx, vc)
        if broken is not None:
            self._flag(*broken)
            if broken[0] == "clock-shape":
                return
        self._clocks[tid].append(vc)
        self._admitted[tid] += 1


class EnumerationSanitizer(_Checker):
    """Validates the interval partition and the enumerated global states.

    Duplicate detection keeps every visited cut in a set — fine for the
    workload-scale lattices the sanitizer is meant for, and exactly what
    certifies Theorem 2's "each state visited exactly once" claim.
    """

    def __init__(self, strict: bool = False):
        super().__init__(strict)
        self.intervals_observed = 0
        self.states_observed = 0
        self._seen: Set[Tuple[int, ...]] = set()
        self._mutex = threading.Lock()

    def observe_interval(self, interval) -> None:
        with self._mutex:
            self.intervals_observed += 1
            if not cut_leq(interval.lo, interval.hi):
                self._flag(
                    "interval-bounds",
                    f"interval of {interval.event}: Gmin={interval.lo} "
                    f"exceeds Gbnd={interval.hi}",
                )

    def observe_state(self, interval, cut) -> None:
        key = tuple(cut)
        with self._mutex:
            self.states_observed += 1
            if not interval.contains(cut):
                self._flag(
                    "interval-membership",
                    f"cut {key} enumerated by interval {interval.event} "
                    f"[{interval.lo}, {interval.hi}] but outside its bounds",
                )
            if key in self._seen:
                self._flag(
                    "partition-disjoint",
                    f"cut {key} enumerated twice (Theorem 2 violated)",
                )
            self._seen.add(key)


class PipelineSanitizer(_Checker):
    """One object implementing all three observe interfaces.

    Hand the same instance to ``run_program``, ``HBFrontEnd`` and
    ``ParaMount`` to sanitize a full Table 1 pipeline end-to-end.
    """

    def __init__(self, strict: bool = False):
        super().__init__(strict)
        self.trace = TraceSanitizer(strict=strict)
        self.clocks = ClockSanitizer(strict=strict)
        self.enumeration = EnumerationSanitizer(strict=strict)

    def observe(self, op) -> None:
        self.trace.observe(op)

    def observe_event(self, event) -> None:
        self.clocks.observe_event(event)

    def observe_interval(self, interval) -> None:
        self.enumeration.observe_interval(interval)

    def observe_state(self, interval, cut) -> None:
        self.enumeration.observe_state(interval, cut)

    @property
    def violations(self) -> List[SanitizerViolation]:  # type: ignore[override]
        return (
            self.trace.violations
            + self.clocks.violations
            + self.enumeration.violations
        )

    @violations.setter
    def violations(self, value) -> None:
        # _Checker.__init__ assigns []; sub-checkers own the real lists.
        pass

    def counters(self) -> Dict[str, int]:
        return {
            "trace_ops": self.trace.ops_observed,
            "events": self.clocks.events_observed,
            "intervals": self.enumeration.intervals_observed,
            "states": self.enumeration.states_observed,
        }
