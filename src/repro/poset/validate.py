"""The clock admission rule: the one definition of a valid clock table.

Theorem 2 and the packed kernel's one-round closure hold only for clocks
that model a partial order (Chauhan–Garg, arXiv:1410.1209).  ``Poset(...)``
(so ``poset_from_dict``, a dist worker's ``--poset`` included, and
``poset_from_trace``) and ``PosetBuilder.append_stamped`` (so
``OnlineParaMount.insert``) admit every event through :func:`violation`,
so they all give the same verdict, and this is the one place a clock is
checked.  The rules are the keys of :data:`ERRORS`, in the order they are
checked.
"""

from __future__ import annotations

from itertools import compress
from operator import gt, ne
from typing import Optional, Sequence, Tuple

from repro.errors import EventOrderError, PosetError
from repro.types import Clock

__all__ = ["ERRORS", "check", "violation"]

#: The error class each rule raises (``EventOrderError`` is a ``PosetError``)
#: for event ``(tid, idx)`` with clock ``vc``.
ERRORS = {
    "clock-shape": PosetError,  # 0 <= tid < n and the clock has width n
    "chain-contiguity": EventOrderError,  # idx is one past tid's admitted events
    "gmin-invariant": PosetError,  # vc[tid] == idx
    "clock-monotone": EventOrderError,  # vc >= the clock of tid's last event
    "hb-insertion": EventOrderError,  # Property 1: each vc[j] names an admitted event
    "clock-closure": PosetError,  # whose clock is <= vc and does not require it back
}

Clocks = Sequence[Sequence[Clock]]


def violation(
    clocks: Clocks, admitted: Sequence[int], tid: int, idx: int, vc: Clock
) -> Optional[Tuple[str, str]]:
    """The first rule event ``(tid, idx)`` with clock ``vc`` breaks, as
    ``(rule, message)``, or ``None``.  ``admitted[j]`` events of thread
    ``j`` are admitted so far; ``clocks[j][k - 1]`` is the clock of ``(j, k)``.
    Only components that differ from ``tid``'s last clock are looked up.
    """
    n = len(admitted)
    if not 0 <= tid < n or len(vc) != n:
        return "clock-shape", f"{_at(tid, idx, vc)}: the poset has {n} threads"
    own = admitted[tid]
    if idx != own + 1:
        return "chain-contiguity", f"{_at(tid, idx, vc)}: thread {tid} has {own} admitted events"
    if vc[tid] != idx:
        return "gmin-invariant", f"{_at(tid, idx, vc)}: component {tid} must equal idx {idx}"
    prev = clocks[tid][own - 1] if own else (0,) * n
    if any(map(gt, prev, vc)):
        j = next(j for j in range(n) if prev[j] > vc[j])
        return "clock-monotone", f"{_at(tid, idx, vc)}: component {j} is below predecessor {prev}"
    for j in compress(range(n), map(ne, vc, prev)):
        if j == tid:
            continue
        c = vc[j]
        if not 0 < c <= admitted[j]:
            return "hb-insertion", (
                f"{_at(tid, idx, vc)}: component {j} = {c} names event ({j}, {c}), "
                f"but thread {j} has {admitted[j]} admitted events"
            )
        named = clocks[j][c - 1]
        if named[tid] >= idx or any(map(gt, named, vc)):
            i = tid if named[tid] >= idx else next(i for i in range(n) if named[i] > vc[i])
            why = "requires it back" if i == tid else f"is above it at component {i}"
            return "clock-closure", (
                f"{_at(tid, idx, vc)}: component {j} names event ({j}, {c}) "
                f"with clock {named}, which {why}"
            )
    return None


def check(clocks: Clocks, admitted: Sequence[int], tid: int, idx: int, vc: Clock) -> None:
    """Raise the broken rule's class from :data:`ERRORS`, its message
    starting ``[rule]``, unless :func:`violation` admits the event."""
    broken = violation(clocks, admitted, tid, idx, vc)
    if broken is not None:
        rule, message = broken
        raise ERRORS[rule](f"[{rule}] {message}")


def _at(tid: int, idx: int, vc: Clock) -> str:
    return f"event ({tid}, {idx}) clock {vc}"
