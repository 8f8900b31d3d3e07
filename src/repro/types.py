"""Shared type aliases and protocols used across the :mod:`repro` package.

The library manipulates three pervasive value shapes:

* a **cut** (equivalently *frontier* or *global state vector*): a tuple of
  per-thread event counts, ``cut[i]`` being the number of events of thread
  ``i`` included in the global state (``0`` means none);
* a **clock**: a vector clock, also a tuple of per-thread counts, where
  ``clock[j]`` is the number of events of thread ``j`` known to have
  happened before (or equal, for the owner component);
* an **event id**: a pair ``(tid, idx)`` with 1-based ``idx`` identifying
  the ``idx``-th event executed by thread ``tid``.

Cuts and clocks intentionally share the representation: the least
consistent global state containing an event *is* that event's vector clock
(paper §2.2), and the library exploits this identification throughout.

A visitor takes the enumerated states one at a time (:data:`CutVisitor`)
or a *run* at a time (:class:`RunVisitor`): the states that share every
coordinate but one, the run thread's, which takes a contiguous range.
"""

from __future__ import annotations

from typing import Callable, Optional, Protocol, Sequence, Tuple, runtime_checkable

__all__ = [
    "Cut",
    "Clock",
    "EventId",
    "CutVisitor",
    "RunVisitor",
    "SupportsEnumerate",
]

#: A global state as a frontier vector of per-thread event counts.
Cut = Tuple[int, ...]

#: A vector clock; identical representation to :data:`Cut`.
Clock = Tuple[int, ...]

#: Identifier of an event: ``(thread index, 1-based index within thread)``.
EventId = Tuple[int, int]

#: Callback invoked once per enumerated global state.
CutVisitor = Callable[[Cut], None]


class RunVisitor:
    """A visitor that takes the enumerated states a run at a time.

    ``run(cut, j, c0, c1)`` stands for the states equal to ``cut`` except
    ``cut[j] = c``, for ``c0 ≤ c ≤ c1`` in that order, and returns True
    once the walk need send it no further state.  Every thread after the
    run thread ``j`` is pinned: no state of the walk moves it.  ``cut``
    may be the kernel's live array: read every coordinate but ``cut[j]``,
    and never keep or mutate it.  The packed lexical kernel makes one call
    per run, on its interval's last free thread, and after a True return
    counts the rest of its interval without calls; every other caller
    visits one state at a time, and calling the visitor with one cut means
    ``run(cut, n - 1, cut[-1], cut[-1])``.
    """

    __slots__ = ("run",)

    def __init__(
        self, run: Callable[[Sequence[int], int, int, int], Optional[bool]]
    ):
        self.run = run

    def __call__(self, cut: Cut) -> None:
        self.run(cut, len(cut) - 1, cut[-1], cut[-1])


@runtime_checkable
class SupportsEnumerate(Protocol):
    """Protocol satisfied by every enumeration algorithm in the library.

    An enumerator walks all consistent global states of a poset and invokes
    a visitor callback exactly once per state (all algorithms shipped here
    provide the *exactly once* guarantee; the paper notes the original
    Cooper–Marzullo BFS may repeat states, and we implement the enhanced,
    deduplicated variant just as the paper's evaluation does).
    """

    def enumerate(self, visit: CutVisitor) -> int:
        """Enumerate all states, calling ``visit`` per state.

        Returns the number of states enumerated.
        """
        ...
