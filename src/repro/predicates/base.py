"""Predicate protocol.

A *predicate* decides whether the user-specified condition holds in a
global state (paper §1).  Offline detectors call
:meth:`StatePredicate.check` on every enumerated state with the state's
frontier events, so the common case (conditions over maximal events, like
data races) is O(n) per state without re-deriving the frontier.

Online (paper §4, Algorithm 4) the unit of predicate work is one interval
``I(e)``: :meth:`StatePredicate.interval_visitor` builds, once per inserted
event, the visitor the bounded enumeration calls on every state of that
interval.  Its default resolves each state's frontier and calls
:meth:`~StatePredicate.check`, so a predicate that implements only
``check`` sees every state; a predicate with per-interval structure (the
data-race predicate) overrides it and reads each state's cut directly.
Such a visitor may take whole runs of states
(:class:`~repro.types.RunVisitor`): ``run(cut, j, c0, c1)`` varies only
the run thread ``j``, and its ``cut`` is then the kernel's live array, so
it reads every coordinate but ``cut[j]`` (the range ``c0..c1`` stands
for that one), never keeps or mutates it, and returns True once it needs
no further state.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, List, Optional, Sequence

from repro.poset.event import Event
from repro.types import Cut, CutVisitor

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.intervals import Interval
    from repro.poset.builder import BuilderView

__all__ = ["StatePredicate"]


class StatePredicate(ABC):
    """Interface for conditions checked on global states."""

    #: Human-readable predicate name (reports and tables).
    name: str = "abstract"

    @abstractmethod
    def check(
        self,
        cut: Cut,
        frontier: Sequence[Optional[Event]],
        new_event: Optional[Event] = None,
    ) -> bool:
        """Return True when the condition holds in this global state.

        ``frontier[i]`` is the maximal event of thread ``i`` in the state
        (``None`` when the thread has executed nothing).  ``new_event`` is
        the event whose interval is being enumerated in the online setting
        (the paper's ``e`` in Algorithms 5–6) or ``None`` offline.

        Implementations may record richer findings internally; the boolean
        lets generic drivers count matching states.
        """

    def interval_visitor(
        self, event: Event, interval: "Interval", view: "BuilderView"
    ) -> CutVisitor:
        """The visitor evaluating this predicate on every state of the
        online interval ``interval`` = ``I(event)``.

        Called once per inserted event; ``view`` is the live poset view,
        which resolves every event of a state in the interval (Theorem 3).
        The default calls :meth:`check` on each state with its frontier
        events and ``new_event=event``.  An override may return a
        :class:`~repro.types.RunVisitor` (see the module docstring).
        """
        check = self.check
        frontier_events = view.frontier_events

        def visit(cut: Cut) -> None:
            check(cut, frontier_events(cut), new_event=event)

        return visit

    def matches(self) -> List[object]:
        """Findings accumulated across :meth:`check` calls (default: none)."""
        return []
