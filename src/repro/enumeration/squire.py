"""Squire-style recursive ideal enumeration (paper related work [29]).

Squire's dissertation algorithm enumerates the ideals of a poset by
divide and conquer: pick a maximal element ``e`` of the remaining order and
split the ideal family into the ideals *without* ``e`` and the ideals
*containing* ``e`` (which must contain ``e``'s down-set).  On the
chain-structured posets of concurrent executions both halves are again
boxes ``[lo, hi]`` of frontier vectors, so the recursion needs only two
cut vectors per frame:

* without ``e = (t, hi[t])``:  ``[lo, hi with hi[t]-1]``;
* with ``e``:                  ``[lo ∨ vc(e), hi]`` (skip if it escapes
  the box).

Each consistent cut is reached by exactly one root-to-leaf path (the same
disjointness argument as the counting DP in :mod:`repro.poset.ideals`),
giving the exactly-once property; amortized work per state is
``O(n + log|E|)``-flavoured, matching the related work's claim of beating
the per-state ``O(n²)`` of the lexical algorithm on skewed posets.  The
price is a recursion stack of ``O(|E|)`` frames — more state than the
lexical algorithm's ``O(n)``, still far below BFS's exponential levels.

This algorithm is *not* used in the paper's measured comparison; it is
included as the related-work baseline and as a third independent
implementation for cross-validation.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.enumeration.base import EnumerationResult, Enumerator
from repro.poset.lattice import minimal_consistent_extension
from repro.types import Cut, CutVisitor
from repro.util.cuts import cut_join, cut_leq

__all__ = ["SquireEnumerator"]


class SquireEnumerator(Enumerator):
    """Divide-and-conquer enumeration over lattice boxes."""

    name = "squire"

    def walk(
        self, lo: Cut, hi: Cut, visit: Optional[CutVisitor] = None
    ) -> EnumerationResult:
        poset = self.poset
        n = poset.num_threads
        start = minimal_consistent_extension(poset, lo, fixed_prefix=0)
        if start is None or not cut_leq(start, hi):
            return EnumerationResult(0, 0, 0)

        states = 0
        work = 0
        peak_depth = 1
        # Explicit stack of (lo, hi) boxes; lo is always a consistent cut.
        stack: List[Tuple[Cut, Cut]] = [(start, hi)]
        while stack:
            if len(stack) > peak_depth:
                peak_depth = len(stack)
            box_lo, box_hi = stack.pop()
            work += n
            if box_lo == box_hi:
                states += 1
                if visit is not None:
                    visit(box_lo)
                continue
            # Pivot: the largest-slack thread's maximal in-range event.
            pivot = 0
            slack = -1
            for t in range(n):
                s = box_hi[t] - box_lo[t]
                if s > slack:
                    slack = s
                    pivot = t
            e_idx = box_hi[pivot]
            # Branch 2 pushed first so branch 1 (without e) is explored
            # first — yields an order that starts from the box's bottom.
            forced = cut_join(box_lo, poset.vc(pivot, e_idx))
            work += n
            if cut_leq(forced, box_hi):
                stack.append((forced, box_hi))
            without_hi = (
                box_hi[:pivot] + (e_idx - 1,) + box_hi[pivot + 1 :]
            )
            if cut_leq(box_lo, without_hi):
                stack.append((box_lo, without_hi))
        return EnumerationResult(states, work, peak_depth)
