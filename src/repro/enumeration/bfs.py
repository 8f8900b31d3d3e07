"""Cooper–Marzullo breadth-first enumeration, exactly-once variant.

The original BFS [6] proceeds level by level over the lattice of consistent
cuts (level = number of executed events).  It stores whole levels of
intermediate global states — the memory that "might grow exponentially in
the number of threads" (paper §5.1) and the reason RV runtime o.o.m.s on
large posets.  As in the paper's evaluation, we use the *enhanced* variant
(deduplicated within each level) so every state is enumerated exactly once.

``peak_live`` reports the maximum number of cuts stored at any moment
(current level + next level under construction); a ``memory_budget`` turns
the blow-up into the paper's observable o.o.m. failures.
"""

from __future__ import annotations

from typing import List, Optional, Set

from repro.enumeration.base import EnumerationResult, Enumerator
from repro.errors import OutOfMemoryError
from repro.poset.lattice import minimal_consistent_extension
from repro.types import Cut, CutVisitor
from repro.util.cuts import cut_leq

__all__ = ["BFSEnumerator"]


class BFSEnumerator(Enumerator):
    """Level-by-level BFS over the lattice of consistent cuts."""

    name = "bfs"

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
        peak_live = 1
        budget = self.memory_budget
        level: List[Cut] = [start]
        enabled = poset.enabled
        while level:
            next_level: Set[Cut] = set()
            for cut in level:
                states += 1
                work += n  # dequeue + per-state bookkeeping
                if visit is not None:
                    visit(cut)
                for tid in range(n):
                    work += n  # enabled test: one clock comparison row
                    if cut[tid] + 1 <= hi[tid] and enabled(cut, tid):
                        succ = cut[:tid] + (cut[tid] + 1,) + cut[tid + 1 :]
                        # Cooper–Marzullo generates a state once per enabled
                        # predecessor; construction + hashing is paid per
                        # generation, deduplication discards the repeats.
                        work += 2 * n
                        next_level.add(succ)
                live = len(level) + len(next_level)
                if live > peak_live:
                    peak_live = live
                if budget is not None and live > budget:
                    raise OutOfMemoryError(live, budget)
            level = list(next_level)
        return EnumerationResult(states, work, peak_live)

    def level_widths(self, lo: Cut, hi: Cut) -> List[int]:
        """Number of consistent cuts per lattice level inside ``[lo, hi]``.

        Diagnostic used by the memory experiments (Figure 12) and the GC
        cost model: the widest level dominates BFS memory.
        """
        self._check_bounds(lo, hi)
        poset = self.poset
        n = poset.num_threads
        start = minimal_consistent_extension(poset, lo, fixed_prefix=0)
        if start is None or not cut_leq(start, hi):
            return []
        widths: List[int] = []
        level: Set[Cut] = {start}
        while level:
            widths.append(len(level))
            nxt: Set[Cut] = set()
            for cut in level:
                for tid in range(n):
                    if cut[tid] + 1 <= hi[tid] and poset.enabled(cut, tid):
                        nxt.add(cut[:tid] + (cut[tid] + 1,) + cut[tid + 1 :])
            level = nxt
        return widths
