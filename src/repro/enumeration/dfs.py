"""Depth-first reference enumeration.

A straightforward DFS over the lattice with a visited set.  It shares no
traversal logic with the BFS or lexical algorithms, which makes it a useful
third opinion in the cross-validation tests; it is *not* a paper baseline
and is never used in the performance experiments (its visited set stores
every state, the worst possible memory behaviour).
"""

from __future__ import annotations

from typing import List, Optional, Set

from repro.enumeration.base import EnumerationResult, Enumerator
from repro.errors import OutOfMemoryError
from repro.poset.lattice import minimal_consistent_extension
from repro.types import Cut, CutVisitor
from repro.util.cuts import cut_leq

__all__ = ["DFSEnumerator"]


class DFSEnumerator(Enumerator):
    """Iterative DFS with full-state dedup (validation baseline)."""

    name = "dfs"

    def walk(
        self, lo: Cut, hi: Cut, visit: Optional[CutVisitor] = None
    ) -> EnumerationResult:
        poset = self.poset
        n = poset.num_threads
        start = minimal_consistent_extension(poset, lo, fixed_prefix=0)
        if start is None or not cut_leq(start, hi):
            return EnumerationResult(0, 0, 0)
        seen: Set[Cut] = {start}
        stack: List[Cut] = [start]
        states = 0
        work = 0
        budget = self.memory_budget
        while stack:
            cut = stack.pop()
            states += 1
            if visit is not None:
                visit(cut)
            for tid in range(n):
                work += n
                if cut[tid] + 1 <= hi[tid] and poset.enabled(cut, tid):
                    succ = cut[:tid] + (cut[tid] + 1,) + cut[tid + 1 :]
                    if succ not in seen:
                        seen.add(succ)
                        stack.append(succ)
            if budget is not None and len(seen) > budget:
                raise OutOfMemoryError(len(seen), budget)
        return EnumerationResult(states, work, len(seen))
