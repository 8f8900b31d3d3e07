"""Packed lexical enumeration — flat-table kernels for the hot path.

Same algorithm and *identical visit sequence* as
:class:`~repro.enumeration.lexical.LexicalEnumerator` (the tests assert
sequence equality on random posets), an order of magnitude faster.  Two
observations about vector clocks turn the reference algorithm's generic
closure fixpoint into straight-line integer work over the poset's packed
tables (:meth:`repro.poset.poset.Poset.packed_tables`, or the live tables
of :meth:`repro.poset.builder.BuilderView.packed_tables` online):

**One-round closure.**  Clock tables are transitively closed: if the row
of event ``b`` forces event ``a = (i, m)`` into a cut, then ``vc(a) ≤
vc(b)`` componentwise, so ``a``'s own requirements are already covered by
``b``'s row.  The least consistent cut above a frontier is therefore a
*single* componentwise-max pass over the frontier events' rows — no
worklist, no fixpoint iteration.

**Run batching.**  In lexical order the last coordinate is least
significant, and clock rows are monotone along a chain, so for a fixed
prefix the set of valid last-coordinate values is a contiguous run whose
end is ``min_j bisect_right(column_j, prefix_j)`` over the sorted
per-thread requirement columns (``cols``).  The enumerator visits
whole runs at C speed and only computes successors at backtracking
positions ``k ≤ n-2``.  With no visitor the run contributes to the state
count in O(1), which is what the counting benchmarks measure.

Two successor kernels, each property-tested against the reference; every
call picks one by poset size (``num_events ≤ BITMASK_MAX_EVENTS``),
checked per call because an online poset keeps growing:

* ``"bitmask"`` — closure as an OR of per-event downset bitmasks and
  per-thread popcounts; the faster kernel while every event fits in
  the bit budget.
* ``"array"`` — the one-round closure over the row-major clock table;
  beyond the budget every downset mask is a multi-kiloword big int and
  this kernel is the faster one.

The enumerator only reads table entries at or below the interval's upper
bound, all appended before the caller took that bound, so it runs safely
beside concurrent appends (Theorem 3's non-interference argument).
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from typing import Optional

from repro.enumeration.base import EnumerationResult, Enumerator
from repro.poset.poset import Poset
from repro.types import Cut, CutVisitor

__all__ = ["PackedLexicalEnumerator"]


class PackedLexicalEnumerator(Enumerator):
    """Lexical-order enumeration over the packed clock tables."""

    name = "lexical-packed"

    #: Largest poset (in events = mask bits) the bitmask kernel runs on;
    #: beyond it every downset mask is a multi-kiloword big int and the
    #: array kernel is faster.
    BITMASK_MAX_EVENTS = 4096

    def __init__(self, poset: Poset, memory_budget: Optional[int] = None):
        super().__init__(poset, memory_budget)
        self.tables = poset.packed_tables()

    @property
    def kernel(self) -> str:
        """The successor kernel a call made now runs: ``"bitmask"`` while
        every event fits the mask budget, else ``"array"``."""
        if self.tables.num_events <= self.BITMASK_MAX_EVENTS:
            return "bitmask"
        return "array"

    def enumerate_interval(
        self, lo: Cut, hi: Cut, visit: Optional[CutVisitor] = None
    ) -> EnumerationResult:
        self._check_bounds(lo, hi)
        tables = self.tables
        n = tables.num_threads
        rows = tables.rows
        work = 0

        # ---- initial state: least consistent cut ≥ lo (one-round) ------ #
        cut = array("i", lo)
        for i in range(n):
            ci = cut[i]
            if ci:
                row = rows[i]
                rb = (ci - 1) * n
                work += n
                for j in range(n):
                    need = row[rb + j]
                    if need > cut[j]:
                        cut[j] = need
        for j in range(n):
            if cut[j] > hi[j]:
                return EnumerationResult(states=0, work=work, peak_live=0)

        use_mask = self.kernel == "bitmask"
        if use_mask:
            downs, tmask = tables.masks()
            # OR of the lower bound's suffix downsets, per start position.
            lo_suffix = [0] * (n + 1)
            for i in range(n - 1, -1, -1):
                lo_suffix[i] = lo_suffix[i + 1] | (
                    downs[i][lo[i] - 1] if lo[i] else 0
                )
        lo_arr = array("i", lo)
        scratch = array("i", cut)
        t = n - 1
        # one read: a concurrent append may replace the array, never resize it
        col_t = tables.cols[t]
        stride = len(col_t) // n
        states = 0

        while True:
            # ---- extend the run on the last thread (sorted columns) ---- #
            c0 = cut[t]
            cmax = hi[t]
            for j in range(t):
                if cmax <= c0:
                    break
                off = j * stride
                p = bisect_right(col_t, cut[j], off + c0, off + cmax) - off
                if p < cmax:
                    cmax = p
            work += n
            run = cmax - c0 + 1
            states += run
            if visit is None:
                work += 1  # O(1) per run in counting mode
            else:
                work += run
                pre = tuple(cut[:t])
                for c in range(c0, cmax + 1):
                    visit(pre + (c,))
            cut[t] = cmax

            # ---- lexical successor at a position k ≤ n-2 --------------- #
            found = False
            for k in range(n - 2, -1, -1):
                work += 1
                nxt = cut[k] + 1
                if nxt > hi[k]:
                    continue
                if use_mask:
                    # closure = OR of the candidate frontier's downsets;
                    # per-thread counts are popcounts of the mask.
                    mask = downs[k][nxt - 1] | lo_suffix[k + 1]
                    for i in range(k):
                        ci = cut[i]
                        if ci:
                            mask |= downs[i][ci - 1]
                    work += n
                    feasible = True
                    for j in range(k):
                        if (mask & tmask[j]).bit_count() != cut[j]:
                            feasible = False
                            break
                    if not feasible:
                        continue
                    m = scratch
                    in_bounds = True
                    for j in range(k, n):
                        c = (mask & tmask[j]).bit_count()
                        if c > hi[j]:
                            in_bounds = False
                            break
                        m[j] = c
                    if not in_bounds:
                        continue
                    m[:k] = cut[:k]
                else:
                    # one-round closure over the flat clock table
                    m = scratch
                    m[:k] = cut[:k]
                    m[k] = nxt
                    m[k + 1 :] = lo_arr[k + 1 :]
                    feasible = True
                    for i in range(n):
                        ci = m[i]
                        if ci:
                            row = rows[i]
                            rb = (ci - 1) * n
                            work += n
                            for j in range(n):
                                need = row[rb + j]
                                if need > m[j]:
                                    if j < k:
                                        feasible = False
                                        break
                                    m[j] = need
                            if not feasible:
                                break
                    if not feasible:
                        continue
                    in_bounds = True
                    for j in range(k, n):
                        if m[j] > hi[j]:
                            in_bounds = False
                            break
                    if not in_bounds:
                        continue
                cut, scratch = m, cut
                found = True
                break
            if not found:
                break
        return EnumerationResult(states=states, work=work, peak_live=1)
