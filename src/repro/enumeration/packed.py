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
worklist, no fixpoint iteration.  The pass over ``lo`` itself runs on the
public ``enumerate_interval`` only: the trusted :meth:`walk` the drivers
call starts at ``lo``, which every interval they make has consistent.

**Run batching.**  In lexical order the last coordinate is least
significant, and clock rows are monotone along a chain, so for a fixed
prefix the set of valid last-coordinate values is a contiguous run whose
end is ``min_j bisect_right(column_j, prefix_j)`` over the sorted
per-thread requirement columns (``cols``).  The enumerator finds
whole runs at C speed and only computes successors at backtracking
positions ``k ≤ n-2``.  With no visitor the run contributes to the state
count in O(1), which is what the counting benchmarks measure.  In visit
mode a :class:`~repro.types.RunVisitor` gets one call per run, with the
live ``cut`` and the run's range ``c0..c1``; a plain visitor gets one
call per state, with the state's tuple.  A run visitor that returns True
is done: the rest of its interval runs in counting mode, and ``work``
then counts 1 per run (it counts 1 per state while a visitor takes them).

Two successor kernels, each property-tested against the reference; every
call picks one by poset size (``num_events ≤ BITMASK_MAX_EVENTS``),
checked per call because an online poset keeps growing:

* ``"bitmask"`` — closure as an OR of per-event downset bitmasks over a
  prefix state kept between probes (below): a probe is a few big-int
  operations, and per-thread popcounts are taken only for an accepted
  successor.  The faster kernel while every event fits in the bit budget.
* ``"array"`` — the one-round closure over the row-major clock table;
  beyond the budget every downset mask is a multi-kiloword big int and
  this kernel is the faster one.

**Prefix state and run bound.**  A successor at position ``k`` leaves
``cut[0..k-1]`` untouched, so neither kernel recomputes what depends on
that prefix alone.  The bitmask kernel keeps ``pre[k]``, the OR of the
downsets of ``cut[0..k-1]``'s frontier events.  The candidate closure at
``k`` is ``pre[k] | downs[k][nxt-1] | lo_suffix[k+1]``; it keeps the
prefix pinned iff its events on threads ``< k`` are the cut's own there
(one AND and compare), and it stays in the interval iff it is a subset of
the events ``≤ hi`` taken coordinate by coordinate (a split
sub-interval's ``hi`` need not be a consistent cut, so a closure can
escape it).  Every visited cut is consistent and ``≥ lo``, so an accepted
successor sets thread ``k`` to ``nxt`` exactly; the later coordinates are
the closure's popcounts, and the state is rebuilt past ``k`` only.  It is
built on a call's first probe that stays within ``hi``: many short
intervals never make one.  Both kernels cache ``lim[j]``, how far the
last thread may run under ``cut[0..j-1]``, and after a successor at
``k`` re-bisect only ``lim[k+1..n-1]``.  ``work`` counts these inner
steps: probes, prefix positions built or rebuilt, and re-bisected
columns.

The enumerator only reads table entries at or below the interval's upper
bound, all appended before the caller took that bound, so it runs safely
beside concurrent appends (Theorem 3's non-interference argument).  The
prefix state reads the thread masks when it is built, by which time
other threads may have appended events: a thread mask may then hold bits
of later events, but no downset the kernel ORs contains one, so the
subset tests are unaffected.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from typing import Optional

from repro.enumeration.base import EnumerationResult, Enumerator
from repro.poset.poset import Poset
from repro.types import Cut, CutVisitor, RunVisitor

__all__ = ["PackedLexicalEnumerator"]


def _per_state(visit: CutVisitor):
    """A plain visitor as a run callable: one call per state of the run,
    never done."""

    def run(cut, c0, c1):
        prefix = tuple(cut[:-1])
        for c in range(c0, c1 + 1):
            visit(prefix + (c,))

    return run


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

    def _walk_any_lo(
        self, lo: Cut, hi: Cut, visit: Optional[CutVisitor]
    ) -> EnumerationResult:
        """The public entry's start: :meth:`walk` from the least consistent
        cut ≥ ``lo`` (one-round closure), or no state if that escapes
        ``hi``."""
        tables = self.tables
        n = tables.num_threads
        rows = tables.rows
        cut = list(lo)
        for i in range(n):
            ci = cut[i]
            if ci:
                row = rows[i]
                rb = (ci - 1) * n
                for j in range(n):
                    need = row[rb + j]
                    if need > cut[j]:
                        cut[j] = need
        for j in range(n):
            if cut[j] > hi[j]:
                return EnumerationResult(states=0, work=0, peak_live=0)
        return self.walk(tuple(cut), hi, visit)

    def walk(
        self, lo: Cut, hi: Cut, visit: Optional[CutVisitor] = None
    ) -> EnumerationResult:
        tables = self.tables
        n = tables.num_threads
        rows = tables.rows
        work = 0
        cut = array("i", lo)  # lo is consistent: the walk's first state
        if visit is None:
            visit_run = None
        elif isinstance(visit, RunVisitor):
            visit_run = visit.run
        else:
            visit_run = _per_state(visit)

        use_mask = self.kernel == "bitmask"
        pre = None  # the bitmask prefix state, built on the first probe ≤ hi
        lo_arr = array("i", lo)
        scratch = array("i", cut)
        t = n - 1
        # one read: a concurrent append may replace the array, never resize it
        col_t = tables.cols[t]
        stride = len(col_t) // n
        # lim[j]: how far thread t may run under cut[0..j-1], one bisect per
        # column below hi[t]; a successor at k keeps cut[0..k-1], so
        # lim[0..k] stay exact and the next run re-bisects from column k
        lim = [hi[t]] * n
        k = 0
        states = 0

        while True:
            # ---- extend the run on the last thread (sorted columns) ---- #
            c0 = cut[t]
            cmax = lim[k]
            for j in range(k, t):
                if cmax > c0:
                    off = j * stride
                    p = bisect_right(col_t, cut[j], off + c0, off + cmax) - off
                    if p < cmax:
                        cmax = p
                lim[j + 1] = cmax
            work += t - k
            run = cmax - c0 + 1
            states += run
            if visit_run is None:
                work += 1  # O(1) per run in counting mode
            else:
                work += run
                if visit_run(cut, c0, cmax):
                    visit_run = None  # the visitor is done: count the rest
            cut[t] = cmax

            # ---- lexical successor at a position k ≤ n-2 --------------- #
            for k in range(n - 2, -1, -1):
                work += 1
                nxt = cut[k] + 1
                if nxt > hi[k]:
                    continue
                if use_mask:
                    if pre is None:
                        downs, tmask = tables.masks()
                        # lo_suffix[i]: OR of lo's downsets on threads ≥ i
                        lo_suffix = [0] * n
                        acc = 0
                        for i in range(t, 0, -1):
                            if lo[i]:
                                acc |= downs[i][lo[i] - 1]
                            lo_suffix[i] = acc
                        # cap: the events ≤ hi, coordinate by coordinate
                        cap = 0
                        for j in range(n):
                            if hi[j]:
                                cap |= downs[j][hi[j] - 1] & tmask[j]
                        # below[i]: the events of threads < i; pre[i]: the
                        # OR of cut[0..i-1]'s downsets; pinned[i]: pre[i]'s
                        # events on threads < i, i.e. the cut's own there
                        below = [0] * t
                        pre = [0] * t
                        pinned = [0] * t
                        for i in range(1, t):
                            below[i] = below[i - 1] | tmask[i - 1]
                        acc = 0
                        for i in range(k):
                            ci = cut[i]
                            if ci:
                                acc |= downs[i][ci - 1]
                            pre[i + 1] = acc
                            pinned[i + 1] = acc & below[i + 1]
                        work += n + k
                    head = pre[k] | downs[k][nxt - 1]
                    mask = head | lo_suffix[k + 1]
                    # the closure must keep the prefix pinned and stay ≤ hi
                    if mask & below[k] != pinned[k] or mask | cap != cap:
                        continue
                    # accepted: lo ≤ cut forces thread k no further than
                    # nxt; the later coordinates are the closure's
                    # popcounts, and the prefix state is rebuilt past k
                    cut[k] = nxt
                    work += t - k
                    for j in range(k + 1, t):
                        pre[j] = head
                        pinned[j] = head & below[j]
                        c = (mask & tmask[j]).bit_count()
                        cut[j] = c
                        if c:
                            head |= downs[j][c - 1]
                    cut[t] = (mask & tmask[t]).bit_count()
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
                break
            else:
                return EnumerationResult(states=states, work=work, peak_live=1)
