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

**Run batching.**  A thread the interval pins (``lo[j] = hi[j]``, as
``e``'s own thread is in every ``I(e)``) never moves, so it never
changes lexical order: the walk moves only the threads the interval
frees (``lo[j] < hi[j]``), and the last of them, ``f``, is the least
significant coordinate that moves (``f = n-1`` when none is free).
Clock rows are monotone along a chain, so for fixed values of the other
threads the valid values of ``f`` form a contiguous run whose end is
``min_j bisect_right(column_j, cut[j])`` over the sorted per-thread
requirement columns of ``f`` (``cols``).  The enumerator finds whole
runs at C speed and only computes successors at the free positions
before ``f``.  With no visitor the run contributes to the state count in
O(1), which is what the counting benchmarks measure.  In visit mode a
:class:`~repro.types.RunVisitor` gets one call per run, with the live
``cut``, the run thread ``f`` and the run's range ``c0..c1``; a plain
visitor gets one call per state, with the state's tuple.  A run visitor
that returns True is done: the rest of its interval runs in counting
mode, and ``work`` then counts 1 per run (it counts 1 per state while a
visitor takes them).

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

**Prefix state and run bound.**  Let ``free`` be the free threads
before ``f``.  A successor at ``k = free[q]`` leaves ``cut[0..k-1]``
untouched, so neither kernel recomputes what depends on that prefix
alone.  The bitmask kernel keeps ``pre[q]``, ``lo``'s downset OR the
downsets of the cut's events on ``free[0..q-1]``, and the candidate
closure at ``k`` is ``pre[q] | downs[k][nxt-1]``: ``lo``'s downset holds
every pinned thread's events and every later thread's lower bound.  It
keeps the prefix pinned iff its events on threads ``< k`` are the cut's
own there (one AND and compare), and it stays in the interval iff it is
a subset of the events ``≤ hi`` taken coordinate by coordinate (a split
sub-interval's ``hi`` need not be a consistent cut, so a closure can
escape it).  Every visited cut is consistent and ``≥ lo``, so an accepted
successor sets thread ``k`` to ``nxt`` exactly; the later free
coordinates are the closure's popcounts, and the closure itself is the
prefix state of every later free position.  The state is built on a
call's first probe that stays within ``hi``: many short intervals never
make one.  The array kernel's closure applies the probed row and the
free prefix rows only: a pinned thread's row, or one of ``lo``'s suffix,
is ``≤ lo`` and raises nothing.  It reads a copy of ``lo`` and writes
a scratch cut, both made on the call's first probe that keeps the
prefix, so a call that never gets that far makes neither.  Both kernels
cache the run bound: ``lim[0]`` is how far ``f`` may run under the
pinned threads, folded once per call, and ``lim[q + 1]`` how far under
them and ``free[0..q]``; after a successor at ``free[q]`` only
``lim[q+1..]`` are re-bisected.  ``work`` counts these inner steps:
the pinned columns folded, probes, rows applied, prefix positions built
or rebuilt, and re-bisected columns.

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

    def run(cut, j, c0, c1):
        head = tuple(cut[:j])
        tail = tuple(cut[j + 1 :])
        for c in range(c0, c1 + 1):
            visit(head + (c,) + tail)

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
                return EnumerationResult(0, 0, 0)
        return self.walk(tuple(cut), hi, visit)

    def walk(
        self, lo: Cut, hi: Cut, visit: Optional[CutVisitor] = None
    ) -> EnumerationResult:
        tables = self.tables
        n = tables.num_threads
        rows = tables.rows
        cut = array("i", lo)  # lo is consistent: the walk's first state
        if visit is None:
            visit_run = None
        elif isinstance(visit, RunVisitor):
            visit_run = visit.run
        else:
            visit_run = _per_state(visit)

        use_mask = self.kernel == "bitmask"
        # each kernel's probe state, built on its first probe (see above)
        pre = scratch = None
        # the threads the interval frees; runs go on the last of them, f,
        # and successors are probed at the others (pinned threads never move)
        f = n - 1
        while f > 0 and lo[f] == hi[f]:
            f -= 1
        if lo[f] == hi[f]:
            f = n - 1
        # one read: a concurrent append may replace the array, never resize it
        col_f = tables.cols[f]
        stride = len(col_f) // n
        # lim[0]: how far thread f may run under the pinned threads, folded
        # once; lim[q + 1]: under them and free[0..q], one bisect per column
        # below lim[q]; a successor at free[q] keeps free[0..q-1], so
        # lim[0..q] stay exact and the next run re-bisects from column q
        cmax = hi[f]
        c0 = lo[f]
        free = []
        for j in range(n):
            if lo[j] < hi[j]:
                if j < f:
                    free.append(j)
            elif cmax > c0:
                off = j * stride
                p = bisect_right(col_f, lo[j], off + c0, off + cmax) - off
                if p < cmax:
                    cmax = p
        m = len(free)
        work = n - 1 - m
        lim = [cmax] * (m + 1)
        q0 = 0
        states = 0

        while True:
            # ---- extend the run on thread f (sorted columns) ----------- #
            c0 = cut[f]
            cmax = lim[q0]
            for q in range(q0, m):
                if cmax > c0:
                    j = free[q]
                    off = j * stride
                    p = bisect_right(col_f, cut[j], off + c0, off + cmax) - off
                    if p < cmax:
                        cmax = p
                lim[q + 1] = cmax
            work += m - q0
            run = cmax - c0 + 1
            states += run
            if visit_run is None:
                work += 1  # O(1) per run in counting mode
            else:
                work += run
                if visit_run(cut, f, c0, cmax):
                    visit_run = None  # the visitor is done: count the rest
            cut[f] = cmax

            # ---- lexical successor at a free position before f --------- #
            for q0 in range(m - 1, -1, -1):
                k = free[q0]
                work += 1
                nxt = cut[k] + 1
                if nxt > hi[k]:
                    continue
                if use_mask:
                    if pre is None:
                        downs, tmask = tables.masks()
                        # cap: the events ≤ hi, coordinate by coordinate;
                        # acc: lo's downset
                        cap = acc = 0
                        for j in range(n):
                            if hi[j]:
                                cap |= downs[j][hi[j] - 1] & tmask[j]
                            if lo[j]:
                                acc |= downs[j][lo[j] - 1]
                        # below[j]: the events of threads < j
                        below = [0] * (f + 1)
                        for j in range(1, f + 1):
                            below[j] = below[j - 1] | tmask[j - 1]
                        # pre[q]: lo's downset OR the downsets of the cut's
                        # events on free[0..q-1]; pinned[q]: pre[q]'s events
                        # on threads < free[q], i.e. the cut's own there
                        pre = [0] * m
                        pinned = [0] * m
                        for q in range(q0 + 1):
                            j = free[q]
                            pre[q] = acc
                            pinned[q] = acc & below[j]
                            if cut[j]:
                                acc |= downs[j][cut[j] - 1]
                        work += n + q0
                    mask = pre[q0] | downs[k][nxt - 1]
                    # the closure must keep the prefix pinned and stay ≤ hi
                    if mask & below[k] != pinned[q0] or mask | cap != cap:
                        continue
                    # accepted: lo ≤ cut forces thread k no further than
                    # nxt; the later free coordinates are the closure's
                    # popcounts, and the closure is the prefix state of
                    # every later free position
                    cut[k] = nxt
                    work += m - q0
                    for q in range(q0 + 1, m):
                        j = free[q]
                        pre[q] = mask
                        pinned[q] = mask & below[j]
                        cut[j] = (mask & tmask[j]).bit_count()
                    cut[f] = (mask & tmask[f]).bit_count()
                else:
                    # one-round closure over the flat clock table: the
                    # probed row must keep the prefix; it and the free
                    # prefix rows raise threads > k (a pinned or suffix
                    # row is ≤ lo and raises nothing)
                    row = rows[k]
                    rb = (nxt - 1) * n
                    work += n
                    feasible = True
                    for j in range(k):
                        if row[rb + j] > cut[j]:
                            feasible = False
                            break
                    if not feasible:
                        continue
                    if scratch is None:
                        lo_arr = array("i", lo)
                        scratch = array("i", cut)
                    c = scratch
                    c[:k] = cut[:k]
                    c[k] = nxt
                    c[k + 1 :] = lo_arr[k + 1 :]
                    for j in range(k + 1, n):
                        need = row[rb + j]
                        if need > c[j]:
                            c[j] = need
                    for q in range(q0):
                        i = free[q]
                        ci = c[i]
                        if ci:
                            row = rows[i]
                            rb = (ci - 1) * n
                            work += n
                            for j in range(k + 1, n):
                                need = row[rb + j]
                                if need > c[j]:
                                    c[j] = need
                    in_bounds = True
                    for j in range(k + 1, n):
                        if c[j] > hi[j]:
                            in_bounds = False
                            break
                    if not in_bounds:
                        continue
                    cut, scratch = c, cut
                break
            else:
                return EnumerationResult(states, work, 1)
