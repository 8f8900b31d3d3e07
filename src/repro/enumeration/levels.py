"""Space-efficient breadth-first (level) traversal — Chauhan & Garg.

:class:`~repro.enumeration.bfs.BFSEnumerator` materialises whole lattice
levels, so its memory is the widest level — exponential in the thread
count on wide posets (the paper's o.o.m. rows).  Chauhan & Garg
(arXiv:1707.07788) observe that breadth-first *order* does not require
breadth-first *storage*: each level can be (re)generated directly in
lexical order, so the traversal keeps the level-by-level visit order
while storing only the cut under construction — ``peak_live`` is O(1)
cuts (O(n) integers) instead of the widest level.

Per level ``ℓ`` the enumerator runs a depth-first scan over coordinates
``0..n-1`` assigning the frontier vector left to right, pruning with

* **prefix consistency** — clock rows are monotone along a chain, so the
  values of coordinate ``d`` compatible with the assigned prefix form a
  contiguous range found by ``bisect`` over the packed requirement
  columns (the same trick as the packed lexical kernel);
* **budget bounds** — the suffix must absorb exactly the remaining
  events: ``rem - v`` must fit between the suffix's minimum
  (``closure(lo)``) and maximum (``hi``) sums;
* **deferred minima** — each assigned event's requirements on later
  threads become running lower bounds, checked against ``hi`` eagerly.

Levels of an interval's consistent cuts are *contiguous*: if a
consistent ``G`` with ``closure(lo) < G`` exists, removing a maximal
event of ``G`` not in ``closure(lo)`` yields a consistent cut one level
down, still inside the interval.  The level loop therefore starts at
``sum(closure(lo))`` and stops at the first empty level, which is exact
— no widest-level bookkeeping and no stored frontier.

The state *set* per level equals BFS's (property-tested); the order
within a level is lexical (BFS's within-level order is unspecified —
it iterates a hash set).  The space saving is paid in work: each level
rescans prefixes, costing roughly one extra O(n) scan per state per
level compared to BFS — the classic space/time trade.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from typing import Optional

from repro.enumeration.base import EnumerationResult, Enumerator
from repro.types import Cut, CutVisitor

__all__ = ["LevelEnumerator"]


class LevelEnumerator(Enumerator):
    """Level-order enumeration in O(n) live space (Chauhan–Garg)."""

    name = "level-space"

    def walk(
        self, lo: Cut, hi: Cut, visit: Optional[CutVisitor] = None
    ) -> EnumerationResult:
        tables = self.poset.packed_tables()
        n = tables.num_threads
        rows = tables.rows
        cols = tables.cols
        work = 0

        # least consistent cut ≥ lo: one-round closure (rows are
        # transitively closed, see repro.enumeration.packed)
        start = array("i", lo)
        for i in range(n):
            ci = start[i]
            if ci:
                row = rows[i]
                rb = (ci - 1) * n
                work += n
                for j in range(n):
                    need = row[rb + j]
                    if need > start[j]:
                        start[j] = need
        for j in range(n):
            if start[j] > hi[j]:
                return EnumerationResult(0, work, 0)

        # static suffix bounds: any in-interval cut has start ≤ cut ≤ hi
        suffix_start = [0] * (n + 1)
        suffix_hi = [0] * (n + 1)
        for d in range(n - 1, -1, -1):
            suffix_start[d] = suffix_start[d + 1] + start[d]
            suffix_hi[d] = suffix_hi[d + 1] + hi[d]

        cur = array("i", start)
        # reqs[d][j] = min value of coordinate j forced by cuts 0..d-1
        reqs = [array("i", [0] * n) for _ in range(n + 1)]
        t = n - 1
        states = 0
        level_states = 0

        def scan(d: int, rem: int) -> None:
            nonlocal level_states, work
            req = reqs[d]
            if d == t:
                v = rem
                work += n
                if v < start[d] or v < req[d] or v > hi[d]:
                    return
                if v:
                    row = rows[d]
                    rb = (v - 1) * n
                    for j in range(d):
                        if row[rb + j] > cur[j]:
                            return
                cur[d] = v
                level_states += 1
                if visit is not None:
                    visit(tuple(cur))
                return
            vlo = start[d] if start[d] > req[d] else req[d]
            floor = rem - suffix_hi[d + 1]
            if floor > vlo:
                vlo = floor
            vmax = hi[d]
            cap = rem - suffix_start[d + 1]
            if cap < vmax:
                vmax = cap
            # prefix consistency caps v to a contiguous range (columns
            # are sorted): largest v whose row fits the assigned prefix
            # one read: a concurrent append may replace the array, never
            # resize it, so the stride derived from it stays its own
            col = cols[d]
            ld = len(col) // n
            for j in range(d):
                if vmax <= vlo - 1:
                    break
                off = j * ld
                p = bisect_right(col, cur[j], off, off + vmax) - off
                if p < vmax:
                    vmax = p
            work += n
            nreq = reqs[d + 1]
            row = rows[d]
            for v in range(vlo, vmax + 1):
                if v:
                    rb = (v - 1) * n
                    work += n
                    overflow = False
                    for j in range(d + 1, n):
                        need = row[rb + j]
                        if need > hi[j]:
                            overflow = True
                            break
                        prev = req[j]
                        nreq[j] = need if need > prev else prev
                    if overflow:
                        # rows are monotone in v: larger v overflows too
                        break
                else:
                    for j in range(d + 1, n):
                        nreq[j] = req[j]
                cur[d] = v
                scan(d + 1, rem - v)

        level = suffix_start[0]
        top = suffix_hi[0]
        while level <= top:
            level_states = 0
            scan(0, level)
            states += level_states
            if level_states == 0:
                break  # levels are contiguous: the rest are empty too
            level += 1
        # Only the cut under construction is ever live — the whole point.
        return EnumerationResult(states, work, 1)
