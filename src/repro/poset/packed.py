"""Packed, append-only clock tables for the hot enumeration kernels.

The enumeration inner loops spend their time asking two questions about
vector clocks:

1. *closure*: given a frontier vector, what is the least consistent cut
   above it?  (a componentwise max over the frontier events' clock rows);
2. *run extension*: for a fixed prefix, how far can the least-significant
   coordinate advance before some clock component exceeds the prefix?

:class:`PackedPosetTables` serves both from one layout, shared by the
frozen :class:`~repro.poset.poset.Poset` (built in bulk, once) and the
live :class:`~repro.poset.builder.PosetBuilder` (fed one event at a time).
Insertion order is a linear extension of happened-before, so a new event
only ever adds a row at the end of its thread and a value at the end of
each of its thread's sorted columns: the tables are append-only.

``rows[t]``
    Thread ``t``'s clocks as one ``array('i')``, row-major: the clock of
    event ``(t, k)`` (1-based ``k``) is ``rows[t][(k - 1) * n : k * n]``.

``cols[t]``
    The same clocks column-major in one ``array('i')`` of ``n * stride``
    slots, ``stride = len(cols[t]) // n``:
    ``cols[t][j * stride + (k - 1)] == vc(t, k)[j]``.  Clocks are monotone
    along a chain, so every column is sorted and "the largest ``k`` whose
    requirement on thread ``j`` is ≤ ``c``" is a ``bisect_right``.  An
    append writes into the free slot of each column; one that finds the
    columns full copies them into a new array of twice the stride and
    then replaces ``cols[t]``.  An array never changes length, so a kernel
    that reads ``cols[t]`` once derives the matching stride from it and
    never pairs an old stride with a new array.

``order``
    The thread of each appended event, in append order.  Event number
    ``b`` in this order owns bit ``b`` of the downset masks.

Downset masks (lazy, :meth:`PackedPosetTables.masks`)
    Per event, its causal past (inclusive) as an int bitmask.  A union of
    downsets is a downset, so the closure of a frontier is the OR of its
    events' masks and the per-thread frontier counts are popcounts.  The
    mask state is allocated on the first call and extended, under a lock,
    by each later call to the events appended since.  A mask is its
    thread predecessor's mask, the masks of the events its clock names on
    the other threads, and its own bit; those events come earlier in
    ``order``, so one pass in bit order computes them all.
"""

from __future__ import annotations

import threading
from array import array
from itertools import chain
from typing import List, Optional, Sequence, Tuple

from repro.types import Clock, EventId

__all__ = ["PackedPosetTables", "build_packed_tables"]

#: Column capacity given to a thread whose columns are full and small.
_MIN_STRIDE = 8


class PackedPosetTables:
    """Append-only clock tables of one poset (see the module docstring)."""

    __slots__ = (
        "num_threads",
        "rows",
        "cols",
        "order",
        "_masks",
        "_mask_lock",
    )

    def __init__(
        self,
        num_threads: int,
        rows: List[array],
        cols: List[array],
        order: array,
    ):
        self.num_threads = num_threads
        self.rows = rows
        self.cols = cols
        self.order = order
        self._masks: Optional[Tuple[List[List[int]], List[int]]] = None
        self._mask_lock = threading.Lock()

    @classmethod
    def empty(cls, num_threads: int) -> "PackedPosetTables":
        """Tables of no events, to be grown by :meth:`append`."""
        return cls(
            num_threads,
            rows=[array("i") for _ in range(num_threads)],
            cols=[array("i") for _ in range(num_threads)],
            order=array("i"),
        )

    @property
    def num_events(self) -> int:
        """Events appended so far."""
        return len(self.order)

    @property
    def lengths(self) -> Tuple[int, ...]:
        """Events per thread so far."""
        n = self.num_threads
        return tuple(len(row) // n for row in self.rows)

    # ------------------------------------------------------------------ #
    # access (diagnostics/tests; kernels index the arrays directly)

    def row(self, tid: int, idx: int) -> Clock:
        """Clock row of event ``(tid, idx)`` (1-based ``idx``)."""
        n = self.num_threads
        return tuple(self.rows[tid][(idx - 1) * n : idx * n])

    def column(self, tid: int, j: int) -> Tuple[int, ...]:
        """Thread ``tid``'s requirements on thread ``j``, one per event."""
        n = self.num_threads
        data = self.cols[tid]
        stride = len(data) // n
        return tuple(data[j * stride : j * stride + len(self.rows[tid]) // n])

    # ------------------------------------------------------------------ #
    # growth

    def append(self, tid: int, vc: Clock) -> None:
        """Add event ``(tid, lengths[tid] + 1)`` with clock ``vc``.

        The caller serializes appends and passes only clocks admitted by
        :mod:`repro.poset.validate`, in admission order (the builder does
        both under its lock).  ``order`` grows last, so every event it
        counts is complete.
        """
        n = self.num_threads
        row = self.rows[tid]
        k = len(row) // n
        data = self.cols[tid]
        stride = len(data) // n
        grown = k == stride
        if grown:
            wide = max(2 * stride, _MIN_STRIDE)
            copy = array("i", [0]) * (n * wide)
            for j in range(n):
                copy[j * wide : j * wide + k] = data[j * stride : j * stride + k]
            stride, data = wide, copy
        for j in range(n):
            data[j * stride + k] = vc[j]
        if grown:
            self.cols[tid] = data
        row.extend(vc)
        self.order.append(tid)

    # ------------------------------------------------------------------ #
    # bitmask tables (lazy: only the bitmask kernel pays for them)

    def masks(self) -> Tuple[List[List[int]], List[int]]:
        """``(downsets, thread_masks)`` covering every event appended so far.

        ``downsets[t][k - 1]`` is the inclusive causal past of event
        ``(t, k)``; ``thread_masks[t]`` selects all of thread ``t``'s
        events.  Later calls extend both in place, so a caller may keep
        them: the downsets it reads existed when it called, and the bits
        a thread mask gains belong to later events, which none of those
        downsets contains.
        """
        n = self.num_threads
        rows = self.rows
        order = self.order
        with self._mask_lock:
            state = self._masks
            if state is None:
                state = self._masks = ([[] for _ in range(n)], [0] * n)
            downs, tmasks = state
            # bits already masked .. events appended so far
            for b in range(sum(map(len, downs)), len(order)):
                t = order[b]
                own = downs[t]
                k = len(own)
                bit = 1 << b
                m = own[-1] | bit if k else bit
                row = rows[t]
                base = k * n
                for j in range(n):
                    c = row[base + j]
                    if c and j != t:
                        m |= downs[j][c - 1]
                own.append(m)
                tmasks[t] |= bit
        return state


def build_packed_tables(
    num_threads: int,
    vc_table: Sequence[Sequence[Clock]],
    insertion: Sequence[EventId],
) -> PackedPosetTables:
    """Build the tables of a whole poset in one pass.

    ``vc_table[t][k-1]`` is the clock of event ``(t, k)`` — the shape of
    :meth:`repro.poset.poset.Poset.vc_table`.  ``insertion`` is a linear
    extension of the poset's events; it becomes ``order``.  Columns are
    built full (stride = chain length).
    """
    n = num_threads
    rows: List[array] = []
    cols: List[array] = []
    for clocks in vc_table:
        row = array("i", chain.from_iterable(clocks))
        col = array("i")
        for j in range(n):
            col.extend(row[j::n])  # component j of every clock, in order
        rows.append(row)
        cols.append(col)
    return PackedPosetTables(
        num_threads=n,
        rows=rows,
        cols=cols,
        order=array("i", [t for t, _ in insertion]),
    )
