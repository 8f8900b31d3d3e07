"""Incremental poset construction.

:class:`PosetBuilder` supports the two construction styles the paper uses:

* **offline** (§3): append events with explicit causal dependencies; the
  builder computes Fidge/Mattern clocks, records the insertion order, and
  finally freezes into an immutable :class:`~repro.poset.poset.Poset`;
* **online** (§4, Algorithm 4): the runtime monitor computes clocks itself
  (via Algorithm 3 on thread/lock clocks) and appends pre-stamped events
  with :meth:`append_stamped`, which admits each clock through
  :mod:`repro.poset.validate` — insertion order must be a linear extension
  of happened-before (Property 1), the invariant the online algorithm's
  correctness rests on.  The chains grow only through admitted appends
  under the lock, so :meth:`build` does not check them again.

The builder also exposes :meth:`snapshot_of_maxima` — the paper's
``P.snapshotOfMaximalEventsOfThreads()`` (Algorithm 4 line 4) — returning
the current per-thread maximal cut, which serves as ``Gbnd(e)`` online.
"""

from __future__ import annotations

import threading
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.errors import EventOrderError, PosetError
from repro.poset.event import Access, Event
from repro.poset.packed import PackedPosetTables
from repro.poset.poset import Poset
from repro.poset.validate import check
from repro.types import Clock, Cut, EventId

__all__ = ["PosetBuilder", "BuilderView"]


class PosetBuilder:
    """Builds a poset one event at a time, maintaining vector clocks.

    Thread-safe: online construction may be driven from many simulated or
    real threads, so the mutating entry points take an internal mutex —
    exactly the paper's "atomic block" at Algorithm 4 lines 1–5.
    """

    def __init__(self, num_threads: int):
        if num_threads < 1:
            raise PosetError(f"need at least one thread, got {num_threads}")
        self._n = num_threads
        self._chains: List[List[Event]] = [[] for _ in range(num_threads)]
        #: The admitted clocks and per-thread counts the admission rule reads.
        self._clocks: List[List[Clock]] = [[] for _ in range(num_threads)]
        self._lengths: List[int] = [0] * num_threads
        self._insertion: List[EventId] = []
        self._lock = threading.Lock()
        #: Packed tables fed by every append once a view requested them.
        self._packed: Optional[PackedPosetTables] = None

    # ------------------------------------------------------------------ #
    # accessors

    @property
    def num_threads(self) -> int:
        """Number of threads the builder was created for."""
        return self._n

    @property
    def num_events(self) -> int:
        """Events appended so far."""
        return len(self._insertion)

    def chain_length(self, tid: int) -> int:
        """Number of events appended on thread ``tid``."""
        return len(self._chains[tid])

    def insertion_order(self) -> Tuple[EventId, ...]:
        """The total order ``→p`` in which events were appended."""
        return tuple(self._insertion)

    def last_vc(self, tid: int) -> Clock:
        """Clock of the last event on ``tid`` (zero clock if none)."""
        chain = self._chains[tid]
        return chain[-1].vc if chain else (0,) * self._n

    def event(self, tid: int, idx: int) -> Event:
        """The ``idx``-th (1-based) appended event of thread ``tid``."""
        if not 1 <= idx <= len(self._chains[tid]):
            raise PosetError(f"no event ({tid},{idx}) appended yet")
        return self._chains[tid][idx - 1]

    def snapshot_of_maxima(self) -> Cut:
        """Current per-thread maximal cut — ``Gbnd`` for the online worker.

        Consistency argument (paper §4.2): every appended event's causal
        predecessors were appended before it, so the vector of current
        chain lengths always forms a consistent cut.
        """
        with self._lock:
            return tuple(self._lengths)

    # ------------------------------------------------------------------ #
    # offline construction

    def append(
        self,
        tid: int,
        deps: Iterable[EventId] = (),
        kind: str = "internal",
        obj: Optional[str] = None,
        accesses: Sequence[Access] = (),
    ) -> Event:
        """Append an event with explicit extra causal dependencies.

        The event's clock is the componentwise max of the thread's previous
        clock and the clocks of all ``deps``, with the own component
        incremented.  ``deps`` must already be present (otherwise the
        insertion order would not extend happened-before) — violations
        raise :class:`EventOrderError`.  A clock computed this way keeps
        every admission rule, so it is not checked again.
        """
        with self._lock:
            if not 0 <= tid < self._n:
                raise PosetError(f"thread index {tid} out of range")
            vc = list(self.last_vc(tid))
            for dep_tid, dep_idx in deps:
                if not 0 <= dep_tid < self._n:
                    raise PosetError(f"dependency thread {dep_tid} out of range")
                if dep_idx < 1 or dep_idx > len(self._chains[dep_tid]):
                    raise EventOrderError(
                        f"dependency ({dep_tid},{dep_idx}) not inserted yet"
                    )
                dep_vc = self._chains[dep_tid][dep_idx - 1].vc
                for k in range(self._n):
                    if dep_vc[k] > vc[k]:
                        vc[k] = dep_vc[k]
            vc[tid] += 1
            event = Event(
                tid=tid,
                idx=vc[tid],
                vc=tuple(vc),
                kind=kind,
                obj=obj,
                accesses=tuple(accesses),
            )
            self._admit(event)
            return event

    # ------------------------------------------------------------------ #
    # online construction

    def append_stamped(self, event: Event) -> Cut:
        """Append an event whose clock was computed externally (Algorithm 3).

        Admits the clock through :mod:`repro.poset.validate` and returns
        the *boundary snapshot* taken atomically with the insertion — i.e.
        performs the whole atomic block of Algorithm 4 (insert, ``Gmin``
        from the clock, ``Gbnd`` from the maxima snapshot) in one critical
        section, and returns ``Gbnd``; ``Gmin`` is just ``event.vc``.
        """
        with self._lock:
            check(self._clocks, self._lengths, event.tid, event.idx, event.vc)
            self._admit(event)
            return tuple(self._lengths)

    def _admit(self, event: Event) -> None:
        tid = event.tid
        self._chains[tid].append(event)
        self._clocks[tid].append(event.vc)
        self._lengths[tid] += 1
        self._insertion.append(event.eid)
        if self._packed is not None:
            self._packed.append(tid, event.vc)

    def packed_tables(self) -> PackedPosetTables:
        """The live packed tables of the events appended so far.

        The first call appends every event so far in insertion order;
        from then on every append extends them under the builder's lock,
        so a kernel bounded by a ``Gbnd`` snapshot finds every row it
        needs.
        """
        with self._lock:
            if self._packed is None:
                tables = PackedPosetTables.empty(self._n)
                for tid, idx in self._insertion:
                    tables.append(tid, self._chains[tid][idx - 1].vc)
                self._packed = tables
            return self._packed

    # ------------------------------------------------------------------ #
    # live view (online enumeration)

    def view(self) -> "BuilderView":
        """A live, read-only poset view over the events inserted so far.

        The view implements the subset of the :class:`Poset` interface the
        enumeration algorithms consume (``num_threads``, ``lengths``,
        ``vc``, ``enabled``, ``is_consistent``, ``packed_tables``).  It is
        safe to read concurrently with further insertions because chains
        and packed tables only grow and already-inserted events are
        immutable; an online worker only ever dereferences indices at or
        below its ``Gbnd`` snapshot, all of which were inserted before the
        snapshot was taken (paper §4.2, Theorem 3's non-interference
        argument).
        """
        return BuilderView(self)

    # ------------------------------------------------------------------ #
    # freezing

    def build(self) -> Poset:
        """Freeze into an immutable :class:`Poset` carrying the insertion
        order as its total order ``→p``."""
        with self._lock:
            return Poset._admitted(self._chains, self._insertion)


class BuilderView:
    """Read-only, growing poset view over a :class:`PosetBuilder`.

    Duck-types the query surface of :class:`~repro.poset.poset.Poset` that
    the enumeration algorithms use.  ``lengths`` reflects the *current*
    insertion state; callers enumerate only within boundary snapshots they
    obtained atomically, so growth never invalidates an ongoing walk.
    """

    __slots__ = ("_builder",)

    def __init__(self, builder: PosetBuilder):
        self._builder = builder

    @property
    def num_threads(self) -> int:
        """Number of threads of the underlying builder."""
        return self._builder.num_threads

    @property
    def lengths(self) -> Cut:
        """Current per-thread chain lengths (monotonically growing)."""
        return tuple(self._builder._lengths)

    def vc(self, tid: int, idx: int) -> Clock:
        """Clock of inserted event ``(tid, idx)``; ``idx ≥ 1``."""
        return self._builder._chains[tid][idx - 1].vc

    def event(self, tid: int, idx: int) -> Event:
        """The inserted event ``(tid, idx)``."""
        return self._builder.event(tid, idx)

    def enabled(self, cut, tid: int) -> bool:
        """Same enabled test as :meth:`Poset.enabled`, over inserted events."""
        chain = self._builder._chains[tid]
        nxt = cut[tid] + 1
        if nxt > len(chain):
            return False
        v = chain[nxt - 1].vc
        for j, cj in enumerate(cut):
            if j != tid and v[j] > cj:
                return False
        return True

    def is_consistent(self, cut) -> bool:
        """Same consistency test as :meth:`Poset.is_consistent`."""
        chains = self._builder._chains
        for i, ci in enumerate(cut):
            if ci < 0 or ci > len(chains[i]):
                return False
            if ci:
                v = chains[i][ci - 1].vc
                for j, cj in enumerate(cut):
                    if v[j] > cj:
                        return False
        return True

    def frontier_events(self, cut):
        """Maximal event per thread in ``cut`` (``None`` for empty threads)."""
        chains = self._builder._chains
        return [chains[t][c - 1] if c else None for t, c in enumerate(cut)]

    def packed_tables(self) -> PackedPosetTables:
        """Same tables as :meth:`Poset.packed_tables`, growing with the
        builder (see :meth:`PosetBuilder.packed_tables`)."""
        return self._builder.packed_tables()
