"""The poset data structure consumed by every enumeration algorithm.

A :class:`Poset` holds, per thread, the chain of events and a parallel
table of their vector clocks as plain tuples.  The enumeration inner loops
only touch the clock table (``poset.vc(i, k)``), never event objects, which
keeps the per-state cost close to pure integer work — the Python analogue
of keeping the hot data in a flat array (see the HPC guide's advice on
avoiding attribute access in inner loops).

Frontier convention
-------------------

A cut ``c`` (tuple of per-thread counts) denotes the global state containing
the first ``c[i]`` events of each thread ``i``.  The cut is *consistent*
iff every included event's causal predecessors are included, which in
clock terms is::

    ∀i with c[i] ≥ 1 : vc(i, c[i]) ≤ c   (componentwise)

because ``vc(i, k)`` lists, per thread, exactly how many of its events must
precede event ``(i, k)``.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.errors import PosetError
from repro.poset.event import Event
from repro.poset.vector_clock import clock_leq
from repro.types import Clock, Cut, EventId

__all__ = ["Poset"]


class Poset:
    """An immutable poset of events organized as per-thread chains.

    Parameters
    ----------
    chains:
        One list of :class:`Event` per thread, each already carrying a
        valid vector clock with ``vc[tid] == idx`` (1-based, contiguous).
    insertion:
        Optional explicit total order ``→p`` over the events (a list of
        event ids forming a linear extension of happened-before).  When the
        poset was built online this is the insertion order (paper
        Algorithm 4); otherwise callers obtain one from
        :mod:`repro.poset.topological`.
    """

    __slots__ = ("_chains", "_vcs", "_lengths", "_n", "_insertion", "_packed")

    def __init__(
        self,
        chains: Sequence[Sequence[Event]],
        insertion: Optional[Sequence[EventId]] = None,
    ):
        self._n = len(chains)
        self._chains: Tuple[Tuple[Event, ...], ...] = tuple(
            tuple(chain) for chain in chains
        )
        self._validate_chains()
        self._vcs: Tuple[Tuple[Clock, ...], ...] = tuple(
            tuple(e.vc for e in chain) for chain in self._chains
        )
        self._lengths: Cut = tuple(len(chain) for chain in self._chains)
        self._insertion: Optional[Tuple[EventId, ...]] = (
            tuple(insertion) if insertion is not None else None
        )
        if self._insertion is not None and len(self._insertion) != self.num_events:
            raise PosetError(
                f"insertion order has {len(self._insertion)} entries for "
                f"{self.num_events} events"
            )
        self._packed = None

    def __getstate__(self):
        # The packed tables are a pure cache over the clock table; drop
        # them when the poset crosses a process boundary (dist workers
        # rebuild locally — tables, like closures, never cross the wire).
        return {
            s: getattr(self, s) for s in self.__slots__ if s != "_packed"
        }

    def __setstate__(self, state) -> None:
        for key, value in state.items():
            setattr(self, key, value)
        self._packed = None

    # ------------------------------------------------------------------ #
    # validation

    def _validate_chains(self) -> None:
        n = self._n
        for tid, chain in enumerate(self._chains):
            for pos, e in enumerate(chain, start=1):
                if e.tid != tid:
                    raise PosetError(
                        f"event {e} stored in chain {tid} but has tid {e.tid}"
                    )
                if e.idx != pos:
                    raise PosetError(
                        f"event {e} at position {pos} has idx {e.idx}"
                    )
                if len(e.vc) != n:
                    raise PosetError(
                        f"event {e} clock width {len(e.vc)} != n={n}"
                    )
                if e.vc[tid] != pos:
                    raise PosetError(
                        f"event {e} violates vc[tid] == idx: vc={e.vc}"
                    )
                if pos > 1 and not clock_leq(chain[pos - 2].vc, e.vc):
                    raise PosetError(
                        f"clock of {e} not monotone along thread {tid}"
                    )

    # ------------------------------------------------------------------ #
    # basic accessors

    @property
    def num_threads(self) -> int:
        """Number of threads (``n`` in the paper)."""
        return self._n

    @property
    def lengths(self) -> Cut:
        """Per-thread chain lengths; also the *final* (greatest) cut."""
        return self._lengths

    @property
    def num_events(self) -> int:
        """Total number of events ``|E|``."""
        return sum(self._lengths)

    @property
    def insertion(self) -> Optional[Tuple[EventId, ...]]:
        """The total order ``→p`` recorded at build time, if any."""
        return self._insertion

    def event(self, tid: int, idx: int) -> Event:
        """The ``idx``-th (1-based) event of thread ``tid``."""
        if not 0 <= tid < self._n:
            raise PosetError(f"thread index {tid} out of range (n={self._n})")
        if not 1 <= idx <= self._lengths[tid]:
            raise PosetError(
                f"event index {idx} out of range on thread {tid} "
                f"(length {self._lengths[tid]})"
            )
        return self._chains[tid][idx - 1]

    def vc(self, tid: int, idx: int) -> Clock:
        """Vector clock of event ``(tid, idx)``; ``idx ≥ 1``."""
        return self._vcs[tid][idx - 1]

    def vc_table(self) -> Tuple[Tuple[Clock, ...], ...]:
        """The raw clock table (per thread, 0-based positions) for hot loops."""
        return self._vcs

    def packed_tables(self):
        """Flat-array clock tables for the packed kernels, computed once.

        Returns the cached :class:`repro.poset.packed.PackedPosetTables`
        (row-major ``clock_rows`` + per-thread column-major ``succ_cols``).
        The cache is per-poset and per-process: executors that ship the
        poset to workers rebuild the tables there (see ``__getstate__``).
        """
        if self._packed is None:
            from repro.poset.packed import build_packed_tables

            self._packed = build_packed_tables(self._n, self._lengths, self._vcs)
        return self._packed

    def events(self) -> Iterator[Event]:
        """All events, thread by thread."""
        for chain in self._chains:
            yield from chain

    def events_in_order(self, order: Optional[Sequence[EventId]] = None) -> Iterator[Event]:
        """Events in the given total order (default: recorded insertion)."""
        seq = order if order is not None else self._insertion
        if seq is None:
            raise PosetError("poset has no recorded insertion order")
        for tid, idx in seq:
            yield self.event(tid, idx)

    # ------------------------------------------------------------------ #
    # happened-before queries

    def happened_before(self, a: EventId, b: EventId) -> bool:
        """``a → b`` in Lamport's relation (strict)."""
        (ta, ka), (tb, kb) = a, b
        if ta == tb:
            return ka < kb
        return self.vc(tb, kb)[ta] >= ka

    def concurrent(self, a: EventId, b: EventId) -> bool:
        """Events are concurrent: neither happened before the other."""
        return a != b and not self.happened_before(a, b) and not self.happened_before(b, a)

    def num_hb_pairs(self) -> int:
        """``|H|``: the number of ordered happened-before pairs.

        Used by the work-complexity analysis (§3.4: topological sort costs
        ``O(|E| + |H|)``).  Quadratic scan; intended for reporting, not hot
        paths.
        """
        ids = [(t, k) for t in range(self._n) for k in range(1, self._lengths[t] + 1)]
        return sum(
            1 for a in ids for b in ids if a != b and self.happened_before(a, b)
        )

    def covering_edges(self) -> List[Tuple[EventId, EventId]]:
        """A set of DAG edges generating the happened-before relation.

        Contains the chain edges plus, for each event, one "message" edge
        from every thread whose component grew relative to the previous
        event on the same chain.  The result generates (but need not be the
        transitive reduction of) ``→``; it is what the topological-sort and
        serialization code consume.
        """
        edges: List[Tuple[EventId, EventId]] = []
        for tid in range(self._n):
            prev: Clock = (0,) * self._n
            for idx in range(1, self._lengths[tid] + 1):
                cur = self.vc(tid, idx)
                if idx > 1:
                    edges.append(((tid, idx - 1), (tid, idx)))
                for j in range(self._n):
                    if j != tid and cur[j] > prev[j] and cur[j] > 0:
                        edges.append(((j, cur[j]), (tid, idx)))
                prev = cur
        return edges

    # ------------------------------------------------------------------ #
    # cut queries (hot paths)

    def is_consistent(self, cut: Sequence[int]) -> bool:
        """Is ``cut`` a consistent global state of this poset?"""
        vcs = self._vcs
        lengths = self._lengths
        n = self._n
        for i in range(n):
            ci = cut[i]
            if ci < 0 or ci > lengths[i]:
                return False
            if ci:
                v = vcs[i][ci - 1]
                for j in range(n):
                    if v[j] > cut[j]:
                        return False
        return True

    def enabled(self, cut: Sequence[int], tid: int) -> bool:
        """Can thread ``tid`` execute its next event from ``cut``?

        True iff event ``(tid, cut[tid]+1)`` exists and all its causal
        predecessors are inside ``cut`` — i.e. advancing ``tid`` yields
        another consistent cut.  This is the "enabled" test of the
        BFS/lexical algorithms (paper Algorithm 2 line 8).
        """
        nxt = cut[tid] + 1
        if nxt > self._lengths[tid]:
            return False
        v = self._vcs[tid][nxt - 1]
        for j, cj in enumerate(cut):
            if j != tid and v[j] > cj:
                return False
        return True

    def frontier_events(self, cut: Sequence[int]) -> List[Optional[Event]]:
        """The maximal event of each thread in ``cut`` (``None`` where the
        thread has executed nothing) — ``G[i]`` in the paper's predicates."""
        out: List[Optional[Event]] = []
        for tid, c in enumerate(cut):
            out.append(self._chains[tid][c - 1] if c else None)
        return out

    # ------------------------------------------------------------------ #
    # misc

    def stats(self) -> Dict[str, int]:
        """Summary statistics used by the experiment tables."""
        return {
            "threads": self._n,
            "events": self.num_events,
            "max_chain": max(self._lengths) if self._n else 0,
            "min_chain": min(self._lengths) if self._n else 0,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Poset(n={self._n}, events={self.num_events})"
