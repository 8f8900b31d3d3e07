"""Happened-before front-end: traces → detector posets.

Replays a :class:`~repro.runtime.trace.TraceOp` stream applying the paper's
HB rules (§4.1): process order, lock atomicity (including monitors and
wait/notify), fork/join, and transitivity (implicit in the clock algebra).
Synchronization operations only *merge* clocks; an event is emitted — and
the owning thread's clock component ticked — only for captured variable
accesses, because the optimized detector stores only predicate-relevant
events (§4.4).

Two capture modes:

* ``merge_collections=True`` (ParaMount's front-end): consecutive accesses
  of a thread merge into one *event collection* sharing a single clock; a
  collection closes at the thread's next synchronization operation (or
  thread end) and keeps, per variable, the first write — or the first read
  when no write occurs (§4.4, Figure 9).  Closed collections are emitted in
  a valid insertion order (a collection precedes everything that causally
  depends on it, because clocks only escape a thread through sync ops,
  which close the collection first).
* ``merge_collections=False`` (the RV baseline's front-end): every access
  is its own event — the raw poset whose lattice the BFS must then walk.

The emitted :class:`~repro.poset.event.Event` objects carry their accesses
and are ready for insertion into an online ParaMount or an offline poset.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, TYPE_CHECKING

from repro.errors import DetectorError
from repro.poset.event import Access, Event
from repro.runtime.trace import Trace, TraceOp

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.poset.poset import Poset

__all__ = ["HBFrontEnd", "events_from_trace", "poset_from_trace"]

EmitFn = Callable[[Event], None]


class _OpenCollection:
    """A collection being accumulated for one thread (§4.4)."""

    __slots__ = ("vc", "weak_vc", "accesses")

    def __init__(self, vc: tuple, weak_vc: Optional[tuple] = None):
        self.vc = vc
        self.weak_vc = weak_vc
        #: (var, is_init) -> Access kept under the first-write-else-first-
        #: read rule.  Initialization writes are bucketed separately from
        #: ordinary accesses: an init write may not subsume a later plain
        #: read of the same variable, because the detector's init filter
        #: (§5.2) exempts the former from racing but not the latter.
        self.accesses: Dict[tuple, Access] = {}

    def add(self, access: Access) -> None:
        key = (access.var, access.is_init)
        held = self.accesses.get(key)
        if held is None or (held.op == "read" and access.op == "write"):
            self.accesses[key] = access


class HBFrontEnd:
    """Streaming converter from trace operations to poset events."""

    def __init__(
        self,
        num_threads: int,
        emit: EmitFn,
        merge_collections: bool = True,
        track_weak_clocks: bool = False,
        pruner=None,
    ):
        self.n = num_threads
        self.emit = emit
        #: Optional static pruner (an object with ``should_skip(var)``, e.g.
        #: :class:`repro.staticcheck.prune.StaticPruner`): accesses to a
        #: variable it rules statically race-free are dropped before any
        #: clock tick or collection bookkeeping.  Sync ops are never pruned,
        #: so the surviving events' clocks — and hence every detection —
        #: are unchanged.
        self.pruner = pruner
        #: Accesses dropped by the pruner, total and per variable.
        self.pruned_accesses = 0
        self.pruned_vars: Dict[str, int] = {}
        self.merge_collections = merge_collections
        #: Also stamp events with a weak clock (process order + fork/join
        #: only) — the RV baseline's sliced-causality model.
        self.track_weak_clocks = track_weak_clocks
        self._thread_vc: List[List[int]] = [[0] * num_threads for _ in range(num_threads)]
        self._weak_vc: List[List[int]] = [[0] * num_threads for _ in range(num_threads)]
        self._lock_vc: Dict[str, List[int]] = {}
        self._open: List[Optional[_OpenCollection]] = [None] * num_threads
        self._emitted = 0

    # ------------------------------------------------------------------ #

    @property
    def events_emitted(self) -> int:
        """Number of poset events emitted so far."""
        return self._emitted

    def process(self, op: TraceOp) -> None:
        """Consume one trace operation in observed order."""
        tid = op.tid
        if op.is_access:
            if self.pruner is not None and self.pruner.should_skip(op.obj):
                self.pruned_accesses += 1
                self.pruned_vars[op.obj] = self.pruned_vars.get(op.obj, 0) + 1
                return
            access = Access(op=op.kind, var=op.obj, is_init=op.is_init)
            if self.merge_collections:
                open_c = self._open[tid]
                if open_c is None:
                    vc, weak = self._tick(tid)
                    open_c = self._open[tid] = _OpenCollection(vc, weak)
                open_c.add(access)
            else:
                vc, weak = self._tick(tid)
                self._emit_event(
                    tid, vc, (access,), kind=op.kind, obj=op.obj, weak_vc=weak
                )
            return

        # Synchronization / lifecycle: close the thread's collection first,
        # then merge clocks per the HB rules.
        self._flush_thread(tid)
        kind = op.kind
        if kind == "acquire" or kind == "wait":
            self._merge_into_thread(tid, self._lock(op.obj))
        elif kind == "release" or kind == "notify":
            self._merge_into_lock(op.obj, tid)
        elif kind == "fork":
            child = op.target
            self._flush_thread(child)  # child has no events yet; defensive
            cv = self._thread_vc[child]
            for k, x in enumerate(self._thread_vc[tid]):
                if x > cv[k]:
                    cv[k] = x
            wv = self._weak_vc[child]
            for k, x in enumerate(self._weak_vc[tid]):
                if x > wv[k]:
                    wv[k] = x
        elif kind == "join":
            self._merge_into_thread(tid, self._thread_vc[op.target])
            wv = self._weak_vc[tid]
            for k, x in enumerate(self._weak_vc[op.target]):
                if x > wv[k]:
                    wv[k] = x
        elif kind in ("thread_start", "thread_end"):
            pass
        else:
            raise DetectorError(f"unknown trace op kind {op.kind!r}")

    def finish(self) -> None:
        """Flush all open collections at end of trace."""
        for tid in range(self.n):
            self._flush_thread(tid)

    # ------------------------------------------------------------------ #

    def _lock(self, name: str) -> List[int]:
        vc = self._lock_vc.get(name)
        if vc is None:
            vc = self._lock_vc[name] = [0] * self.n
        return vc

    def _tick(self, tid: int) -> tuple:
        vc = self._thread_vc[tid]
        vc[tid] += 1
        weak = None
        if self.track_weak_clocks:
            wv = self._weak_vc[tid]
            wv[tid] += 1
            weak = tuple(wv)
        return tuple(vc), weak

    def _merge_into_thread(self, tid: int, other: List[int]) -> None:
        vc = self._thread_vc[tid]
        for k, x in enumerate(other):
            if x > vc[k]:
                vc[k] = x

    def _merge_into_lock(self, name: str, tid: int) -> None:
        lv = self._lock(name)
        for k, x in enumerate(self._thread_vc[tid]):
            if x > lv[k]:
                lv[k] = x

    def _flush_thread(self, tid: int) -> None:
        open_c = self._open[tid]
        if open_c is None:
            return
        self._open[tid] = None
        accesses = tuple(open_c.accesses.values())
        self._emit_event(
            tid, open_c.vc, accesses, kind="collection", obj=None,
            weak_vc=open_c.weak_vc,
        )

    def _emit_event(
        self, tid: int, vc: tuple, accesses, kind: str, obj, weak_vc=None
    ) -> None:
        event = Event(
            tid=tid,
            idx=vc[tid],
            vc=vc,
            kind=kind,
            obj=obj,
            accesses=accesses,
            weak_vc=weak_vc,
        )
        self._emitted += 1
        self.emit(event)


def events_from_trace(trace: Trace, merge_collections: bool = True) -> List[Event]:
    """Convert a whole trace into detector events (offline convenience)."""
    out: List[Event] = []
    fe = HBFrontEnd(trace.num_threads, out.append, merge_collections=merge_collections)
    for op in trace:
        fe.process(op)
    fe.finish()
    return out


def poset_from_trace(trace: Trace, merge_collections: bool = True) -> "Poset":
    """Build the detector poset of one observed trace.

    ``merge_collections=True`` gives the event-collection poset ParaMount
    enumerates (§4.4) — also what the detection planner's fast paths run
    on; ``False`` gives the raw one-event-per-access poset of the RV
    baseline and the Table 1 captures.  The emission order is recorded as
    the poset's insertion order (a linear extension of happened-before by
    construction).
    """
    from repro.poset.poset import Poset

    events = events_from_trace(trace, merge_collections=merge_collections)
    chains: List[List[Event]] = [[] for _ in range(trace.num_threads)]
    for e in events:
        chains[e.tid].append(e)
    return Poset(chains, insertion=[e.eid for e in events])
