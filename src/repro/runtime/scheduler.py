"""Deterministic interleaving scheduler for simulated programs.

The scheduler owns shared memory, locks/monitors, and thread lifecycle; it
repeatedly picks a runnable thread (seeded pseudo-random choice, optionally
"sticky" to model realistic context-switch rates) and executes its next
yielded operation atomically.  The resulting :class:`Trace` is one observed
execution path — different seeds produce different interleavings of the
same program, which the tests use to show predicate detection is robust to
the observed schedule.

Semantics notes:

* lock grant order is FIFO; ``notify`` wakes waiters FIFO (determinism);
* ``wait`` is recorded as a ``release`` at suspension and a ``wait`` record
  at re-acquisition — giving the happened-before front-ends exactly the
  lock-atomicity edges the paper's rules prescribe (§4.1), including the
  ``notify → wait`` edge of Figure 2;
* ``Sleep`` accumulates virtual seconds into ``trace.base_seconds`` (the
  Table 2 "Base" column) without real-time blocking;
* ``Compute`` advances a virtual CPU meter (also folded into base time);
* a thread that releases, waits on or notifies a lock it does not hold,
  re-acquires one it holds, ends holding one, or joins an unknown thread
  raises :class:`~repro.errors.SchedulerError` before the op is emitted,
  so every trace returned keeps the rules the trace reader
  (:mod:`repro.runtime.trace_io`) checks of a trace file.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional

from repro.errors import DeadlockError, SchedulerError
from repro.obs.observer import ensure_observer
from repro.runtime.waitgraph import WaitEdge, WaitForGraph
from repro.runtime.ops import (
    Acquire,
    Compute,
    Fork,
    Join,
    Notify,
    NotifyAll,
    Op,
    Read,
    Release,
    Sleep,
    Wait,
    Write,
)
from repro.runtime.program import Program, ThreadContext
from repro.runtime.trace import Trace, TraceOp
from repro.util.rng import DeterministicRng

__all__ = ["Scheduler", "run_program"]

#: Modeled seconds per Compute unit (folded into a trace's base time).
_SECONDS_PER_COMPUTE_UNIT = 1.0e-6

_RUNNABLE = "runnable"
_BLOCKED_LOCK = "blocked_lock"
_BLOCKED_WAIT = "blocked_wait"
_BLOCKED_JOIN = "blocked_join"
_FINISHED = "finished"


class _ThreadState:
    __slots__ = (
        "tid",
        "gen",
        "ctx",
        "status",
        "pending",
        "blocked_on",
        "resume_kind",
        "join_target",
    )

    def __init__(self, tid: int, gen, ctx: ThreadContext):
        self.tid = tid
        self.gen = gen
        self.ctx = ctx
        self.status = _RUNNABLE
        self.pending: Any = None  # value delivered to the next gen.send
        self.blocked_on: Optional[str] = None
        #: Trace kind to emit when the thread gets unblocked ("acquire"/"wait"/"join").
        self.resume_kind: Optional[str] = None
        #: Joined thread id while blocked in a join (for wait-for graphs).
        self.join_target: Optional[int] = None


class _LockState:
    __slots__ = ("owner", "queue", "waiters")

    def __init__(self) -> None:
        self.owner: Optional[int] = None
        self.queue: Deque[int] = deque()  # blocked acquirers, FIFO
        self.waiters: Deque[int] = deque()  # monitor waiters, FIFO


class Scheduler:
    """Runs a :class:`Program` to completion under one seeded schedule."""

    def __init__(
        self,
        program: Program,
        seed: int = 0,
        stickiness: float = 0.0,
        max_steps: int = 2_000_000,
    ):
        if not 0.0 <= stickiness < 1.0:
            raise SchedulerError(f"stickiness must be in [0, 1), got {stickiness}")
        self.program = program
        self.seed = seed
        #: Probability of staying on the current thread at each step.
        self.stickiness = stickiness
        self.max_steps = max_steps
        self._rng = DeterministicRng(seed).fork("scheduler", program.name)

    # ------------------------------------------------------------------ #

    def run(self) -> Trace:
        """Execute the program; return the observed trace."""
        program = self.program
        shared: Dict[str, Any] = program.initial_shared()
        trace = Trace(program_name=program.name, num_threads=program.max_threads)
        threads: List[_ThreadState] = []
        locks: Dict[str, _LockState] = {}
        joiners: Dict[int, List[int]] = {}  # finished-waits: target -> joiner tids
        seq = 0

        def emit(tid: int, kind: str, obj=None, target=None, is_init=False) -> None:
            nonlocal seq
            trace.ops.append(
                TraceOp(seq=seq, tid=tid, kind=kind, obj=obj, target=target, is_init=is_init)
            )
            seq += 1

        def spawn(body: Callable, name: str) -> int:
            tid = len(threads)
            if tid >= program.max_threads:
                raise SchedulerError(
                    f"program {program.name!r} forked more than "
                    f"max_threads={program.max_threads} threads"
                )
            ctx = ThreadContext(
                tid=tid, rng=self._rng.fork("thread", tid), name=name
            )
            gen = body(ctx)
            threads.append(_ThreadState(tid, gen, ctx))
            return tid

        def lock_state(name: str) -> _LockState:
            st = locks.get(name)
            if st is None:
                st = locks[name] = _LockState()
            return st

        def grant_next(lname: str) -> None:
            """Hand a released lock to the next queued acquirer, if any."""
            lst = lock_state(lname)
            if lst.owner is None and lst.queue:
                nxt = lst.queue.popleft()
                lst.owner = nxt
                t = threads[nxt]
                emit(nxt, t.resume_kind or "acquire", obj=lname)
                t.status = _RUNNABLE
                t.blocked_on = None
                t.resume_kind = None

        def finish_thread(t: _ThreadState) -> None:
            held = sorted(name for name, lst in locks.items() if lst.owner == t.tid)
            if held:
                raise SchedulerError(f"thread {t.tid} ended holding lock(s) {held}")
            t.status = _FINISHED
            emit(t.tid, "thread_end")
            for j in joiners.pop(t.tid, []):
                jt = threads[j]
                emit(j, "join", target=t.tid)
                jt.status = _RUNNABLE
                jt.blocked_on = None
                jt.resume_kind = None

        spawn(program.main, "main")
        emit(0, "thread_start")
        current: Optional[int] = 0
        steps = 0

        while True:
            runnable = [t.tid for t in threads if t.status == _RUNNABLE]
            if not runnable:
                if all(t.status == _FINISHED for t in threads):
                    break
                blocked = {
                    t.tid: (t.status, t.blocked_on)
                    for t in threads
                    if t.status != _FINISHED
                }
                wait_for = _build_wait_for(threads, locks)
                raise DeadlockError(
                    f"program {program.name!r} deadlocked; blocked threads: "
                    f"{blocked}\n{wait_for.format()}",
                    wait_for=wait_for,
                )
            steps += 1
            if steps > self.max_steps:
                raise SchedulerError(
                    f"program {program.name!r} exceeded {self.max_steps} steps"
                )
            if (
                current is not None
                and current in runnable
                and self.stickiness > 0.0
                and self._rng.random() < self.stickiness
            ):
                tid = current
            else:
                tid = self._rng.choice(runnable)
            current = tid
            t = threads[tid]

            try:
                op: Op = t.gen.send(t.pending)
            except StopIteration:
                finish_thread(t)
                continue
            t.pending = None

            if isinstance(op, Read):
                emit(tid, "read", obj=op.var)
                t.pending = shared.get(op.var)
            elif isinstance(op, Write):
                shared[op.var] = op.value
                emit(tid, "write", obj=op.var, is_init=op.is_init)
            elif isinstance(op, Acquire):
                lst = lock_state(op.lock)
                if lst.owner is None:
                    lst.owner = tid
                    emit(tid, "acquire", obj=op.lock)
                elif lst.owner == tid:
                    raise SchedulerError(
                        f"thread {tid} re-acquired non-reentrant lock {op.lock!r}"
                    )
                else:
                    lst.queue.append(tid)
                    t.status = _BLOCKED_LOCK
                    t.blocked_on = op.lock
                    t.resume_kind = "acquire"
            elif isinstance(op, Release):
                lst = lock_state(op.lock)
                if lst.owner != tid:
                    raise SchedulerError(
                        f"thread {tid} released lock {op.lock!r} it does not hold"
                    )
                emit(tid, "release", obj=op.lock)
                lst.owner = None
                grant_next(op.lock)
            elif isinstance(op, Wait):
                lst = lock_state(op.lock)
                if lst.owner != tid:
                    raise SchedulerError(
                        f"thread {tid} waited on lock {op.lock!r} it does not hold"
                    )
                emit(tid, "release", obj=op.lock)  # wait releases the monitor
                lst.owner = None
                lst.waiters.append(tid)
                t.status = _BLOCKED_WAIT
                t.blocked_on = op.lock
                t.resume_kind = "wait"  # recorded at re-acquisition
                grant_next(op.lock)
            elif isinstance(op, (Notify, NotifyAll)):
                lst = lock_state(op.lock)
                if lst.owner != tid:
                    raise SchedulerError(
                        f"thread {tid} notified lock {op.lock!r} it does not hold"
                    )
                emit(tid, "notify", obj=op.lock)
                wake = (
                    len(lst.waiters)
                    if isinstance(op, NotifyAll)
                    else min(1, len(lst.waiters))
                )
                for _ in range(wake):
                    w = lst.waiters.popleft()
                    threads[w].status = _BLOCKED_LOCK
                    lst.queue.append(w)
            elif isinstance(op, Fork):
                child = spawn(op.body, op.name or f"t{len(threads)}")
                # fork precedes the child's start in the observed order, so
                # trace order stays a linear extension of happened-before.
                emit(tid, "fork", target=child)
                emit(child, "thread_start")
                t.pending = child
            elif isinstance(op, Join):
                if not 0 <= op.tid < len(threads):
                    raise SchedulerError(
                        f"thread {tid} joined unknown thread {op.tid}"
                    )
                target = threads[op.tid]
                if target.status == _FINISHED:
                    emit(tid, "join", target=op.tid)
                else:
                    joiners.setdefault(op.tid, []).append(tid)
                    t.status = _BLOCKED_JOIN
                    t.blocked_on = f"thread {op.tid}"
                    t.join_target = op.tid
                    t.resume_kind = "join"
            elif isinstance(op, Compute):
                trace.base_seconds += op.units * _SECONDS_PER_COMPUTE_UNIT
            elif isinstance(op, Sleep):
                trace.base_seconds += op.seconds
            else:
                raise SchedulerError(f"thread {tid} yielded unknown op {op!r}")

        trace.final_shared = shared
        return trace


def _thread_label(t: _ThreadState) -> str:
    """Human-readable thread label shared with the static analyzer."""
    return t.ctx.name or f"t{t.tid}"


def _build_wait_for(threads, locks) -> WaitForGraph:
    """Snapshot the wait-for graph of the blocked threads.

    Edge semantics match the static lock-order analyzer's hypothetical
    deadlock graphs: ``waiter`` is blocked on ``resource`` held (or to be
    finished) by ``holder``; monitor waiters with no live notifier get a
    holder-less ``wait`` edge.
    """
    edges = []
    for t in threads:
        if t.status == _BLOCKED_LOCK:
            lst = locks.get(t.blocked_on)
            owner = (
                _thread_label(threads[lst.owner])
                if lst is not None and lst.owner is not None
                else None
            )
            edges.append(
                WaitEdge(
                    waiter=_thread_label(t),
                    holder=owner,
                    resource=t.blocked_on,
                    kind="lock",
                )
            )
        elif t.status == _BLOCKED_JOIN:
            holder = (
                _thread_label(threads[t.join_target])
                if t.join_target is not None
                else None
            )
            edges.append(
                WaitEdge(
                    waiter=_thread_label(t),
                    holder=holder,
                    resource=t.blocked_on or "thread ?",
                    kind="join",
                )
            )
        elif t.status == _BLOCKED_WAIT:
            edges.append(
                WaitEdge(
                    waiter=_thread_label(t),
                    holder=None,
                    resource=t.blocked_on or "?",
                    kind="wait",
                )
            )
    return WaitForGraph.from_edges(edges)


def run_program(
    program: Program,
    seed: int = 0,
    stickiness: float = 0.0,
    observer=None,
) -> Trace:
    """Convenience wrapper: schedule ``program`` once and return its trace.

    With an ``observer`` (a :class:`repro.obs.Observer`) the capture is
    recorded as a ``capture`` span carrying the program name, seed, and
    the number of operations captured.
    """
    scheduler = Scheduler(program, seed=seed, stickiness=stickiness)
    observer = ensure_observer(observer)
    if not observer.enabled:
        return scheduler.run()
    with observer.span(
        "run_program", "capture", program=str(program.name), seed=seed
    ) as span:
        trace = scheduler.run()
        span.annotate(ops=len(trace))
    return trace
