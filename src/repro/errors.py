"""Exception hierarchy for the :mod:`repro` package.

All errors raised by the library derive from :class:`ReproError` so callers
can catch library failures with a single ``except`` clause while still
distinguishing the individual failure modes.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "InconsistentCutError",
    "PosetError",
    "EventOrderError",
    "EnumerationError",
    "IntervalError",
    "SchedulerError",
    "DeadlockError",
    "OutOfMemoryError",
    "DetectorError",
    "PlannerError",
    "WorkloadError",
    "StaticCheckError",
    "SanitizerError",
    "ExecutorError",
    "InjectedFaultError",
    "CheckpointError",
    "WireError",
    "ConnectionClosedError",
    "StaleDigestError",
    "WorkerLostError",
]


class ReproError(Exception):
    """Base class for every exception raised by the :mod:`repro` library."""


class PosetError(ReproError):
    """Raised for structurally invalid posets or malformed poset queries.

    Examples include referencing a thread index outside ``range(n)``,
    referencing an event index beyond the length of a thread's chain, or
    constructing a poset whose happened-before relation is cyclic.
    """


class EventOrderError(PosetError):
    """Raised when events are inserted in an order violating causality.

    The online algorithm (paper Algorithm 4) requires the insertion order to
    be a linear extension of the happened-before relation: an event may only
    be inserted after all of its causal predecessors.
    """


class InconsistentCutError(ReproError):
    """Raised when an operation requires a consistent cut but was given an
    inconsistent one (a cut that omits a causal predecessor of an included
    event)."""


class EnumerationError(ReproError):
    """Raised for invalid enumeration requests, e.g. a bounded enumeration
    whose lower bound does not precede its upper bound."""


class IntervalError(EnumerationError):
    """Raised when an interval of global states ``I(e)`` is malformed, e.g.
    ``Gmin(e) ≤ Gbnd(e)`` does not hold."""


class SchedulerError(ReproError):
    """Raised by the simulated concurrent-program runtime for scheduling
    failures other than deadlock (e.g. scheduling an exited thread)."""


class DeadlockError(SchedulerError):
    """Raised when every runnable thread of a simulated program is blocked
    (all waiting on locks, monitors, or joins that can never be released).

    ``wait_for`` carries the detected wait-for graph
    (:class:`repro.runtime.waitgraph.WaitForGraph`) as structured data, in
    the same format the static lock-order analyzer uses for its deadlock
    warnings, so dynamic and static deadlock reports can be compared
    directly.  It is ``None`` only for legacy constructions that pass a
    bare message.
    """

    def __init__(self, message: str, wait_for=None):
        super().__init__(message)
        #: The wait-for graph at the moment of deadlock (or ``None``).
        self.wait_for = wait_for

    def __reduce__(self):
        # Crosses process/wire boundaries (a remote worker may hit a
        # deadlocked simulated program); the default reduction would drop
        # the structured wait-for graph.
        return (DeadlockError, (self.args[0], self.wait_for))


class OutOfMemoryError(ReproError):
    """Raised when a detector or enumerator exceeds its configured memory
    budget.

    This models the paper's ``o.o.m.`` outcomes: the Cooper–Marzullo BFS
    stores a number of intermediate global states that may grow
    exponentially with the number of threads, so RV runtime (which uses it)
    runs out of memory on large posets (paper Tables 1 and 2).
    """

    def __init__(self, used: int, budget: int, what: str = "global states"):
        super().__init__(
            f"memory budget exceeded: {used} {what} live, budget {budget}"
        )
        #: Number of live units (e.g. stored global states) at failure time.
        self.used = used
        #: The configured budget that was exceeded.
        self.budget = budget

    def __reduce__(self):
        # Raised inside dist workers (a BFS interval over budget) and
        # pickled into the task-error message; the default exception
        # reduction replays __init__ with the formatted message only,
        # which fails to unpickle instead of reporting the OOM.
        return (OutOfMemoryError, (self.used, self.budget))


class DetectorError(ReproError):
    """Raised by predicate detectors for unrecoverable internal failures.

    This also models the ``exception`` outcomes that the paper reports for
    RV runtime on some benchmarks (Table 2).
    """


class PlannerError(DetectorError):
    """Raised by the detection planner for routing requests it cannot
    honor soundly — e.g. ``mode="slice"`` forced on a predicate whose
    classification certificate says ``arbitrary`` (only full enumeration
    is sound there), or an invalid planner mode."""


class WorkloadError(ReproError):
    """Raised when a workload specification is invalid (unknown name, bad
    scale parameters, ...)."""


class StaticCheckError(ReproError):
    """Raised by the static analyzer (:mod:`repro.staticcheck`) when a
    program cannot be analyzed at all — e.g. a thread body whose source is
    unavailable.  Imprecision never raises; it is recorded as
    ``approximation`` notes on the report instead."""


class SanitizerError(ReproError):
    """Raised (in strict mode) by the runtime sanitizer when a pipeline
    invariant is violated: per-thread sequence monotonicity, lock
    discipline, vector-clock monotonicity, ``Gmin(e) ≤ Gbnd(e)``, or the
    interval-partition disjointness of Theorem 2."""


class ExecutorError(ReproError):
    """Raised by execution backends for infrastructure failures — as
    opposed to exceptions raised *by* a task, which propagate unchanged.

    In-process a task fails only by raising, so these come from the
    distributed backend (:mod:`repro.dist`), whose lease table re-runs
    the affected tasks, and from the fault-injection harness.  Theorem 2
    makes every interval task idempotent, so re-running one is safe.
    """


class InjectedFaultError(ExecutorError):
    """Raised by the fault-injection harness (:mod:`repro.resilience.faults`)
    for a deterministically injected crash or poisoned task."""

    def __init__(self, kind: str, key: object, attempt: int):
        super().__init__(
            f"injected {kind} fault on task {key!r} (attempt {attempt})"
        )
        #: ``"crash"`` or ``"poison"``.
        self.kind = kind
        #: Stable identity of the faulted task.
        self.key = key
        #: Zero-based attempt number the fault was injected on.
        self.attempt = attempt

    def __reduce__(self):
        # Pickled across process boundaries; the default exception
        # reduction would replay __init__ with the formatted message only
        # and fail to unpickle.
        return (InjectedFaultError, (self.kind, self.key, self.attempt))


class CheckpointError(ReproError):
    """Raised when a checkpoint journal cannot be resumed from: its poset
    digest or subroutine does not match the current run, or a completed
    record's interval bounds diverge from the recomputed partition (which
    would mean the journal belongs to a different total order)."""


class WireError(ExecutorError):
    """Raised by the distributed wire protocol (:mod:`repro.dist.wire`) for
    malformed traffic: an oversized frame, an unknown encoding tag, or a
    message whose body does not decode.

    Like every :class:`ExecutorError` this is an infrastructure failure, not
    a task failure — interval tasks are idempotent, so the coordinator drops
    the offending connection and re-leases its work elsewhere.
    """


class ConnectionClosedError(WireError):
    """Raised when the peer closed the connection mid-frame or mid-run —
    worker crash, ``kill -9``, or network partition.  The coordinator treats
    it exactly like a lease expiry: the worker's outstanding leases return
    to the pending pool for re-dispatch."""


class StaleDigestError(ExecutorError):
    """Raised when the poset SHA-256 digest presented by one end of a
    distributed run does not match the other end's.

    A stale worker (started against yesterday's poset file, or against a
    differently-built poset) must never be allowed to commit interval
    results: its ``Gmin``/``Gbnd`` bounds would be meaningless against the
    coordinator's partition.  Both ends verify — workers refuse leases whose
    digest differs from their handshake digest, and the coordinator refuses
    acknowledgements carrying an unexpected digest.
    """

    def __init__(self, expected: str, actual: str, where: str = ""):
        at = f" at {where}" if where else ""
        super().__init__(
            f"poset digest mismatch{at}: expected {expected[:12]}…, "
            f"got {actual[:12]}…"
        )
        #: The digest this end computed for its own poset.
        self.expected = expected
        #: The digest the peer presented.
        self.actual = actual
        #: Which end detected the mismatch (e.g. ``"worker"``).
        self.where = where

    def __reduce__(self):
        # Shipped back over the wire as a structured refusal; the default
        # reduction would replay __init__ with the formatted message only.
        return (StaleDigestError, (self.expected, self.actual, self.where))


class WorkerLostError(ExecutorError):
    """Raised (or recorded as a failure) when a remote worker vanished —
    its connection died or its leases expired without acknowledgement —
    and its in-flight intervals had to be re-dispatched."""

    def __init__(self, worker: str, lost_leases: int = 0):
        super().__init__(
            f"worker {worker!r} lost with {lost_leases} in-flight lease(s); "
            f"re-dispatching to surviving workers"
        )
        #: Name of the vanished worker.
        self.worker = worker
        #: Number of leases it held when it vanished.
        self.lost_leases = lost_leases

    def __reduce__(self):
        return (WorkerLostError, (self.worker, self.lost_leases))
