"""Low-overhead span tracing for the enumeration pipeline.

A *span* is one timed unit of pipeline work — a vector-clock pass, an
interval enumeration task, a checkpoint flush — recorded as
``(name, category, t0, dt, worker, attrs)``.  The design constraints come
straight from the paper's evaluation story (wall-clock speedup, Figures
10–11): the instrument must not perturb what it measures.

* **Explicit clock injection.** Every timestamp comes from one injected
  ``clock`` callable (default ``time.perf_counter``).  Tests inject a fake
  clock and get byte-deterministic spans; the measured-seconds plumbing in
  :mod:`repro.core.bounded` uses the *same* clock, so span durations and
  :class:`~repro.core.metrics.IntervalStats.seconds` never disagree.
* **Lock-free per-thread buffers.** Each recording thread appends to its
  own list (``threading.local``); the tracer's lock is taken only when a
  thread's buffer is first registered and when spans are drained — never
  on the recording hot path.
* **Cross-process shipping.** Worker processes cannot share the parent's
  ``perf_counter`` timeline, so they record spans against the epoch clock
  (``time.time``) and the parent rebases them via the anchor pair the
  tracer captured at construction (:meth:`SpanTracer.record_epoch`).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

__all__ = ["Span", "SpanTracer"]

Clock = Callable[[], float]


@dataclass(frozen=True)
class Span:
    """One timed unit of pipeline work on the tracer's clock timeline."""

    name: str
    category: str
    #: Start time in seconds on the tracer's (injected) clock.
    t0: float
    #: Duration in seconds; ``0.0`` marks an instant event.
    dt: float
    #: Lane label — the worker (thread name, ``pid-…``, …) that did the work.
    worker: str
    #: Small JSON-able annotations (event id, states, stolen, …).
    attrs: Dict[str, object] = field(default_factory=dict)

    @property
    def is_instant(self) -> bool:
        """True for zero-duration marker events (steals, retries, logs)."""
        return self.dt == 0.0


class _SpanContext:
    """Context manager recording one span on exit (one allocation per span)."""

    __slots__ = ("_tracer", "_name", "_category", "_attrs", "_t0", "_pushed")

    def __init__(self, tracer: "SpanTracer", name: str, category: str, attrs):
        self._tracer = tracer
        self._name = name
        self._category = category
        self._attrs = attrs

    def __enter__(self) -> "_SpanContext":
        tracer = self._tracer
        # Active-stack maintenance is opt-in (a sampling profiler is
        # attached); the common traced path pays one attribute check.
        if tracer.track_active:
            ident = threading.get_ident()
            stack = tracer.active.get(ident)
            if stack is None:
                stack = tracer.active[ident] = []
            stack.append((self._name, self._category))
            self._pushed = True
        else:
            self._pushed = False
        self._t0 = tracer.clock()
        return self

    def annotate(self, **attrs: object) -> None:
        """Attach attributes discovered while the span is open."""
        self._attrs = {**self._attrs, **attrs}

    def __exit__(self, exc_type, exc, tb) -> None:
        t0 = self._t0
        tracer = self._tracer
        attrs = self._attrs
        if exc_type is not None:
            attrs = {**attrs, "error": exc_type.__name__}
        tracer.record(
            self._name, self._category, t0, tracer.clock() - t0, attrs=attrs
        )
        if self._pushed:
            stack = tracer.active.get(threading.get_ident())
            if stack:
                stack.pop()


class SpanTracer:
    """Records spans into lock-free per-thread buffers.

    Parameters
    ----------
    clock:
        Monotonic seconds source shared by every span (default
        ``time.perf_counter``).  Injecting a fake clock makes the whole
        trace deterministic.
    """

    def __init__(self, clock: Optional[Clock] = None):
        self.clock: Clock = clock if clock is not None else time.perf_counter
        self._local = threading.local()
        self._lock = threading.Lock()
        self._buffers: List[List[Span]] = []
        #: When True (a sampling profiler is attached), span contexts
        #: maintain :attr:`active` — per-thread stacks of open
        #: ``(name, category)`` pairs — so samples can be attributed to
        #: the pipeline phase that was running.  Off by default: the
        #: traced-but-unprofiled path must not pay for stack upkeep.
        self.track_active = False
        #: thread ident -> stack of open ``(name, category)`` pairs.
        #: Each thread mutates only its own list; the profiler thread
        #: reads concurrently (GIL-atomic list ops make that safe).
        self.active: Dict[int, List] = {}
        #: Anchor pair for rebasing epoch-clock spans shipped from worker
        #: processes onto this tracer's timeline.
        self.anchor_perf = self.clock()
        self.anchor_epoch = time.time()

    # ------------------------------------------------------------------ #
    # recording

    def _buffer(self) -> List[Span]:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            buf = self._local.buf = []
            with self._lock:
                self._buffers.append(buf)
        return buf

    def set_worker(self, label: Optional[str]) -> None:
        """Pin the calling thread's lane label (default: the thread name)."""
        self._local.worker = label

    def current_worker(self) -> str:
        """The calling thread's lane label."""
        label = getattr(self._local, "worker", None)
        return label if label is not None else threading.current_thread().name

    def record(
        self,
        name: str,
        category: str,
        t0: float,
        dt: float,
        worker: Optional[str] = None,
        attrs: Optional[Dict[str, object]] = None,
    ) -> None:
        """Append one already-timed span (the hot-path primitive)."""
        self._buffer().append(
            Span(
                name=name,
                category=category,
                t0=t0,
                dt=dt,
                worker=worker if worker is not None else self.current_worker(),
                attrs=attrs if attrs is not None else {},
            )
        )

    def record_epoch(
        self,
        name: str,
        category: str,
        epoch_t0: float,
        dt: float,
        worker: str,
        attrs: Optional[Dict[str, object]] = None,
    ) -> None:
        """Append a span timed on the epoch clock in another process.

        The worker's ``time.time()`` start is rebased onto this tracer's
        timeline through the anchor pair captured at construction; ``dt``
        is the worker's own (accurate) duration measurement and is kept
        as-is.
        """
        t0 = self.anchor_perf + (epoch_t0 - self.anchor_epoch)
        self.record(name, category, t0, dt, worker=worker, attrs=attrs)

    def instant(
        self,
        name: str,
        category: str = "",
        worker: Optional[str] = None,
        **attrs: object,
    ) -> None:
        """Record a zero-duration marker (a steal, a retry, a log line)."""
        self.record(name, category, self.clock(), 0.0, worker=worker, attrs=attrs)

    def span(self, name: str, category: str = "", **attrs: object) -> _SpanContext:
        """Context manager timing a block::

            with tracer.span("plan_schedule", "plan", workers=8):
                ...
        """
        return _SpanContext(self, name, category, attrs)

    def active_stacks(self) -> Dict[int, List]:
        """Snapshot of the open-span stacks (profiler attribution source).

        Only meaningful while :attr:`track_active` is on; returns shallow
        copies so the caller can inspect them without racing the owners.
        """
        return {
            ident: list(stack) for ident, stack in list(self.active.items())
        }

    # ------------------------------------------------------------------ #
    # draining

    def spans(self) -> List[Span]:
        """All spans recorded so far, merged across threads, by start time."""
        with self._lock:
            merged = [span for buf in self._buffers for span in buf]
        merged.sort(key=lambda s: (s.t0, s.dt))
        return merged

    def clear(self) -> None:
        """Drop every recorded span (buffers stay registered)."""
        with self._lock:
            for buf in self._buffers:
                del buf[:]

    def __len__(self) -> int:
        with self._lock:
            return sum(len(buf) for buf in self._buffers)
