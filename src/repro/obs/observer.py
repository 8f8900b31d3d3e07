"""The observer facade the pipeline is instrumented against.

Every instrumented component — the ParaMount drivers, executors, the HB
front-end, checkpoint journal, resilient runner — takes an optional
``observer``.  :class:`Observer` bundles the span tracer, the metrics
registry, one shared clock, and an optional progress reporter;
:class:`NullObserver` (the default, exposed as :data:`NULL_OBSERVER`) is a
no-op whose every hook returns immediately, so unobserved runs keep the
uninstrumented hot path: call sites guard non-trivial work with
``if observer.enabled``.

The contract the no-op test pins down: an observer never changes *what* a
run computes — states, stats, checkpoint bytes — only what is recorded
about it.
"""

from __future__ import annotations

import logging
import time
from typing import Callable, Dict, Optional

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    WindowedRate,
)
from repro.obs.trace import SpanTracer

__all__ = [
    "Observer",
    "NullObserver",
    "NULL_OBSERVER",
    "ensure_observer",
    "SpanLogHandler",
]

Clock = Callable[[], float]


class _NullContext:
    """Reusable no-op context manager for :class:`NullObserver` spans."""

    __slots__ = ()

    def __enter__(self) -> "_NullContext":
        return self

    def __exit__(self, *exc: object) -> None:
        return None

    def annotate(self, **attrs: object) -> None:
        return None


_NULL_CONTEXT = _NullContext()


class Observer:
    """Unified tracing + metrics + progress for one pipeline run.

    Parameters
    ----------
    clock:
        Seconds source injected into the tracer and the metrics registry,
        and read by :func:`repro.core.bounded.bounded_enumeration`, which
        both drivers hand this observer, to time every piece and its
        ``I(e)`` span — one clock for the whole run, so spans and measured
        stats always agree.  A :class:`NullObserver`'s clock is not read:
        unobserved pieces are timed with ``time.perf_counter``.
    progress:
        Optional :class:`~repro.obs.progress.ProgressReporter` fed by the
        drivers as tasks complete.
    """

    enabled: bool = True

    def __init__(
        self, clock: Optional[Clock] = None, progress=None
    ):
        self.clock: Clock = clock if clock is not None else time.perf_counter
        self.tracer = SpanTracer(clock=self.clock)
        self.metrics = MetricsRegistry(clock=self.clock)
        self.progress = progress
        self._rate_sampled_at = float("-inf")

    # ------------------------------------------------------------------ #
    # tracing

    def span(self, name: str, category: str = "", **attrs: object):
        """Context manager recording one span (see :class:`SpanTracer`)."""
        return self.tracer.span(name, category, **attrs)

    def instant(
        self,
        name: str,
        category: str = "",
        worker: Optional[str] = None,
        **attrs: object,
    ) -> None:
        """Zero-duration marker event (steal, retry, degradation, …)."""
        self.tracer.instant(name, category, worker=worker, **attrs)

    def record(
        self,
        name: str,
        category: str,
        t0: float,
        dt: float,
        worker: Optional[str] = None,
        attrs: Optional[Dict[str, object]] = None,
    ) -> None:
        """Append one externally-timed span."""
        self.tracer.record(name, category, t0, dt, worker=worker, attrs=attrs)

    def record_epoch(
        self,
        name: str,
        category: str,
        epoch_t0: float,
        dt: float,
        worker: str,
        attrs: Optional[Dict[str, object]] = None,
    ) -> None:
        """Append a span shipped from a worker process (epoch timeline)."""
        self.tracer.record_epoch(
            name, category, epoch_t0, dt, worker, attrs=attrs
        )

    def set_worker(self, label: Optional[str]) -> None:
        """Pin the calling thread's lane label."""
        self.tracer.set_worker(label)

    def spans(self):
        """All spans recorded so far, sorted by start time."""
        return self.tracer.spans()

    # ------------------------------------------------------------------ #
    # metrics

    def counter(self, name: str, help: str = "", labels=None) -> Counter:
        return self.metrics.counter(name, help, labels=labels)

    def gauge(self, name: str, help: str = "", labels=None) -> Gauge:
        return self.metrics.gauge(name, help, labels=labels)

    def histogram(self, name: str, help: str = "", **kwargs) -> Histogram:
        return self.metrics.histogram(name, help, **kwargs)

    def windowed_rate(self, name: str, window: float = 10.0) -> WindowedRate:
        return self.metrics.windowed_rate(name, window=window)

    def snapshot(self) -> Dict[str, object]:
        return self.metrics.snapshot()

    def counter_sample(self, name: str, value: float) -> None:
        """Record one reading of a live level for the trace's counter track.

        Stored as a zero-duration span with category ``"counter"``; the
        Chrome exporter turns these into ``ph: "C"`` counter events, so a
        trace shows leased/pending and states/sec as plotted tracks.
        """
        self.tracer.instant(name, "counter", value=value)

    # ------------------------------------------------------------------ #
    # pipeline hooks

    def task_done(self, stats) -> None:
        """One enumeration piece finished (called by
        :func:`~repro.core.bounded.bounded_enumeration`, and by the dist
        coordinator as it commits a remote piece).

        Feeds the canonical series (``states_enumerated_total``,
        ``intervals_enumerated_total``, ``enumeration_seconds``), the
        recent-window rates behind ``/progress`` and the live gauges, and
        the progress reporter, if any.
        """
        self.counter("states_enumerated_total").inc(stats.states)
        self.counter("intervals_enumerated_total").inc()
        self.histogram("enumeration_seconds").observe(stats.seconds)
        states_rate = self.windowed_rate("states_per_second")
        states_rate.add(stats.states)
        self.windowed_rate("intervals_per_second").add(1)
        now = self.clock()
        if now - self._rate_sampled_at >= 0.25:
            # Throttled states/sec counter track for the Chrome trace.
            self._rate_sampled_at = now
            self.counter_sample("states_per_sec", round(states_rate.rate(), 1))
        if self.progress is not None:
            self.progress.on_task_done(stats.states, stats.seconds)


class NullObserver(Observer):
    """The default observer: every hook is a no-op.

    ``enabled`` is ``False`` so instrumented code can skip building span
    attributes entirely; the methods still exist (and do nothing) so call
    sites never need a None check.
    """

    enabled = False

    def __init__(self, clock: Optional[Clock] = None, progress=None):
        super().__init__(clock=clock, progress=progress)

    def span(self, name: str, category: str = "", **attrs: object):
        return _NULL_CONTEXT

    def instant(self, name, category="", worker=None, **attrs):
        return None

    def record(self, name, category, t0, dt, worker=None, attrs=None):
        return None

    def record_epoch(self, name, category, epoch_t0, dt, worker, attrs=None):
        return None

    def set_worker(self, label):
        return None

    def counter_sample(self, name, value):
        return None

    def task_done(self, stats):
        return None


#: Shared default observer — the uninstrumented fast path.
NULL_OBSERVER = NullObserver()


class SpanLogHandler(logging.Handler):
    """Forwards ``repro`` log records into a trace as instant markers.

    Attach to the ``repro`` root (the CLI does this when ``--trace-out``
    is given) and every warning — a degradation, a quarantined record, an
    expired deadline — appears on the emitting worker's lane in the
    exported trace, with the record's structured ``extra={}`` fields as
    span attributes.
    """

    #: LogRecord attributes that are plumbing, not structured payload.
    _STANDARD = frozenset(
        logging.LogRecord("", 0, "", 0, "", (), None).__dict__
    ) | {"message", "asctime", "taskName"}

    def __init__(self, observer: Observer, level: int = logging.WARNING):
        super().__init__(level=level)
        self.observer = observer

    def emit(self, record: logging.LogRecord) -> None:
        try:
            extra = {
                key: value
                for key, value in record.__dict__.items()
                if key not in self._STANDARD
            }
            self.observer.instant(
                record.getMessage(),
                category="log",
                level=record.levelname,
                logger=record.name,
                **extra,
            )
        except Exception:  # pragma: no cover - never break the logged code
            self.handleError(record)


def ensure_observer(observer: Optional[Observer]) -> Observer:
    """Normalize an optional observer argument to a usable instance."""
    return observer if observer is not None else NULL_OBSERVER
