"""``repro.obs`` — unified tracing, metrics, live telemetry, and export.

The observability layer for the enumeration pipeline (DESIGN.md §7d, §7i):

* :class:`~repro.obs.trace.SpanTracer` — low-overhead span recording with
  explicit clock injection and lock-free per-thread buffers;
* :class:`~repro.obs.metrics.MetricsRegistry` — counters, gauges,
  histograms, and windowed rates with a deterministic snapshot API and
  label support (per-host series); :data:`~repro.obs.metrics.METRIC_INVENTORY`
  is the registry of record for every series the codebase emits;
* :class:`~repro.obs.timeseries.Histogram` /
  :class:`~repro.obs.timeseries.WindowedRate` — the live series types
  (per-thread cells, p50/p95/p99 snapshots, recent-window rates);
* :class:`~repro.obs.observer.Observer` — the facade every instrumented
  component accepts (``ParaMount(observer=...)``);
  :data:`~repro.obs.observer.NULL_OBSERVER` is the no-op default;
* :class:`~repro.obs.profiler.SamplingProfiler` — stdlib stack sampler
  attributing CPU to pipeline phases via the active-span stack, exporting
  collapsed stacks and speedscope JSON;
* :class:`~repro.obs.http.OpsEndpoint` — the scrapeable ops server
  (``/metrics``, ``/healthz``, ``/progress``);
* exporters (:mod:`repro.obs.export`) — Chrome trace-event JSON (with
  counter tracks) for Perfetto/chrome://tracing and Prometheus text;
* validators (:mod:`repro.obs.validate`) — structural checks for traces
  and Prometheus text, shared by tests and CI smoke jobs;
* :class:`~repro.obs.progress.ProgressReporter` — live one-line progress
  with a recent-window ETA;
* :func:`~repro.obs.render.render_trace_file` — the text summary behind
  ``repro-tools obs render``;
* :mod:`repro.obs.forensics` — the post-run straggler/anomaly report
  behind ``repro-tools obs report``.
"""

from repro.obs.export import (
    chrome_trace,
    prometheus_text,
    write_chrome_trace,
    write_prometheus,
)
from repro.obs.http import OpsEndpoint
from repro.obs.metrics import (
    METRIC_INVENTORY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    WindowedRate,
)
from repro.obs.observer import (
    NULL_OBSERVER,
    NullObserver,
    Observer,
    SpanLogHandler,
    ensure_observer,
)
from repro.obs.profiler import SamplingProfiler
from repro.obs.progress import ProgressReporter
from repro.obs.render import load_trace_events, render_trace_file
from repro.obs.trace import Span, SpanTracer
from repro.obs.validate import validate_chrome_trace, validate_prometheus_text

__all__ = [
    "Span",
    "SpanTracer",
    "Counter",
    "Gauge",
    "Histogram",
    "WindowedRate",
    "MetricsRegistry",
    "METRIC_INVENTORY",
    "Observer",
    "NullObserver",
    "NULL_OBSERVER",
    "ensure_observer",
    "SpanLogHandler",
    "SamplingProfiler",
    "OpsEndpoint",
    "ProgressReporter",
    "chrome_trace",
    "write_chrome_trace",
    "prometheus_text",
    "write_prometheus",
    "render_trace_file",
    "load_trace_events",
    "validate_chrome_trace",
    "validate_prometheus_text",
]
