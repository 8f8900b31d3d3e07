"""Pipeline metrics: counters, gauges, histograms, windowed rates.

The registry mirrors the axes the related work measures — states/second
and work accounting (arXiv:2008.12516), per-level memory (arXiv:1707.07788)
— as first-class series the exporters can ship:

* :class:`Counter` — monotone totals (``states_enumerated_total``,
  ``steals_total``).  Increments land in lock-free per-thread cells (the
  same discipline as the span tracer) and are summed at snapshot time, so
  a counter bump on the enumeration hot path is an attribute lookup and an
  integer add, no lock.
* :class:`Gauge` — last-write-wins level (``intervals_pending``).
* :class:`~repro.obs.timeseries.Histogram` — fixed log-spaced cumulative
  buckets with the same per-thread-cell discipline, plus p50/p95/p99
  estimates in every snapshot (``enumeration_seconds``),
  Prometheus-compatible.
* :class:`~repro.obs.timeseries.WindowedRate` — recent-window rates
  (``states_per_second``) for live dashboards and ETA, exported as gauges.

Series may carry **labels** (``labels={"host": "host0"}``): the registry
keys the instance by ``name{k="v",…}`` and the Prometheus exporter splits
the key back into name and label set, so per-host series from a
distributed coordinator coexist with the unlabeled totals.

:data:`METRIC_INVENTORY` is the registry of record for every series the
codebase emits — name, type, and help text.  The exporter draws its
``# HELP``/``# TYPE`` lines from it, and a pin test greps the source tree
for registrations to prove no counter is incremented anywhere without an
inventory entry (so a scrape is always self-describing).

Snapshots are plain dicts with deterministically ordered keys; under an
injected fake clock two identical runs snapshot byte-identically.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.obs.timeseries import (
    DEFAULT_SECONDS_BUCKETS,
    Histogram,
    WindowedRate,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "WindowedRate",
    "MetricsRegistry",
    "DEFAULT_SECONDS_BUCKETS",
    "METRIC_INVENTORY",
    "series_key",
    "split_series_key",
    "inventory_entry",
]

Clock = Callable[[], float]

#: Every metric series the codebase registers, name -> (type, help).
#: The Prometheus exporter emits ``# HELP``/``# TYPE`` from this table and
#: ``tests/test_obs_inventory.py`` greps registrations against it, so a
#: new ``observer.counter("x_total")`` call site without an entry here
#: fails the build, not the dashboard.
METRIC_INVENTORY: Dict[str, Tuple[str, str]] = {
    # enumeration core
    "states_enumerated_total": (
        "counter", "Consistent global states enumerated across all intervals."
    ),
    "intervals_enumerated_total": (
        "counter", "Interval tasks completed (sub-tasks counted separately)."
    ),
    "enumeration_seconds": (
        "histogram", "Wall-clock seconds per interval enumeration task."
    ),
    "states_per_second": (
        "gauge", "Recent-window enumeration rate in states per second."
    ),
    "intervals_per_second": (
        "gauge", "Recent-window interval completion rate per second."
    ),
    "queue_depth": (
        "gauge", "Interval tasks not yet completed by the current executor."
    ),
    "tasks_queued": (
        "gauge", "Tasks left in the work-stealing deques at the last steal."
    ),
    "intervals_split_total": (
        "counter", "Oversized intervals split by the adaptive scheduler."
    ),
    # executors / resilience
    "steals_total": (
        "counter", "Tasks executed by a worker other than the one dealt to."
    ),
    "retry_attempts_total": (
        "counter", "Interval task resubmissions by the resilient executors."
    ),
    "checkpoint_records_total": (
        "counter", "Interval records flushed to the checkpoint journal."
    ),
    # online front-end
    "events_inserted_total": (
        "counter", "Events inserted into the online enumeration front-end."
    ),
    # detector
    "predicates_fast_pathed_total": (
        "counter", "Predicates routed to a slicing fast path by the planner."
    ),
    "predicates_demoted_total": (
        "counter", "Predicates demoted to full enumeration (unsound claims)."
    ),
    # distributed backend
    "leases_expired_total": (
        "counter", "Interval leases that expired without an acknowledgement."
    ),
    "redispatches_total": (
        "counter", "Interval tasks re-queued after lease expiry or worker loss."
    ),
    "duplicate_acks_total": (
        "counter", "Acknowledgements dropped because the task already committed."
    ),
    "stale_acks_total": (
        "counter", "Acknowledgements refused for a mismatched poset digest."
    ),
    "stale_workers_total": (
        "counter", "Workers rejected at handshake for a mismatched digest."
    ),
    "task_errors_total": (
        "counter", "Interval tasks that raised on a worker (task-error)."
    ),
    "leases_pending": (
        "gauge", "Distributed tasks waiting for a worker lease."
    ),
    "leases_leased": (
        "gauge", "Distributed tasks currently leased to a worker."
    ),
    "leases_committed": (
        "gauge", "Distributed tasks committed exactly once to the journal."
    ),
    "dist_workers_connected": (
        "gauge", "Worker connections currently held by the coordinator."
    ),
    # profiler
    "profiler_samples_total": (
        "counter", "Stack samples captured by the sampling profiler."
    ),
}


def inventory_entry(name: str) -> Optional[Tuple[str, str]]:
    """The ``(type, help)`` inventory row for a series base name, if any."""
    return METRIC_INVENTORY.get(name)


def series_key(name: str, labels: Optional[Mapping[str, str]] = None) -> str:
    """The registry key for a series: ``name`` or ``name{k="v",…}``."""
    if not labels:
        return name
    rendered = ",".join(
        f'{key}="{labels[key]}"' for key in sorted(labels)
    )
    return f"{name}{{{rendered}}}"


def split_series_key(key: str) -> Tuple[str, Dict[str, str]]:
    """Invert :func:`series_key` back into ``(name, labels)``."""
    name, brace, rest = key.partition("{")
    if not brace:
        return key, {}
    labels: Dict[str, str] = {}
    for part in rest.rstrip("}").split(","):
        if not part:
            continue
        label, _, value = part.partition("=")
        labels[label] = value.strip('"')
    return name, labels


class Counter:
    """A monotone counter with lock-free per-thread cells."""

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self._local = threading.local()
        self._lock = threading.Lock()
        self._cells: List[List[float]] = []

    def _cell(self) -> List[float]:
        cell = getattr(self._local, "cell", None)
        if cell is None:
            cell = self._local.cell = [0.0]
            with self._lock:
                self._cells.append(cell)
        return cell

    def inc(self, amount: float = 1) -> None:
        """Add ``amount`` (must be ≥ 0) to the calling thread's cell."""
        self._cell()[0] += amount

    def value(self) -> float:
        """Total across every thread's cell."""
        with self._lock:
            return sum(cell[0] for cell in self._cells)


class Gauge:
    """A settable level (last write wins; ``inc``/``dec`` are convenience)."""

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = value

    def inc(self, amount: float = 1) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1) -> None:
        self.inc(-amount)

    def value(self) -> float:
        with self._lock:
            return self._value


class MetricsRegistry:
    """Creates and snapshots the pipeline's metric series.

    ``counter``/``gauge``/``histogram``/``windowed_rate`` are
    get-or-create: the same name (and label set) always returns the same
    instance, so call sites need no coordination.
    """

    def __init__(self, clock: Optional[Clock] = None):
        self.clock: Clock = clock if clock is not None else time.perf_counter
        self._lock = threading.Lock()
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._rates: Dict[str, WindowedRate] = {}

    def counter(
        self,
        name: str,
        help: str = "",
        labels: Optional[Mapping[str, str]] = None,
    ) -> Counter:
        key = series_key(name, labels)
        with self._lock:
            metric = self._counters.get(key)
            if metric is None:
                metric = self._counters[key] = Counter(key, help)
            return metric

    def gauge(
        self,
        name: str,
        help: str = "",
        labels: Optional[Mapping[str, str]] = None,
    ) -> Gauge:
        key = series_key(name, labels)
        with self._lock:
            metric = self._gauges.get(key)
            if metric is None:
                metric = self._gauges[key] = Gauge(key, help)
            return metric

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: Sequence[float] = DEFAULT_SECONDS_BUCKETS,
        labels: Optional[Mapping[str, str]] = None,
    ) -> Histogram:
        key = series_key(name, labels)
        with self._lock:
            metric = self._histograms.get(key)
            if metric is None:
                metric = self._histograms[key] = Histogram(key, help, buckets)
            return metric

    def windowed_rate(
        self,
        name: str,
        window: float = 10.0,
        labels: Optional[Mapping[str, str]] = None,
    ) -> WindowedRate:
        key = series_key(name, labels)
        with self._lock:
            metric = self._rates.get(key)
            if metric is None:
                metric = self._rates[key] = WindowedRate(
                    key, window=window, clock=self.clock
                )
            return metric

    def snapshot(self) -> Dict[str, object]:
        """Deterministically ordered dump of every series.

        ``at`` is the registry clock's reading, so snapshots taken under a
        fake clock are fully reproducible.  Windowed rates appear under
        ``rates`` as their current per-second reading.
        """
        with self._lock:
            counters = dict(self._counters)
            gauges = dict(self._gauges)
            histograms = dict(self._histograms)
            rates = dict(self._rates)
        return {
            "at": self.clock(),
            "counters": {
                name: counters[name].value() for name in sorted(counters)
            },
            "gauges": {name: gauges[name].value() for name in sorted(gauges)},
            "histograms": {
                name: histograms[name].snapshot() for name in sorted(histograms)
            },
            "rates": {name: rates[name].rate() for name in sorted(rates)},
        }
