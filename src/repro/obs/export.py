"""Exporters: Chrome trace-event JSON and Prometheus text.

* :func:`chrome_trace` — the Trace Event Format consumed by Perfetto and
  ``chrome://tracing``: one ``pid`` for the run, one ``tid`` **lane per
  worker** (thread or worker process), complete events (``ph="X"``) for
  timed spans and instant events (``ph="i"``) for markers like steals and
  retries.  Timestamps are microseconds relative to the earliest span, so
  a trace from an injected fake clock is byte-deterministic.
* :func:`prometheus_text` — the Prometheus exposition format for a
  :meth:`~repro.obs.metrics.MetricsRegistry.snapshot`: every family gets
  its ``# HELP``/``# TYPE`` header (help text from
  :data:`~repro.obs.metrics.METRIC_INVENTORY`), labeled series render
  their label sets, histograms ship cumulative ``_bucket`` lines, and
  windowed rates are exported as gauges.
"""

from __future__ import annotations

import json
import re
from pathlib import Path
from typing import Dict, List, Sequence, Tuple, Union

from repro.obs.metrics import inventory_entry, split_series_key
from repro.obs.trace import Span

__all__ = [
    "chrome_trace",
    "write_chrome_trace",
    "prometheus_text",
    "write_prometheus",
]

_METRIC_NAME_RE = re.compile(r"[^a-zA-Z0-9_:]")


def _lane_order(spans: Sequence[Span]) -> List[str]:
    """Worker lane labels in order of first appearance (by start time)."""
    lanes: List[str] = []
    seen = set()
    for span in sorted(spans, key=lambda s: s.t0):
        if span.worker not in seen:
            seen.add(span.worker)
            lanes.append(span.worker)
    return lanes


def chrome_trace(spans: Sequence[Span], pid: int = 1) -> Dict[str, object]:
    """Render spans as a Chrome trace-event JSON object.

    Load the written file in https://ui.perfetto.dev or chrome://tracing:
    each worker is one named lane; splits show up as ``schedule`` spans,
    steals as instant markers on the thief's lane.  Spans with category
    ``"counter"`` (recorded by ``Observer.counter_sample``) become
    ``ph="C"`` counter events — plotted tracks of live levels such as
    states/sec and leased/pending — rather than lane markers.
    """
    counters = [s for s in spans if s.category == "counter"]
    spans = [s for s in spans if s.category != "counter"]
    lanes = _lane_order(spans)
    tid_of = {lane: tid for tid, lane in enumerate(lanes)}
    t_base = min((s.t0 for s in spans + counters), default=0.0)
    events: List[Dict[str, object]] = []
    for tid, lane in enumerate(lanes):
        events.append(
            {
                "ph": "M",
                "pid": pid,
                "tid": tid,
                "name": "thread_name",
                "args": {"name": lane},
            }
        )
        events.append(
            {
                "ph": "M",
                "pid": pid,
                "tid": tid,
                "name": "thread_sort_index",
                "args": {"sort_index": tid},
            }
        )
    for span in sorted(spans, key=lambda s: (s.t0, s.dt)):
        ts = (span.t0 - t_base) * 1e6
        event: Dict[str, object] = {
            "name": span.name,
            "cat": span.category or "default",
            "pid": pid,
            "tid": tid_of[span.worker],
            "ts": ts,
            "args": dict(span.attrs),
        }
        if span.is_instant:
            event["ph"] = "i"
            event["s"] = "t"  # thread-scoped marker
        else:
            event["ph"] = "X"
            event["dur"] = span.dt * 1e6
        events.append(event)
    for span in sorted(counters, key=lambda s: s.t0):
        events.append(
            {
                "name": span.name,
                "cat": "counter",
                "ph": "C",
                "pid": pid,
                "tid": 0,
                "ts": (span.t0 - t_base) * 1e6,
                "args": {"value": span.attrs.get("value", 0)},
            }
        )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(
    path: Union[str, Path], spans: Sequence[Span], pid: int = 1
) -> Path:
    """Write :func:`chrome_trace` output as JSON; returns the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(chrome_trace(spans, pid=pid), indent=1) + "\n")
    return path


# ---------------------------------------------------------------------- #
# Prometheus


def _metric_name(name: str) -> str:
    """Sanitize and namespace a series name for Prometheus exposition."""
    name = _METRIC_NAME_RE.sub("_", name)
    return name if name.startswith("repro_") else f"repro_{name}"


def _format_value(value: float) -> str:
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value)


def _labels_suffix(
    labels: Dict[str, str], extra: Union[Dict[str, str], None] = None
) -> str:
    items = dict(labels)
    if extra:
        items.update(extra)
    if not items:
        return ""
    body = ",".join(f'{key}="{items[key]}"' for key in sorted(items))
    return "{" + body + "}"


def _families(section: Dict[str, object]) -> List[Tuple[str, List[Tuple[Dict[str, str], object]]]]:
    """Group a snapshot section's series keys into (base name, series) families.

    Snapshot sections are sorted by series key, so the unlabeled series of
    a family (plain ``name``) always precedes its labeled siblings
    (``name{...}``) and family order is deterministic.
    """
    grouped: Dict[str, List[Tuple[Dict[str, str], object]]] = {}
    for key, value in section.items():
        base, labels = split_series_key(key)
        grouped.setdefault(base, []).append((labels, value))
    return sorted(grouped.items())


def _family_header(lines: List[str], base: str, kind: str) -> str:
    metric = _metric_name(base)
    entry = inventory_entry(base)
    if entry is not None:
        lines.append(f"# HELP {metric} {entry[1]}")
    lines.append(f"# TYPE {metric} {kind}")
    return metric


def prometheus_text(snapshot: Dict[str, object]) -> str:
    """Render a metrics snapshot in the Prometheus text exposition format.

    Each family is announced once with ``# HELP`` (from the metric
    inventory, when registered there) and ``# TYPE``; labeled series from
    :func:`~repro.obs.metrics.series_key` keys render their label sets, so
    a coordinator's per-host histograms scrape as
    ``repro_enumeration_seconds_bucket{host="host0",le="0.1"}``.
    Windowed rates are instantaneous readings and export as gauges.
    """
    lines: List[str] = []
    for base, series in _families(snapshot.get("counters", {})):  # type: ignore[arg-type]
        metric = _family_header(lines, base, "counter")
        for labels, value in series:
            lines.append(
                f"{metric}{_labels_suffix(labels)} {_format_value(value)}"
            )
    gauges: Dict[str, object] = dict(snapshot.get("gauges", {}))  # type: ignore[arg-type]
    for key, rate in snapshot.get("rates", {}).items():  # type: ignore[union-attr]
        gauges.setdefault(key, rate)
    for base, series in _families(dict(sorted(gauges.items()))):
        metric = _family_header(lines, base, "gauge")
        for labels, value in series:
            lines.append(
                f"{metric}{_labels_suffix(labels)} {_format_value(value)}"
            )
    for base, series in _families(snapshot.get("histograms", {})):  # type: ignore[arg-type]
        metric = _family_header(lines, base, "histogram")
        for labels, hist in series:
            for bound, count in hist["buckets"].items():
                suffix = _labels_suffix(labels, {"le": bound})
                lines.append(f"{metric}_bucket{suffix} {count}")
            lines.append(
                f"{metric}_sum{_labels_suffix(labels)} "
                f"{_format_value(hist['sum'])}"
            )
            lines.append(
                f"{metric}_count{_labels_suffix(labels)} {hist['count']}"
            )
    return "\n".join(lines) + "\n"


def write_prometheus(
    path: Union[str, Path], snapshot: Dict[str, object]
) -> Path:
    """Write :func:`prometheus_text` output; returns the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(prometheus_text(snapshot))
    return path
