"""Exporter round-trips: Chrome trace-event JSON and Prometheus text."""

from __future__ import annotations

import json

import pytest

from repro.obs import (
    MetricsRegistry,
    Span,
    chrome_trace,
    prometheus_text,
    write_chrome_trace,
)
from repro.obs.render import load_trace_events, render_trace_file


def sample_spans():
    return [
        Span("plan_schedule", "plan", 1.0, 0.5, "MainThread", {"workers": 2}),
        Span("I(e1)", "enumerate", 1.5, 0.25, "steal-0", {"states": 3}),
        Span("steal", "schedule", 1.6, 0.0, "steal-1", {"task": 4}),
        Span("I(e2)", "enumerate", 1.7, 0.125, "steal-1", {}),
    ]


def test_chrome_trace_round_trips_through_json():
    doc = json.loads(json.dumps(chrome_trace(sample_spans())))
    events = doc["traceEvents"]
    assert isinstance(events, list) and events
    for event in events:
        assert event["ph"] in ("X", "i", "M")
        assert event["pid"] == 1
        assert isinstance(event["tid"], int)
        if event["ph"] != "M":
            assert event["ts"] >= 0.0
        if event["ph"] == "X":
            assert event["dur"] >= 0.0
        if event["ph"] == "i":
            assert event["s"] == "t"


def test_chrome_trace_one_lane_per_worker():
    doc = chrome_trace(sample_spans())
    names = {
        e["args"]["name"]: e["tid"]
        for e in doc["traceEvents"]
        if e["ph"] == "M" and e["name"] == "thread_name"
    }
    assert set(names) == {"MainThread", "steal-0", "steal-1"}
    assert len(set(names.values())) == 3  # distinct tids
    # every span lands on its worker's lane
    lanes = {v: k for k, v in names.items()}
    for e in doc["traceEvents"]:
        if e["ph"] == "X":
            worker = lanes[e["tid"]]
            assert any(
                s.name == e["name"] and s.worker == worker
                for s in sample_spans()
            )


def test_chrome_trace_timestamps_relative_microseconds():
    doc = chrome_trace(sample_spans())
    xs = [e for e in doc["traceEvents"] if e["ph"] == "X"]
    first = min(xs, key=lambda e: e["ts"])
    assert first["ts"] == 0.0
    assert first["dur"] == pytest.approx(0.5 * 1e6)


def test_write_chrome_trace_is_loadable(tmp_path):
    path = write_chrome_trace(tmp_path / "trace.json", sample_spans())
    events = load_trace_events(path)
    assert len(events) == 4 + 2 * 3  # spans + 2 metadata per lane
    summary = render_trace_file(path, top=2)
    assert "worker lane" in summary
    assert "steal-1" in summary


def test_load_trace_events_rejects_non_trace_json(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"nope": 1}))
    with pytest.raises(ValueError):
        load_trace_events(bad)


def test_prometheus_text_parses_line_by_line():
    registry = MetricsRegistry(clock=lambda: 0.0)
    registry.counter("states_enumerated_total").inc(413)
    registry.gauge("intervals_pending").set(7)
    registry.histogram("enumeration_seconds", buckets=(0.1, 1.0)).observe(0.05)
    text = prometheus_text(registry.snapshot())
    assert text.endswith("\n")
    seen = {}
    for line in text.splitlines():
        assert line  # no blank lines
        if line.startswith("# HELP "):
            _, _, metric, help_text = line.split(" ", 3)
            assert metric.startswith("repro_") and help_text
            continue
        if line.startswith("# TYPE "):
            _, _, metric, kind = line.split(" ")
            assert kind in ("counter", "gauge", "histogram")
            seen[metric] = kind
            continue
        name, value = line.rsplit(" ", 1)
        float(value)  # parses as a number
        assert name.startswith("repro_")
    assert seen["repro_states_enumerated_total"] == "counter"
    assert seen["repro_intervals_pending"] == "gauge"
    assert seen["repro_enumeration_seconds"] == "histogram"
    assert "repro_states_enumerated_total 413" in text
    assert 'repro_enumeration_seconds_bucket{le="0.1"} 1' in text
    assert "repro_enumeration_seconds_count 1" in text
    # inventoried metrics are self-describing
    assert "# HELP repro_states_enumerated_total " in text


def test_prometheus_text_renders_labeled_series():
    registry = MetricsRegistry(clock=lambda: 0.0)
    registry.counter("states_enumerated_total").inc(10)
    registry.counter("states_enumerated_total", labels={"host": "host0"}).inc(4)
    registry.counter("states_enumerated_total", labels={"host": "host1"}).inc(6)
    registry.histogram(
        "enumeration_seconds", buckets=(0.1,), labels={"host": "host0"}
    ).observe(0.05)
    text = prometheus_text(registry.snapshot())
    assert 'repro_states_enumerated_total{host="host0"} 4' in text
    assert 'repro_states_enumerated_total{host="host1"} 6' in text
    assert "repro_states_enumerated_total 10" in text
    # labeled histogram buckets merge the host label with le=
    assert 'repro_enumeration_seconds_bucket{host="host0",le="0.1"} 1' in text
    assert 'repro_enumeration_seconds_count{host="host0"} 1' in text
    # one family header regardless of how many labeled children exist
    assert text.count("# TYPE repro_states_enumerated_total counter") == 1


def test_prometheus_sanitizes_metric_names():
    registry = MetricsRegistry(clock=lambda: 0.0)
    registry.counter("weird-name.with chars").inc()
    text = prometheus_text(registry.snapshot())
    assert "repro_weird_name_with_chars 1" in text
