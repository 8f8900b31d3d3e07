"""Tracer and metrics registry: determinism under an injected fake clock."""

from __future__ import annotations

import threading

import pytest

from repro.obs import MetricsRegistry, SpanTracer
from repro.obs.metrics import Histogram


class FakeClock:
    """Deterministic clock: every reading advances by ``step`` seconds."""

    def __init__(self, start: float = 100.0, step: float = 0.25):
        self.now = start
        self.step = step

    def __call__(self) -> float:
        value = self.now
        self.now += self.step
        return value


# --------------------------------------------------------------------- #
# SpanTracer


def test_span_context_records_deterministic_span():
    tracer = SpanTracer(clock=FakeClock(start=10.0, step=1.0))
    with tracer.span("plan", "plan", workers=4):
        pass
    (span,) = tracer.spans()
    # FakeClock: anchor read at construction (10.0), enter at 11.0,
    # exit at 12.0.
    assert span.name == "plan"
    assert span.category == "plan"
    assert span.t0 == 11.0
    assert span.dt == 1.0
    assert span.attrs == {"workers": 4}
    assert not span.is_instant


def test_identical_runs_produce_identical_spans():
    def run():
        tracer = SpanTracer(clock=FakeClock())
        with tracer.span("a", "x", k=1):
            tracer.instant("marker", "x", hit=True)
        with tracer.span("b", "y"):
            pass
        return tracer.spans()

    assert run() == run()


def test_annotate_and_error_attrs():
    tracer = SpanTracer(clock=FakeClock())
    with tracer.span("task", "enumerate") as span:
        span.annotate(states=7)
    with pytest.raises(ValueError):
        with tracer.span("boom", "enumerate"):
            raise ValueError("nope")
    done, failed = tracer.spans()
    assert done.attrs == {"states": 7}
    assert failed.attrs == {"error": "ValueError"}


def test_instant_spans_are_zero_duration():
    tracer = SpanTracer(clock=FakeClock())
    tracer.instant("steal", "schedule", task=3)
    (span,) = tracer.spans()
    assert span.is_instant
    assert span.dt == 0.0
    assert span.attrs == {"task": 3}


def test_record_epoch_rebases_onto_tracer_timeline():
    tracer = SpanTracer(clock=FakeClock(start=50.0, step=0.0))
    # anchor_perf == 50.0; pretend the worker started 2.5 epoch-seconds
    # after the tracer's epoch anchor.
    epoch_t0 = tracer.anchor_epoch + 2.5
    tracer.record_epoch("I(e)", "enumerate", epoch_t0, 0.125, worker="pid-42")
    (span,) = tracer.spans()
    assert span.t0 == pytest.approx(52.5)
    assert span.dt == 0.125
    assert span.worker == "pid-42"


def test_worker_label_defaults_to_thread_name_and_is_pinnable():
    tracer = SpanTracer(clock=FakeClock())
    tracer.instant("a")
    tracer.set_worker("lane-7")
    tracer.instant("b")
    tracer.set_worker(None)
    first, second = tracer.spans()
    assert first.worker == threading.current_thread().name
    assert second.worker == "lane-7"


def test_per_thread_buffers_merge_sorted():
    clock = FakeClock(start=0.0, step=0.5)
    tracer = SpanTracer(clock=clock)

    def record(label):
        tracer.instant(label)

    threads = [
        threading.Thread(target=record, args=(f"t{i}",), name=f"rec-{i}")
        for i in range(4)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    tracer.instant("main")
    spans = tracer.spans()
    assert len(spans) == 5
    assert [s.t0 for s in spans] == sorted(s.t0 for s in spans)
    assert {s.worker for s in spans if s.name != "main"} == {
        "rec-0",
        "rec-1",
        "rec-2",
        "rec-3",
    }
    assert len(tracer) == 5
    tracer.clear()
    assert len(tracer) == 0
    assert tracer.spans() == []


# --------------------------------------------------------------------- #
# MetricsRegistry


def test_counter_sums_across_threads():
    registry = MetricsRegistry(clock=FakeClock())
    counter = registry.counter("states_enumerated_total")

    def bump():
        for _ in range(1000):
            counter.inc()

    threads = [threading.Thread(target=bump) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    counter.inc(5)
    assert counter.value() == 4005


def test_histogram_cumulative_buckets():
    hist = Histogram("enumeration_seconds", buckets=(0.1, 1.0, 10.0))
    for value in (0.05, 0.5, 0.5, 5.0, 50.0):
        hist.observe(value)
    snap = hist.snapshot()
    assert snap["buckets"] == {"0.1": 1, "1.0": 3, "10.0": 4, "+Inf": 5}
    assert snap["count"] == 5
    assert snap["sum"] == pytest.approx(56.05)


def test_histogram_rejects_unsorted_buckets():
    with pytest.raises(ValueError):
        Histogram("bad", buckets=(1.0, 0.5))


def test_registry_get_or_create_and_deterministic_snapshot():
    def build():
        registry = MetricsRegistry(clock=FakeClock(start=1.0, step=0.0))
        registry.counter("b_total").inc(2)
        registry.counter("a_total").inc(1)
        registry.gauge("level").set(3.5)
        registry.histogram("seconds", buckets=(1.0,)).observe(0.5)
        return registry

    registry = build()
    assert registry.counter("a_total") is registry.counter("a_total")
    snap = build().snapshot()
    assert snap == build().snapshot()
    assert list(snap["counters"]) == ["a_total", "b_total"]
    assert snap["at"] == 1.0
    assert snap["gauges"] == {"level": 3.5}
