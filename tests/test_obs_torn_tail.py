"""Torn-tail tolerance for the Chrome trace reader: a truncated final
write (a process killed mid-flush) loses only its torn tail, and a file
that was never a trace is still refused."""

from __future__ import annotations

import pytest

from repro.obs import Span, write_chrome_trace
from repro.obs.render import load_trace_events, render_trace_file


def sample_spans():
    return [
        Span("plan_schedule", "plan", 1.0, 0.5, "MainThread", {"workers": 2}),
        Span("I(e1)", "enumerate", 1.5, 0.25, "steal-0", {"states": 3}),
        Span("I(e2)", "enumerate", 1.7, 0.125, "steal-1", {}),
    ]


def test_render_recovers_truncated_chrome_trace(tmp_path):
    path = write_chrome_trace(tmp_path / "trace.json", sample_spans())
    text = path.read_text()
    # chop the file mid-event: the torn tail (and closing brackets) vanish
    torn = tmp_path / "torn.json"
    torn.write_text(text[: int(len(text) * 0.8)])
    events = load_trace_events(torn)
    intact = load_trace_events(path)
    assert 0 < len(events) < len(intact)
    summary = render_trace_file(torn)
    assert "trace:" in summary


def test_render_still_rejects_non_trace_garbage(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("this was never a trace {")
    with pytest.raises(ValueError):
        load_trace_events(bad)
