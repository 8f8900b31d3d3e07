"""Metric inventory audit: every emitted series is self-describing.

Greps the source tree for metric registrations (``.counter("…")``,
``.gauge("…")``, ``.histogram("…")``, ``.windowed_rate("…")``) and pins
them against
:data:`repro.obs.metrics.METRIC_INVENTORY`, then proves the Prometheus
exporter emits a ``# HELP``/``# TYPE`` header for every inventoried
family.  Adding a call site without an inventory row fails here, not on
someone's dashboard.
"""

from __future__ import annotations

import re
from pathlib import Path

import repro
from repro.obs import MetricsRegistry, prometheus_text
from repro.obs.metrics import METRIC_INVENTORY

SRC = Path(repro.__file__).resolve().parent

#: Registration call sites, by the kind the inventory must declare.
_PATTERNS = {
    "counter": re.compile(r"\.counter\(\s*\n?\s*\"([a-z0-9_]+)\""),
    "gauge": re.compile(r"\.gauge\(\s*\n?\s*\"([a-z0-9_]+)\""),
    "histogram": re.compile(r"\.histogram\(\s*\n?\s*\"([a-z0-9_]+)\""),
    "gauge-rate": re.compile(r"\.windowed_rate\(\s*\n?\s*\"([a-z0-9_]+)\""),
}


def registered_series():
    """(kind, name, file) for every literal registration in the tree."""
    found = []
    for path in sorted(SRC.rglob("*.py")):
        if path == SRC / "obs" / "metrics.py":
            continue  # defines the inventory; its docstring cites a fake name
        text = path.read_text()
        for kind, pattern in _PATTERNS.items():
            for name in pattern.findall(text):
                found.append((kind, name, path.name))
    return found


def test_source_tree_registrations_have_inventory_rows():
    series = registered_series()
    assert series, "the grep found no registrations — pattern rot?"
    missing = sorted(
        {
            f"{name} ({kind} in {file})"
            for kind, name, file in series
            if name not in METRIC_INVENTORY
        }
    )
    assert not missing, f"metrics registered without inventory rows: {missing}"


def test_registration_kinds_match_inventory():
    mismatched = []
    for kind, name, file in registered_series():
        declared = METRIC_INVENTORY[name][0]
        # windowed rates export as gauges; both spellings are one family
        expected = "gauge" if kind == "gauge-rate" else kind
        if declared != expected:
            mismatched.append(f"{name}: registered {expected}, declared {declared}")
    assert not mismatched, mismatched


def test_inventory_help_text_is_well_formed():
    for name, (kind, help_text) in METRIC_INVENTORY.items():
        assert kind in ("counter", "gauge", "histogram"), name
        assert help_text and help_text[0].isupper() and "\n" not in help_text, name
        if kind == "counter":
            assert name.endswith("_total"), f"{name}: counters end in _total"


def test_every_inventoried_family_exports_help_and_type():
    registry = MetricsRegistry(clock=lambda: 0.0)
    for name, (kind, _) in METRIC_INVENTORY.items():
        if kind == "counter":
            registry.counter(name).inc()
        elif kind == "histogram":
            registry.histogram(name).observe(0.1)
        else:
            registry.gauge(name).set(1)
    text = prometheus_text(registry.snapshot())
    for name, (kind, help_text) in METRIC_INVENTORY.items():
        assert f"# HELP repro_{name} {help_text}\n" in text, name
        assert f"# TYPE repro_{name} {kind}\n" in text, name
