"""The ops endpoint: /metrics, /healthz, /progress under live load."""

from __future__ import annotations

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.core.executors import WorkStealingThreadExecutor
from repro.core.paramount import ParaMount
from repro.obs import Observer, OpsEndpoint, validate_prometheus_text
from tests.conftest import build_chain_poset


def fetch(url: str):
    with urllib.request.urlopen(url, timeout=5.0) as response:
        return response.status, response.headers, response.read().decode()


def test_endpoint_serves_metrics_healthz_progress():
    observer = Observer()
    observer.counter("states_enumerated_total").inc(42)
    observer.gauge("queue_depth").set(3)
    observer.histogram("enumeration_seconds").observe(0.02)
    with OpsEndpoint(observer) as ops:
        status, headers, text = fetch(f"{ops.url}/metrics")
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain")
        assert "repro_states_enumerated_total 42" in text
        assert validate_prometheus_text(text) == []

        status, _, body = fetch(f"{ops.url}/healthz")
        assert status == 200
        assert json.loads(body)["status"] == "ok"

        status, _, body = fetch(f"{ops.url}/progress")
        doc = json.loads(body)
        assert status == 200
        assert doc["states"] == 42
        assert doc["gauges"]["queue_depth"] == 3

        with pytest.raises(urllib.error.HTTPError) as err:
            fetch(f"{ops.url}/nope")
        assert err.value.code == 404


def test_healthz_degradation_reports_503():
    observer = Observer()
    health = {"status": "ok", "workers": 2}
    with OpsEndpoint(observer, health_provider=lambda: dict(health)) as ops:
        status, _, body = fetch(f"{ops.url}/healthz")
        assert status == 200
        health["status"] = "degraded"
        health["workers"] = 0
        with pytest.raises(urllib.error.HTTPError) as err:
            fetch(f"{ops.url}/healthz")
        assert err.value.code == 503
        assert json.loads(err.value.read().decode())["status"] == "degraded"


def test_provider_exception_is_a_500_not_a_crash():
    observer = Observer()

    def explode():
        raise RuntimeError("boom")

    with OpsEndpoint(observer, progress_provider=explode) as ops:
        with pytest.raises(urllib.error.HTTPError) as err:
            fetch(f"{ops.url}/progress")
        assert err.value.code == 500
        # the endpoint survives: a later request still works
        status, _, _ = fetch(f"{ops.url}/healthz")
        assert status == 200


def test_concurrent_scrapes_during_live_threaded_run():
    """Four scrapers hammer /metrics while a threaded enumeration runs;
    every scrape must be a complete, valid exposition."""
    observer = Observer()
    poset = build_chain_poset(3, 5)
    scraped: list = []
    errors: list = []
    done = threading.Event()

    def scrape_loop():
        while not done.is_set():
            try:
                status, _, text = fetch(f"{ops.url}/metrics")
                problems = validate_prometheus_text(text)
                scraped.append((status, len(text)))
                if status != 200 or problems:
                    errors.append((status, problems))
            except Exception as exc:  # noqa: BLE001 - recorded for assert
                errors.append(exc)

    with OpsEndpoint(observer) as ops:
        scrapers = [threading.Thread(target=scrape_loop) for _ in range(4)]
        for t in scrapers:
            t.start()
        try:
            result = ParaMount(
                poset, executor=WorkStealingThreadExecutor(2), observer=observer
            ).run()
        finally:
            done.set()
            for t in scrapers:
                t.join()
    assert not errors
    assert scraped  # the run was observed at least once
    snap = observer.snapshot()
    assert snap["counters"]["states_enumerated_total"] == result.states
