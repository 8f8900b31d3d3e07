"""Distributed observability: per-host series, live scrapes, reconciliation.

The acceptance bar: during a distributed run the coordinator's /metrics
serves per-host-labeled series, counted from the pieces each *first*
commit carries, so they reconcile exactly: the per-host
``enumeration_seconds`` counts with the checkpoint journal's committed
records, ``states_enumerated_total`` with the result's states and
``intervals_enumerated_total`` with its pieces, duplicate and stale acks
notwithstanding — whether or not a heartbeat ever pulsed during the run.
"""

from __future__ import annotations

import json
import threading
import urllib.request

from repro.core.paramount import ParaMount
from repro.dist import DistributedExecutor
from repro.obs import Observer, validate_prometheus_text
from repro.obs.metrics import split_series_key
from repro.workloads.registry import ENUMERATION_WORKLOADS


def committed_records(path):
    return sum(
        1
        for line in path.read_text().splitlines()
        if line.strip() and json.loads(line).get("kind") == "interval"
    )


def test_dist_run_reconciles_and_serves_per_host_metrics(tmp_path):
    poset = ENUMERATION_WORKLOADS["d-300"].build_poset()
    journal = tmp_path / "dist.ckpt"
    observer = Observer()
    executor = DistributedExecutor(
        workers=2,
        lease_seconds=2.0,
        no_worker_grace=5.0,
        http_port=0,
    )
    scrapes: list = []
    errors: list = []
    done = threading.Event()

    def scrape_loop():
        while not done.is_set():
            coord = executor.last_coordinator
            ops = getattr(coord, "ops", None) if coord is not None else None
            if ops is None:
                done.wait(0.05)
                continue
            try:
                with urllib.request.urlopen(
                    f"{ops.url}/metrics", timeout=5.0
                ) as response:
                    text = response.read().decode()
                problems = validate_prometheus_text(text)
                if problems:
                    errors.append(problems)
                scrapes.append(text)
            except Exception:  # noqa: BLE001 - endpoint may be mid-teardown
                pass
            done.wait(0.05)

    scraper = threading.Thread(target=scrape_loop)
    scraper.start()
    try:
        result = ParaMount(
            poset,
            executor=executor,
            checkpoint=journal,
            schedule="split-steal",
            observer=observer,
        ).run()
    finally:
        done.set()
        scraper.join()

    assert result.complete
    assert not errors, errors[:1]
    assert scrapes, "the endpoint was never scraped during the run"

    # per-host first-commit histogram counts == journal committed records
    snap = observer.snapshot()
    labeled_count = 0
    hosts = set()
    for key, hist in snap["histograms"].items():
        name, labels = split_series_key(key)
        if name == "enumeration_seconds" and "host" in labels:
            labeled_count += hist["count"]
            hosts.add(labels["host"])
    assert labeled_count == committed_records(journal) == len(result.tasks)
    assert hosts <= {"host0", "host1"} and hosts

    # commits produced per-host counter series that sum to the result
    def per_host(metric):
        return {
            split_series_key(key)[1]["host"]: value
            for key, value in snap["counters"].items()
            if split_series_key(key)[0] == metric
            and "host" in split_series_key(key)[1]
        }

    labeled_states = per_host("states_enumerated_total")
    assert labeled_states and set(labeled_states) == hosts
    assert sum(labeled_states.values()) == result.states
    assert sum(per_host("intervals_enumerated_total").values()) == len(
        result.tasks
    )
