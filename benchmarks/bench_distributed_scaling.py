"""Distributed scaling — modeled multi-host speedup + real recovery cost.

Two measurements back the distributed backend's claims:

* **Modeled scaling** — the skewed straggler extension of each workload
  is enumerated once serially to meter per-interval work, then the
  coordinator's dispatch plan (split+steal, the distributed default) is
  replayed on the modeled parallel machine (DESIGN.md §3) at 1/2/4/8
  simulated hosts.  Because the Theorem-2 intervals ship as descriptors
  and the split budget caps the largest task, speedup should stay near
  linear in host count even on the skewed poset.
* **Real recovery overhead** — one coordinator plus two spawned worker
  processes enumerate the same poset twice over real sockets: fault-free,
  then with one worker ``kill -9``'d mid-run (``kill_after``).  The
  faulted run must still match the serial state count exactly (the
  survivor absorbs the re-dispatched leases); the wall-clock ratio
  quantifies what a worker death costs end-to-end.

Results land in ``benchmarks/results/BENCH_distributed_scaling.json``.
Acceptance (ISSUE 8): split+steal parallel efficiency on the skewed
raytracer extension stays ≥ 0.8 at every simulated host count, and the
killed-worker run's state counts are identical to serial.

``BENCH_DIST_SMOKE=1`` restricts the modeled sweep to sor (the raytracer
acceptance asserts are skipped) for the CI smoke job.
"""

import json
import os
import time

import pytest

from repro.core.paramount import ParaMount
from repro.core.scheduling import plan_schedule
from repro.core.simulated import CostModel, simulate_schedule
from repro.dist import DistributedExecutor, WireFaults
from repro.workloads.extensions import EXTRA_EVENTS, extended_poset
from repro.workloads.registry import ENUMERATION_WORKLOADS

from conftest import RESULTS_DIR

SMOKE = bool(int(os.environ.get("BENCH_DIST_SMOKE", "0")))

NAMES = ("sor",) if SMOKE else ("sor", "raytracer")
HOSTS = (1, 2, 4, 8)

#: Minimum parallel efficiency (speedup / hosts) on raytracer/skewed.
EFFICIENCY_FLOOR = 0.8

#: Real-socket workload for the recovery measurement — small enough that
#: two runs with per-task wire round-trips stay in CI budget.
RECOVERY_WORKLOAD = "tsp"

MODEL = CostModel()

_results: dict = {}


@pytest.mark.parametrize("name", NAMES)
def test_modeled_host_scaling(name):
    poset = extended_poset(name, "skewed")
    # the cost model is calibrated on the reference kernel's work meter
    paramount = ParaMount(poset, "lexical")
    result = paramount.run()
    work_of = {s.event: s.work for s in result.intervals}
    peak_of = {s.event: s.peak_live for s in result.intervals}
    parent_bound = {iv.event: iv.size_bound for iv in paramount.intervals}
    serial = sum(
        MODEL.task_seconds(s.work, s.peak_live) for s in result.intervals
    )
    hosts: dict = {}
    for k in HOSTS:
        plan = plan_schedule(poset, paramount.intervals, "split-steal", k)
        seconds = [
            MODEL.task_seconds(
                work_of[iv.event] * iv.size_bound / parent_bound[iv.event],
                peak_of[iv.event],
            )
            for iv in plan.tasks
        ]
        makespan = simulate_schedule(seconds, k).makespan
        speedup = serial / makespan if makespan else 1.0
        hosts[str(k)] = {
            "makespan_seconds": makespan,
            "speedup": speedup,
            "efficiency": speedup / k,
            "tasks": len(plan.tasks),
        }
    _results.setdefault(name, {})["modeled"] = {
        "events": poset.num_events,
        "states": result.states,
        "serial_modeled_seconds": serial,
        "static_imbalance": result.load_imbalance(),
        "hosts": hosts,
    }


def test_real_recovery_overhead(tmp_path):
    """Fault-free vs killed-worker wall clock over real sockets."""
    poset = ENUMERATION_WORKLOADS[RECOVERY_WORKLOAD].build_poset()
    serial = ParaMount(poset).run()

    def run(wire_faults=None):
        executor = DistributedExecutor(
            workers=2,
            lease_seconds=2.0,
            no_worker_grace=5.0,
            wire_faults=wire_faults,
        )
        t0 = time.perf_counter()
        result = ParaMount(poset, executor=executor, schedule="fifo").run()
        return result, time.perf_counter() - t0

    clean, clean_wall = run()
    faulted, faulted_wall = run(WireFaults(seed=0, kill_after=3))
    assert clean.complete and clean.states == serial.states
    assert faulted.complete and faulted.states == serial.states
    assert faulted.interval_sizes() == serial.interval_sizes()
    assert faulted.redispatches >= 1
    _results["recovery"] = {
        "workload": RECOVERY_WORKLOAD,
        "states": serial.states,
        "intervals": len(serial.intervals),
        "fault_free_seconds": clean_wall,
        "killed_worker_seconds": faulted_wall,
        "overhead_ratio": faulted_wall / clean_wall if clean_wall else 1.0,
        "redispatches": faulted.redispatches,
        "leases_expired": faulted.leases_expired,
        "surviving_hosts": faulted.hosts,
    }


def test_emit_json(artifact_sink):
    lines = ["distributed scaling (modeled hosts, DESIGN.md §3):"]
    for name in NAMES:
        modeled = _results[name]["modeled"]
        per_host = "  ".join(
            f"{k}h {modeled['hosts'][str(k)]['speedup']:5.2f}x" for k in HOSTS
        )
        lines.append(
            f"  {name:9s} states {modeled['states']:>9,}  "
            f"imb {modeled['static_imbalance']:6.2f}  {per_host}"
        )
    recovery = _results["recovery"]
    lines.append(
        f"  recovery ({recovery['workload']}, 2 workers, one kill -9'd): "
        f"{recovery['fault_free_seconds']:.2f}s clean vs "
        f"{recovery['killed_worker_seconds']:.2f}s faulted "
        f"({recovery['overhead_ratio']:.2f}x, "
        f"{recovery['redispatches']} re-dispatch(es))"
    )
    lines.append(
        f"  target: efficiency ≥ {EFFICIENCY_FLOOR} on raytracer/skewed at "
        f"every host count; killed-worker states identical to serial"
    )
    payload = {
        "benchmark": "distributed_scaling",
        "smoke": SMOKE,
        "hosts": list(HOSTS),
        "extra_events": {n: EXTRA_EVENTS[n] for n in NAMES},
        "efficiency_floor": EFFICIENCY_FLOOR,
        "workloads": _results,
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    out = RESULTS_DIR / "BENCH_distributed_scaling.json"
    out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    artifact_sink("BENCH_distributed_scaling", "\n".join(lines))

    if not SMOKE:
        hosts = _results["raytracer"]["modeled"]["hosts"]
        for k in HOSTS:
            assert hosts[str(k)]["efficiency"] >= EFFICIENCY_FLOOR, k
        speedups = [hosts[str(k)]["speedup"] for k in HOSTS]
        assert speedups == sorted(speedups)
