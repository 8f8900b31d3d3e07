"""Extension benchmarks beyond the paper's evaluation.

* **online overhead** — online ParaMount (per-event insert + interval
  enumeration) versus the offline driver on the same poset: same states,
  modest constant overhead per insertion;
* **work-optimality scaling** — per-state metered work as the thread count
  grows: the paper's ``O(n²·i(P))`` bound shows up as sub-quadratic growth
  of work/states in ``n``;
* **multiprocessing backend** — the dist backend with two local worker
  processes (correctness + wall time; true speedup needs a multicore
  host);
* **distributed protocols** — enumeration and modeled speedup over the
  message-passing substrate's posets.
"""

import pytest

from repro.core.online import OnlineParaMount
from repro.core.paramount import ParaMount
from repro.core.simulated import simulate_schedule
from repro.dist import DistributedExecutor
from repro.distsim import DistributedSystem, poset_from_run
from repro.distsim.protocols import dist_mutex, ring_election
from repro.experiments.config import COST_MODEL
from repro.poset.random_posets import RandomComputationSpec, random_computation
from repro.util.tables import TextTable
from repro.workloads.registry import ENUMERATION_WORKLOADS


def test_online_vs_offline_overhead(benchmark, artifact_sink):
    poset = ENUMERATION_WORKLOADS["d-300"].build_poset()

    def run_online():
        # one subroutine on both sides, so the work columns compare the
        # drivers and not the kernels
        online = OnlineParaMount(poset.num_threads, subroutine="lexical")
        for event in poset.events_in_order():
            online.insert(event)
        return online.result

    online_result = benchmark.pedantic(run_online, rounds=1, iterations=1)
    offline_result = ParaMount(poset, "lexical").run()
    assert online_result.states == offline_result.states

    table = TextTable(
        ["driver", "states", "work", "wall seconds"],
        title="Extension: online vs offline enumeration (d-300)",
    )
    table.add_row(
        ["offline (Alg. 1)", offline_result.states, offline_result.work,
         f"{offline_result.wall_time:.3f}"]
    )
    table.add_row(
        ["online (Alg. 4)", online_result.states, online_result.work, "n/a"]
    )
    artifact_sink("ext_online_overhead", table.render())


def test_work_optimality_scaling(benchmark, artifact_sink):
    """work/states grows sub-quadratically with n (the O(n²) bound)."""

    def sweep():
        rows = []
        for n in (4, 6, 8, 10):
            poset = random_computation(
                RandomComputationSpec(n, n * 15, 1.0, seed=77)
            )
            result = ParaMount(poset, "lexical").run()
            rows.append((n, result.states, result.work / max(result.states, 1)))
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    table = TextTable(
        ["n", "states", "work/state"],
        title="Extension: per-state work vs thread count (L-Para meter)",
    )
    for n, states, per_state in rows:
        table.add_row([n, states, f"{per_state:.1f}"])
    artifact_sink("ext_work_scaling", table.render())
    # consistent with the O(n²) bound: growing n by 2.5x grows per-state
    # work by at most ~2.5² (generous 1.5x constant-factor envelope for
    # the backtracking scans' noise on small posets)
    first, last = rows[0][2], rows[-1][2]
    assert last / first < 1.5 * (rows[-1][0] / rows[0][0]) ** 2


def test_multiprocessing_backend(benchmark):
    poset = random_computation(RandomComputationSpec(6, 48, 0.8, seed=5))
    serial = ParaMount(poset).run()

    def run():
        return ParaMount(poset, executor=DistributedExecutor(workers=2)).run()

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    assert result.states == serial.states


@pytest.mark.parametrize(
    "name,builder",
    [
        ("election-6", lambda: ring_election(6, [4, 9, 1, 7, 3, 8])),
        ("mutex-broken-4", lambda: dist_mutex(4, safe=False)),
    ],
)
def test_distributed_enumeration(benchmark, artifact_sink, name, builder):
    run = DistributedSystem(builder(), seed=2).run()
    poset = poset_from_run(run)

    def enumerate_poset():
        # the cost model is calibrated on the reference kernel's work meter
        return ParaMount(poset, "lexical").run()

    result = benchmark.pedantic(enumerate_poset, rounds=1, iterations=1)
    tasks = [
        COST_MODEL.task_seconds(s.work, s.peak_live) for s in result.intervals
    ]
    speedup8 = (
        sum(tasks) / simulate_schedule(tasks, 8).makespan if tasks else 1.0
    )
    table = TextTable(
        ["poset", "n", "events", "states", "modeled speedup(8)"],
        title=f"Extension: distributed protocol enumeration ({name})",
    )
    table.add_row(
        [name, poset.num_threads, poset.num_events, result.states, f"{speedup8:.2f}"]
    )
    artifact_sink(f"ext_distributed_{name}", table.render())
    assert result.states > 0
