"""Ablation benchmarks for the design choices DESIGN.md calls out.

Not part of the paper's evaluation, but they isolate the mechanisms behind
its numbers:

* **total-order choice** — ParaMount accepts any linear extension; skewed
  extensions produce imbalanced intervals and worse makespans;
* **GC model on/off** — isolates how much of B-Para's advantage over the
  sequential BFS comes from reduced memory pressure versus parallelism;
* **subroutine choice** — bounded lexical versus bounded BFS inside the
  same partition (L-Para's stateless subroutine wins on memory and work);
* **conjunctive fast path** — the polynomial detector versus full
  enumeration for the predicate class where enumeration is avoidable
  (the paper's §1 motivation for *general-purpose* enumeration).
"""

import pytest

from repro.analysis.speedup import measure_paramount, measure_sequential, speedup_curve
from repro.core.paramount import ParaMount
from repro.core.simulated import CostModel, simulate_schedule
from repro.experiments.config import COST_MODEL
from repro.poset.topological import (
    lexicographic_topological_order,
    random_topological_order,
    topological_order,
)
from repro.predicates.conjunctive import ConjunctivePredicate, detect_conjunctive
from repro.util.rng import DeterministicRng
from repro.util.tables import TextTable
from repro.workloads.registry import ENUMERATION_WORKLOADS


@pytest.fixture(scope="module")
def d300():
    return ENUMERATION_WORKLOADS["d-300"].build_poset()


def test_ablation_total_order(benchmark, d300, artifact_sink):
    """Interval balance and modeled makespan across →p choices."""

    def run_all():
        results = {}
        orders = {
            "insertion": d300.insertion,
            "kahn-fifo": topological_order(d300),
            "lexicographic": lexicographic_topological_order(d300),
            "random": random_topological_order(d300, DeterministicRng(1)),
        }
        for name, order in orders.items():
            # COST_MODEL is calibrated on the reference kernel's work meter
            pm = ParaMount(d300, "lexical", order=order)
            result = pm.run()
            tasks = [
                COST_MODEL.task_seconds(s.work, s.peak_live)
                for s in result.intervals
            ]
            results[name] = (
                result.states,
                result.load_imbalance(),
                simulate_schedule(tasks, 8).makespan,
            )
        return results

    results = benchmark.pedantic(run_all, rounds=1, iterations=1)
    states = {v[0] for v in results.values()}
    assert len(states) == 1  # every order enumerates the same lattice

    table = TextTable(
        ["order", "states", "imbalance", "makespan(8) s"],
        title="Ablation: total-order choice (d-300, L-Para)",
    )
    for name, (st, imb, mk) in results.items():
        table.add_row([name, st, f"{imb:.2f}", f"{mk:.4f}"])
    artifact_sink("ablation_total_order", table.render())


def test_ablation_gc_model(benchmark, d300, artifact_sink):
    """B-Para(1) speedup over BFS with and without the GC cost model."""

    def run():
        seq = measure_sequential(d300, "bfs")
        para = measure_paramount(d300, "bfs")
        with_gc = speedup_curve("d-300", seq, para, cost_model=COST_MODEL)
        no_gc = speedup_curve(
            "d-300", seq, para, cost_model=CostModel(gc_threshold=10**12)
        )
        return with_gc, no_gc

    with_gc, no_gc = benchmark.pedantic(run, rounds=1, iterations=1)
    # GC pressure is a real part of the advantage...
    assert with_gc.speedup(1) > no_gc.speedup(1)
    # ...but bounded work savings alone already help
    assert no_gc.speedup(1) > 0.9

    table = TextTable(
        ["model", "B-Para(1)", "B-Para(8)"],
        title="Ablation: GC cost model (d-300, B-Para vs BFS)",
    )
    table.add_row(["with GC", f"{with_gc.speedup(1):.2f}", f"{with_gc.speedup(8):.2f}"])
    table.add_row(["no GC", f"{no_gc.speedup(1):.2f}", f"{no_gc.speedup(8):.2f}"])
    artifact_sink("ablation_gc_model", table.render())


def test_ablation_subroutine(benchmark, d300, artifact_sink):
    """Bounded lexical vs bounded BFS inside the same partition."""

    def run():
        return (
            measure_paramount(d300, "lexical"),
            measure_paramount(d300, "bfs"),
        )

    lex, bfs = benchmark.pedantic(run, rounds=1, iterations=1)
    assert lex.states == bfs.states
    assert lex.peak_live <= bfs.peak_live  # stateless vs level sets

    table = TextTable(
        ["subroutine", "states", "work", "peak live"],
        title="Ablation: ParaMount subroutine (d-300)",
    )
    table.add_row(["bounded lexical", lex.states, lex.work, lex.peak_live])
    table.add_row(["bounded BFS", bfs.states, bfs.work, bfs.peak_live])
    artifact_sink("ablation_subroutine", table.render())


def test_ablation_conjunctive_fast_path(benchmark, d300, artifact_sink):
    """Polynomial conjunctive detection vs full enumeration (paper §1: for
    restricted predicate classes, enumeration is avoidable)."""
    locals_ = [
        (lambda e: e.idx >= d300.lengths[0] // 2) if t == 0 else None
        for t in range(d300.num_threads)
    ]

    import time

    def fast():
        return detect_conjunctive(d300, locals_)

    witness = benchmark.pedantic(fast, rounds=3, iterations=1)
    assert witness is not None

    t0 = time.perf_counter()
    fast()
    fast_time = time.perf_counter() - t0

    pred = ConjunctivePredicate(locals_)
    t0 = time.perf_counter()
    ParaMount(d300).run(lambda cut: pred.check(cut, d300.frontier_events(cut)))
    slow_time = time.perf_counter() - t0
    assert pred.matches(), "enumeration must also find witnesses"

    table = TextTable(
        ["method", "seconds", "witness found"],
        title="Ablation: conjunctive predicate — polynomial vs enumeration (d-300)",
    )
    table.add_row(["Garg-Waldecker advance", f"{fast_time:.4f}", True])
    table.add_row(["full enumeration", f"{slow_time:.4f}", True])
    artifact_sink("ablation_conjunctive", table.render())
    assert fast_time < slow_time
