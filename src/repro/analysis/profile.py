"""Lattice and partition profiling.

``repro-tools profile`` and the ablation benches use this to answer "what
does this poset's lattice look like, and how well will ParaMount's
partition parallelize it?" without eyeballing raw numbers:

* lattice shape: state count, level count, widest level (the BFS memory
  driver);
* partition shape: interval-size distribution, load imbalance, and the
  modeled speedups at the paper's worker counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.core.paramount import ParaMount
from repro.core.scheduling import plan_schedule
from repro.core.simulated import CostModel, simulate_schedule
from repro.enumeration.bfs import BFSEnumerator
from repro.poset.poset import Poset
from repro.util.cuts import zero_cut
from repro.util.stats import Summary, summarize
from repro.util.tables import TextTable

__all__ = ["LatticeProfile", "profile_poset", "render_profile"]


@dataclass(frozen=True)
class LatticeProfile:
    """Shape summary of one poset's lattice and its ParaMount partition."""

    threads: int
    events: int
    states: int
    levels: int
    max_level_width: int
    interval_sizes: Summary
    load_imbalance: float
    modeled_speedup: Dict[int, float]
    #: Max/mean per-worker load after the adaptive split schedule, per
    #: worker count (compare against the static ``load_imbalance``).
    schedule_imbalance: Dict[int, float] = None  # type: ignore[assignment]
    #: Modeled speedup under the adaptive split schedule, per worker count.
    scheduled_speedup: Dict[int, float] = None  # type: ignore[assignment]
    #: Total measured enumeration seconds (sum of per-interval times from
    #: the profiling run's observer — real spans, not the cost model).
    measured_seconds: float = 0.0
    #: Speedup at each worker count when the simulated schedule is fed the
    #: *measured* per-interval seconds instead of modeled costs.
    measured_speedup: Dict[int, float] = None  # type: ignore[assignment]
    #: Measured seconds per span category ("plan", "enumerate", ...) from
    #: the profiling run's trace.
    span_seconds: Dict[str, float] = None  # type: ignore[assignment]


def profile_poset(
    poset: Poset,
    cost_model: Optional[CostModel] = None,
    worker_counts: Sequence[int] = (1, 2, 4, 8),
) -> LatticeProfile:
    """Profile the lattice (full enumeration — size the poset accordingly)."""
    from repro.obs import Observer

    model = cost_model if cost_model is not None else CostModel()
    widths = BFSEnumerator(poset).level_widths(
        zero_cut(poset.num_threads), poset.lengths
    )
    # Profile with a live observer: the run's spans give real measured
    # times alongside the cost model's predictions.  The model is
    # calibrated on the reference lexical kernel's work meter.
    observer = Observer()
    paramount = ParaMount(poset, "lexical", observer=observer)
    result = paramount.run()
    tasks = [model.task_seconds(s.work, s.peak_live) for s in result.intervals]
    serial = sum(tasks)
    speedups = {
        k: (serial / simulate_schedule(tasks, k).makespan if tasks else 1.0)
        for k in worker_counts
    }
    measured_tasks = [s.seconds for s in result.intervals]
    measured_serial = sum(measured_tasks)
    measured_speedup = {
        k: (
            measured_serial / simulate_schedule(measured_tasks, k).makespan
            if measured_tasks and measured_serial > 0
            else 1.0
        )
        for k in worker_counts
    }
    span_seconds: Dict[str, float] = {}
    for span in observer.spans():
        if not span.is_instant:
            span_seconds[span.category] = (
                span_seconds.get(span.category, 0.0) + span.dt
            )

    # The adaptive schedule's effect, modeled per worker count: sub-task
    # work is apportioned from the measured parent work by size-bound
    # share (the same heuristic the split budget itself uses).
    work_of = {s.event: s.work for s in result.intervals}
    peak_of = {s.event: s.peak_live for s in result.intervals}
    parent_bound = {iv.event: iv.size_bound for iv in paramount.intervals}
    schedule_imbalance: Dict[int, float] = {}
    scheduled_speedup: Dict[int, float] = {}
    for k in worker_counts:
        plan = plan_schedule(poset, paramount.intervals, "split-steal", k)
        split_tasks = [
            model.task_seconds(
                work_of.get(iv.event, 0)
                * iv.size_bound
                / parent_bound[iv.event],
                peak_of.get(iv.event, 0),
            )
            for iv in plan.tasks
        ]
        scheduled_speedup[k] = (
            serial / simulate_schedule(split_tasks, k).makespan
            if split_tasks
            else 1.0
        )
        bins = [0.0] * k
        for seconds in split_tasks:  # greedy deal in dispatch order
            bins[min(range(k), key=bins.__getitem__)] += seconds
        loads = [b for b in bins if b > 0]
        mean = sum(loads) / len(loads) if loads else 0.0
        schedule_imbalance[k] = max(loads) / mean if mean else 1.0

    return LatticeProfile(
        threads=poset.num_threads,
        events=poset.num_events,
        states=result.states,
        levels=len(widths),
        max_level_width=max(widths) if widths else 0,
        interval_sizes=summarize(
            [s.states for s in result.intervals] or [0]
        ),
        load_imbalance=result.load_imbalance(),
        modeled_speedup=speedups,
        schedule_imbalance=schedule_imbalance,
        scheduled_speedup=scheduled_speedup,
        measured_seconds=measured_serial,
        measured_speedup=measured_speedup,
        span_seconds=span_seconds,
    )


def render_profile(profile: LatticeProfile, title: str = "Lattice profile") -> str:
    """Render a profile as a two-column table."""
    table = TextTable(["metric", "value"], title=title)
    table.add_row(["threads (n)", profile.threads])
    table.add_row(["events |E|", profile.events])
    table.add_row(["global states i(P)", profile.states])
    table.add_row(["lattice levels", profile.levels])
    table.add_row(["widest level", profile.max_level_width])
    s = profile.interval_sizes
    table.add_row(
        ["interval sizes", f"mean {s.mean:.1f}, min {s.minimum:.0f}, max {s.maximum:.0f}"]
    )
    table.add_row(["load imbalance", f"{profile.load_imbalance:.2f}"])
    for k in sorted(profile.modeled_speedup):
        row = f"{profile.modeled_speedup[k]:.2f}x"
        if profile.scheduled_speedup:
            row += f" (split: {profile.scheduled_speedup.get(k, 0.0):.2f}x)"
        if profile.measured_speedup:
            row += f" (measured: {profile.measured_speedup.get(k, 0.0):.2f}x)"
        table.add_row([f"modeled speedup ({k}w)", row])
    if profile.schedule_imbalance:
        worst = max(profile.schedule_imbalance.values())
        table.add_row(["schedule imbalance (split)", f"{worst:.2f}"])
    if profile.measured_seconds:
        table.add_row(
            ["measured enumeration", f"{profile.measured_seconds:.4f}s"]
        )
    if profile.span_seconds:
        parts = ", ".join(
            f"{category} {seconds * 1e3:.1f}ms"
            for category, seconds in sorted(profile.span_seconds.items())
        )
        table.add_row(["span time by category", parts])
    return table.render()
