"""Adaptive interval scheduling: splitting, dispatch, stealing, resume.

The load-bearing property is Figure 6a's: recursively splitting an
interval yields pairwise-disjoint sub-boxes whose consistent cuts exactly
tile the parent's.  The property test certifies it on random posets two
independent ways — by exhaustive enumeration with ``interval_of_cut`` as
the membership oracle, and by the exact ideal-counting DP inside
``validate_split``.  Its dual, coalescing pieces into runs, must never
make a task heavier than the plan's largest piece.  The rest covers the
plan shapes, the work-stealing executor, and checkpoint identity of split
tasks.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.conftest import build_chain_poset, small_posets
from repro.core.executors import SerialExecutor, Task, WorkStealingThreadExecutor
from repro.core.intervals import Interval, compute_intervals, interval_of_cut
from repro.core.metrics import ExecutorReport
from repro.core.paramount import ParaMount
from repro.core.scheduling import (
    SchedulePolicy,
    coalesce,
    pivot_split,
    plan_schedule,
    split_interval,
    validate_split,
)
from repro.enumeration.base import make_enumerator
from repro.errors import CheckpointError
from repro.poset.topological import lexicographic_topological_order
from repro.resilience.checkpoint import CheckpointJournal, poset_digest


def enumerate_box(poset, lo, hi):
    """All consistent cuts in ``[lo, hi]`` via the sequential enumerator."""
    cuts = []
    make_enumerator("lexical", poset).enumerate_interval(
        lo, hi, lambda c: cuts.append(tuple(c))
    )
    return cuts


# --------------------------------------------------------------------- #
# the split partition property


@settings(max_examples=40, deadline=None)
@given(poset=small_posets())
def test_split_tiles_parent_exactly(poset):
    """Pieces are pairwise disjoint and their union is the parent interval.

    ``interval_of_cut`` is the oracle: every cut enumerated from the
    parent box lands in exactly one piece, and no piece holds a cut the
    parent lacks.  ``validate_split`` independently re-proves it with the
    exact ideal-counting DP.
    """
    intervals = compute_intervals(poset)
    for parent in intervals:
        if parent.size_bound <= 2:
            continue
        budget = max(parent.size_bound // 4, 1)
        parts = split_interval(poset, parent, budget)
        validate_split(poset, parent, parts)  # DP count + box disjointness
        if len(parts) == 1:
            continue
        parent_cuts = enumerate_box(poset, parent.lo, parent.hi)
        for cut in parent_cuts:
            owners = [p for p in parts if p.contains(cut)]
            assert len(owners) == 1, (cut, parent.event)
        pieces_total = sum(
            len(enumerate_box(poset, p.lo, p.hi)) for p in parts
        )
        assert pieces_total == len(parent_cuts)
        # the pieces never escape the partition: every cut still resolves
        # to the parent's interval through the Lemma-2 fast path
        for cut in parent_cuts:
            owner = interval_of_cut(poset, intervals, cut, validate=True)
            assert owner is not None and owner.event == parent.event


def test_pivot_split_point_box_is_unsplittable(figure4_poset):
    iv = Interval(event=(0, 1), lo=(1, 1), hi=(1, 1))
    assert pivot_split(figure4_poset, iv) is None


def test_split_respects_budget_and_cap():
    poset = build_chain_poset(3, 4)  # 5^3 = 125-state grid
    parent = compute_intervals(poset)[-1]
    parts = split_interval(poset, parent, budget=4)
    assert all(p.size_bound <= 4 or p.size_bound == 1 for p in parts)
    capped = split_interval(poset, parent, budget=1, max_parts=6)
    assert len(capped) <= 6
    with pytest.raises(ValueError):
        split_interval(poset, parent, budget=0)


# --------------------------------------------------------------------- #
# plan shapes


def test_fifo_plan_is_the_partition(figure4_poset):
    intervals = compute_intervals(figure4_poset)
    plan = plan_schedule(figure4_poset, intervals, "fifo", workers=8)
    assert plan.tasks == intervals
    assert plan.descriptor == "unsplit"
    assert plan.split_intervals == 0


def test_serial_plan_matches_fifo_even_when_adaptive(figure4_poset):
    intervals = compute_intervals(figure4_poset)
    plan = plan_schedule(figure4_poset, intervals, None, workers=1)
    assert plan.tasks == intervals  # scheduling engages only with >1 worker
    assert plan.descriptor == "unsplit"


def test_largest_first_orders_by_size_bound():
    poset = build_chain_poset(2, 5)
    intervals = compute_intervals(poset)
    plan = plan_schedule(poset, intervals, "largest", workers=4)
    bounds = [iv.size_bound for iv in plan.tasks]
    assert bounds == sorted(bounds, reverse=True)
    assert sorted(iv.event for iv in plan.tasks) == sorted(
        iv.event for iv in intervals
    )


def test_split_plan_budget_and_counts():
    poset = build_chain_poset(3, 4)
    intervals = compute_intervals(poset)
    plan = plan_schedule(poset, intervals, None, workers=4)
    assert plan.budget is not None and plan.descriptor.startswith("split(")
    assert plan.split_intervals >= 1
    pieces = [[iv for iv in plan.tasks if iv.event == parent.event] for parent in intervals]
    for parent, parts in zip(intervals, pieces):
        validate_split(poset, parent, parts)
    assert sum(len(parts) > 1 for parts in pieces) == plan.split_intervals
    assert sum(map(len, pieces)) == len(plan.tasks) > len(intervals)


def test_schedule_policy_parse_round_trip():
    for name in ("fifo", "largest", "split-steal"):
        assert SchedulePolicy.parse(name).name == name
    # "split" stays accepted for existing scripts; it is the same policy
    assert SchedulePolicy.parse("split") == SchedulePolicy.parse("split-steal")
    assert SchedulePolicy.parse("adaptive").name == "split-steal"
    assert SchedulePolicy.parse(None).name == "split-steal"
    policy = SchedulePolicy(split=False)
    assert SchedulePolicy.parse(policy) is policy
    with pytest.raises(ValueError):
        SchedulePolicy.parse("lifo")


@settings(max_examples=40, deadline=None)
@given(
    poset=small_posets(),
    policy=st.sampled_from(["fifo", "largest", "split-steal"]),
    workers=st.integers(min_value=1, max_value=4),
)
def test_no_run_outweighs_the_plans_largest_piece(poset, policy, workers):
    """Coalescing groups every piece into exactly one run; a run's summed
    size bound stays within the plan's cap (so within its largest piece)
    unless the run is one piece; serial runs keep →p order and parallel
    largest-first runs are dispatched heaviest first."""
    intervals = compute_intervals(poset)
    plan = plan_schedule(poset, intervals, policy, workers)
    runs = coalesce(plan, plan.tasks, intervals)
    largest = max(iv.size_bound for iv in plan.tasks)
    assert plan.cap <= largest
    pieces = [iv for run in runs for iv in run]
    assert sorted(map(id, pieces)) == sorted(map(id, plan.tasks))
    weights = [sum(iv.size_bound for iv in run) for run in runs]
    for run, weight in zip(runs, weights):
        assert weight <= largest
        assert len(run) == 1 or weight <= plan.cap
    if plan.largest_first:
        assert weights == sorted(weights, reverse=True)
    else:
        assert pieces == plan.tasks


def test_coalesce_joins_tiny_intervals_and_isolates_large_ones():
    poset, order = skewed_poset()
    intervals = compute_intervals(poset, order)
    plan = plan_schedule(poset, intervals, "fifo", 1)
    runs = coalesce(plan, plan.tasks, intervals)
    assert len(runs) < len(plan.tasks)
    for run in runs:
        if any(iv.size_bound >= plan.cap for iv in run):
            assert len(run) == 1
    # a resumed run regroups only what is pending, under the same cap
    pending = plan.tasks[1::2]
    regrouped = coalesce(plan, pending, intervals)
    assert [iv for run in regrouped for iv in run] == pending


# --------------------------------------------------------------------- #
# the work-stealing executor


def test_stealing_executor_preserves_order_and_results():
    tasks = []
    for i in range(20):
        def task(i=i):
            return i * i
        tasks.append(Task(task, weight=20 - i))
    ex = WorkStealingThreadExecutor(4)
    report = ex.map_tasks(tasks)
    assert report.results == [i * i for i in range(20)]
    assert len(report.worker_load) == 4
    assert ex.map_tasks([]).results == []


def test_stealing_executor_steals_from_stragglers():
    import time

    def slow():
        time.sleep(0.2)
        return "slow"

    def quick(tag):
        def task():
            return tag
        return task

    # LPT deal with these weights: deque0 = [slow(8), q3(5)],
    # deque1 = [q1(7), q2(6)].  Worker 1 drains its deque while worker 0
    # is stuck in `slow`, then steals q3 off deque0.
    fns = [slow, quick("q1"), quick("q2"), quick("q3")]
    tasks = [Task(fn, weight=weight) for fn, weight in zip(fns, (8, 7, 6, 5))]
    ex = WorkStealingThreadExecutor(2)
    report = ex.map_tasks(tasks)
    assert report.results == ["slow", "q1", "q2", "q3"]
    assert report.steals >= 1


def test_stealing_executor_propagates_task_exception():
    def boom():
        raise RuntimeError("interval exploded")

    ex = WorkStealingThreadExecutor(3)
    with pytest.raises(RuntimeError, match="interval exploded"):
        ex.map_tasks([Task(lambda: 1), Task(boom), Task(lambda: 2)])


# --------------------------------------------------------------------- #
# end-to-end counts, visit multisets, and observability


def skewed_poset():
    poset = build_chain_poset(3, 5)  # independent chains skew hardest
    return poset, lexicographic_topological_order(poset)


def test_split_steal_counts_match_serial():
    poset, order = skewed_poset()
    serial = ParaMount(poset, order=order).run()
    r = ParaMount(
        poset, order=order, executor=WorkStealingThreadExecutor(4)
    ).run()
    assert r.states == serial.states
    assert r.interval_sizes() == serial.interval_sizes()
    assert r.schedule == "split-steal"
    assert r.split_intervals >= 1
    assert len(r.tasks) > len(r.intervals)
    assert sum(s.states for s in r.tasks) == r.states


def test_schedule_imbalance_improves_on_skewed_partition():
    poset, order = skewed_poset()
    r = ParaMount(
        poset, order=order, executor=WorkStealingThreadExecutor(4)
    ).run()
    assert r.load_imbalance() > 2.0  # the static partition is skewed
    assert r.schedule_imbalance() < r.load_imbalance()


def test_fifo_schedule_keeps_old_serial_visit_order():
    poset, order = skewed_poset()
    seen_fifo, seen_default = [], []
    ParaMount(poset, order=order, schedule="fifo").run(
        lambda c: seen_fifo.append(tuple(c))
    )
    ParaMount(poset, order=order).run(lambda c: seen_default.append(tuple(c)))
    # with a serial executor the adaptive default degenerates to fifo
    assert seen_fifo == seen_default


# --------------------------------------------------------------------- #
# checkpoint identity of split tasks


class AbortAfter(SerialExecutor):
    """Runs ``kill_at`` tasks, then dies — but claims many workers so the
    schedule plan matches a parallel run's.  ``pieces`` lists the pieces
    the finished tasks carried."""

    name = "abort-after"

    def __init__(self, kill_at, num_workers=4):
        super().__init__()
        self.num_workers = num_workers
        self.kill_at = kill_at
        self.pieces = []

    def map_tasks(self, tasks, context=None):
        done = []
        for index, task in enumerate(tasks):
            if index >= self.kill_at:
                raise RuntimeError(f"killed after {self.kill_at} tasks")
            done.append(task())
            self.pieces.extend(task.pieces)
        return ExecutorReport(results=done)


def test_split_checkpoint_kill_and_resume(tmp_path):
    poset, order = skewed_poset()
    path = tmp_path / "split.ckpt"
    base = ParaMount(
        poset, order=order, executor=WorkStealingThreadExecutor(4)
    ).run()
    assert base.split_intervals >= 1

    abort = AbortAfter(3)
    with pytest.raises(RuntimeError):
        ParaMount(
            poset, order=order, executor=abort, checkpoint=path
        ).run()
    finished = len(abort.pieces)
    assert 3 <= finished < len(base.tasks)
    journal_lines = path.read_text().splitlines()
    assert len(journal_lines) == 1 + finished  # header + finished sub-tasks

    resumed = ParaMount(
        poset,
        order=order,
        executor=WorkStealingThreadExecutor(4),
        checkpoint=path,
    ).run()
    assert resumed.resumed_intervals == finished
    assert resumed.states == base.states
    assert resumed.interval_sizes() == base.interval_sizes()
    # journal now covers every scheduled sub-task exactly once
    assert len(path.read_text().splitlines()) == 1 + len(base.tasks)


def test_split_resume_only_visits_fresh_states(tmp_path):
    """A resumed run's visitor sees exactly the unfinished sub-tasks'
    states — derived from the journal, not from interval positions."""
    poset, order = skewed_poset()
    path = tmp_path / "fresh.ckpt"
    kill_at = 4
    with pytest.raises(RuntimeError):
        ParaMount(
            poset, order=order, executor=AbortAfter(kill_at), checkpoint=path
        ).run()
    import json

    journaled = sum(
        json.loads(line)["states"]
        for line in path.read_text().splitlines()[1:]
    )
    fresh = []
    resumed = ParaMount(
        poset,
        order=order,
        executor=AbortAfter(10**9),  # same plan (same num_workers), no kill
        checkpoint=path,
    ).run(lambda c: fresh.append(tuple(c)))
    assert len(fresh) == resumed.states - journaled
    assert len(set(fresh)) == len(fresh)


def test_resume_refuses_different_split_schedule(tmp_path):
    poset, order = skewed_poset()
    path = tmp_path / "shape.ckpt"
    ParaMount(
        poset, order=order, executor=WorkStealingThreadExecutor(4),
        checkpoint=path,
    ).run()
    with pytest.raises(CheckpointError, match="schedule"):
        ParaMount(
            poset,
            order=order,
            executor=WorkStealingThreadExecutor(2),  # different budget
            checkpoint=path,
        ).run()


def test_legacy_unsplit_journal_still_resumes(tmp_path):
    """A journal with no schedule field (pre-split era) reads as unsplit."""
    poset, order = skewed_poset()
    path = tmp_path / "legacy.ckpt"
    intervals = compute_intervals(poset, order)
    journal = CheckpointJournal(path)
    journal.load(poset_digest(poset), "lexical", intervals)
    # strip the schedule field from the header, as an old writer would
    import json

    lines = path.read_text().splitlines()
    header = json.loads(lines[0])
    del header["schedule"]
    path.write_text("\n".join([json.dumps(header)] + lines[1:]) + "\n")
    serial = ParaMount(poset, order=order).run()
    resumed = ParaMount(poset, "lexical", order=order, checkpoint=path).run()
    assert resumed.states == serial.states
