"""End-to-end observability: the pipeline emits its spans and counters —
capture → plan → schedule → enumerate → checkpoint — with steal/retry
markers and one trace lane per worker."""

from __future__ import annotations

import io
import threading

import pytest

from repro.core.executors import (
    RetryPolicy,
    RunContext,
    SerialExecutor,
    Task,
    WorkStealingThreadExecutor,
)
from repro.core.online import OnlineParaMount
from repro.core.paramount import ParaMount
from repro.detector.paramount_detector import ParaMountDetector
from repro.obs import Observer, ProgressReporter, SpanLogHandler
from repro.resilience import FaultSpec, ResilientExecutor
from repro.resilience.checkpoint import CheckpointJournal
from repro.runtime import Fork, Join, Program, Write, run_program
from repro.util.log import get_logger
from repro.workloads.registry import ENUMERATION_WORKLOADS

from tests.conftest import build_chain_poset, build_figure4_poset

FAST_RETRY = RetryPolicy(max_attempts=3, base_delay=0.0, max_delay=0.0, jitter=0.0)


def spans_by_category(observer):
    out = {}
    for span in observer.spans():
        out.setdefault(span.category, []).append(span)
    return out


# --------------------------------------------------------------------- #
# offline driver


def test_offline_run_emits_pipeline_spans_and_counters():
    observer = Observer()
    result = ParaMount(build_chain_poset(3, 3), observer=observer).run()
    cats = spans_by_category(observer)
    plan_names = {s.name for s in cats["plan"]}
    assert {"compute_intervals", "plan_schedule"} <= plan_names
    assert any(s.name == "map_tasks" for s in cats["schedule"])
    enumerate_spans = [s for s in cats["enumerate"] if not s.is_instant]
    assert len(enumerate_spans) == len(result.tasks)
    assert all(s.name.startswith("I(") for s in enumerate_spans)
    assert all(s.dt >= 0.0 for s in enumerate_spans)
    # per-task attrs carry the interval's yield
    assert sum(s.attrs["states"] for s in enumerate_spans) == result.states
    counters = observer.snapshot()["counters"]
    assert counters["states_enumerated_total"] == result.states
    assert counters["intervals_enumerated_total"] == len(result.tasks)


def test_split_schedule_counts_splits_and_measures_seconds():
    observer = Observer()
    result = ParaMount(
        build_chain_poset(3, 4),
        executor=WorkStealingThreadExecutor(4),
        schedule="split-steal",
        observer=observer,
    ).run()
    assert result.split_intervals > 0
    counters = observer.snapshot()["counters"]
    assert counters["intervals_split_total"] == result.split_intervals
    # satellite fix: every task records measured wall seconds
    assert all(s.seconds > 0.0 for s in result.tasks)
    assert result.schedule_imbalance() >= 1.0


def test_steal_instants_and_counter():
    """A guaranteed steal: the LPT deal (ties to the lowest worker) gives
    worker 0 ``[blocker, setter]`` and worker 1 two instant fillers.  The
    blocker waits on an event only the setter sets, and worker 0 is stuck
    in the blocker — so worker 1 must steal from worker 0's deque for the
    run to finish.  Every steal appears as an instant plus a counter bump."""
    observer = Observer()
    executor = WorkStealingThreadExecutor(2)
    release = threading.Event()

    def blocker():
        release.wait(timeout=5.0)
        return "blocked"

    def setter():
        release.set()
        return "set"

    def filler(i):
        return i

    fns = [blocker, lambda: filler(1), setter, lambda: filler(2)]
    tasks = [Task(fn, weight=weight) for fn, weight in zip(fns, (10, 10, 9, 1))]
    report = executor.map_tasks(tasks, RunContext(observer=observer))
    assert report.results == ["blocked", 1, "set", 2]
    assert report.steals > 0
    steal_spans = [s for s in observer.spans() if s.name == "steal"]
    assert len(steal_spans) == report.steals
    assert all(s.category == "schedule" for s in steal_spans)
    assert all("task" in s.attrs and "weight" in s.attrs for s in steal_spans)
    counters = observer.snapshot()["counters"]
    assert counters["steals_total"] == report.steals


def test_one_lane_per_worker_in_stealing_run():
    """Acceptance: an 8-worker split-steal trace renders one lane per
    worker — worker_start opens every lane even if one thread drains all
    the tasks."""
    observer = Observer()
    ParaMount(
        build_chain_poset(3, 4),
        executor=WorkStealingThreadExecutor(8),
        schedule="split-steal",
        observer=observer,
    ).run()
    starts = [s for s in observer.spans() if s.name == "worker_start"]
    lanes = {s.worker for s in starts}
    assert lanes == {f"steal-{i}" for i in range(8)}


# --------------------------------------------------------------------- #
# online driver


def test_online_insert_counters_and_spans():
    observer = Observer()
    om = OnlineParaMount(2, observer=observer)
    poset = build_figure4_poset()
    for event in poset.events_in_order():
        om.insert(event)
    assert om.result.states == 8
    counters = observer.snapshot()["counters"]
    assert counters["events_inserted_total"] == 4
    assert counters["states_enumerated_total"] == 8
    cats = spans_by_category(observer)
    assert len([s for s in cats["clock"] if s.name == "append_stamped"]) == 4
    online_spans = [s for s in cats["enumerate"] if not s.is_instant]
    assert len(online_spans) == 4
    # Both drivers' pieces record the same span attributes.
    offline = Observer()
    ParaMount(poset, observer=offline).run()
    offline_spans = [
        s for s in spans_by_category(offline)["enumerate"] if not s.is_instant
    ]
    assert {frozenset(s.attrs) for s in online_spans} == {
        frozenset(s.attrs) for s in offline_spans
    }


# --------------------------------------------------------------------- #
# capture + detector


def test_detector_wires_observer_through_capture_and_detection():
    def worker(ctx):
        yield Write("x", ctx.tid)

    def main(ctx):
        a = yield Fork(worker)
        b = yield Fork(worker)
        yield Join(a)
        yield Join(b)

    observer = Observer()
    program = Program("race", main, max_threads=3, shared={})
    trace = run_program(program, seed=0, observer=observer)
    capture_spans = [s for s in observer.spans() if s.category == "capture"]
    assert len(capture_spans) == 1
    assert capture_spans[0].name == "run_program"
    assert capture_spans[0].attrs["ops"] == len(trace)

    report = ParaMountDetector(observer=observer).run(trace)
    assert report.sorted_vars() == ["x"]
    detect_spans = [s for s in observer.spans() if s.category == "detect"]
    assert len(detect_spans) == 1
    counters = observer.snapshot()["counters"]
    assert counters["events_inserted_total"] == report.poset_events
    assert counters["states_enumerated_total"] == report.states_enumerated


# --------------------------------------------------------------------- #
# checkpoint + resilience


def test_checkpoint_flush_spans(tmp_path):
    observer = Observer()
    journal = CheckpointJournal(tmp_path / "run.journal")
    result = ParaMount(
        build_chain_poset(2, 3), checkpoint=journal, observer=observer
    ).run()
    flushes = [s for s in observer.spans() if s.category == "checkpoint"]
    named = [s for s in flushes if s.name == "flush"]
    # one flush per write, one write per task (a run of interval pieces)
    (mapped,) = [s for s in observer.spans() if s.name == "map_tasks"]
    assert len(named) == mapped.attrs["tasks"]
    assert sum(s.attrs["records"] for s in named) == len(result.intervals)
    assert all(s.attrs["bytes"] > 0 for s in named)
    counters = observer.snapshot()["counters"]
    assert counters["checkpoint_records_total"] == len(result.intervals)


def test_reused_executor_and_journal_report_to_each_runs_observer(tmp_path):
    """One thread pool and one journal serve a killed run and its resume:
    each run's observer holds exactly its own run's lane markers, steals
    and journal writes, and nothing of the other run's."""
    poset = ENUMERATION_WORKLOADS["d-300"].build_poset()
    executor = WorkStealingThreadExecutor(2)
    journal = CheckpointJournal(tmp_path / "run.ckpt")
    killed, resumed = Observer(), Observer()
    seen = [0]

    def kill_midway(cut):
        seen[0] += 1
        if seen[0] == 20_000:
            raise RuntimeError("killed")

    with pytest.raises(RuntimeError, match="killed"):
        ParaMount(
            poset, executor=executor, checkpoint=journal, schedule="fifo",
            observer=killed,
        ).run(kill_midway)
    result = ParaMount(
        poset, executor=executor, checkpoint=journal, schedule="fifo",
        observer=resumed,
    ).run()
    assert result.complete
    assert 0 < result.resumed_intervals < len(result.tasks)

    def named(observer, name):
        return [s for s in observer.spans() if s.name == name]

    # each run's one gather opened both lanes in its own trace
    assert len(named(killed, "worker_start")) == 2
    assert len(named(resumed, "worker_start")) == 2
    assert len(named(resumed, "steal")) == result.steals
    assert resumed.snapshot()["counters"].get("steals_total", 0) == result.steals
    # the killed run wrote the records the resume restored; the resume
    # wrote the rest
    restored = sum(s.attrs["records"] for s in named(killed, "flush"))
    fresh = sum(s.attrs["records"] for s in named(resumed, "flush"))
    assert restored == result.resumed_intervals
    assert fresh == len(result.tasks) - result.resumed_intervals


def test_resilient_retries_emit_instants_and_counter():
    observer = Observer()
    ex = ResilientExecutor(
        SerialExecutor(),
        retry=FAST_RETRY,
        fault_spec=FaultSpec(seed=0, poison=frozenset({1})),
    )
    report = ex.map_tasks(
        [Task(lambda: "a"), Task(lambda: "b"), Task(lambda: "c")],
        RunContext(observer=observer),
    )
    assert report.results == ["a", None, "c"]
    retries = [s for s in observer.spans() if s.name == "retry"]
    assert retries  # poisoned task retried before failing permanently
    counters = observer.snapshot()["counters"]
    assert counters["retry_attempts_total"] == len(retries)


# --------------------------------------------------------------------- #
# logging bridge + progress


def test_span_log_handler_turns_warnings_into_log_instants():
    observer = Observer()
    handler = SpanLogHandler(observer)
    logger = get_logger("test_obs_pipeline")
    logger.addHandler(handler)
    try:
        logger.warning(
            "degraded %s", "bfs", extra={"degrade_kind": "subroutine"}
        )
        logger.debug("too quiet to record")
    finally:
        logger.removeHandler(handler)
    logs = [s for s in observer.spans() if s.category == "log"]
    assert len(logs) == 1
    span = logs[0]
    assert span.name == "degraded bfs"
    assert span.attrs["level"] == "WARNING"
    assert span.attrs["logger"] == "repro.test_obs_pipeline"
    assert span.attrs["degrade_kind"] == "subroutine"
    assert span.is_instant


def test_progress_reporter_rate_limits_under_fake_clock():
    clock_value = [0.0]

    def clock():
        return clock_value[0]

    stream = io.StringIO()
    reporter = ProgressReporter(
        stream=stream, min_interval=1.0, clock=clock, total_tasks=4
    )
    reporter.on_task_done(10, 0.1)  # t=0: emitted (first update)
    reporter.on_task_done(10, 0.1)  # t=0: suppressed
    clock_value[0] = 2.0
    reporter.on_task_done(10, 0.1)  # t=2: emitted
    reporter.on_task_done(10, 0.1)  # t=2: suppressed
    reporter.close()  # forced final line
    lines = stream.getvalue().strip().splitlines()
    assert len(lines) == reporter.lines_emitted == 3
    assert "intervals 4/4 done (pending 0)" in lines[-1]
    assert "states=40" in lines[-1]


def test_progress_wired_through_offline_run():
    stream = io.StringIO()
    reporter = ProgressReporter(stream=stream, min_interval=0.0)
    observer = Observer(progress=reporter)
    result = ParaMount(build_chain_poset(2, 3), observer=observer).run()
    reporter.close()
    assert reporter.tasks_done == len(result.tasks)
    assert reporter.states == result.states
    assert reporter.total_tasks == len(result.tasks)
    assert stream.getvalue().count("progress:") == reporter.lines_emitted


def test_degradation_warning_and_span_on_oom(tmp_path):
    """BFS-over-budget degradation logs a warning and leaves an instant
    marker in the trace."""
    observer = Observer()
    poset = build_chain_poset(3, 4)
    result = ParaMount(
        poset,
        subroutine="bfs",
        memory_budget=1,
        degrade_on_oom=True,
        observer=observer,
    ).run()
    assert result.degradations  # every interval fell back
    marks = [s for s in observer.spans() if s.name == "degrade_subroutine"]
    assert len(marks) == len(result.degradations)
    assert all(s.attrs["to"] == "lexical-packed" for s in marks)
