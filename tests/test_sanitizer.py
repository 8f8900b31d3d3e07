"""Runtime sanitizer tests: clean pipelines and injected violations."""

from collections import defaultdict

import pytest

from repro.core.paramount import ParaMount
from repro.core.intervals import Interval
from repro.detector.hb import HBFrontEnd
from repro.errors import SanitizerError
from repro.poset.poset import Poset
from repro.runtime import run_program
from repro.runtime.trace import TraceOp
from repro.staticcheck import (
    EnumerationSanitizer,
    PipelineSanitizer,
    TraceSanitizer,
)
from repro.workloads import banking
from repro.workloads.registry import detection_workload


# --------------------------------------------------------------------- #
# clean runs


def _sanitized_pipeline(program, seed=0):
    """Full Table 1 pipeline — simulate, HB clocks, ParaMount — with one
    sanitizer watching every stage."""
    sanitizer = PipelineSanitizer()
    trace = run_program(program, seed=seed, sanitizer=sanitizer)
    events = []
    fe = HBFrontEnd(
        trace.num_threads, events.append, merge_collections=False, sanitizer=sanitizer
    )
    for op in trace:
        fe.process(op)
    fe.finish()
    chains = defaultdict(list)
    for e in events:
        chains[e.tid].append(e)
    poset = Poset(
        [chains.get(t, []) for t in range(trace.num_threads)],
        insertion=[e.eid for e in events],
    )
    result = ParaMount(poset, sanitizer=sanitizer).run()
    return sanitizer, result


def test_full_pipeline_zero_violations_banking():
    sanitizer, result = _sanitized_pipeline(banking.build_banking())
    sanitizer.assert_clean()
    counters = sanitizer.counters()
    assert counters["trace_ops"] > 0
    assert counters["events"] == counters["intervals"] > 0
    # every enumerated state passed through the partition check
    assert counters["states"] == result.states > 0


def test_full_pipeline_zero_violations_with_monitors():
    # set (correct) uses wait/notify — exercises the wait-reacquire path.
    workload = detection_workload("set (correct)")
    sanitizer, result = _sanitized_pipeline(workload.build(), seed=workload.seed)
    sanitizer.assert_clean()
    assert sanitizer.trace.ops_observed == 0 or sanitizer.ok


def test_threaded_enumeration_stays_disjoint():
    from repro.core.executors import WorkStealingThreadExecutor

    sanitizer = PipelineSanitizer()
    trace = run_program(banking.build_banking(), seed=1)
    events = []
    fe = HBFrontEnd(trace.num_threads, events.append, merge_collections=False)
    for op in trace:
        fe.process(op)
    fe.finish()
    chains = defaultdict(list)
    for e in events:
        chains[e.tid].append(e)
    poset = Poset(
        [chains.get(t, []) for t in range(trace.num_threads)],
        insertion=[e.eid for e in events],
    )
    pm = ParaMount(
        poset, executor=WorkStealingThreadExecutor(num_workers=4), sanitizer=sanitizer
    )
    result = pm.run()
    sanitizer.assert_clean()
    assert sanitizer.enumeration.states_observed == result.states


# --------------------------------------------------------------------- #
# trace-level violations


def test_double_acquire_flagged():
    san = TraceSanitizer()
    san.observe(TraceOp(seq=0, tid=0, kind="thread_start"))
    san.observe(TraceOp(seq=1, tid=1, kind="thread_start"))
    san.observe(TraceOp(seq=2, tid=0, kind="acquire", obj="m"))
    san.observe(TraceOp(seq=3, tid=1, kind="acquire", obj="m"))
    assert any(v.invariant == "lock-discipline" for v in san.violations)


def test_release_by_non_holder_flagged():
    san = TraceSanitizer()
    san.observe(TraceOp(seq=0, tid=0, kind="thread_start"))
    san.observe(TraceOp(seq=1, tid=0, kind="release", obj="m"))
    assert any(v.invariant == "lock-discipline" for v in san.violations)


def test_seq_regression_flagged():
    san = TraceSanitizer()
    san.observe(TraceOp(seq=5, tid=0, kind="thread_start"))
    san.observe(TraceOp(seq=3, tid=0, kind="read", obj="x"))
    assert any(v.invariant == "seq-monotone" for v in san.violations)


def test_join_before_end_flagged():
    san = TraceSanitizer()
    san.observe(TraceOp(seq=0, tid=0, kind="thread_start"))
    san.observe(TraceOp(seq=1, tid=0, kind="fork", target=1))
    san.observe(TraceOp(seq=2, tid=1, kind="thread_start"))
    san.observe(TraceOp(seq=3, tid=0, kind="join", target=1))
    assert any(v.invariant == "lifecycle" for v in san.violations)


def test_strict_mode_raises_immediately():
    san = TraceSanitizer(strict=True)
    san.observe(TraceOp(seq=0, tid=0, kind="thread_start"))
    with pytest.raises(SanitizerError):
        san.observe(TraceOp(seq=1, tid=0, kind="release", obj="m"))


# --------------------------------------------------------------------- #
# enumeration-level violations


def test_inverted_interval_bounds_flagged():
    san = EnumerationSanitizer()
    san.observe_interval(Interval(event=(0, 1), lo=(2, 0), hi=(1, 0)))
    assert any(v.invariant == "interval-bounds" for v in san.violations)


def test_out_of_bounds_state_flagged():
    san = EnumerationSanitizer()
    interval = Interval(event=(0, 1), lo=(1, 0), hi=(1, 1))
    san.observe_state(interval, (0, 0))
    assert any(v.invariant == "interval-membership" for v in san.violations)


def test_duplicate_state_flags_partition_violation():
    san = EnumerationSanitizer()
    a = Interval(event=(0, 1), lo=(1, 0), hi=(1, 1))
    b = Interval(event=(1, 1), lo=(0, 1), hi=(1, 1))
    san.observe_state(a, (1, 1))
    san.observe_state(b, (1, 1))  # same cut from a second interval
    assert any(v.invariant == "partition-disjoint" for v in san.violations)
