"""Tests for the ParaMount online predicate detector."""

import gc
import weakref

import pytest

from repro.detector.paramount_detector import ParaMountDetector
from repro.predicates.base import StatePredicate
from repro.predicates.data_race import DataRacePredicate
from repro.runtime import (
    Acquire,
    Fork,
    Join,
    Program,
    Read,
    Release,
    Write,
    run_program,
)
from repro.workloads.registry import ALL_DETECTION_WORKLOADS


def _trace(main, n, shared=None, seed=0):
    return run_program(Program("t", main, max_threads=n, shared=shared or {}), seed=seed)


def test_detects_simple_race():
    def worker(ctx):
        yield Write("x", ctx.tid)

    def main(ctx):
        a = yield Fork(worker)
        b = yield Fork(worker)
        yield Join(a)
        yield Join(b)

    report = ParaMountDetector().run(_trace(main, 3))
    assert report.sorted_vars() == ["x"]
    assert report.states_enumerated > 0
    assert report.poset_events > 0


def test_no_race_when_locked():
    def worker(ctx):
        yield Acquire("m")
        v = yield Read("x")
        yield Write("x", (v or 0) + 1)
        yield Release("m")

    def main(ctx):
        a = yield Fork(worker)
        b = yield Fork(worker)
        yield Join(a)
        yield Join(b)

    for seed in range(6):
        report = ParaMountDetector().run(_trace(main, 3, seed=seed))
        assert report.num_detections == 0


def test_init_write_filtered():
    def creator(ctx):
        yield Write("n", 0, is_init=True)

    def reader(ctx):
        yield Read("n")

    def main(ctx):
        a = yield Fork(creator)
        b = yield Fork(reader)
        yield Join(a)
        yield Join(b)

    report = ParaMountDetector().run(_trace(main, 3))
    assert report.num_detections == 0


def test_bfs_subroutine_equivalent():
    def worker(ctx):
        yield Write("x", ctx.tid)
        yield Read("y")

    def main(ctx):
        a = yield Fork(worker)
        b = yield Fork(worker)
        yield Join(a)
        yield Join(b)

    trace = _trace(main, 3)
    lex = ParaMountDetector(subroutine="lexical").run(trace)
    bfs = ParaMountDetector(subroutine="bfs").run(trace)
    assert lex.racy_vars == bfs.racy_vars
    assert lex.states_enumerated == bfs.states_enumerated


def test_custom_predicate_plugs_in():
    """The detector is general-purpose: a custom predicate sees every
    enumerated global state."""

    class CountingPredicate(StatePredicate):
        name = "counting"

        def __init__(self):
            self.calls = 0

        def check(self, cut, frontier, new_event=None):
            self.calls += 1
            return False

    holder = {}

    def factory(report, benign):
        pred = CountingPredicate()
        holder["p"] = pred
        return pred

    def worker(ctx):
        yield Write("x", 1)

    def main(ctx):
        a = yield Fork(worker)
        yield Join(a)

    report = ParaMountDetector(predicate_factory=factory).run(_trace(main, 2))
    assert holder["p"].calls == report.states_enumerated > 0


def test_predictive_detection_beats_observed_order():
    """The race is detected even when the observed schedule serialized the
    two accesses — the *predictive* power of enumeration (paper §1)."""
    def first(ctx):
        yield Write("x", 1)
        yield Write("done1", True)

    def second(ctx):
        yield Write("x", 2)

    def main(ctx):
        a = yield Fork(first)
        b = yield Fork(second)
        yield Join(a)
        yield Join(b)

    # run with a sticky scheduler so one worker finishes entirely first
    trace = run_program(
        Program("serial-ish", main, max_threads=3), seed=0, stickiness=0.9
    )
    report = ParaMountDetector().run(trace)
    assert "x" in report.racy_vars


def test_merged_poset_smaller_than_raw():
    def worker(ctx):
        for i in range(5):
            yield Write(f"v{i}", ctx.tid)

    def main(ctx):
        a = yield Fork(worker)
        yield Join(a)

    trace = _trace(main, 2)
    report = ParaMountDetector().run(trace)
    assert report.poset_events < len(trace.accesses())


@pytest.mark.parametrize("name", sorted(ALL_DETECTION_WORKLOADS))
def test_default_subroutine_detects_like_lexical(name):
    """The packed default reports the same races, from the same first
    pairs, over the same number of states as the reference lexical
    subroutine."""
    workload = ALL_DETECTION_WORKLOADS[name]
    for seed in range(3):
        trace = run_program(
            workload.build(), seed=seed, stickiness=workload.stickiness
        )
        reference = ParaMountDetector(subroutine="lexical").run(
            trace, workload.benign_vars
        )
        default = ParaMountDetector().run(trace, workload.benign_vars)
        assert default.races == reference.races, seed
        assert default.racy_vars == reference.racy_vars, seed
        assert default.states_enumerated == reference.states_enumerated, seed


def test_pair_filter_checks_each_pair_once():
    """Each (new event, frontier event) pair reaches the one pair routine
    at most once: the interval visitor compares a frontier event with the
    new event once, not once per state, and a pair is only ever examined
    in the interval of its later-inserted event."""
    workload = ALL_DETECTION_WORKLOADS["hedc"]
    pairs = []

    class Recording(DataRacePredicate):
        def _check_pair(self, a, b):
            pairs.append((a.eid, b.eid))
            return super()._check_pair(a, b)

    report = ParaMountDetector(
        predicate_factory=lambda report, benign: Recording(
            benign_vars=benign, report=report
        )
    ).run(workload.trace(), workload.benign_vars)
    assert report.num_detections > 0
    assert len(pairs) == len(set(pairs)) > 0


def test_finished_run_is_freed_by_reference_counting():
    """No reference cycle through the worker and its state callback: with
    the cyclic collector off, the predicate dies when run() returns."""
    refs = []

    def factory(report, benign):
        predicate = DataRacePredicate(benign_vars=benign, report=report)
        refs.append(weakref.ref(predicate))
        return predicate

    workload = ALL_DETECTION_WORKLOADS["banking"]
    trace = workload.trace()
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        report = ParaMountDetector(predicate_factory=factory).run(
            trace, workload.benign_vars
        )
        assert report.num_detections > 0 and refs
        assert refs[0]() is None
    finally:
        if was_enabled:
            gc.enable()
