"""The data-race predicate's per-interval visitor.

The online detector evaluates the race predicate as one visitor per
interval ``I(e)`` that reads each state's cut directly.  Its reference is
the per-state form: :meth:`DataRacePredicate.check` with ``new_event`` on
every state's frontier list, behind the pair memo, driven by the
base-class default visitor.  Both must report the same races, from the
same first pairs, over the same states — for the default predicate and
for RV's weak-order subclass, which overrides the pair routine.  The
visitor skips the pairs ``e`` makes with its own past, so only
concurrent pairs reach the pair routine.
"""

import sys
import threading
from collections import Counter

import pytest

from repro.core.online import OnlineParaMount
from repro.detector import FastTrackDetector, ParaMountDetector
from repro.detector.hb import events_from_trace
from repro.detector.rv_runtime import WeakOrderRacePredicate
from repro.predicates.base import StatePredicate
from repro.predicates.data_race import DataRacePredicate, events_are_concurrent
from repro.runtime import run_program
from repro.workloads.registry import ALL_DETECTION_WORKLOADS

WORKLOADS = sorted(ALL_DETECTION_WORKLOADS)
SEEDS = range(3)


class PerStateRace(DataRacePredicate):
    """The per-state reference of the race visitor."""

    interval_visitor = StatePredicate.interval_visitor


class PerStateWeakOrder(WeakOrderRacePredicate):
    """The per-state reference of RV's weak-order predicate."""

    interval_visitor = StatePredicate.interval_visitor


def _trace(workload, seed):
    return run_program(workload.build(), seed=seed, stickiness=workload.stickiness)


def _detect(cls, trace, benign_vars):
    return ParaMountDetector(
        predicate_factory=lambda report, benign: cls(
            benign_vars=benign, report=report
        )
    ).run(trace, benign_vars)


def _assert_same_detection(got, reference, seed):
    assert got.races == reference.races, seed
    assert got.racy_vars == reference.racy_vars, seed
    assert got.states_enumerated == reference.states_enumerated, seed


@pytest.mark.parametrize("name", WORKLOADS)
def test_race_visitor_matches_per_state_reference(name):
    workload = ALL_DETECTION_WORKLOADS[name]
    for seed in SEEDS:
        trace = _trace(workload, seed)
        visitor = _detect(DataRacePredicate, trace, workload.benign_vars)
        reference = _detect(PerStateRace, trace, workload.benign_vars)
        _assert_same_detection(visitor, reference, seed)


def test_weak_order_predicate_dispatches_through_its_pair_routine():
    """RV's predicate inherits the visitor and keeps its own semantics:
    the visitor calls the overridden pair routine, so it reports what the
    per-state reference reports, and the init races the default predicate
    filters still show up."""
    init_races = set()
    for name in WORKLOADS:
        workload = ALL_DETECTION_WORKLOADS[name]
        for seed in SEEDS:
            trace = _trace(workload, seed)
            weak = _detect(WeakOrderRacePredicate, trace, workload.benign_vars)
            reference = _detect(PerStateWeakOrder, trace, workload.benign_vars)
            _assert_same_detection(weak, reference, seed)
            default = _detect(DataRacePredicate, trace, workload.benign_vars)
            init_races |= weak.racy_vars - default.racy_vars
    assert init_races


def only_concurrent_pairs_reach_the_routine(workload, seed) -> bool:
    """Detect on one schedule and check that no HB-ordered pair reaches
    the pair routine: the visitor skips each interval's ``lo[j]``
    column, which holds ``e``'s past."""
    ordered = 0

    class Counting(DataRacePredicate):
        def _check_pair(self, a, b):
            nonlocal ordered
            ordered += not events_are_concurrent(a, b)
            return super()._check_pair(a, b)

    _detect(Counting, _trace(workload, seed), workload.benign_vars)
    return not ordered


@pytest.mark.parametrize("name", WORKLOADS)
def test_only_concurrent_pairs_reach_the_pair_routine(name):
    """The small slice; CI sweeps seeds 0–9 with the same function."""
    workload = ALL_DETECTION_WORKLOADS[name]
    for seed in SEEDS:
        assert only_concurrent_pairs_reach_the_routine(workload, seed), seed


def racy_vars_agree_with_fasttrack(workload, seed) -> bool:
    """ParaMount's racy variables against FastTrack's on one schedule.

    FastTrack has no init filter (§5.2): its only extra variables are the
    init false alarms the workload's Table 2 row counts."""
    trace = _trace(workload, seed)
    found = ParaMountDetector().run(trace, workload.benign_vars).racy_vars
    fasttrack = (
        FastTrackDetector(trace.num_threads)
        .run(trace, workload.benign_vars)
        .racy_vars
    )
    extra = workload.expected.fasttrack - workload.expected.paramount
    return found <= fasttrack and len(fasttrack - found) == extra


@pytest.mark.parametrize("name", WORKLOADS)
def test_racy_vars_agree_with_fasttrack(name):
    """The small slice; CI sweeps seeds 0–9 with the same function."""
    workload = ALL_DETECTION_WORKLOADS[name]
    for seed in SEEDS:
        assert racy_vars_agree_with_fasttrack(workload, seed), seed


class CountingPairs(DataRacePredicate):
    """Counts how often each unordered pair reaches the pair routine."""

    def __init__(self):
        super().__init__()
        self.pairs = Counter()

    def _check_pair(self, a, b):
        self.pairs[frozenset((a.eid, b.eid))] += 1
        return super()._check_pair(a, b)


def test_synchronized_inserts_check_each_pair_once():
    """One inserting thread per poset thread, a 1 µs switch interval, so
    intervals of different events are enumerated interleaved.  Each
    interval's visitor keeps its own flags, so each pair still reaches the
    pair routine once, and the races equal a serial run's."""
    workload = ALL_DETECTION_WORKLOADS["hedc"]
    trace = workload.trace()
    events = events_from_trace(trace)
    n = trace.num_threads

    serial = CountingPairs()
    serial_om = OnlineParaMount(n, interval_visitor=serial.interval_visitor)
    for event in events:
        serial_om.insert(event)
    assert serial.report.racy_vars
    assert max(serial.pairs.values()) == 1

    predicate = CountingPairs()
    om = OnlineParaMount(
        n, interval_visitor=predicate.interval_visitor, synchronized=True
    )
    chains = [[e for e in events if e.tid == tid] for tid in range(n)]
    ready = threading.Condition()
    errors = []

    def run(tid):
        try:
            for event in chains[tid]:
                with ready:
                    ready.wait_for(
                        lambda: all(
                            om.builder.chain_length(j) >= event.vc[j]
                            for j in range(n)
                            if j != tid
                        ),
                        timeout=30,
                    )
                om.insert(event)
                with ready:
                    ready.notify_all()
        except BaseException as exc:  # surfaced by the assertion below
            errors.append(exc)
            raise

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(t,)) for t in range(n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert not errors, errors
    assert om.result.states == serial_om.result.states
    assert predicate.report.racy_vars == serial.report.racy_vars
    assert max(predicate.pairs.values()) == 1
