"""Tests for bounded enumeration (Algorithm 2 wrapper) and result records."""

import threading

import pytest

from repro.core.bounded import bounded_enumeration, locked
from repro.core.intervals import Interval, compute_intervals
from repro.core.metrics import IntervalStats, ParaMountResult
from repro.enumeration.base import CollectingVisitor, make_enumerator
from repro.poset.ideals import count_ideals
from repro.poset.random_posets import RandomComputationSpec, random_computation
from repro.types import RunVisitor


def test_bounded_enumeration_counts_interval(figure4_poset):
    sub = make_enumerator("lexical", figure4_poset)
    interval = Interval(event=(1, 2), lo=(0, 2), hi=(2, 2))
    visitor = CollectingVisitor()
    stats = bounded_enumeration(sub, interval, visitor)
    assert stats.states == 3  # (0,2), (1,2), (2,2)
    assert visitor.as_set() == {(0, 2), (1, 2), (2, 2)}
    assert stats.event == (1, 2)


def test_bounded_enumeration_exactly_once_per_interval(figure4_poset):
    sub = make_enumerator("bfs", figure4_poset)
    seen = []
    for interval in compute_intervals(figure4_poset):
        visitor = CollectingVisitor()
        bounded_enumeration(sub, interval, visitor)
        seen.extend(visitor.cuts)
    assert len(seen) == len(set(seen)) == 8


class CountingLock:
    """A lock that counts how often it is taken."""

    def __init__(self):
        self._lock = threading.Lock()
        self.taken = 0

    def __enter__(self):
        self._lock.acquire()
        self.taken += 1

    def __exit__(self, *exc):
        self._lock.release()


@pytest.mark.parametrize("stop_after", [None, 3])
def test_locked_keeps_the_run_form(stop_after):
    """``locked`` of a run visitor is a run visitor: the lock is taken once
    per run, not per state, and the done signal passes through."""
    poset = random_computation(RandomComputationSpec(3, 12, 0.3, seed=4))
    runs = []

    def run(cut, j, c0, c1):
        runs.append(c1 - c0 + 1)
        return len(runs) == stop_after

    lock = CountingLock()
    visit = locked(RunVisitor(run), lock)
    assert isinstance(visit, RunVisitor)
    result = make_enumerator("lexical-packed", poset).enumerate(visit)
    assert result.states == count_ideals(poset)
    assert lock.taken == len(runs)
    if stop_after is None:
        assert sum(runs) == result.states > len(runs)
    else:
        assert len(runs) == stop_after
    # a plain visitor stays one, locked per state
    lock = CountingLock()
    plain = CollectingVisitor()
    visit = locked(plain, lock)
    assert not isinstance(visit, RunVisitor)
    make_enumerator("lexical-packed", poset).enumerate(visit)
    assert lock.taken == len(plain.cuts) == result.states


def test_interval_stats_frozen():
    s = IntervalStats(event=(0, 1), lo=(0,), hi=(1,), states=1, work=2, peak_live=1)
    with pytest.raises(AttributeError):
        s.states = 5


def test_paramount_result_aggregation():
    r = ParaMountResult()
    r.add_interval(
        IntervalStats(event=(0, 1), lo=(0,), hi=(1,), states=3, work=10, peak_live=2)
    )
    r.add_interval(
        IntervalStats(event=(0, 2), lo=(2,), hi=(2,), states=1, work=4, peak_live=5)
    )
    assert r.states == 4
    assert r.work == 14
    assert r.peak_live == 5
    assert r.interval_work() == [10, 4]
    assert r.interval_sizes() == [3, 1]
    assert r.summary_row() == (4, 14, 5, 0.0)


def test_load_imbalance():
    r = ParaMountResult()
    assert r.load_imbalance() == 1.0
    for w in (10, 10, 40):
        r.add_interval(
            IntervalStats(event=(0, 1), lo=(0,), hi=(1,), states=1, work=w, peak_live=1)
        )
    assert r.load_imbalance() == pytest.approx(40 / 20)


def test_enumeration_result_addition():
    from repro.enumeration.base import EnumerationResult

    a = EnumerationResult(states=2, work=10, peak_live=3)
    b = EnumerationResult(states=5, work=1, peak_live=4)
    c = a + b
    assert (c.states, c.work, c.peak_live) == (7, 11, 7)
