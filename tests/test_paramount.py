"""Tests for the offline ParaMount driver (Algorithm 1)."""

from itertools import product

import pytest
from hypothesis import given, settings

from repro.core.executors import SerialExecutor, WorkStealingThreadExecutor
from repro.core.paramount import ParaMount
from repro.enumeration.base import CollectingVisitor
from repro.errors import EnumerationError
from repro.poset.ideals import count_ideals
from repro.poset.topological import lexicographic_topological_order

from tests.conftest import small_posets


def expected_states(poset):
    ranges = [range(length + 1) for length in poset.lengths]
    return {c for c in product(*ranges) if poset.is_consistent(c)}


def test_counts_figure4(figure4_poset):
    result = ParaMount(figure4_poset).run()
    assert result.states == 8
    assert len(result.intervals) == 4


def test_visitor_sees_each_state_once(figure4_poset):
    visitor = CollectingVisitor()
    ParaMount(figure4_poset).run(visitor)
    assert visitor.as_set() == expected_states(figure4_poset)
    assert len(visitor.cuts) == 8


def test_subroutines_agree(figure4_poset):
    for sub in ("lexical", "bfs", "dfs"):
        assert ParaMount(figure4_poset, subroutine=sub).run().states == 8


def test_unknown_subroutine_raises(figure4_poset):
    pm = ParaMount(figure4_poset, subroutine="magic")
    with pytest.raises(EnumerationError):
        pm.run()


def test_explicit_order(figure4_poset):
    order = ((0, 1), (1, 1), (0, 2), (1, 2))
    pm = ParaMount(figure4_poset, order=order)
    assert pm.order == order
    assert pm.run().states == 8


def test_order_callable(figure4_poset):
    pm = ParaMount(figure4_poset, order=lexicographic_topological_order)
    assert pm.run().states == 8


def test_threaded_executor_equivalent(grid_poset):
    serial = ParaMount(grid_poset, executor=SerialExecutor()).run()
    visitor = CollectingVisitor()
    threaded = ParaMount(
        grid_poset, executor=WorkStealingThreadExecutor(4)
    ).run(visitor)
    assert threaded.states == serial.states == 64
    assert visitor.as_set() == expected_states(grid_poset)


def test_result_bookkeeping(grid_poset):
    result = ParaMount(grid_poset).run()
    assert result.states == sum(result.interval_sizes())
    assert result.work == sum(result.interval_work())
    assert result.order_work == grid_poset.num_events * grid_poset.num_threads
    assert result.wall_time >= 0.0
    assert result.load_imbalance() >= 1.0


def test_interval_stats_align_with_order(figure4_poset):
    pm = ParaMount(figure4_poset)
    result = pm.run()
    assert [s.event for s in result.intervals] == [iv.event for iv in pm.intervals]


@settings(max_examples=50, deadline=None)
@given(small_posets())
def test_matches_counter_on_random_posets(poset):
    for sub in ("lexical", "bfs"):
        assert ParaMount(poset, subroutine=sub).run().states == count_ideals(poset)


@settings(max_examples=30, deadline=None)
@given(small_posets())
def test_exactly_once_across_intervals(poset):
    visitor = CollectingVisitor()
    ParaMount(poset).run(visitor)
    assert len(visitor.cuts) == len(visitor.as_set())
    assert visitor.as_set() == expected_states(poset)
