"""Tests for the offline ParaMount driver (Algorithm 1)."""

from itertools import product

import pytest

from repro.core.online import OnlineParaMount
from repro.core.paramount import ParaMount
from repro.detector.paramount_detector import ParaMountDetector
from repro.enumeration.base import ENUMERATORS, CollectingVisitor, make_enumerator
from repro.errors import EnumerationError
from repro.poset.topological import lexicographic_topological_order
from repro.tools.cli import build_parser


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
    for sub in ENUMERATORS:
        assert ParaMount(figure4_poset, subroutine=sub).run().states == 8


def _parsed(*argv):
    return build_parser().parse_args(argv)


#: Every entry point's default subroutine, read without running anything.
DEFAULT_OF = {
    "ParaMount": lambda poset: ParaMount(poset).subroutine_name,
    "OnlineParaMount": lambda poset: OnlineParaMount(2)._subroutine.name,
    "ParaMountDetector": lambda poset: ParaMountDetector().subroutine,
    "cli enumerate": lambda poset: _parsed("enumerate", "p.json").algorithm,
    "cli detect": lambda poset: _parsed("detect", "--workload", "x").subroutine,
    "cli coordinator": lambda poset: _parsed(
        "coordinator", "p.json", "--port", "0"
    ).algorithm,
}


@pytest.mark.parametrize("entry", sorted(DEFAULT_OF))
def test_one_default_and_four_names(entry, figure4_poset):
    """Offline and online, library and CLI, default to the packed kernel;
    the reference-only DFS and Squire enumerators are not selectable."""
    assert DEFAULT_OF[entry](figure4_poset) == "lexical-packed"
    names = sorted(["lexical-packed", "level-space", "bfs", "lexical"])
    assert sorted(ENUMERATORS) == names
    for retired in ("dfs", "squire"):
        with pytest.raises(EnumerationError) as info:
            make_enumerator(retired, figure4_poset)
        assert f"expected one of {names}" in str(info.value)


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


def test_result_bookkeeping(grid_poset):
    result = ParaMount(grid_poset).run()
    assert result.states == sum(result.interval_sizes())
    assert result.order_work == grid_poset.num_events * grid_poset.num_threads
    assert result.wall_time >= 0.0
    assert result.load_imbalance() >= 1.0


def test_interval_stats_align_with_order(figure4_poset):
    pm = ParaMount(figure4_poset)
    result = pm.run()
    assert [s.event for s in result.intervals] == [iv.event for iv in pm.intervals]


