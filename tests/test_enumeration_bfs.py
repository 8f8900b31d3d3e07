"""BFS-specific behaviour: levels, memory accounting, o.o.m."""

import pytest

from repro.enumeration.bfs import BFSEnumerator
from repro.errors import OutOfMemoryError
from repro.util.cuts import zero_cut

from tests.conftest import build_chain_poset


def test_level_widths_grid():
    p = build_chain_poset(2, 2)  # 2x2 grid: widths 1,2,3,2,1
    widths = BFSEnumerator(p).level_widths(zero_cut(2), p.lengths)
    assert widths == [1, 2, 3, 2, 1]
    assert sum(widths) == 9


def test_level_widths_respect_bounds(figure4_poset):
    widths = BFSEnumerator(figure4_poset).level_widths((1, 1), (2, 2))
    # states with lo=(1,1): (1,1),(2,1),(1,2),(2,2) → levels 1,2,1
    assert widths == [1, 2, 1]


def test_level_widths_empty_interval(figure4_poset):
    # lo=(2,0) closure is (2,1) which exceeds hi=(2,0): empty
    assert BFSEnumerator(figure4_poset).level_widths((2, 0), (2, 0)) == []


def test_peak_live_reported():
    p = build_chain_poset(3, 2)
    result = BFSEnumerator(p).enumerate()
    assert result.states == 27
    assert result.peak_live >= max(
        BFSEnumerator(p).level_widths(zero_cut(3), p.lengths)
    )


def test_memory_budget_triggers_oom():
    p = build_chain_poset(5, 3)  # grid with wide middle levels
    with pytest.raises(OutOfMemoryError) as info:
        BFSEnumerator(p, memory_budget=20).enumerate()
    assert info.value.used > info.value.budget == 20


def test_budget_large_enough_passes():
    p = build_chain_poset(3, 2)
    result = BFSEnumerator(p, memory_budget=10_000).enumerate()
    assert result.states == 27


def test_partitioning_fits_where_sequential_ooms():
    """The paper's Table 1 pattern in miniature: B-Para completes with a
    budget the sequential BFS exhausts."""
    from repro.core.paramount import ParaMount

    p = build_chain_poset(5, 3)
    budget = 100
    with pytest.raises(OutOfMemoryError):
        BFSEnumerator(p, memory_budget=budget).enumerate()
    pm = ParaMount(p, subroutine="bfs", memory_budget=budget * 6)
    result = pm.run()
    assert result.states == 4**5


def test_work_meter_positive(figure4_poset):
    result = BFSEnumerator(figure4_poset).enumerate()
    assert result.work > 0
    assert result.states == 8
