"""Tests for the Squire-style divide-and-conquer enumerator."""

from itertools import product

from hypothesis import given, settings

from repro.enumeration import CollectingVisitor, SquireEnumerator, verify_enumerator
from repro.util.cuts import cut_leq

from tests.conftest import build_chain_poset, small_posets


def test_figure4_states(figure4_poset):
    visitor = CollectingVisitor()
    result = SquireEnumerator(figure4_poset).enumerate(visitor)
    assert result.states == 8
    assert len(visitor.as_set()) == 8


def test_grid_count(grid_poset):
    assert SquireEnumerator(grid_poset).enumerate().states == 64


def test_interval_bounded(figure4_poset):
    visitor = CollectingVisitor()
    SquireEnumerator(figure4_poset).enumerate_interval((0, 2), (2, 2), visitor)
    assert visitor.as_set() == {(0, 2), (1, 2), (2, 2)}


def test_empty_interval(figure4_poset):
    # (2,0) is inconsistent; its closure (2,1) escapes the box → no states.
    result = SquireEnumerator(figure4_poset).enumerate_interval((2, 0), (2, 0))
    assert result.states == 0


def test_peak_live_moderate():
    p = build_chain_poset(6, 3)
    result = SquireEnumerator(p).enumerate()
    assert result.states == 4**6
    # stack depth is far below the BFS blow-up (widest level ~ hundreds)
    assert result.peak_live < 64


@settings(max_examples=50, deadline=None)
@given(small_posets())
def test_matches_counter(poset):
    verify_enumerator(SquireEnumerator(poset))


@settings(max_examples=30, deadline=None)
@given(small_posets())
def test_bounded_matches_filter(poset):
    full = set()
    ranges = [range(length + 1) for length in poset.lengths]
    for cut in product(*ranges):
        if poset.is_consistent(cut):
            full.add(cut)
    cuts = sorted(full)
    lo = cuts[len(cuts) // 2]
    hi = poset.lengths
    expected = {c for c in full if cut_leq(lo, c)}
    visitor = CollectingVisitor()
    SquireEnumerator(poset).enumerate_interval(lo, hi, visitor)
    assert visitor.as_set() == expected

