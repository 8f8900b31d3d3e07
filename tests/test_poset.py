"""Tests for the Poset data structure."""

import pytest
from hypothesis import given, settings

from repro.errors import PosetError
from repro.poset.event import Event
from repro.poset.poset import Poset

from tests.conftest import small_posets


def test_figure4_clocks(figure4_poset):
    """Vector clocks match the paper's Figure 4(d) (0-based threads)."""
    p = figure4_poset
    assert p.vc(0, 1) == (1, 0)  # e1[1]
    assert p.vc(0, 2) == (2, 1)  # e1[2] — the paper's [2,1]
    assert p.vc(1, 1) == (0, 1)  # e2[1]
    assert p.vc(1, 2) == (0, 2)  # e2[2]


def test_basic_accessors(figure4_poset):
    p = figure4_poset
    assert p.num_threads == 2
    assert p.num_events == 4
    assert p.lengths == (2, 2)
    assert p.stats() == {"threads": 2, "events": 4, "max_chain": 2, "min_chain": 2}


def test_event_lookup_bounds(figure4_poset):
    p = figure4_poset
    assert p.event(0, 1).eid == (0, 1)
    with pytest.raises(PosetError):
        p.event(0, 3)
    with pytest.raises(PosetError):
        p.event(2, 1)
    with pytest.raises(PosetError):
        p.event(0, 0)


def test_happened_before_figure4(figure4_poset):
    p = figure4_poset
    assert p.happened_before((1, 1), (0, 2))  # e2[1] → e1[2]
    assert not p.happened_before((0, 2), (1, 1))
    assert p.happened_before((0, 1), (0, 2))  # process order
    assert p.concurrent((0, 1), (1, 1))
    assert p.concurrent((0, 2), (1, 2))
    assert not p.concurrent((0, 1), (0, 1))  # an event is not concurrent with itself


def test_is_consistent_figure4(figure4_poset):
    """Figure 4: G1={1,0} and G2={1,2} consistent, G3={2,0} not."""
    p = figure4_poset
    assert p.is_consistent((1, 0))
    assert p.is_consistent((1, 2))
    assert not p.is_consistent((2, 0))  # omits e2[1] → e1[2]'s predecessor
    assert p.is_consistent((0, 0))
    assert p.is_consistent((2, 2))


def test_is_consistent_rejects_out_of_range(figure4_poset):
    assert not figure4_poset.is_consistent((3, 0))
    assert not figure4_poset.is_consistent((-1, 0))


def test_enabled(figure4_poset):
    p = figure4_poset
    assert p.enabled((0, 0), 0)  # e1[1] has no predecessors
    assert p.enabled((0, 0), 1)
    assert not p.enabled((1, 0), 0)  # e1[2] needs e2[1]
    assert p.enabled((1, 1), 0)
    assert not p.enabled((2, 2), 0)  # chain exhausted


def test_frontier_events(figure4_poset):
    p = figure4_poset
    frontier = p.frontier_events((2, 1))
    assert frontier[0].eid == (0, 2)
    assert frontier[1].eid == (1, 1)
    assert p.frontier_events((0, 0)) == [None, None]


def test_covering_edges_figure4(figure4_poset):
    edges = set(figure4_poset.covering_edges())
    assert ((1, 1), (0, 2)) in edges  # the message edge
    assert ((0, 1), (0, 2)) in edges  # chain edges
    assert ((1, 1), (1, 2)) in edges


def test_num_hb_pairs_figure4(figure4_poset):
    # pairs: (0,1)<(0,2), (1,1)<(1,2), (1,1)<(0,2) = 3
    assert figure4_poset.num_hb_pairs() == 3


def test_insertion_recorded(figure4_poset):
    assert figure4_poset.insertion == ((1, 1), (0, 1), (0, 2), (1, 2))
    assert [e.eid for e in figure4_poset.events_in_order()] == [
        (1, 1), (0, 1), (0, 2), (1, 2),
    ]


def test_insertion_length_mismatch_rejected():
    with pytest.raises(PosetError):
        Poset([[Event(tid=0, idx=1, vc=(1,))]], insertion=[])


@settings(max_examples=40, deadline=None)
@given(small_posets())
def test_hb_is_a_strict_partial_order(poset):
    ids = [
        (t, k)
        for t in range(poset.num_threads)
        for k in range(1, poset.lengths[t] + 1)
    ]
    for a in ids:
        assert not poset.happened_before(a, a)
        for b in ids:
            if poset.happened_before(a, b):
                assert not poset.happened_before(b, a)
                for c in ids:
                    if poset.happened_before(b, c):
                        assert poset.happened_before(a, c)


@settings(max_examples=40, deadline=None)
@given(small_posets())
def test_enabled_matches_consistency(poset):
    """enabled(cut, t) iff advancing t yields another consistent cut."""
    from itertools import product

    n = poset.num_threads
    ranges = [range(length + 1) for length in poset.lengths]
    for cut in product(*ranges):
        if not poset.is_consistent(cut):
            continue
        for t in range(n):
            succ = cut[:t] + (cut[t] + 1,) + cut[t + 1 :]
            expected = succ[t] <= poset.lengths[t] and poset.is_consistent(succ)
            assert poset.enabled(cut, t) == expected
