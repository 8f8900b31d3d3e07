"""Tests for PosetBuilder (offline + online construction) and BuilderView."""

import pytest

from repro.errors import EventOrderError, PosetError
from repro.poset.builder import PosetBuilder
from repro.poset.event import Event


def test_append_computes_clocks():
    b = PosetBuilder(2)
    b.append(0)
    e = b.append(1, deps=[(0, 1)])
    assert e.vc == (1, 1)
    assert b.last_vc(1) == (1, 1)
    assert b.last_vc(0) == (1, 0)


def test_append_validates_thread_range():
    b = PosetBuilder(2)
    with pytest.raises(PosetError):
        b.append(5)


def test_append_rejects_missing_dependency():
    b = PosetBuilder(2)
    with pytest.raises(EventOrderError):
        b.append(0, deps=[(1, 1)])


def test_append_rejects_bad_dep_thread():
    b = PosetBuilder(2)
    with pytest.raises(PosetError):
        b.append(0, deps=[(9, 1)])


def test_builder_requires_positive_width():
    with pytest.raises(PosetError):
        PosetBuilder(0)


def test_insertion_order_and_counts():
    b = PosetBuilder(3)
    b.append(2)
    b.append(0)
    b.append(2)
    assert b.insertion_order() == ((2, 1), (0, 1), (2, 2))
    assert b.num_events == 3
    assert b.chain_length(2) == 2
    assert b.chain_length(1) == 0


def test_snapshot_of_maxima():
    b = PosetBuilder(2)
    assert b.snapshot_of_maxima() == (0, 0)
    b.append(0)
    b.append(0)
    b.append(1)
    assert b.snapshot_of_maxima() == (2, 1)


def test_event_lookup():
    b = PosetBuilder(1)
    e = b.append(0)
    assert b.event(0, 1) is e
    with pytest.raises(PosetError):
        b.event(0, 2)


def test_append_stamped_returns_boundary():
    b = PosetBuilder(2)
    gbnd = b.append_stamped(Event(tid=0, idx=1, vc=(1, 0)))
    assert gbnd == (1, 0)
    gbnd = b.append_stamped(Event(tid=1, idx=1, vc=(1, 1)))
    assert gbnd == (1, 1)


def test_build_roundtrip():
    b = PosetBuilder(2)
    b.append(0)
    b.append(1, deps=[(0, 1)])
    poset = b.build()
    assert poset.num_events == 2
    assert poset.insertion == ((0, 1), (1, 1))
    assert poset.happened_before((0, 1), (1, 1))


def test_view_tracks_growth():
    b = PosetBuilder(2)
    view = b.view()
    assert view.lengths == (0, 0)
    assert view.num_threads == 2
    b.append(0)
    assert view.lengths == (1, 0)
    assert view.vc(0, 1) == (1, 0)
    assert view.event(0, 1).eid == (0, 1)


def test_view_consistency_and_enabled():
    b = PosetBuilder(2)
    view = b.view()
    b.append(1)
    b.append(0, deps=[(1, 1)])
    assert view.is_consistent((0, 1))
    assert not view.is_consistent((1, 0))
    assert view.enabled((0, 1), 0)
    assert not view.enabled((0, 0), 0)
    assert view.frontier_events((1, 1))[0].eid == (0, 1)
    assert view.frontier_events((0, 0)) == [None, None]
