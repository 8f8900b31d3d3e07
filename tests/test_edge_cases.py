"""Edge cases across the substrate: empty chains, single events, trivial
posets, and boundary interactions between components."""

import pytest

from repro.core.intervals import compute_intervals
from repro.core.online import OnlineParaMount
from repro.core.paramount import ParaMount
from repro.enumeration import (
    BFSEnumerator,
    DFSEnumerator,
    LexicalEnumerator,
    SquireEnumerator,
)
from repro.errors import OutOfMemoryError
from repro.poset.builder import PosetBuilder
from repro.poset.event import Event
from repro.poset.ideals import count_ideals
from repro.poset.poset import Poset

ALL_ENUMERATORS = (BFSEnumerator, LexicalEnumerator, DFSEnumerator, SquireEnumerator)


def empty_thread_poset():
    """Two threads, one of which never executes anything."""
    b = PosetBuilder(2)
    b.append(0)
    b.append(0)
    return b.build()


def single_event_poset():
    b = PosetBuilder(1)
    b.append(0)
    return b.build()


def test_empty_thread_enumeration():
    p = empty_thread_poset()
    assert count_ideals(p) == 3  # {}, {e1}, {e1,e2}
    for cls in ALL_ENUMERATORS:
        assert cls(p).enumerate().states == 3


def test_empty_thread_intervals():
    p = empty_thread_poset()
    intervals = compute_intervals(p)
    assert len(intervals) == 2
    assert ParaMount(p).run().states == 3


def test_single_event_everything():
    p = single_event_poset()
    assert count_ideals(p) == 2
    for cls in ALL_ENUMERATORS:
        assert cls(p).enumerate().states == 2
    assert ParaMount(p).run().states == 2


def test_all_empty_threads():
    """A poset with zero events has exactly one global state (the empty)."""
    p = Poset([[], []], insertion=[])
    assert count_ideals(p) == 1
    for cls in ALL_ENUMERATORS:
        assert cls(p).enumerate().states == 1
    assert compute_intervals(p, []) == []


def test_chain_only_poset():
    b = PosetBuilder(1)
    for _ in range(10):
        b.append(0)
    p = b.build()
    assert count_ideals(p) == 11
    assert ParaMount(p).run().states == 11
    # every interval of a chain holds exactly one new state
    assert [iv.hi for iv in compute_intervals(p)] == [
        (k,) for k in range(1, 11)
    ]


def test_fully_ordered_two_threads():
    """A zig-zag of dependencies makes the lattice a chain."""
    b = PosetBuilder(2)
    b.append(0)
    b.append(1, deps=[(0, 1)])
    b.append(0, deps=[(1, 1)])
    b.append(1, deps=[(0, 2)])
    p = b.build()
    assert count_ideals(p) == 5  # chain of 4 events + empty
    assert ParaMount(p).run().states == 5


def test_online_single_thread():
    om = OnlineParaMount(1)
    for k in range(1, 6):
        om.insert(Event(tid=0, idx=k, vc=(k,)))
    assert om.result.states == 6


def test_online_memory_budget_propagates():
    om = OnlineParaMount(4, subroutine="bfs", memory_budget=1)
    # independent events on 4 threads blow a budget of 1 live state
    events = [
        Event(tid=0, idx=1, vc=(1, 0, 0, 0)),
        Event(tid=1, idx=1, vc=(0, 1, 0, 0)),
        Event(tid=2, idx=1, vc=(0, 0, 1, 0)),
    ]
    with pytest.raises(OutOfMemoryError):
        for event in events:
            om.insert(event)


def test_interval_of_last_event_is_terminal(figure4_poset):
    intervals = compute_intervals(figure4_poset)
    last = intervals[-1]
    assert last.hi == figure4_poset.lengths


def test_degenerate_interval_single_state(figure4_poset):
    from repro.core.bounded import bounded_enumeration
    from repro.core.intervals import Interval
    from repro.enumeration.base import make_enumerator

    sub = make_enumerator("lexical", figure4_poset)
    stats = bounded_enumeration(
        sub, Interval(event=(0, 2), lo=(2, 1), hi=(2, 1))
    )
    assert stats.states == 1
