"""Tests for the interval partition — the heart of ParaMount (§3.1).

The partition property (Lemmas 2–3, Theorem 2) is the paper's central
claim; the property-based tests here check it on arbitrary posets and
arbitrary linear extensions.
"""

from itertools import product

import pytest
from hypothesis import given, settings

from repro.core.intervals import (
    Interval,
    IntervalIndex,
    compute_intervals,
    interval_of_cut,
)
from repro.errors import IntervalError
from repro.poset.topological import (
    lexicographic_topological_order,
    random_topological_order,
    topological_order,
)
from repro.util.rng import DeterministicRng

from tests.conftest import small_posets


def all_consistent_cuts(poset):
    ranges = [range(length + 1) for length in poset.lengths]
    return [c for c in product(*ranges) if poset.is_consistent(c)]


def test_figure5_boundaries(figure4_poset):
    """Paper Figure 5: Gbnd under e1[1] →p e2[1] →p e1[2] →p e2[2].

    Our thread 0 is the paper's t1.  The recorded insertion order of the
    fixture differs, so pass the paper's order explicitly.
    """
    order = ((0, 1), (1, 1), (0, 2), (1, 2))
    intervals = compute_intervals(figure4_poset, order)
    by_event = {iv.event: iv for iv in intervals}
    assert by_event[(0, 1)].hi == (1, 0)
    assert by_event[(1, 1)].hi == (1, 1)
    assert by_event[(0, 2)].hi == (2, 1)
    assert by_event[(1, 2)].hi == (2, 2)


def test_first_interval_owns_empty(figure4_poset):
    intervals = compute_intervals(figure4_poset)
    assert intervals[0].owns_empty
    assert intervals[0].lo == (0, 0)
    assert all(not iv.owns_empty for iv in intervals[1:])


def test_figure6_intervals(figure4_poset):
    """Paper Figure 6: the four intervals partition the 8 states."""
    order = ((0, 1), (1, 1), (0, 2), (1, 2))
    intervals = compute_intervals(figure4_poset, order)
    states = all_consistent_cuts(figure4_poset)
    assignment = {}
    for cut in states:
        owner = interval_of_cut(figure4_poset, intervals, cut)
        assert owner is not None
        assignment.setdefault(owner.event, []).append(cut)
    # Figure 6(a): I(e1[1]) = {(0,0), (1,0)}
    assert sorted(assignment[(0, 1)]) == [(0, 0), (1, 0)]
    # Figure 6(b): I(e2[1]) = {(0,1), (1,1)}
    assert sorted(assignment[(1, 1)]) == [(0, 1), (1, 1)]
    # Figure 6(c): I(e1[2]) = {(2,1)}
    assert sorted(assignment[(0, 2)]) == [(2, 1)]
    # Figure 6(d): I(e2[2]) = {(0,2), (1,2), (2,2)}
    assert sorted(assignment[(1, 2)]) == [(0, 2), (1, 2), (2, 2)]


def test_interval_contains_and_volume():
    iv = Interval(event=(0, 1), lo=(1, 0), hi=(2, 2))
    assert iv.contains((1, 1))
    assert not iv.contains((0, 0))
    assert iv.size_bound == 2 * 3


def test_size_bound_is_cached():
    iv = Interval(event=(0, 1), lo=(1, 0), hi=(2, 2))
    assert iv.size_bound == 6
    assert "size_bound" in iv.__dict__  # functools.cached_property landed
    assert iv.size_bound is iv.__dict__["size_bound"]


def test_interval_index_matches_exhaustive_scan(figure4_poset):
    intervals = compute_intervals(figure4_poset)
    index = IntervalIndex(intervals)
    for cut in all_consistent_cuts(figure4_poset):
        fast = index.of_cut(cut)
        slow = [iv for iv in intervals if iv.contains(cut)]
        assert fast is slow[0]
    # an inconsistent cut resolves to no interval instead of raising
    assert index.of_cut((2, 0)) is None


def test_interval_of_cut_validate_cross_checks(figure4_poset):
    intervals = compute_intervals(figure4_poset)
    for cut in all_consistent_cuts(figure4_poset):
        assert interval_of_cut(
            figure4_poset, intervals, cut, validate=True
        ) is interval_of_cut(figure4_poset, intervals, cut)
    # overlapping "intervals" violate the partition: validate mode raises
    fake = [
        Interval(event=(0, 1), lo=(0, 0), hi=(2, 2), owns_empty=True),
        Interval(event=(1, 1), lo=(0, 0), hi=(2, 2)),
    ]
    with pytest.raises(IntervalError):
        interval_of_cut(figure4_poset, fake, (1, 1), validate=True)


def test_interval_index_rejects_duplicate_events():
    iv = Interval(event=(0, 1), lo=(0,), hi=(1,))
    with pytest.raises(IntervalError):
        IntervalIndex([iv, iv])


def test_rejects_non_extension_order(figure4_poset):
    # e1[2] before e2[1] violates happened-before
    bad = ((0, 1), (0, 2), (1, 1), (1, 2))
    with pytest.raises(IntervalError):
        compute_intervals(figure4_poset, bad)


def test_rejects_wrong_length_order(figure4_poset):
    with pytest.raises(IntervalError):
        compute_intervals(figure4_poset, ((0, 1),))


def test_rejects_out_of_chain_order(figure4_poset):
    bad = ((1, 2), (1, 1), (0, 1), (0, 2))
    with pytest.raises(IntervalError):
        compute_intervals(figure4_poset, bad)


def test_requires_some_order():
    from repro.poset.event import Event
    from repro.poset.poset import Poset

    p = Poset([[Event(tid=0, idx=1, vc=(1,))]])
    with pytest.raises(IntervalError):
        compute_intervals(p)


@settings(max_examples=50, deadline=None)
@given(small_posets())
def test_partition_property(poset):
    """Theorem 2: every consistent cut is in exactly one interval."""
    intervals = compute_intervals(poset)
    for cut in all_consistent_cuts(poset):
        owners = [iv for iv in intervals if iv.contains(cut)]
        assert len(owners) == 1, f"cut {cut} owned by {len(owners)} intervals"


@settings(max_examples=25, deadline=None)
@given(small_posets())
def test_partition_holds_for_any_extension(poset):
    """The partition works for every linear extension →p (Property 1)."""
    states = all_consistent_cuts(poset)
    orders = [
        topological_order(poset),
        lexicographic_topological_order(poset),
        random_topological_order(poset, DeterministicRng(99)),
    ]
    for order in orders:
        intervals = compute_intervals(poset, order)
        for cut in states:
            assert sum(iv.contains(cut) for iv in intervals) == 1


@settings(max_examples=30, deadline=None)
@given(small_posets())
def test_last_event_rule(poset):
    """Lemma 2's witness: a cut belongs to the interval of its →p-last
    event."""
    intervals = compute_intervals(poset)
    order = poset.insertion
    position = {eid: i for i, eid in enumerate(order)}
    for cut in all_consistent_cuts(poset):
        owner = interval_of_cut(poset, intervals, cut)
        members = [
            (t, k)
            for t in range(poset.num_threads)
            for k in range(1, cut[t] + 1)
        ]
        if not members:
            assert owner.owns_empty
        else:
            last = max(members, key=position.__getitem__)
            assert owner.event == last
