"""Cross-validation of the three enumeration algorithms.

The central correctness battery: on arbitrary small posets, BFS, lexical
and DFS must produce exactly the same set of global states — each exactly
once — and the count must match the independent interval-DP counter.
Every kernel's public entry refuses malformed bounds.
"""

import pytest
from hypothesis import given, settings

from repro.enumeration import (
    BFSEnumerator,
    CollectingVisitor,
    DFSEnumerator,
    LexicalEnumerator,
    SquireEnumerator,
    verify_enumerator,
)
from repro.enumeration.base import ENUMERATORS, make_enumerator
from repro.errors import EnumerationError
from repro.poset.ideals import count_ideals

from tests.conftest import brute_force_states, small_posets


def collect(enumerator):
    visitor = CollectingVisitor()
    result = enumerator.enumerate(visitor)
    return result, visitor.cuts


@settings(max_examples=60, deadline=None)
@given(small_posets())
def test_all_algorithms_agree_with_brute_force(poset):
    """``lexical`` is checked against brute force by the differential
    oracle's ``reference`` (``tests/test_differential.py``)."""
    expected = brute_force_states(poset)
    for cls in (BFSEnumerator, DFSEnumerator):
        result, cuts = collect(cls(poset))
        assert len(cuts) == len(expected), cls.name
        assert set(cuts) == expected, cls.name
        assert result.states == len(expected)


@settings(max_examples=60, deadline=None)
@given(small_posets())
def test_exactly_once(poset):
    for cls in (BFSEnumerator, LexicalEnumerator, DFSEnumerator):
        _, cuts = collect(cls(poset))
        assert len(cuts) == len(set(cuts)), f"{cls.name} repeated a state"


@settings(max_examples=40, deadline=None)
@given(small_posets())
def test_counts_match_dp_counter(poset):
    expected = count_ideals(poset)
    for cls in (BFSEnumerator, LexicalEnumerator, DFSEnumerator):
        result, _ = collect(cls(poset))
        assert result.states == expected


@settings(max_examples=40, deadline=None)
@given(small_posets())
def test_verify_enumerator_helper(poset):
    for cls in (BFSEnumerator, LexicalEnumerator, DFSEnumerator):
        verify_enumerator(cls(poset))


@settings(max_examples=40, deadline=None)
@given(small_posets())
def test_bounded_equals_filtered_full(poset):
    """enumerate_interval(lo, hi) == full enumeration filtered to the box."""
    from repro.util.cuts import cut_leq

    full = brute_force_states(poset)
    # box: between a random-ish consistent cut and the top
    cuts = sorted(full)
    lo = cuts[len(cuts) // 3]
    hi = poset.lengths
    expected = {c for c in full if cut_leq(lo, c) and cut_leq(c, hi)}
    for cls in (BFSEnumerator, LexicalEnumerator, DFSEnumerator):
        visitor = CollectingVisitor()
        cls(poset).enumerate_interval(lo, hi, visitor)
        assert visitor.as_set() == expected, cls.name


ORACLES = {"dfs": DFSEnumerator, "squire": SquireEnumerator}


@pytest.mark.parametrize("name", [*sorted(ENUMERATORS), *sorted(ORACLES)])
def test_public_entry_refuses_malformed_bounds(name, figure4_poset):
    """``enumerate_interval`` checks a caller's bounds for every kernel:
    the wrong width, ``lo ≰ hi`` and ``hi ≰ lengths`` (here ``(2, 2)``)."""
    if name in ORACLES:
        enumerator = ORACLES[name](figure4_poset)
    else:
        enumerator = make_enumerator(name, figure4_poset)
    malformed = [
        ((0,), (1, 1)),
        ((0, 0), (1, 1, 1)),
        ((1, 1), (0, 2)),
        ((0, 0), (2, 3)),
    ]
    for lo, hi in malformed:
        with pytest.raises(EnumerationError):
            enumerator.enumerate_interval(lo, hi)
