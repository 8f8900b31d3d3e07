"""Cross-validation of the three enumeration algorithms.

The central correctness battery: on arbitrary small posets, BFS, lexical
and DFS must produce exactly the same set of global states — each exactly
once — and the count must match the independent interval-DP counter.
Every kernel's public entry refuses malformed bounds and returns an
``EnumerationResult`` whose fields read by name.
"""

import pytest
from hypothesis import given, settings

from repro.enumeration import (
    BFSEnumerator,
    CollectingVisitor,
    DFSEnumerator,
    EnumerationResult,
    LexicalEnumerator,
    PackedLexicalEnumerator,
    SquireEnumerator,
    verify_enumerator,
)
from repro.enumeration.base import ENUMERATORS, make_enumerator
from repro.errors import EnumerationError
from repro.poset.ideals import count_ideals
from repro.poset.random_posets import RandomComputationSpec, random_computation

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


#: Each kernel's ``(states, work, peak_live)`` from its public entries on
#: :func:`public_entry_poset`: ``enumerate()``, ``enumerate(visit)``,
#: ``enumerate_interval`` from an inconsistent ``lo``, and one whose
#: ``lo`` closes past ``hi`` (no state).  Recorded figures, so that how a
#: kernel builds its result cannot move them.
PUBLIC_ENTRY_RESULTS = {
    "bfs": ((366, 15248, 58), (366, 15248, 58), (114, 4552, 31), (0, 0, 0)),
    "level-space": ((366, 11576, 1), (366, 11576, 1), (114, 3640, 1), (0, 12, 0)),
    "lexical": ((366, 9992, 1), (366, 9992, 1), (114, 3227, 1), (0, 24, 1)),
    "lexical-packed/array": ((366, 2180, 1), (366, 2398, 1), (114, 725, 1), (0, 0, 0)),
    "lexical-packed/bitmask": ((366, 709, 1), (366, 927, 1), (114, 257, 1), (0, 0, 0)),
    "dfs": ((366, 5856, 366), (366, 5856, 366), (114, 1824, 114), (0, 0, 0)),
    "squire": ((366, 4640, 23), (366, 4640, 23), (114, 1504, 13), (0, 0, 0)),
}


def public_entry_poset():
    """4 threads of 6 events; ``(1, 0, 2, 1)`` is inconsistent (``(2, 2)``
    needs ``(1, 1)``) and ``(3, 0, 0, 0)`` closes to ``(3, 2, 0, 2)``."""
    return random_computation(RandomComputationSpec(4, 24, 0.5, seed=7))


@pytest.mark.parametrize("name", sorted(PUBLIC_ENTRY_RESULTS))
def test_public_entry_returns_a_named_result(name, monkeypatch):
    """``enumerate`` and ``enumerate_interval`` return an
    ``EnumerationResult`` on every kernel (both successor kernels of
    ``lexical-packed``), with the recorded counts."""
    poset = public_entry_poset()
    base, _, kernel = name.partition("/")
    if kernel:
        budget = poset.num_events if kernel == "bitmask" else -1
        monkeypatch.setattr(PackedLexicalEnumerator, "BITMASK_MAX_EVENTS", budget)
    if base in ORACLES:
        enumerator = ORACLES[base](poset)
    else:
        enumerator = make_enumerator(base, poset)
    visitor = CollectingVisitor()
    results = [
        enumerator.enumerate(),
        enumerator.enumerate(visitor),
        enumerator.enumerate_interval((1, 0, 2, 1), (5, 4, 6, 5)),
        enumerator.enumerate_interval((3, 0, 0, 0), (3, 1, 6, 6)),
    ]
    assert all(isinstance(r, EnumerationResult) for r in results)
    readings = tuple((r.states, r.work, r.peak_live) for r in results)
    assert readings == PUBLIC_ENTRY_RESULTS[name]
    assert len(visitor.cuts) == results[1].states
