"""Lexical-enumeration specifics: ordering, statelessness, successors."""

from hypothesis import given, settings

from repro.enumeration.lexical import LexicalEnumerator, lex_first, lex_successor
from repro.enumeration.base import CollectingVisitor
from repro.util.cuts import lex_compare, zero_cut

from tests.conftest import small_posets


def test_visits_in_lexical_order(figure4_poset):
    visitor = CollectingVisitor()
    LexicalEnumerator(figure4_poset).enumerate(visitor)
    cuts = visitor.cuts
    for a, b in zip(cuts, cuts[1:]):
        assert lex_compare(a, b) < 0


def test_figure4_exact_sequence(figure4_poset):
    visitor = CollectingVisitor()
    LexicalEnumerator(figure4_poset).enumerate(visitor)
    assert visitor.cuts == [
        (0, 0),
        (0, 1),
        (0, 2),
        (1, 0),
        (1, 1),
        (1, 2),
        (2, 1),
        (2, 2),
    ]


def test_peak_live_is_one(figure4_poset):
    result = LexicalEnumerator(figure4_poset).enumerate()
    assert result.peak_live == 1  # stateless: only the current cut


def test_lex_first_of_full_lattice_is_zero(figure4_poset):
    assert lex_first(figure4_poset, (0, 0), (2, 2)) == (0, 0)


def test_lex_first_empty_interval(figure4_poset):
    # box that contains only the inconsistent (2,0)
    assert lex_first(figure4_poset, (2, 0), (2, 0)) is None


def test_lex_successor_chain(figure4_poset):
    lo, hi = (0, 0), (2, 2)
    assert lex_successor(figure4_poset, (0, 2), lo, hi) == (1, 0)
    assert lex_successor(figure4_poset, (1, 2), lo, hi) == (2, 1)  # skips (2,0)
    assert lex_successor(figure4_poset, (2, 2), lo, hi) is None


def test_lex_successor_respects_upper_bound(figure4_poset):
    assert lex_successor(figure4_poset, (1, 1), (0, 0), (1, 1)) is None


def test_work_meter_accumulates(figure4_poset):
    work = [0]
    lex_successor(figure4_poset, (0, 0), (0, 0), (2, 2), work)
    assert work[0] > 0


@settings(max_examples=50, deadline=None)
@given(small_posets())
def test_order_property_random(poset):
    visitor = CollectingVisitor()
    LexicalEnumerator(poset).enumerate(visitor)
    cuts = visitor.cuts
    assert cuts[0] == zero_cut(poset.num_threads)
    for a, b in zip(cuts, cuts[1:]):
        assert lex_compare(a, b) < 0


@settings(max_examples=40, deadline=None)
@given(small_posets())
def test_successor_is_least_greater(poset):
    """lex_successor returns the minimum (in lex order) consistent cut
    strictly greater than the current one."""
    visitor = CollectingVisitor()
    LexicalEnumerator(poset).enumerate(visitor)
    cuts = visitor.cuts
    lo = zero_cut(poset.num_threads)
    hi = poset.lengths
    for cur, nxt in zip(cuts, cuts[1:]):
        assert lex_successor(poset, cur, lo, hi) == nxt
