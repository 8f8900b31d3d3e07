"""Validation helpers tying enumerators to the independent ideal counters."""

from __future__ import annotations

from repro.enumeration.base import CollectingVisitor, Enumerator
from repro.poset.ideals import count_ideals

__all__ = ["verify_enumerator"]


def verify_enumerator(enumerator: Enumerator) -> None:
    """Assert the three correctness properties of an enumeration run.

    1. every visited cut is a consistent global state;
    2. no cut is visited twice (*exactly once*, the paper's Theorem 2
       guarantee);
    3. the number of visited cuts equals ``i(P)`` from the independent
       interval-DP counter.

    Raises ``AssertionError`` with a diagnostic on any violation; the
    enumerator tests call it.
    """
    collector = CollectingVisitor()
    result = enumerator.enumerate(collector)
    poset = enumerator.poset
    for cut in collector.cuts:
        assert poset.is_consistent(cut), (
            f"{enumerator.name} produced inconsistent cut {cut}"
        )
    unique = collector.as_set()
    assert len(unique) == len(collector.cuts), (
        f"{enumerator.name} repeated "
        f"{len(collector.cuts) - len(unique)} global states"
    )
    expected = count_ideals(poset)
    assert result.states == expected, (
        f"{enumerator.name} enumerated {result.states} states, "
        f"counter says {expected}"
    )
    assert result.states == len(collector.cuts)
