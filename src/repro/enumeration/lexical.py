"""Lexical (Ganter/Garg) enumeration of consistent global states.

The algorithm walks consistent cuts in lexicographic order of their
frontier vectors, thread 0 most significant.  It is *stateless*: besides
the current cut it stores ``O(n)`` integers, which is why the paper's
Figure 12 shows its memory equal to the input poset itself.

Successor computation (see DESIGN.md §6): to find the lex-least consistent
cut strictly greater than ``G`` within ``[lo, hi]``, try positions ``k``
from least to most significant (``n−1`` down to ``0``):

1. pin the prefix ``G[0..k−1]``;
2. require position ``k`` at least ``G[k] + 1`` and positions ``> k`` at
   least ``lo``;
3. compute the least consistent cut satisfying the pins and lower bounds —
   the *closure fixpoint* of
   :func:`repro.poset.lattice.minimal_consistent_extension`.  The family of
   consistent cuts with a pinned prefix above a lower bound is closed under
   componentwise min, so the fixpoint is its unique minimum and therefore
   lex-least;
4. accept if the closure exists and is ``≤ hi``; otherwise no in-bounds cut
   extends this prefix (every candidate dominates the closure), so move to
   a more significant position.

This matches the paper's Algorithm 2 (the bounded lexical subroutine) while
fixing the pseudo-code's elided corner cases, and costs ``O(n²)`` amortized
per enumerated state.
"""

from __future__ import annotations

from typing import Optional

from repro.enumeration.base import EnumerationResult, Enumerator
from repro.poset.lattice import minimal_consistent_extension
from repro.types import Cut, CutVisitor
from repro.util.cuts import cut_leq

__all__ = ["LexicalEnumerator", "lex_first", "lex_successor"]


def lex_first(poset, lo: Cut, hi: Cut, work=None) -> Optional[Cut]:
    """Lex-least consistent cut in ``[lo, hi]``, or ``None`` if the interval
    contains no consistent cut."""
    m = minimal_consistent_extension(poset, lo, fixed_prefix=0, work=work)
    if m is None or not cut_leq(m, hi):
        return None
    return m


def lex_successor(poset, current: Cut, lo: Cut, hi: Cut, work=None) -> Optional[Cut]:
    """Lex-least consistent cut ``> current`` within ``[lo, hi]``.

    ``current`` must itself lie in the interval.  Returns ``None`` when
    ``current`` is the lex-greatest in-bounds cut.
    """
    n = poset.num_threads
    for k in range(n - 1, -1, -1):
        if work is not None:
            work[0] += 1  # position scan
        if current[k] + 1 > hi[k]:
            continue  # position k cannot grow within the bound
        lower = current[:k] + (current[k] + 1,) + lo[k + 1 :]
        m = minimal_consistent_extension(poset, lower, fixed_prefix=k, work=work)
        if m is not None and cut_leq(m, hi):
            return m
    return None


class LexicalEnumerator(Enumerator):
    """Stateless lexical-order enumeration (paper's "Lexical" baseline and
    the subroutine of L-Para).

    The ``work`` meter counts the *actual* closure and scan operations, so
    the cost model sees the genuine per-state cost (≈ a few·n amortized,
    ``O(n²)`` worst case per state as the paper states).
    """

    name = "lexical"

    def walk(
        self, lo: Cut, hi: Cut, visit: Optional[CutVisitor] = None
    ) -> EnumerationResult:
        poset = self.poset
        states = 0
        work = [0]
        cut = lex_first(poset, lo, hi, work)
        while cut is not None:
            states += 1
            if visit is not None:
                visit(cut)
            cut = lex_successor(poset, cut, lo, hi, work)
        # The only live intermediate state is the current cut itself.
        return EnumerationResult(states, work[0], 1)
