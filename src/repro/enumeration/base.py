"""Common interface and instrumentation for enumeration algorithms.

An interval ``[lo, hi]`` has two entries, so bounds are validated once,
at the boundary, as clocks are (:mod:`repro.poset.validate`).  The public
:meth:`Enumerator.enumerate_interval` checks a caller's bounds, here for
every kernel, and accepts an inconsistent ``lo``.  The trusted
:meth:`Enumerator.walk` checks nothing; the drivers call it on the
intervals they make themselves, whose ``lo`` is a consistent cut with
``lo ≤ hi ≤ lengths`` (see :func:`repro.core.bounded.bounded_enumeration`).

Every enumerator reports an :class:`EnumerationResult` carrying, besides
the state count, two abstract cost metrics the parallel cost model
(:mod:`repro.core.simulated`) consumes:

* ``work`` — abstract work units (roughly: inner-loop iterations), the
  machine-independent analogue of CPU time;
* ``peak_live`` — the maximum number of simultaneously stored intermediate
  global states, the driver of the BFS memory blow-up and of the paper's
  garbage-collection effect (§5.1: partitioning shrinks intermediate state,
  which is why B-Para(1) beats sequential BFS).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from importlib import import_module
from typing import List, NamedTuple, Optional

from repro.errors import EnumerationError
from repro.poset.poset import Poset
from repro.types import Cut, CutVisitor
from repro.util.cuts import cut_leq, zero_cut

__all__ = [
    "EnumerationResult",
    "Enumerator",
    "CollectingVisitor",
    "ENUMERATORS",
    "DEFAULT_SUBROUTINE",
    "make_enumerator",
]


class EnumerationResult(NamedTuple):
    """Outcome of one enumeration run (full or bounded).  A tuple, built
    positionally: every piece makes one, and a tuple costs a fraction of
    a frozen dataclass."""

    states: int
    work: int
    peak_live: int


class CollectingVisitor:
    """A visitor that records every visited cut (for tests and examples)."""

    def __init__(self) -> None:
        self.cuts: List[Cut] = []

    def __call__(self, cut: Cut) -> None:
        self.cuts.append(cut)

    def as_set(self) -> set:
        """The visited cuts as a set (order-insensitive comparisons)."""
        return set(self.cuts)


class Enumerator(ABC):
    """Base class for sequential enumeration algorithms.

    Subclasses implement the trusted :meth:`walk`; the checked
    :meth:`enumerate_interval` and the unbounded :meth:`enumerate` (the
    whole lattice ``[0, lengths]``) call it.
    """

    #: Short algorithm name used in experiment tables ("bfs", "lexical", ...).
    name: str = "abstract"

    def __init__(self, poset: Poset, memory_budget: Optional[int] = None):
        #: The input poset.
        self.poset = poset
        #: Optional cap on ``peak_live`` — exceeding it raises
        #: :class:`repro.errors.OutOfMemoryError` (models the paper's o.o.m.).
        self.memory_budget = memory_budget

    def enumerate(self, visit: Optional[CutVisitor] = None) -> EnumerationResult:
        """Enumerate *all* consistent global states exactly once."""
        poset = self.poset
        return self.walk(zero_cut(poset.num_threads), poset.lengths, visit)

    def enumerate_interval(
        self, lo: Cut, hi: Cut, visit: Optional[CutVisitor] = None
    ) -> EnumerationResult:
        """Enumerate every consistent cut ``G`` with ``lo ≤ G ≤ hi``.

        The bounds are componentwise (the paper's ``≤`` on global states);
        each qualifying state is visited exactly once.  ``lo`` need not be
        a consistent cut.  Raises :class:`EnumerationError` if the bounds
        are malformed.
        """
        self._check_bounds(lo, hi)
        return self._walk_any_lo(lo, hi, visit)

    @abstractmethod
    def walk(
        self, lo: Cut, hi: Cut, visit: Optional[CutVisitor] = None
    ) -> EnumerationResult:
        """:meth:`enumerate_interval` without its checks: the caller
        guarantees ``lo ≤ hi ≤ lengths`` and that ``lo`` is a consistent
        cut."""

    def _walk_any_lo(
        self, lo: Cut, hi: Cut, visit: Optional[CutVisitor]
    ) -> EnumerationResult:
        """:meth:`walk` from checked bounds whose ``lo`` may be
        inconsistent.  Every kernel but ``lexical-packed`` starts from
        ``lo``'s closure anyway, so by default this is :meth:`walk`."""
        return self.walk(lo, hi, visit)

    def _check_bounds(self, lo: Cut, hi: Cut) -> None:
        n = self.poset.num_threads
        if len(lo) != n or len(hi) != n:
            raise EnumerationError(
                f"bounds must have width {n}: lo={lo}, hi={hi}"
            )
        if not cut_leq(lo, hi):
            raise EnumerationError(f"lower bound {lo} does not precede {hi}")
        if not cut_leq(hi, self.poset.lengths):
            raise EnumerationError(
                f"upper bound {hi} exceeds the final cut {self.poset.lengths}"
            )


#: The enumerators every driver and the CLI accept, by name → ``(module,
#: class)``; each module imports this one, so it is imported on first use.
#: The DFS and Squire enumerators are test oracles and stay out.
ENUMERATORS = {
    "lexical-packed": ("repro.enumeration.packed", "PackedLexicalEnumerator"),
    "level-space": ("repro.enumeration.levels", "LevelEnumerator"),
    "bfs": ("repro.enumeration.bfs", "BFSEnumerator"),
    "lexical": ("repro.enumeration.lexical", "LexicalEnumerator"),
}

#: The subroutine every driver defaults to: L-Para's bounded lexical
#: algorithm on the packed kernel.
DEFAULT_SUBROUTINE = "lexical-packed"


def make_enumerator(
    name: str, poset: Poset, memory_budget: Optional[int] = None
) -> Enumerator:
    """Instantiate the enumerator registered as ``name`` in
    :data:`ENUMERATORS`.

    ``memory_budget`` caps its live intermediate states (models a bounded
    heap).  Subroutines travel by *name* through every executor: dist
    workers instantiate them from the name and the shipped poset, so
    neither closures nor packed tables cross the wire.
    """
    try:
        module, cls = ENUMERATORS[name]
    except KeyError:
        raise EnumerationError(
            f"unknown enumerator {name!r}; expected one of {sorted(ENUMERATORS)}"
        ) from None
    factory = getattr(import_module(module), cls)
    return factory(poset, memory_budget=memory_budget)
