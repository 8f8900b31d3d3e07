"""Sequential global-state enumeration algorithms.

These are the baselines the paper compares against and the *subroutines*
ParaMount parallelizes (§3.2).  Four are selectable by name
(:data:`~repro.enumeration.base.ENUMERATORS`):

* ``"lexical-packed"``, the default
  (:class:`~repro.enumeration.packed.PackedLexicalEnumerator`) — the
  lexical algorithm over packed flat-array clock tables (run batching +
  one-round closure);
* ``"level-space"`` (:class:`~repro.enumeration.levels.LevelEnumerator`)
  — Chauhan–Garg space-efficient level traversal: BFS's level order with
  O(n) live state instead of the widest-level blow-up;
* ``"bfs"`` (:class:`~repro.enumeration.bfs.BFSEnumerator`) —
  Cooper–Marzullo breadth-first enumeration [6], enhanced (as in the
  paper's evaluation) with within-level deduplication so each state is
  produced exactly once; memory grows with the widest lattice level;
* ``"lexical"`` (:class:`~repro.enumeration.lexical.LexicalEnumerator`) —
  the Ganter/Garg lexical-order enumeration [11, 12]; stateless, ``O(n²)``
  amortized work per state, and the reference the packed kernel
  reproduces visit for visit.

:class:`~repro.enumeration.dfs.DFSEnumerator` and
:class:`~repro.enumeration.squire.SquireEnumerator` are test oracles.
All of them implement the *bounded* interface the ParaMount workers
need: ``enumerate_interval(lo, hi)`` walks exactly the consistent cuts
``G`` with ``lo ≤ G ≤ hi`` (paper Algorithm 2's generalization), after
checking the bounds; ``walk(lo, hi)`` does the same for bounds the
drivers made themselves, unchecked.
"""

from repro.enumeration.base import (
    CollectingVisitor,
    EnumerationResult,
    Enumerator,
    make_enumerator,
)
from repro.enumeration.bfs import BFSEnumerator
from repro.enumeration.counting import verify_enumerator
from repro.enumeration.dfs import DFSEnumerator
from repro.enumeration.levels import LevelEnumerator
from repro.enumeration.lexical import LexicalEnumerator
from repro.enumeration.packed import PackedLexicalEnumerator
from repro.enumeration.squire import SquireEnumerator

__all__ = [
    "Enumerator",
    "EnumerationResult",
    "CollectingVisitor",
    "make_enumerator",
    "BFSEnumerator",
    "LexicalEnumerator",
    "PackedLexicalEnumerator",
    "LevelEnumerator",
    "SquireEnumerator",
    "DFSEnumerator",
    "verify_enumerator",
]
