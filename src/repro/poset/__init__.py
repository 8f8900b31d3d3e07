"""Poset-of-events substrate.

A concurrent execution is modeled as a poset ``P = (E, →)`` of events under
Lamport's happened-before relation (paper §2.1).  Events of each thread form
a chain; vector clocks encode the relation compactly; consistent global
states (order ideals) are represented as frontier vectors ("cuts").

This package provides:

* :class:`~repro.poset.vector_clock.VectorClock` and the paper's
  Algorithm 3 clock update,
* :class:`~repro.poset.event.Event` and
  :class:`~repro.poset.poset.Poset` (chains + clock tables + HB queries),
* :class:`~repro.poset.builder.PosetBuilder` for offline and online
  (causality-respecting, incremental) construction,
* the clock admission rule every entry point applies
  (:mod:`repro.poset.validate`),
* topological sorts / linear extensions (:mod:`repro.poset.topological`),
* lattice operations on cuts (:mod:`repro.poset.lattice`),
* exact ideal counting for cross-validation (:mod:`repro.poset.ideals`),
* a random distributed-computation generator reproducing the paper's
  ``d-300``/``d-500``/``d-10k`` benchmark family
  (:mod:`repro.poset.random_posets`), and
* JSON (de)serialization (:mod:`repro.poset.io`).
"""

from repro.poset.builder import PosetBuilder
from repro.poset.event import Event
from repro.poset.ideals import count_ideals, count_ideals_by_enumeration
from repro.poset.lattice import (
    consistent_predecessors,
    consistent_successors,
    is_consistent_cut,
    minimal_consistent_extension,
)
from repro.poset.poset import Poset
from repro.poset.random_posets import RandomComputationSpec, random_computation
from repro.poset.topological import (
    insertion_order,
    is_linear_extension,
    lexicographic_topological_order,
    random_topological_order,
    topological_order,
)
from repro.poset.vector_clock import VectorClock, calculate_vector_clock

__all__ = [
    "Event",
    "Poset",
    "PosetBuilder",
    "VectorClock",
    "calculate_vector_clock",
    "topological_order",
    "lexicographic_topological_order",
    "random_topological_order",
    "insertion_order",
    "is_linear_extension",
    "is_consistent_cut",
    "consistent_successors",
    "consistent_predecessors",
    "minimal_consistent_extension",
    "count_ideals",
    "count_ideals_by_enumeration",
    "RandomComputationSpec",
    "random_computation",
]
