"""Shared fixtures and hypothesis strategies for the test suite."""

from __future__ import annotations

from itertools import product

import pytest
from hypothesis import strategies as st

from repro.poset.builder import PosetBuilder
from repro.poset.poset import Poset
from repro.poset.random_posets import RandomComputationSpec, random_computation


def brute_force_states(poset: Poset) -> set:
    """Every cut of the poset's box that is consistent: the reference
    lattice by exhaustion, sharing no code with any enumerator."""
    ranges = [range(length + 1) for length in poset.lengths]
    return {c for c in product(*ranges) if poset.is_consistent(c)}


def build_chain_poset(num_threads: int, chain_length: int) -> Poset:
    """Independent chains: the full-grid lattice (worst case for BFS)."""
    builder = PosetBuilder(num_threads)
    for _ in range(chain_length):
        for tid in range(num_threads):
            builder.append(tid)
    return builder.build()


def build_figure4_poset() -> Poset:
    """The paper's Figure 4(a): two threads, edge e2[1] → e1[2].

    Thread indices are 0-based here: thread 0 is the paper's t1.  The poset
    has 8 consistent global states (Figure 4(c) minus the grayed cells).
    """
    builder = PosetBuilder(2)
    builder.append(1)  # e2[1]
    builder.append(0)  # e1[1]
    builder.append(0, deps=[(1, 1)])  # e1[2], requires e2[1]
    builder.append(1)  # e2[2]
    return builder.build()


def build_diamond_poset() -> Poset:
    """Three threads: a fork-join diamond (t0 event, t1/t2 depend on it,
    final t0 event depends on both)."""
    builder = PosetBuilder(3)
    builder.append(0)  # root
    builder.append(1, deps=[(0, 1)])
    builder.append(2, deps=[(0, 1)])
    builder.append(0, deps=[(1, 1), (2, 1)])  # join
    return builder.build()


@pytest.fixture
def figure4_poset() -> Poset:
    """The paper's running example."""
    return build_figure4_poset()


@pytest.fixture
def diamond_poset() -> Poset:
    """Fork-join diamond."""
    return build_diamond_poset()


@pytest.fixture
def grid_poset() -> Poset:
    """3 threads × 3 events, no cross edges: 64 global states."""
    return build_chain_poset(3, 3)


# --------------------------------------------------------------------- #
# hypothesis strategies


@st.composite
def small_poset_specs(draw):
    """Specs for random computations small enough to enumerate exhaustively."""
    n = draw(st.integers(min_value=1, max_value=5))
    events = draw(st.integers(min_value=n, max_value=18))
    prob = draw(st.floats(min_value=0.0, max_value=1.0))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    return RandomComputationSpec(
        num_processes=n, num_events=events, message_prob=prob, seed=seed
    )


@st.composite
def small_posets(draw):
    """Random small posets (≲ a few thousand global states)."""
    return random_computation(draw(small_poset_specs()))
