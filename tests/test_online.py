"""Tests for the online ParaMount worker (Algorithm 4)."""

import sys
import threading
from collections import Counter

import pytest
from hypothesis import given, settings

from repro.core.online import OnlineParaMount
from repro.enumeration import PackedLexicalEnumerator
from repro.errors import EventOrderError
from repro.poset.ideals import count_ideals
from repro.poset.random_posets import RandomComputationSpec, random_computation

from tests.conftest import small_posets

#: The online default and its reference.
SUBROUTINES = ("lexical-packed", "lexical")


def replay_online(poset, **kwargs):
    """Feed a poset's events in insertion order into an online worker."""
    states = []
    om = OnlineParaMount(
        poset.num_threads,
        interval_visitor=lambda e, interval, view: states.append,
        **kwargs,
    )
    for event in poset.events_in_order():
        om.insert(event)
    return om, states


def test_online_equals_offline_figure4(figure4_poset):
    om, states = replay_online(figure4_poset)
    assert om.result.states == 8
    assert len(states) == len(set(states)) == 8


def test_intervals_recorded(figure4_poset):
    om, _ = replay_online(figure4_poset)
    assert len(om.intervals) == 4
    assert om.intervals[0].owns_empty
    assert not any(iv.owns_empty for iv in om.intervals[1:])


def test_gbnd_is_snapshot_of_maxima(figure4_poset):
    """Paper Figure 8: Gbnd online = per-thread maxima at insertion."""
    om, _ = replay_online(figure4_poset)
    counts = [0, 0]
    for iv in om.intervals:
        tid, _ = iv.event
        counts[tid] += 1
        assert iv.hi == tuple(counts)


def test_snapshot_poset_roundtrip(figure4_poset):
    om, _ = replay_online(figure4_poset)
    back = om.snapshot_poset()
    assert back.lengths == figure4_poset.lengths
    assert back.insertion == figure4_poset.insertion


def test_rejects_causally_premature_event(figure4_poset):
    om = OnlineParaMount(2)
    events = list(figure4_poset.events_in_order())
    # events_in_order: e2[1], e1[1], e1[2], e2[2]; insert e1[2] too early
    with pytest.raises(EventOrderError):
        om.insert(events[2])


def test_per_interval_stats_returned(figure4_poset):
    om = OnlineParaMount(2)
    sizes = [om.insert(e).states for e in figure4_poset.events_in_order()]
    assert sum(sizes) == 8
    assert all(s >= 1 for s in sizes)


def test_bfs_subroutine_online(figure4_poset):
    om = OnlineParaMount(2, subroutine="bfs")
    for e in figure4_poset.events_in_order():
        om.insert(e)
    assert om.result.states == 8


def test_concurrent_insertion_threads(grid_poset):
    """Synchronized online worker driven by one real thread per poset
    thread (the paper's deployment: the executing thread enumerates), for
    the packed default and the reference subroutine."""
    for subroutine in SUBROUTINES:
        om = OnlineParaMount(
            grid_poset.num_threads, subroutine=subroutine, synchronized=True
        )
        barrier = threading.Barrier(grid_poset.num_threads)

        # Independent chains: each thread can insert its own events in
        # order without violating causality.
        def run(tid):
            barrier.wait()
            for idx in range(1, grid_poset.lengths[tid] + 1):
                om.insert(grid_poset.event(tid, idx))

        threads = [
            threading.Thread(target=run, args=(t,))
            for t in range(grid_poset.num_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
        assert om.result.states == 64, subroutine


def test_default_subroutine_is_packed():
    om = OnlineParaMount(2)
    assert isinstance(om._subroutine, PackedLexicalEnumerator)


def insertion_sequences(poset, subroutine):
    """Per inserted event, the cuts its interval visited, in order."""
    visits = []
    om = OnlineParaMount(
        poset.num_threads,
        subroutine=subroutine,
        interval_visitor=lambda e, interval, view: (
            lambda cut: visits.append((e.eid, cut))
        ),
    )
    for event in poset.events_in_order():
        om.insert(event)
    return om, visits


@pytest.mark.parametrize("kernel", ["array", "bitmask"])
@settings(max_examples=40, deadline=None)
@given(poset=small_posets())
def test_packed_visits_same_cut_sequence_online(poset, kernel):
    """Event by event, the packed kernel on the builder's live tables visits
    exactly the reference lexical sequence."""
    _, reference = insertion_sequences(poset, "lexical")
    budget = PackedLexicalEnumerator.BITMASK_MAX_EVENTS if kernel == "bitmask" else -1
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(PackedLexicalEnumerator, "BITMASK_MAX_EVENTS", budget)
        om, packed = insertion_sequences(poset, "lexical-packed")
        assert om._subroutine.kernel == kernel
    assert packed == reference


def test_concurrent_inserts_with_dependencies_visit_each_state_once():
    """Stress: more inserting threads than cores, a short switch interval,
    and cross-thread dependencies, so appends that grow a column array or
    extend the masks interleave with running kernels.  A kernel pairing a
    stale stride with a grown array, or reading an unfinished mask, would
    miss or repeat states."""
    poset = random_computation(RandomComputationSpec(6, 120, 0.9, seed=0))
    expected = count_ideals(poset)
    for subroutine in SUBROUTINES:
        seen = Counter()
        om = OnlineParaMount(
            poset.num_threads,
            subroutine=subroutine,
            interval_visitor=lambda e, interval, view: (
                lambda cut: seen.update((cut,))
            ),
            synchronized=True,
        )
        ready = threading.Condition()
        errors = []

        def run(tid):
            try:
                for idx in range(1, poset.lengths[tid] + 1):
                    event = poset.event(tid, idx)
                    with ready:
                        ready.wait_for(
                            lambda: all(
                                om.builder.chain_length(j) >= event.vc[j]
                                for j in range(poset.num_threads)
                                if j != tid
                            ),
                            timeout=30,
                        )
                    om.insert(event)
                    with ready:
                        ready.notify_all()
            except BaseException as exc:  # surfaced by the assertion below
                errors.append(exc)
                raise

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=run, args=(t,))
                for t in range(poset.num_threads)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        assert not errors, errors
        assert om.result.states == expected, subroutine
        assert len(seen) == expected and max(seen.values()) == 1, subroutine


