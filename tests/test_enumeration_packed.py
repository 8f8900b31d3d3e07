"""Packed lexical enumeration: sequence identity, kernels, flat tables.

The contract under test is strict: ``lexical-packed`` must produce the
*identical visit sequence* as the reference ``LexicalEnumerator`` — not
just the same set — with both successor kernels, on full lattices and on
arbitrary interval bounds, per state and expanded from the runs a
``RunVisitor`` takes (each on its interval's last free thread), and
through every execution layer (split-steal threads, dist worker
processes, checkpoint journals).
"""

import json
from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.intervals import compute_intervals
from repro.core.paramount import ParaMount
from repro.dist import DistributedExecutor
from repro.enumeration import (
    CollectingVisitor,
    LexicalEnumerator,
    PackedLexicalEnumerator,
    make_enumerator,
)
from repro.errors import EnumerationError
from repro.poset.builder import PosetBuilder
from repro.poset.ideals import count_ideals
from repro.poset.poset import Poset
from repro.poset.packed import build_packed_tables
from repro.poset.random_posets import RandomComputationSpec, random_computation
from repro.poset.topological import random_topological_order
from repro.types import RunVisitor
from repro.util.cuts import cut_leq
from repro.util.rng import DeterministicRng

from tests.conftest import build_chain_poset, build_figure4_poset, small_posets

KERNELS = ("array", "bitmask")


@contextmanager
def packed_on(kernel, poset):
    """A packed enumerator whose calls run ``kernel`` inside the block,
    forced through the selection rule: the mask budget is the poset's
    size for ``"bitmask"`` and -1 events for ``"array"``."""
    budget = poset.num_events if kernel == "bitmask" else -1
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(PackedLexicalEnumerator, "BITMASK_MAX_EVENTS", budget)
        enumerator = PackedLexicalEnumerator(poset)
        assert enumerator.kernel == kernel
        yield enumerator


def run_collector(runs, stop_after=None):
    """A run visitor that records each run as ``(cut, j, c0, c1)`` and is
    done after its ``stop_after``-th run."""

    def run(cut, j, c0, c1):
        runs.append((tuple(cut), j, c0, c1))
        return len(runs) == stop_after

    return RunVisitor(run)


def expand(runs):
    """The states the recorded runs stand for, in order."""
    return [
        cut[:j] + (c,) + cut[j + 1 :]
        for cut, j, c0, c1 in runs
        for c in range(c0, c1 + 1)
    ]


def assert_runs_on_last_free_thread(runs, lo, hi):
    """Every run lies on the last thread ``[lo, hi]`` frees (``n-1`` when
    it frees none), with every later coordinate at ``lo``."""
    free = [j for j in range(len(lo)) if lo[j] < hi[j]]
    last = free[-1] if free else len(lo) - 1
    for cut, j, c0, c1 in runs:
        assert j == last, (lo, hi, j)
        assert cut[j + 1 :] == tuple(lo[j + 1 :]), (lo, hi, cut)


def enumerate_with(enumerator, lo, hi, visit):
    """The whole lattice when ``lo`` is None, else ``[lo, hi]``."""
    if lo is None:
        return enumerator.enumerate(visit)
    return enumerator.enumerate_interval(lo, hi, visit)


def sequence(enumerator, lo=None, hi=None):
    """``(result, cuts, expanded)``: the states a plain visitor sees, and
    those a run visitor's runs expand to, on the same walk.  A packed
    walk's runs lie on the last thread its interval frees, from the
    interval's least state (``lo``'s closure) up to ``hi``; every other
    kernel calls a run visitor once per state, with ``j = n-1``."""
    visitor = CollectingVisitor()
    result = enumerate_with(enumerator, lo, hi, visitor)
    runs = []
    assert enumerate_with(enumerator, lo, hi, run_collector(runs)).states == result.states
    if not isinstance(enumerator, PackedLexicalEnumerator):
        n = enumerator.poset.num_threads
        assert all(j == n - 1 and c0 == c1 for _, j, c0, c1 in runs)
    elif runs:
        least = visitor.cuts[0]
        assert_runs_on_last_free_thread(
            runs, least, enumerator.poset.lengths if hi is None else hi
        )
    return result, visitor.cuts, expand(runs)


def drawn_bounds(poset, data):
    """Bounds ``lo ≤ hi ≤ lengths`` drawn per coordinate, so ``hi`` may be
    an inconsistent cut, as a split sub-interval's is."""
    hi = tuple(data.draw(st.integers(0, c), label="hi") for c in poset.lengths)
    lo = tuple(data.draw(st.integers(0, c), label="lo") for c in hi)
    return lo, hi


# --------------------------------------------------------------------- #
# visit-sequence identity (the tentpole contract)


@settings(max_examples=60, deadline=None)
@given(small_posets())
def test_full_visit_sequence_identity(poset):
    """lexical == lexical-packed (both kernels), in order, per state and
    expanded from runs; the reference calls a run visitor per state."""
    ref_result, ref, ref_runs = sequence(LexicalEnumerator(poset))
    assert ref_runs == ref
    for kernel in KERNELS:
        with packed_on(kernel, poset) as packed:
            result, cuts, expanded = sequence(packed)
            # counting mode (no visitor) agrees with the visited count
            counted = packed.enumerate(None).states
        assert cuts == ref, kernel
        assert expanded == ref, kernel
        assert result.states == ref_result.states
        assert counted == len(ref)


@settings(max_examples=100, deadline=None)
@given(small_posets(), st.data())
def test_interval_visit_sequence_identity(poset, data):
    """Bounds from visited cuts of the full walk, and bounds drawn per
    coordinate (``lo ≤ hi ≤ lengths``) whose ``hi`` may be an
    inconsistent cut, as a split sub-interval's is."""
    _, full, _ = sequence(LexicalEnumerator(poset))
    bounds = []
    if len(full) >= 3:
        lo = full[len(full) // 3]
        hi = full[2 * len(full) // 3]
        if not cut_leq(lo, hi):
            hi = poset.lengths
        bounds.append((lo, hi))
    for _ in range(4):
        bounds.append(drawn_bounds(poset, data))
    for lo, hi in bounds:
        _, ref, ref_runs = sequence(LexicalEnumerator(poset), lo, hi)
        assert ref_runs == ref, (lo, hi)
        for kernel in KERNELS:
            with packed_on(kernel, poset) as packed:
                _, cuts, expanded = sequence(packed, lo, hi)
                counted = packed.enumerate_interval(lo, hi).states
            assert cuts == ref, (kernel, lo, hi)
            assert expanded == ref, (kernel, lo, hi)
            assert counted == len(ref), (kernel, lo, hi)


@settings(max_examples=60, deadline=None)
@given(small_posets(), st.data())
def test_done_visitor_gets_no_further_run(poset, data):
    """A run visitor that returns True after its k-th run gets no further
    call, and the walk still counts every state of the interval."""
    whole = data.draw(st.booleans(), label="whole lattice")
    lo, hi = (None, None) if whole else drawn_bounds(poset, data)
    k = data.draw(st.integers(1, 6), label="k")
    for kernel in KERNELS:
        with packed_on(kernel, poset) as packed:
            every = []
            counted = enumerate_with(packed, lo, hi, run_collector(every)).states
            assert counted == enumerate_with(packed, lo, hi, None).states
            runs = []
            result = enumerate_with(packed, lo, hi, run_collector(runs, stop_after=k))
        assert runs == every[:k], (kernel, lo, hi)
        assert result.states == counted, (kernel, lo, hi)


def runs_expand_to_lexical_on_partition(poset):
    """On every interval :func:`compute_intervals` makes of ``poset``, both
    kernels' runs expand to the reference ``lexical`` walk of that
    interval and lie on its last free thread."""
    reference = LexicalEnumerator(poset)
    intervals = compute_intervals(poset)
    walks = []
    for interval in intervals:
        visitor = CollectingVisitor()
        reference.walk(interval.lo, interval.hi, visitor)
        walks.append(visitor.cuts)
    for kernel in KERNELS:
        with packed_on(kernel, poset) as packed:
            for interval, ref in zip(intervals, walks):
                runs = []
                result = packed.walk(interval.lo, interval.hi, run_collector(runs))
                assert expand(runs) == ref, (kernel, interval)
                assert result.states == len(ref), (kernel, interval)
                assert_runs_on_last_free_thread(runs, interval.lo, interval.hi)


@settings(max_examples=60, deadline=None)
@given(small_posets())
def test_runs_lie_on_each_intervals_last_free_thread(poset):
    """The small slice; CI sweeps the detection workloads' merged posets
    and enum-sparse-shaped computations with the same function."""
    runs_expand_to_lexical_on_partition(poset)


# --------------------------------------------------------------------- #
# interval edge cases


@pytest.mark.parametrize("kernel", KERNELS)
def test_empty_interval(kernel):
    """lo's closure escapes hi: the interval holds no consistent cut."""
    poset = build_figure4_poset()
    # (2, 0) requires e2[1] (closure (2, 1)), so hi = (2, 0) is empty
    with packed_on(kernel, poset) as packed:
        result, cuts, expanded = sequence(packed, (2, 0), (2, 0))
    assert result.states == 0 and cuts == expanded == []
    ref_result, ref, _ = sequence(LexicalEnumerator(poset), (2, 0), (2, 0))
    assert ref_result.states == 0 and ref == []


@pytest.mark.parametrize("kernel", KERNELS)
def test_point_interval(kernel):
    poset = build_figure4_poset()
    for point in [(0, 0), (1, 1), (2, 2)]:
        _, ref, _ = sequence(LexicalEnumerator(poset), point, point)
        with packed_on(kernel, poset) as packed:
            _, cuts, expanded = sequence(packed, point, point)
        assert cuts == expanded == ref == [point]


@pytest.mark.parametrize("kernel", KERNELS)
def test_single_thread_chain(kernel):
    poset = build_chain_poset(1, 5)
    with packed_on(kernel, poset) as packed:
        _, cuts, expanded = sequence(packed)
        _, bounded, _ = sequence(packed, (2,), (4,))
    assert cuts == expanded == [(c,) for c in range(6)]
    assert bounded == [(2,), (3,), (4,)]


@pytest.mark.parametrize("kernel", KERNELS)
def test_threads_with_empty_chains(kernel):
    builder = PosetBuilder(3)
    builder.append(0)
    builder.append(2, deps=[(0, 1)])
    poset = builder.build()
    assert poset.lengths == (1, 0, 1)
    _, ref, _ = sequence(LexicalEnumerator(poset))
    with packed_on(kernel, poset) as packed:
        _, cuts, expanded = sequence(packed)
    assert cuts == expanded == ref


# --------------------------------------------------------------------- #
# kernel selection and the packed tables


def test_factory_and_kernel_selection():
    poset = build_figure4_poset()
    e = make_enumerator("lexical-packed", poset)
    assert isinstance(e, PackedLexicalEnumerator)
    assert e.kernel == "bitmask"
    with pytest.raises(EnumerationError, match="lexical-packed"):
        make_enumerator("no-such-algorithm", poset)


def test_bitmask_budget_fallback(monkeypatch):
    """Above the mask budget the array kernel runs, picked per call."""
    poset = build_figure4_poset()
    e = PackedLexicalEnumerator(poset)
    assert e.kernel == "bitmask"
    monkeypatch.setattr(PackedLexicalEnumerator, "BITMASK_MAX_EVENTS", 2)
    assert e.kernel == "array"
    _, cuts, expanded = sequence(e)
    _, ref, _ = sequence(LexicalEnumerator(poset))
    assert cuts == expanded == ref


def decoded_downsets(tables):
    """Per event ``(t, k)``, the set of events its mask holds, read back
    through the tables' append order (bit ``b`` is the ``b``-th event)."""
    bit_event = []
    seen = [0] * tables.num_threads
    for t in tables.order:
        seen[t] += 1
        bit_event.append((t, seen[t]))
    downs, tmasks = tables.masks()
    for t, mask in enumerate(tmasks):
        assert {bit_event[b] for b in range(len(bit_event)) if mask >> b & 1} == {
            (t, k) for k in range(1, tables.lengths[t] + 1)
        }
    return {
        (t, k): {bit_event[b] for b in range(len(bit_event)) if mask >> b & 1}
        for t, masks in enumerate(downs)
        for k, mask in enumerate(masks, start=1)
    }


def expected_downsets(poset):
    return {
        (t, k): {
            (j, m)
            for j in range(poset.num_threads)
            for m in range(1, poset.lengths[j] + 1)
            if (j, m) == (t, k) or poset.happened_before((j, m), (t, k))
        }
        for t in range(poset.num_threads)
        for k in range(1, poset.lengths[t] + 1)
    }


def assert_same_clocks(tables, poset):
    """Rows and columns hold the poset's clocks; every column is sorted."""
    n = poset.num_threads
    assert tables.lengths == poset.lengths
    assert tables.num_events == poset.num_events
    for t in range(n):
        rows = tables.rows[t]
        cols = tables.cols[t]
        stride = len(cols) // n
        assert stride >= poset.lengths[t]
        for k in range(1, poset.lengths[t] + 1):
            row = poset.vc(t, k)
            assert tables.row(t, k) == row
            assert tuple(rows[(k - 1) * n : k * n]) == row
            for j in range(n):
                assert cols[j * stride + k - 1] == row[j]
        # requirement columns are sorted (clock monotonicity along chains)
        for j in range(n):
            col = tables.column(t, j)
            assert col == tuple(poset.vc(t, k)[j] for k in range(1, poset.lengths[t] + 1))
            assert list(col) == sorted(col)


def test_packed_tables_layout_and_caching():
    poset = random_computation(RandomComputationSpec(4, 14, 0.5, seed=3))
    tables = poset.packed_tables()
    assert poset.packed_tables() is tables  # computed once, shared
    assert_same_clocks(tables, poset)
    # the frozen build fills every column exactly: stride = chain length
    assert [len(c) // poset.num_threads for c in tables.cols] == list(poset.lengths)


def test_downset_masks_match_happened_before():
    poset = random_computation(RandomComputationSpec(3, 10, 0.6, seed=7))
    tables = poset.packed_tables()
    assert tables.masks() is tables.masks()  # allocated once
    assert decoded_downsets(tables) == expected_downsets(poset)
    # without a recorded insertion order the bits follow a topological one
    bare = Poset(
        [
            [poset.event(t, k) for k in range(1, poset.lengths[t] + 1)]
            for t in range(poset.num_threads)
        ]
    )
    assert bare.insertion is None
    assert decoded_downsets(bare.packed_tables()) == expected_downsets(poset)


def test_bulk_build_holds_the_poset_clocks():
    """The one (stdlib) bulk build holds the poset's clocks."""
    poset = random_computation(RandomComputationSpec(4, 16, 0.4, seed=9))
    tables = build_packed_tables(
        poset.num_threads, poset.vc_table(), poset.insertion
    )
    assert_same_clocks(tables, poset)


def test_poset_pickles_without_packed_cache():
    import pickle

    poset = build_figure4_poset()
    tables = poset.packed_tables()
    tables.masks()
    with pytest.raises(TypeError):
        pickle.dumps(tables)  # the tables hold a lock: they cannot travel
    clone = pickle.loads(pickle.dumps(poset))
    rebuilt = clone.packed_tables()  # rebuilt lazily on the other side
    assert rebuilt is not tables
    for a, b in zip(rebuilt.rows, tables.rows):
        assert list(a) == list(b)
    for a, b in zip(rebuilt.cols, tables.cols):
        assert list(a) == list(b)


def test_grow_leaves_the_columns_a_kernel_holds_intact():
    """A kernel reads ``cols[t]`` once and derives the stride from it; a
    grow must publish a new array and never touch the one it replaces."""
    builder = PosetBuilder(2)
    tables = builder.view().packed_tables()
    for _ in range(8):
        builder.append(1)
    held = tables.cols[1]
    snapshot = list(held)
    builder.append(0)
    builder.append(1, deps=[(0, 1)])  # the ninth event: columns are full
    assert tables.cols[1] is not held
    assert list(held) == snapshot
    stride = len(held) // 2
    assert stride == 8
    assert [held[stride + k] for k in range(8)] == list(range(1, 9))
    assert tables.column(1, 0) == (0,) * 8 + (1,)
    assert tables.column(1, 1) == tuple(range(1, 10))


@settings(max_examples=60, deadline=None)
@given(small_posets(), st.data())
def test_appended_tables_equal_frozen_tables(poset, data):
    """A builder fed a random linear extension grows the same tables the
    frozen poset builds in bulk, whenever the tables and the masks are
    first requested."""
    order = random_topological_order(
        poset, DeterministicRng(data.draw(st.integers(0, 2**16), label="seed"))
    )
    tables_at = data.draw(st.integers(0, len(order)), label="tables_at")
    masks_at = data.draw(st.integers(tables_at, len(order)), label="masks_at")
    builder = PosetBuilder(poset.num_threads)
    view = builder.view()
    for step, (tid, idx) in enumerate(order):
        if step == tables_at:
            live = view.packed_tables()
        if step == masks_at:
            live.masks()
        builder.append_stamped(poset.event(tid, idx))
    live = view.packed_tables()
    assert live is builder.packed_tables()
    assert_same_clocks(live, poset)
    assert_same_clocks(poset.packed_tables(), poset)
    expected = expected_downsets(poset)
    assert decoded_downsets(live) == expected
    assert decoded_downsets(poset.packed_tables()) == expected


# --------------------------------------------------------------------- #
# execution layers: split-steal threads, multiprocessing, checkpoints


def test_multiprocessing_backend_packed():
    poset = random_computation(RandomComputationSpec(4, 20, 0.4, seed=5))
    expected = count_ideals(poset)
    result = ParaMount(
        poset, "lexical-packed", executor=DistributedExecutor(workers=2)
    ).run()
    assert result.states == expected
    serial = ParaMount(poset, "lexical").run()
    assert result.interval_sizes() == serial.interval_sizes()


def journal_payload(path):
    """The subroutine-independent projection of a checkpoint journal."""
    records = []
    for line in path.read_text().splitlines()[1:]:
        rec = json.loads(line)
        records.append(
            (rec["event"], rec["lo"], rec["hi"], rec["states"])
        )
    return json.dumps(sorted(records), sort_keys=True).encode()


def test_checkpoint_payloads_identical_across_subroutines(tmp_path):
    """Same poset + schedule: every subroutine journals the same
    (event, lo, hi, states) records, byte-for-byte after projection."""
    poset = random_computation(RandomComputationSpec(4, 18, 0.4, seed=2))
    payloads = {}
    for sub in ("lexical", "lexical-packed", "level-space"):
        journal = tmp_path / f"{sub}.jsonl"
        result = ParaMount(poset, subroutine=sub, checkpoint=journal).run()
        assert result.complete
        payloads[sub] = journal_payload(journal)
    assert payloads["lexical-packed"] == payloads["lexical"]
    assert payloads["level-space"] == payloads["lexical"]
