"""Packed lexical enumeration: sequence identity, kernels, flat tables.

The contract under test is strict: ``lexical-packed`` must produce the
*identical visit sequence* as the reference ``LexicalEnumerator`` — not
just the same set — with both successor kernels, on full lattices and on
arbitrary interval bounds, and through every execution layer (split-steal
threads, dist worker processes, checkpoint journals).
"""

import json

import pytest
from hypothesis import given, settings

from repro.core.executors import WorkStealingThreadExecutor
from repro.core.paramount import ParaMount
from repro.dist import DistributedExecutor
from repro.enumeration import (
    CollectingVisitor,
    FastLexicalEnumerator,
    LexicalEnumerator,
    PackedLexicalEnumerator,
    make_enumerator,
)
from repro.errors import EnumerationError
from repro.obs.observer import Observer
from repro.poset.builder import PosetBuilder
from repro.poset.ideals import count_ideals
from repro.poset.packed import build_packed_tables, numpy_or_none
from repro.poset.random_posets import RandomComputationSpec, random_computation
from repro.util.cuts import cut_leq

from tests.conftest import build_chain_poset, build_figure4_poset, small_posets

KERNELS = ("array", "bitmask")


def sequence(enumerator, lo=None, hi=None):
    visitor = CollectingVisitor()
    if lo is None:
        result = enumerator.enumerate(visitor)
    else:
        result = enumerator.enumerate_interval(lo, hi, visitor)
    return result, visitor.cuts


# --------------------------------------------------------------------- #
# visit-sequence identity (the tentpole contract)


@settings(max_examples=60, deadline=None)
@given(small_posets())
def test_full_visit_sequence_identity(poset):
    """lexical == lexical-fast == lexical-packed (both kernels), in order."""
    ref_result, ref = sequence(LexicalEnumerator(poset))
    _, fast = sequence(FastLexicalEnumerator(poset))
    assert fast == ref
    for kernel in KERNELS:
        result, cuts = sequence(PackedLexicalEnumerator(poset, kernel=kernel))
        assert cuts == ref, kernel
        assert result.states == ref_result.states
        # counting mode (no visitor) agrees with the visited count
        assert PackedLexicalEnumerator(poset, kernel=kernel).enumerate(None).states == len(ref)


@settings(max_examples=60, deadline=None)
@given(small_posets())
def test_interval_visit_sequence_identity(poset):
    _, full = sequence(LexicalEnumerator(poset))
    if len(full) < 3:
        return
    lo = full[len(full) // 3]
    hi = full[2 * len(full) // 3]
    if not cut_leq(lo, hi):
        hi = poset.lengths
    _, ref = sequence(LexicalEnumerator(poset), lo, hi)
    for kernel in KERNELS:
        _, cuts = sequence(PackedLexicalEnumerator(poset, kernel=kernel), lo, hi)
        assert cuts == ref, (kernel, lo, hi)


# --------------------------------------------------------------------- #
# interval edge cases


@pytest.mark.parametrize("kernel", KERNELS)
def test_empty_interval(kernel):
    """lo's closure escapes hi: the interval holds no consistent cut."""
    poset = build_figure4_poset()
    # (2, 0) requires e2[1] (closure (2, 1)), so hi = (2, 0) is empty
    result, cuts = sequence(
        PackedLexicalEnumerator(poset, kernel=kernel), (2, 0), (2, 0)
    )
    assert result.states == 0 and cuts == []
    ref_result, ref = sequence(LexicalEnumerator(poset), (2, 0), (2, 0))
    assert ref_result.states == 0 and ref == []


@pytest.mark.parametrize("kernel", KERNELS)
def test_point_interval(kernel):
    poset = build_figure4_poset()
    for point in [(0, 0), (1, 1), (2, 2)]:
        _, ref = sequence(LexicalEnumerator(poset), point, point)
        _, cuts = sequence(
            PackedLexicalEnumerator(poset, kernel=kernel), point, point
        )
        assert cuts == ref == [point]


@pytest.mark.parametrize("kernel", KERNELS)
def test_single_thread_chain(kernel):
    poset = build_chain_poset(1, 5)
    _, cuts = sequence(PackedLexicalEnumerator(poset, kernel=kernel))
    assert cuts == [(c,) for c in range(6)]
    _, bounded = sequence(
        PackedLexicalEnumerator(poset, kernel=kernel), (2,), (4,)
    )
    assert bounded == [(2,), (3,), (4,)]


@pytest.mark.parametrize("kernel", KERNELS)
def test_threads_with_empty_chains(kernel):
    builder = PosetBuilder(3)
    builder.append(0)
    builder.append(2, deps=[(0, 1)])
    poset = builder.build()
    assert poset.lengths == (1, 0, 1)
    _, ref = sequence(LexicalEnumerator(poset))
    _, cuts = sequence(PackedLexicalEnumerator(poset, kernel=kernel))
    assert cuts == ref


# --------------------------------------------------------------------- #
# kernel selection and the packed tables


def test_factory_and_kernel_selection():
    poset = build_figure4_poset()
    e = make_enumerator("lexical-packed", poset)
    assert isinstance(e, PackedLexicalEnumerator)
    assert e.kernel == "bitmask" and e.fallback_reason is None
    with pytest.raises(EnumerationError, match="lexical-packed"):
        make_enumerator("no-such-algorithm", poset)
    with pytest.raises(EnumerationError, match="packed kernel"):
        PackedLexicalEnumerator(poset, kernel="simd")


def test_bitmask_budget_fallback(monkeypatch):
    poset = build_figure4_poset()
    monkeypatch.setattr(PackedLexicalEnumerator, "BITMASK_MAX_EVENTS", 2)
    e = PackedLexicalEnumerator(poset)
    assert e.kernel == "array"
    assert "bitmask budget" in e.fallback_reason
    _, cuts = sequence(e)
    _, ref = sequence(LexicalEnumerator(poset))
    assert cuts == ref


def test_fallback_counter_reaches_observer(monkeypatch):
    monkeypatch.setattr(PackedLexicalEnumerator, "BITMASK_MAX_EVENTS", 0)
    poset = build_figure4_poset()
    observer = Observer()
    result = ParaMount(
        poset, subroutine="lexical-packed", observer=observer
    ).run()
    assert result.states == 8
    assert observer.counter("packed_kernel_fallbacks_total").value() == 1


def test_packed_tables_layout_and_caching():
    poset = random_computation(RandomComputationSpec(4, 14, 0.5, seed=3))
    tables = poset.packed_tables()
    assert poset.packed_tables() is tables  # computed once, shared
    n = poset.num_threads
    for t in range(n):
        lt = poset.lengths[t]
        for k in range(1, lt + 1):
            row = poset.vc(t, k)
            assert tables.row(t, k) == row
            base = (tables.event_base[t] + k - 1) * n
            assert tuple(tables.clock_rows[base : base + n]) == row
            for j in range(n):
                assert tables.succ_cols[t][j * lt + k - 1] == row[j]
        # requirement columns are sorted (clock monotonicity along chains)
        for j in range(n):
            col = tables.succ_cols[t][j * lt : (j + 1) * lt]
            assert list(col) == sorted(col)


def test_downset_masks_match_happened_before():
    poset = random_computation(RandomComputationSpec(3, 10, 0.6, seed=7))
    tables = poset.packed_tables()
    downs = tables.downset_masks()
    tmasks = tables.thread_masks()
    for j, length in enumerate(poset.lengths):
        assert tmasks[j].bit_count() == length
    for t in range(poset.num_threads):
        for k in range(1, poset.lengths[t] + 1):
            mask = downs[t][k - 1]
            for j in range(poset.num_threads):
                for m in range(1, poset.lengths[j] + 1):
                    bit = 1 << (tables.event_base[j] + m - 1)
                    included = bool(mask & bit)
                    expected = (j, m) == (t, k) or poset.happened_before(
                        (j, m), (t, k)
                    )
                    assert included == expected, ((j, m), (t, k))


def test_numpy_and_pure_backends_build_identical_tables(monkeypatch):
    poset = random_computation(RandomComputationSpec(4, 16, 0.4, seed=9))
    monkeypatch.setenv("REPRO_NO_NUMPY", "1")
    assert numpy_or_none() is None
    pure = build_packed_tables(poset.num_threads, poset.lengths, poset.vc_table())
    assert pure.backend == "pure"
    monkeypatch.delenv("REPRO_NO_NUMPY")
    other = build_packed_tables(poset.num_threads, poset.lengths, poset.vc_table())
    if numpy_or_none() is None:  # numpy not installed: both paths are pure
        assert other.backend == "pure"
    else:
        assert other.backend == "numpy"
    assert list(other.clock_rows) == list(pure.clock_rows)
    for a, b in zip(other.succ_cols, pure.succ_cols):
        assert list(a) == list(b)


def test_poset_pickles_without_packed_cache():
    import pickle

    poset = build_figure4_poset()
    tables = poset.packed_tables()
    clone = pickle.loads(pickle.dumps(poset))
    rebuilt = clone.packed_tables()  # rebuilt lazily on the other side
    assert rebuilt is not tables
    assert list(rebuilt.clock_rows) == list(tables.clock_rows)


# --------------------------------------------------------------------- #
# execution layers: split-steal threads, multiprocessing, checkpoints


@pytest.mark.parametrize("subroutine", ["lexical-packed", "level-space"])
def test_split_steal_eight_workers_identical(subroutine):
    poset = random_computation(RandomComputationSpec(5, 30, 0.4, seed=11))
    baseline: dict = {}
    serial = ParaMount(poset).run(
        lambda c: baseline.__setitem__(c, baseline.get(c, 0) + 1)
    )
    seen: dict = {}
    result = ParaMount(
        poset,
        subroutine=subroutine,
        schedule="split-steal",
        executor=WorkStealingThreadExecutor(8),
    ).run(lambda c: seen.__setitem__(c, seen.get(c, 0) + 1))
    assert result.states == serial.states
    assert seen == baseline
    assert max(seen.values()) == 1  # exactly once, across stolen tasks


def test_multiprocessing_backend_packed():
    poset = random_computation(RandomComputationSpec(4, 20, 0.4, seed=5))
    expected = count_ideals(poset)
    result = ParaMount(
        poset, "lexical-packed", executor=DistributedExecutor(workers=2)
    ).run()
    assert result.states == expected
    serial = ParaMount(poset).run()
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
