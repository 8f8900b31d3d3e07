"""Differential oracle: every kernel, executor, schedule and kill/resume
path visits exactly the reference lattice.

Theorem 2 says the intervals partition the lattice, so however the driver
splits, coalesces, dispatches or resumes them, every consistent cut is
visited exactly once.  Each run here is checked against two references
that share no code with the driver: the unbounded walk of the plain
``lexical`` enumerator (the visited multiset) and the ideal-counting DP
(the state count).  On small posets the walk is itself checked against
brute force: every cut of the poset's box tested for consistency.  The
checkpoint journal must hold exactly one record per piece of the plan,
whichever tasks (runs of pieces) wrote them.

A killed run is stopped after ``k`` tasks have started, the way a kill
stops a process: tasks already running finish and journal, later ones
never run.  The resumed run must then visit exactly the states the
killed run did not.

Hypothesis draws small random posets, bounded subroutines (the packed
lexical kernel on bitmasks and on arrays, ``level-space``, ``bfs`` and
the reference ``lexical`` walk), executors and schedules from a fixed
seed; the distributed backend, whose worker processes take a while to
start, and eight threads, which split deeper, are checked on a fixed
handful of posets instead.

Injected faults are one more dimension: a resilient executor, serial or
on two threads, whose guard fails single tasks at a drawn fault seed,
must still visit every state once and journal every piece once — visits
and journal writes are side effects, so a retry round must resubmit only
the tasks that raised.  Wire faults are the dist backend's side of that
dimension: a worker whose acks are dropped or delayed, which crashes or
hangs past its lease, must still leave a complete count and one journal
record per piece.

The online driver (Algorithm 4) is one more dimension: its events arrive
in a random linear extension of happened-before, from one thread or from
one thread per poset thread, and it must make the intervals
:func:`compute_intervals` makes for that order and visit the same
reference lattice.  The detection workloads' event-collection posets are
replayed the same way.

The drivers enumerate every piece on the kernels' trusted ``walk``, which
checks nothing, so every online interval and every planned piece is
checked for its precondition: ``lo`` a consistent cut, ``lo ≤ hi ≤
lengths``.
"""

import json
import math
import sys
import threading
from collections import Counter
from contextlib import contextmanager
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.executors import (
    Executor,
    RetryPolicy,
    SerialExecutor,
    WorkStealingThreadExecutor,
)
from repro.core.intervals import compute_intervals
from repro.core.online import OnlineParaMount
from repro.core.paramount import ParaMount
from repro.core.scheduling import plan_schedule
from repro.detector.hb import poset_from_trace
from repro.dist import DistributedExecutor, WireFaults
from repro.enumeration import PackedLexicalEnumerator
from repro.enumeration.base import make_enumerator
from repro.poset.ideals import count_ideals
from repro.poset.random_posets import RandomComputationSpec, random_computation
from repro.poset.topological import random_topological_order
from repro.resilience import FaultSpec, ResilientExecutor
from repro.runtime import run_program
from repro.util.cuts import cut_leq
from repro.util.rng import DeterministicRng, derive_seed
from repro.workloads.registry import ALL_DETECTION_WORKLOADS

from tests.conftest import brute_force_states, small_posets


class Killed(RuntimeError):
    """Raised by the tasks a simulated kill stops before they start."""


class KillAfter(Executor):
    """Runs ``inner``'s gather, but only the first ``k`` tasks to start
    run; every later one raises :class:`Killed`.  ``workers`` is the
    worker count the run's schedule is planned for."""

    name = "kill-after"

    def __init__(self, inner: Executor, k: int, workers: int):
        super().__init__(num_workers=workers)
        self.inner = inner
        self.k = k
        self._started = 0
        self._lock = threading.Lock()

    def map_tasks(self, tasks, context):
        def stoppable(task):
            def run():
                with self._lock:
                    if self._started >= self.k:
                        raise Killed(f"killed after {self.k} tasks")
                    self._started += 1
                return task()

            return replace(task, fn=run)

        return self.inner.map_tasks([stoppable(task) for task in tasks], context)


#: The largest box (the product of ``lengths[t] + 1``) that
#: :func:`reference` also enumerates by brute force; every
#: ``small_posets()`` draw (at most 18 events) fits.
BRUTE_FORCE_BOX = 4096


def reference(poset):
    seen = Counter()
    make_enumerator("lexical", poset).enumerate(lambda c: seen.update([tuple(c)]))
    assert sum(seen.values()) == count_ideals(poset)
    if math.prod(length + 1 for length in poset.lengths) <= BRUTE_FORCE_BOX:
        assert set(seen) == brute_force_states(poset)
    return seen


def make_executor(kind):
    if kind == "serial":
        return SerialExecutor()
    if kind.startswith("threads"):
        return WorkStealingThreadExecutor(int(kind[-1]))
    return DistributedExecutor(workers=2, lease_seconds=2.0, no_worker_grace=5.0)


def assert_walkable(poset, intervals):
    """The trusted walk's precondition: every interval a driver makes
    starts at a consistent cut, below its bound, below the final cut."""
    for iv in intervals:
        assert poset.is_consistent(iv.lo), iv
        assert cut_leq(iv.lo, iv.hi) and cut_leq(iv.hi, poset.lengths), iv


def assert_one_record_per_piece(path, poset, schedule, workers):
    plan = plan_schedule(
        poset, ParaMount(poset).intervals, schedule, workers
    )
    assert_walkable(poset, plan.tasks)
    records = [json.loads(line) for line in path.read_text().splitlines()[1:]]
    keys = [
        (tuple(r["event"]), tuple(r["lo"]), tuple(r["hi"])) for r in records
    ]
    assert sorted(keys) == sorted((iv.event, iv.lo, iv.hi) for iv in plan.tasks)


def check(poset, kind, schedule, kill_at, tmp_path, subroutine="lexical-packed"):
    """One uninterrupted run and one killed-then-resumed run of ``kind``
    under ``schedule`` and ``subroutine``, both checked against the
    references."""
    expected = reference(poset)
    total = count_ideals(poset)
    visits = kind != "dist"  # remote workers do not call back

    def run(executor, path, seen):
        pm = ParaMount(
            poset,
            subroutine=subroutine,
            executor=executor,
            schedule=schedule,
            checkpoint=path,
        )
        return pm.run(
            (lambda c: seen.update([tuple(c)])) if visits else None
        )

    whole = Counter()
    path = tmp_path / f"{kind}-{schedule}-whole.ckpt"
    result = run(make_executor(kind), path, whole)
    assert result.complete
    assert result.states == total
    if visits:
        assert whole == expected
    workers = make_executor(kind).num_workers
    assert_one_record_per_piece(path, poset, schedule, workers)

    # the killed run executes in-process, planned for the same workers
    inner = SerialExecutor() if kind in ("serial", "dist") else make_executor(kind)
    killed_seen, resumed_seen = Counter(), Counter()
    path = tmp_path / f"{kind}-{schedule}-killed.ckpt"
    killer = KillAfter(inner, kill_at, workers)
    try:
        ParaMount(
            poset,
            subroutine=subroutine,
            executor=killer,
            schedule=schedule,
            checkpoint=path,
        ).run(lambda c: killed_seen.update([tuple(c)]))
    except Killed:
        pass
    journaled = [
        json.loads(line) for line in path.read_text().splitlines()[1:]
    ]
    # the killed run journaled exactly the tasks that ran
    assert sum(r["states"] for r in journaled) == sum(killed_seen.values())
    resumed = run(make_executor(kind), path, resumed_seen)
    assert resumed.complete
    assert resumed.states == total
    assert resumed.resumed_intervals == len(journaled)
    if visits:
        assert killed_seen + resumed_seen == expected
    assert_one_record_per_piece(path, poset, schedule, workers)


#: Kernels drawn: ``bitmask`` and ``array`` are ``lexical-packed``, the
#: latter forced off the bitmask kernel it would run on these small posets;
#: ``lexical`` is the reference walk, here bounded to each piece.
KERNELS = ["bitmask", "array", "level-space", "bfs", "lexical"]


@contextmanager
def kernel_subroutine(kernel):
    """The subroutine name that runs ``kernel``, for the ``with`` body."""
    with pytest.MonkeyPatch.context() as mp:
        if kernel == "array":
            mp.setattr(PackedLexicalEnumerator, "BITMASK_MAX_EVENTS", -1)
        yield "lexical-packed" if kernel in ("bitmask", "array") else kernel


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    poset=small_posets(),
    kernel=st.sampled_from(KERNELS),
    kind=st.sampled_from(["serial", "threads2", "threads3"]),
    schedule=st.sampled_from(["fifo", "split-steal"]),
    kill_at=st.integers(min_value=0, max_value=3),
)
def test_in_process_runs_match_the_reference(
    tmp_path_factory, poset, kernel, kind, schedule, kill_at
):
    with kernel_subroutine(kernel) as subroutine:
        check(
            poset, kind, schedule, kill_at, tmp_path_factory.mktemp("diff"),
            subroutine,
        )


@pytest.mark.parametrize("subroutine", ["lexical-packed", "level-space"])
def test_deep_splits_on_eight_threads_match_the_reference(tmp_path, subroutine):
    """Eight workers split deeper than the drawn runs on two or three: up
    to 8 pieces per interval of this poset, against at most 5 on three."""
    poset = random_computation(RandomComputationSpec(5, 30, 0.4, seed=11))
    check(poset, "threads8", "split-steal", 2, tmp_path, subroutine)


@pytest.mark.parametrize("schedule", ["fifo", "split-steal"])
@pytest.mark.parametrize("seed", [3, 11, 29])
def test_dist_local_runs_match_the_reference(tmp_path, seed, schedule):
    poset = random_computation(RandomComputationSpec(4, 40, 0.5, seed=seed))
    check(poset, "dist", schedule, 2, tmp_path)


# --------------------------------------------------------------------- #
# injected faults


def check_under_faults(poset, rung, schedule, seed, tmp_path):
    """One run under injected faults at fault seed ``seed``: a resilient
    executor on ``rung`` (``serial`` or ``threads2``) whose guard fails
    single tasks.  Every state must be visited once and every piece
    journaled once."""
    inner = SerialExecutor() if rung == "serial" else WorkStealingThreadExecutor(2)
    executor = ResilientExecutor(
        inner,
        retry=RetryPolicy(max_attempts=3, base_delay=0.0, max_delay=0.0, jitter=0.0),
        fault_spec=FaultSpec(
            derive_seed(seed, "guard"), crash=0.2, max_faulty_attempts=2
        ),
    )
    seen = Counter()
    path = tmp_path / f"{rung}-{schedule}-{seed}.ckpt"
    result = ParaMount(
        poset, executor=executor, schedule=schedule, checkpoint=path
    ).run(lambda c: seen.update([tuple(c)]))
    assert result.complete
    assert result.states == count_ideals(poset)
    assert seen == reference(poset)
    assert_one_record_per_piece(path, poset, schedule, executor.num_workers)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    poset=small_posets(),
    rung=st.sampled_from(["serial", "threads2"]),
    schedule=st.sampled_from(["fifo", "split-steal"]),
    seed=st.integers(min_value=0, max_value=2),
)
def test_runs_under_injected_faults_match_the_reference(
    tmp_path_factory, poset, rung, schedule, seed
):
    """The small slice; CI sweeps fault seeds 0–9 with the same function."""
    check_under_faults(
        poset, rung, schedule, seed, tmp_path_factory.mktemp("faults")
    )


def check_under_wire_faults(poset, seed, schedule, tmp_path):
    """One dist run whose first worker draws wire faults at fault seed
    ``seed``: dropped and delayed acks, crashes, and hangs longer than the
    lease.  The lease table must re-dispatch what they cost, commit each
    run once, and the count must be the reference's.  Returns the run's
    result, whose ``redispatches`` show what the faults cost."""
    faults = WireFaults(
        seed, drop_ack=0.2, delay_ack=0.2, crash=0.1, hang=0.2,
        delay_seconds=0.05, hang_seconds=0.75,
    )
    executor = DistributedExecutor(
        workers=2, lease_seconds=0.5, no_worker_grace=5.0,
        wire_faults=faults,
    )
    path = tmp_path / f"wire-{schedule}-{seed}.ckpt"
    result = ParaMount(
        poset, executor=executor, schedule=schedule, checkpoint=path
    ).run()
    assert result.complete
    assert result.states == count_ideals(poset)
    assert_one_record_per_piece(path, poset, schedule, executor.num_workers)
    return result


@pytest.mark.parametrize("schedule", ["fifo", "split-steal"])
@pytest.mark.parametrize("seed", [0, 1])
def test_dist_runs_under_wire_faults_match_the_reference(tmp_path, seed, schedule):
    """The small slice; CI sweeps fault seeds 0–9 with the same function."""
    poset = random_computation(RandomComputationSpec(4, 40, 0.5, seed=3))
    check_under_wire_faults(poset, seed, schedule, tmp_path)


# --------------------------------------------------------------------- #
# the online driver


def online_worker(poset, subroutine, seen, synchronized=False):
    """An online worker whose every interval visitor counts into ``seen``."""
    return OnlineParaMount(
        poset.num_threads,
        subroutine=subroutine,
        interval_visitor=lambda e, interval, view: (
            lambda cut: seen.update([tuple(cut)])
        ),
        synchronized=synchronized,
    )


def check_online(poset, order, subroutine, expected):
    """Insert ``poset``'s events in ``order`` and check the worker against
    the offline partition of that order and the references (``expected``
    is ``reference(poset)``)."""
    seen = Counter()
    om = online_worker(poset, subroutine, seen)
    for tid, idx in order:
        om.insert(poset.event(tid, idx))
    assert_walkable(poset, om.intervals)
    assert om.intervals == compute_intervals(poset, order)
    assert seen == expected
    assert om.result.states == count_ideals(poset)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(poset=small_posets(), seed=st.integers(min_value=0, max_value=2**16))
def test_online_inserts_in_any_linear_extension_match_the_reference(
    poset, seed
):
    order = random_topological_order(poset, DeterministicRng(seed))
    expected = reference(poset)
    for kernel in KERNELS:
        with kernel_subroutine(kernel) as subroutine:
            check_online(poset, order, subroutine, expected)


def insert_from_threads(om, poset):
    """One inserting thread per poset thread, each waiting until its
    event's dependencies are in, under a short switch interval."""
    n = poset.num_threads
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
                            for j in range(n)
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
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=run, args=(t,)) for t in range(n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert not errors, errors


@settings(max_examples=15, deadline=None, derandomize=True)
@given(poset=small_posets())
def test_synchronized_online_inserts_match_the_reference(poset):
    """Concurrent inserts: the order is whichever the threads made, so the
    worker's intervals are those of the order its builder recorded."""
    expected = reference(poset)
    for kernel in KERNELS:
        with kernel_subroutine(kernel) as subroutine:
            seen = Counter()
            om = online_worker(poset, subroutine, seen, synchronized=True)
            insert_from_threads(om, poset)
            order = om.builder.insertion_order()
            assert om.intervals == compute_intervals(poset, order)
            assert seen == expected
            assert om.result.states == count_ideals(poset)


def online_replays_match_offline(workload, seed):
    """Replay one schedule's event-collection poset (the poset the
    detector builds) through the online worker in 3 random linear
    extensions, each checked as :func:`check_online` does."""
    trace = run_program(
        workload.build(), seed=seed, stickiness=workload.stickiness
    )
    poset = poset_from_trace(trace, merge_collections=True)
    expected = reference(poset)
    rng = DeterministicRng(seed)
    for _ in range(3):
        order = random_topological_order(poset, rng)
        check_online(poset, order, "lexical-packed", expected)


@pytest.mark.parametrize("name", sorted(ALL_DETECTION_WORKLOADS))
def test_online_replays_of_detection_posets_match_the_reference(name):
    """The small slice; CI sweeps seeds 0–9 with the same function."""
    for seed in range(3):
        online_replays_match_offline(ALL_DETECTION_WORKLOADS[name], seed)
