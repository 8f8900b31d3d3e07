"""Distributed backend end-to-end: real sockets, real worker processes.

Each test runs a full enumeration through
:class:`~repro.dist.executor.DistributedExecutor` — a coordinator in this
process plus local worker processes — and checks the recovery bar: after
injected faults (crashes, hangs, ``kill -9``'d workers) the state counts
are identical to the serial baseline and the checkpoint journal holds
exactly one record per interval.  CI reruns this module under
``FAULT_SEED`` 0, 1 and 2, which seeds the probabilistic wire faults.

Tests that count journal records pin ``schedule="fifo"``: under the
adaptive default a 2-worker plan may *split* a large interval into
sub-tasks, each with its own commit/checkpoint identity, so the record
count would be per-piece rather than per-partition-interval (that shape
gets its own test below).

A lease carries a *run* of consecutive pieces, so these posets make only
8–10 leases: the crash and hang faults below fire on every lease of the
faulted worker, which is what guarantees that the fault costs a lease,
and the partition test runs its faulted worker alone, so it leases every
run.
"""

import json
import os
import socket
import time

import pytest

from repro.core.paramount import ParaMount
from repro.dist import Coordinator, DistributedExecutor, WireFaults
from repro.dist.wire import WIRE_DROP_ACK, recv_message, send_message
from repro.obs import Observer
from repro.poset.random_posets import RandomComputationSpec, random_computation
from repro.staticcheck.sanitize import EnumerationSanitizer
from repro.workloads.registry import ENUMERATION_WORKLOADS

from tests.conftest import build_chain_poset, build_figure4_poset

#: Generous remote-run bound so a wedged coordinator fails the test
#: instead of hanging the suite.
LEASE = 2.0

FAULT_SEED = int(os.environ.get("FAULT_SEED", "0"))


def build(name):
    return ENUMERATION_WORKLOADS[name].build_poset()


def journal_records(path):
    lines = path.read_text().splitlines()
    return [json.loads(line) for line in lines[1:]]


def dist_executor(**kwargs):
    kwargs.setdefault("workers", 2)
    kwargs.setdefault("lease_seconds", LEASE)
    kwargs.setdefault("heartbeat_seconds", 0.5)
    kwargs.setdefault("no_worker_grace", 5.0)
    return DistributedExecutor(**kwargs)


def test_fault_free_run_matches_serial(tmp_path):
    poset = build("d-300")
    serial = ParaMount(poset).run()
    path = tmp_path / "dist.ckpt"
    result = ParaMount(
        poset, executor=dist_executor(), checkpoint=path, schedule="fifo"
    ).run()
    assert result.complete
    assert result.states == serial.states
    assert result.interval_sizes() == serial.interval_sizes()
    assert sorted(result.hosts) == ["host0", "host1"]
    records = journal_records(path)
    assert len(records) == len(serial.intervals)


@pytest.mark.parametrize(
    "make_poset,subroutine,workers",
    [
        pytest.param(build_figure4_poset, "lexical", 2, id="figure4"),
        pytest.param(
            lambda: random_computation(
                RandomComputationSpec(5, 30, 0.4, seed=11)
            ),
            "lexical",
            2,
            id="random",
        ),
        pytest.param(lambda: build_chain_poset(4, 2), "bfs", 2, id="bfs"),
        pytest.param(build_figure4_poset, "lexical", 1, id="one-worker"),
    ],
)
def test_small_computations_match_serial(
    tmp_path, make_poset, subroutine, workers
):
    """Computations with few intervals: not every worker need get a lease,
    but the counts and the journal still match serial exactly."""
    poset = make_poset()
    serial = ParaMount(poset).run()
    path = tmp_path / "dist.ckpt"
    result = ParaMount(
        poset,
        subroutine,
        executor=dist_executor(workers=workers),
        checkpoint=path,
        schedule="fifo",
    ).run()
    assert result.complete
    assert result.states == serial.states
    assert result.interval_sizes() == serial.interval_sizes()
    assert result.hosts
    assert set(result.hosts) <= {f"host{i}" for i in range(workers)}
    records = journal_records(path)
    assert len(records) == len(serial.intervals)


def test_wall_time_recorded():
    result = ParaMount(build_figure4_poset(), executor=dist_executor()).run()
    assert result.wall_time > 0.0


@pytest.mark.parametrize("callback", ["visit", "sanitizer"])
def test_run_needing_every_state_is_refused(callback):
    """Remote workers never call the driver's visitor or sanitizer, so a
    run that needs either is refused before a coordinator or worker
    exists — instead of reporting success with nothing visited."""
    poset = random_computation(RandomComputationSpec(3, 12, 0.5, seed=1))
    executor = dist_executor()
    seen = []
    options = {"sanitizer": EnumerationSanitizer()} if callback == "sanitizer" else {}
    pm = ParaMount(poset, "lexical", executor=executor, **options)
    with pytest.raises(ValueError, match="visitor or sanitizer"):
        pm.run(visit=seen.append if callback == "visit" else None)
    assert executor.last_coordinator is None
    assert seen == []


@pytest.mark.parametrize(
    "name,faults,lease_seconds",
    [
        pytest.param("d-300", WireFaults(seed=0, kill_after=1), LEASE, id="d-300"),
        pytest.param("tsp", WireFaults(seed=0, kill_after=1), LEASE, id="tsp"),
        pytest.param(
            "d-300", WireFaults(seed=FAULT_SEED, crash=1.0), 0.5, id="crash"
        ),
        pytest.param(
            "d-300",
            WireFaults(seed=FAULT_SEED, hang=1.0, hang_seconds=1.0),
            0.5,
            id="hang",
        ),
    ],
)
def test_killed_worker_recovers_exactly(tmp_path, name, faults, lease_seconds):
    """One of two workers is faulted — killed -9 (``os._exit(137)``
    before it acks the first run it completes, so the kill fires however
    few runs it wins), crashed (``os._exit(1)`` before enumerating),
    or hung past its lease with heartbeats suppressed: the surviving worker
    absorbs the re-dispatched leases, the state counts are byte-identical
    to serial, and the journal holds exactly one record per interval."""
    poset = build(name)
    serial = ParaMount(poset).run()
    path = tmp_path / f"{name}.ckpt"
    executor = dist_executor(lease_seconds=lease_seconds, wire_faults=faults)
    observer = Observer()
    result = ParaMount(
        poset,
        executor=executor,
        checkpoint=path,
        schedule="fifo",
        observer=observer,
    ).run()
    assert result.complete
    assert result.states == serial.states
    assert result.interval_sizes() == serial.interval_sizes()
    # the fault cost at least one in-flight lease its first attempt
    assert result.redispatches >= 1
    counters = observer.snapshot()["counters"]
    assert counters.get("redispatches_total", 0) == result.redispatches
    assert counters.get("leases_expired_total", 0) == result.leases_expired
    records = journal_records(path)
    assert len(records) == len(serial.intervals)
    keys = {
        (tuple(r["event"]), tuple(r["lo"]), tuple(r["hi"])) for r in records
    }
    assert len(keys) == len(serial.intervals)


def test_partition_duplicates_are_suppressed(tmp_path):
    """Dropped acknowledgements (one-way partition) force lease expiry and
    re-dispatch; late/duplicate acks never produce a second journal
    record.

    The one worker is the faulted one, so it leases every run (beside a
    healthy worker it could lose every lease and no fault would fire).
    Its drop rate is below 1, so a retried run can commit, and at this
    seed the draws drop the first attempt of one of its runs."""
    poset = build("tsp")
    serial = ParaMount(poset).run()
    path = tmp_path / "partition.ckpt"
    faults = WireFaults(seed=2, drop_ack=0.25)
    executor = dist_executor(workers=1, lease_seconds=0.75, wire_faults=faults)
    result = ParaMount(
        poset, executor=executor, checkpoint=path, schedule="fifo"
    ).run()
    leased = executor.last_coordinator.table.attempts
    assert any(faults.decide(key, 0) == WIRE_DROP_ACK for key in leased)
    assert result.complete
    assert result.states == serial.states
    assert result.leases_expired >= 1
    records = journal_records(path)
    assert len(records) == len(serial.intervals)
    keys = {
        (tuple(r["event"]), tuple(r["lo"]), tuple(r["hi"])) for r in records
    }
    assert len(keys) == len(serial.intervals)


def test_stale_digest_worker_is_rejected_before_leasing():
    """A worker whose handshake digest names a different poset is refused
    at hello — it never holds a lease, let alone commits."""
    coord = Coordinator(build("tsp"), "lexical").start()
    try:
        conn = socket.create_connection(coord.address, timeout=5.0)
        try:
            send_message(
                conn,
                {"type": "hello", "name": "stale", "pid": 0, "digest": "f" * 64},
            )
            reply = recv_message(conn)
            assert reply["type"] == "reject"
            assert reply["reason"] == "stale-digest"
            assert reply["expected"] == coord.digest
        finally:
            conn.close()
    finally:
        coord.stop()


def test_stop_wakes_the_accept_thread_promptly():
    """Closing a listening socket does not wake a thread blocked in
    ``accept()`` on Linux; ``stop()`` must not wait out a join timeout."""
    coord = Coordinator(build("tsp"), "lexical").start()
    t0 = time.monotonic()
    coord.stop()
    assert time.monotonic() - t0 < 0.5
    assert not coord._accept_thread.is_alive()


def test_remote_failures_fall_back_in_process():
    """Workers run the bare subroutine, so a BFS interval over its memory
    budget fails on every remote attempt; the in-process fallback then
    runs the driver's closure, which applies ``degrade_on_oom`` — the
    result equals serial, with no failures recorded."""
    poset = build("d-300")
    options = dict(memory_budget=20, degrade_on_oom=True)
    serial = ParaMount(poset, "bfs", **options).run()
    result = ParaMount(poset, "bfs", executor=dist_executor(), **options).run()
    assert serial.complete and serial.degradations
    assert result.states == serial.states
    assert result.interval_sizes() == serial.interval_sizes()
    assert not result.failures


def test_no_workers_degrades_to_in_process(tmp_path):
    """With no worker ever connecting, the grace period elapses and the
    undone intervals run on the in-process fallback — complete result,
    explicit degradation event."""
    poset = build("tsp")
    serial = ParaMount(poset).run()
    path = tmp_path / "degraded.ckpt"
    executor = dist_executor(spawn=False, workers=0, no_worker_grace=0.5)
    result = ParaMount(
        poset, executor=executor, checkpoint=path, schedule="fifo"
    ).run()
    assert result.complete
    assert result.states == serial.states
    assert [d.kind for d in result.degradations] == ["executor"]
    assert result.degradations[0].to_name == "serial"
    # the fallback closures journal themselves: still one record each
    assert len(journal_records(path)) == len(serial.intervals)


def test_deadline_yields_partial_incomplete_result():
    poset = build("d-300")
    result = ParaMount(
        poset, executor=dist_executor(), deadline=0.0
    ).run()
    assert result.deadline_expired
    assert not result.complete
    serial = ParaMount(poset).run()
    assert result.states <= serial.states


def test_resume_skips_committed_intervals(tmp_path):
    """A distributed run resumed from a journal re-dispatches only the
    unfinished intervals."""
    poset = build("tsp")
    serial = ParaMount(poset).run()
    path = tmp_path / "resume.ckpt"
    # first run: killed worker leaves a complete journal anyway (the
    # survivor finishes), so simulate the partial run by truncation
    ParaMount(
        poset, executor=dist_executor(), checkpoint=path, schedule="fifo"
    ).run()
    lines = path.read_text().splitlines()
    keep = 1 + len(serial.intervals) // 2
    path.write_text("\n".join(lines[:keep]) + "\n")
    resumed = ParaMount(
        poset, executor=dist_executor(), checkpoint=path, schedule="fifo"
    ).run()
    assert resumed.resumed_intervals == keep - 1
    assert resumed.states == serial.states
    assert len(journal_records(path)) == len(serial.intervals)


def test_split_schedule_sub_tasks_keep_own_commit_identity(tmp_path):
    """Under the adaptive default schedule a split interval's sub-tasks
    each commit (and journal) under their own ``(event, lo, hi)`` — still
    exactly one record per *piece* the committed runs carried, and the
    same total lattice."""
    poset = build("tsp")
    serial = ParaMount(poset).run()
    path = tmp_path / "split.ckpt"
    executor = dist_executor()
    result = ParaMount(poset, executor=executor, checkpoint=path).run()
    assert result.complete
    assert result.states == serial.states
    runs = executor.last_coordinator.table.committed.values()
    pieces = {(s.event, s.lo, s.hi) for run in runs for s in run}
    records = journal_records(path)
    assert len(records) == len(pieces) == len(result.tasks)
    keys = {
        (tuple(r["event"]), tuple(r["lo"]), tuple(r["hi"])) for r in records
    }
    assert keys == pieces
