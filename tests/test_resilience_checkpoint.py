"""Checkpoint journal: kill a run mid-way, resume, get the same answer.

The journal records each finished run's intervals in one write; a resumed
run replays the journal and re-enumerates *only* the unfinished intervals.
Safety rests on two identity checks — the poset digest and the recomputed
interval bounds — both exercised here, including the negative paths.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.executors import Executor, WorkStealingThreadExecutor
from repro.core.metrics import ExecutorReport, IntervalStats
from repro.core.paramount import ParaMount
from repro.core.scheduling import coalesce, plan_schedule
from repro.dist import DistributedExecutor
from repro.errors import CheckpointError
from repro.resilience import CheckpointJournal, poset_digest
from repro.resilience.checkpoint import _record_line
from repro.workloads.registry import ENUMERATION_WORKLOADS

from tests.conftest import build_diamond_poset, build_figure4_poset


class AbortAfter(Executor):
    """Serial executor that dies after ``k`` tasks — a mid-run kill.

    A task is a run of interval pieces; ``pieces`` lists the pieces the
    finished tasks carried."""

    name = "abort-after"

    def __init__(self, k: int):
        super().__init__(num_workers=1)
        self.k = k
        self.pieces = []

    def map_tasks(self, tasks, context=None):
        results = []
        for index, task in enumerate(tasks):
            if index >= self.k:
                raise RuntimeError("simulated kill")
            results.append(task())
            self.pieces.extend(task.pieces)
        return ExecutorReport(results=results)


@pytest.fixture
def d300():
    return ENUMERATION_WORKLOADS["d-300"].build_poset()


def journal_lines(path):
    return path.read_text().splitlines()


def test_digest_distinguishes_posets():
    a, b = build_figure4_poset(), build_diamond_poset()
    assert poset_digest(a) == poset_digest(build_figure4_poset())
    assert poset_digest(a) != poset_digest(b)


def test_record_and_load_round_trip(tmp_path):
    poset = build_figure4_poset()
    path = tmp_path / "run.ckpt"
    base = ParaMount(poset, checkpoint=CheckpointJournal(path)).run()
    assert base.resumed_intervals == 0
    # header + one record per interval
    assert len(journal_lines(path)) == 1 + len(base.intervals)
    resumed = ParaMount(poset, checkpoint=CheckpointJournal(path)).run()
    assert resumed.resumed_intervals == len(base.intervals)
    assert resumed.states == base.states
    assert resumed.interval_sizes() == base.interval_sizes()


def test_kill_and_resume_reenumerates_only_unfinished(tmp_path, d300):
    base = ParaMount(d300).run()
    path = tmp_path / "killed.ckpt"
    abort = AbortAfter(4)
    with pytest.raises(RuntimeError, match="simulated kill"):
        ParaMount(d300, executor=abort, checkpoint=path).run()
    finished = len(abort.pieces)
    assert 4 <= finished < len(base.intervals)
    assert len(journal_lines(path)) == 1 + finished

    resumed = ParaMount(d300, checkpoint=path).run()
    assert resumed.resumed_intervals == finished
    assert resumed.states == base.states
    assert resumed.interval_sizes() == base.interval_sizes()
    # the journal grew by exactly the unfinished intervals: nothing was
    # re-enumerated twice
    assert len(journal_lines(path)) == 1 + len(base.intervals)


def test_resumed_run_visits_only_fresh_states(tmp_path, d300):
    """A visitor on a resumed run sees exactly the unfinished intervals'
    states — restored intervals are not re-visited."""
    base = ParaMount(d300).run()
    path = tmp_path / "visit.ckpt"
    abort = AbortAfter(7)
    with pytest.raises(RuntimeError):
        ParaMount(d300, executor=abort, checkpoint=path).run()
    # serial runs carry the partition's pieces in →p order
    finished = len(abort.pieces)
    assert 7 <= finished < len(base.intervals)
    assert abort.pieces == ParaMount(d300).intervals[:finished]
    seen = []
    resumed = ParaMount(d300, checkpoint=path).run(visit=seen.append)
    fresh = sum(s.states for s in base.intervals[finished:])
    assert len(seen) == fresh
    assert resumed.states == base.states


def test_serial_journal_resumes_under_another_grouping(tmp_path, d300):
    """How pieces are grouped into runs is not part of a journal's
    identity: a serial run killed after k tasks resumes on two threads
    under ``largest`` — the same ``unsplit`` descriptor, other runs — to
    the uninterrupted result, with one record per interval."""
    base = ParaMount(d300).run()
    path = tmp_path / "regroup.ckpt"
    abort = AbortAfter(3)
    with pytest.raises(RuntimeError, match="simulated kill"):
        ParaMount(d300, executor=abort, checkpoint=path).run()
    threads = ParaMount(
        d300,
        executor=WorkStealingThreadExecutor(2),
        schedule="largest",
        checkpoint=path,
    )
    serial_plan = plan_schedule(d300, threads.intervals, "largest", 1)
    threads_plan = plan_schedule(d300, threads.intervals, "largest", 2)
    assert serial_plan.descriptor == threads_plan.descriptor == "unsplit"
    assert coalesce(serial_plan, serial_plan.tasks, threads.intervals) != coalesce(
        threads_plan, threads_plan.tasks, threads.intervals
    )

    resumed = threads.run()
    assert resumed.resumed_intervals == len(abort.pieces)
    assert resumed.states == base.states
    assert resumed.interval_sizes() == base.interval_sizes()
    records = [json.loads(line) for line in journal_lines(path)[1:]]
    keys = {
        (tuple(r["event"]), tuple(r["lo"]), tuple(r["hi"])) for r in records
    }
    assert len(records) == len(base.intervals)
    assert keys == {(s.event, s.lo, s.hi) for s in base.intervals}


def test_resume_after_a_kill_mid_write_appends_on_a_fresh_line(tmp_path, d300):
    """A kill mid-write leaves a torn tail; the resumed run cuts it off
    before appending, so the journal it leaves reloads cleanly with one
    record per interval."""
    base = ParaMount(d300).run()
    path = tmp_path / "torn.ckpt"
    abort = AbortAfter(3)
    with pytest.raises(RuntimeError, match="simulated kill"):
        ParaMount(d300, executor=abort, checkpoint=path).run()
    with path.open("a") as fh:
        fh.write('{"kind": "interval", "event": [1, ')  # next run, cut short
    resumed = ParaMount(d300, checkpoint=path).run()
    assert resumed.resumed_intervals == len(abort.pieces)
    assert resumed.states == base.states
    again = ParaMount(d300, checkpoint=path).run()
    assert again.resumed_intervals == len(base.intervals)
    assert len(journal_lines(path)) == 1 + len(base.intervals)


def test_run_leaves_no_append_handle_open(tmp_path):
    journal = CheckpointJournal(tmp_path / "x.ckpt")
    ParaMount(build_figure4_poset(), checkpoint=journal).run()
    assert journal._fh is None


_ints = st.integers(min_value=0, max_value=10**12)
_cuts = st.lists(_ints, min_size=1, max_size=8).map(tuple)


@settings(max_examples=200, deadline=None)
@given(
    event=st.tuples(_ints, _ints),
    lo=_cuts,
    hi=_cuts,
    counts=st.tuples(_ints, _ints, _ints),
    seconds=st.floats(min_value=0.0, allow_nan=False, allow_infinity=False)
    | st.just(0),
)
def test_record_lines_are_the_json_dumps_bytes(event, lo, hi, counts, seconds):
    """The journal's line format is ``json.dumps`` of the record dict; the
    direct formatter must write exactly those bytes."""
    states, work, peak_live = counts
    stats = IntervalStats(event, lo, hi, states, work, peak_live, seconds)
    expected = json.dumps(
        {
            "kind": "interval",
            "event": list(event),
            "lo": list(lo),
            "hi": list(hi),
            "states": states,
            "work": work,
            "peak_live": peak_live,
            "seconds": seconds,
        }
    )
    assert _record_line(stats) == expected + "\n"


def test_digest_mismatch_refuses_resume(tmp_path):
    path = tmp_path / "x.ckpt"
    ParaMount(build_figure4_poset(), checkpoint=path).run()
    with pytest.raises(CheckpointError, match="digest"):
        ParaMount(build_diamond_poset(), checkpoint=path).run()


def test_subroutine_mismatch_refuses_resume(tmp_path):
    poset = build_figure4_poset()
    path = tmp_path / "x.ckpt"
    ParaMount(poset, subroutine="lexical", checkpoint=path).run()
    with pytest.raises(CheckpointError, match="subroutine"):
        ParaMount(poset, subroutine="bfs", checkpoint=path).run()


def test_journal_of_the_former_default_resumes_only_under_lexical(tmp_path):
    """Journals started before ``lexical-packed`` became the default pin
    ``lexical``: the default refuses them and names the fix, and naming
    ``lexical`` resumes them."""
    poset = build_figure4_poset()
    base = ParaMount(poset).run()
    path = tmp_path / "old.ckpt"
    abort = AbortAfter(1)
    with pytest.raises(RuntimeError, match="simulated kill"):
        ParaMount(poset, "lexical", executor=abort, checkpoint=path).run()
    with pytest.raises(CheckpointError) as refused:
        ParaMount(poset, checkpoint=path).run()
    message = str(refused.value)
    assert "subroutine='lexical'" in message
    assert "--algorithm lexical" in message
    assert "fresh journal" in message
    resumed = ParaMount(poset, "lexical", checkpoint=path).run()
    assert resumed.resumed_intervals == len(abort.pieces) > 0
    assert resumed.states == base.states


def test_bounds_mismatch_refuses_resume(tmp_path):
    """Same poset, different total order →p: the recomputed interval
    bounds diverge from the journaled ones."""
    poset = build_figure4_poset()
    path = tmp_path / "x.ckpt"
    ParaMount(poset, checkpoint=path).run()
    # another valid linear extension: the two concurrent first events swap
    order = list(poset.insertion)
    order[0], order[1] = order[1], order[0]
    with pytest.raises(CheckpointError, match="total order"):
        ParaMount(poset, order=order, checkpoint=path).run()


def test_torn_tail_is_discarded(tmp_path):
    poset = build_figure4_poset()
    path = tmp_path / "x.ckpt"
    base = ParaMount(poset, checkpoint=path).run()
    with path.open("a") as fh:
        fh.write('{"kind": "interval", "event": [0, ')  # crash mid-write
    resumed = ParaMount(poset, checkpoint=path).run()
    assert resumed.resumed_intervals == len(base.intervals)
    assert resumed.states == base.states


def test_torn_multi_record_tail_is_discarded(tmp_path):
    """A crash can cut a multi-record write buffer short, tearing several
    trailing lines at once; resume discards the whole torn tail."""
    poset = build_figure4_poset()
    path = tmp_path / "x.ckpt"
    base = ParaMount(poset, checkpoint=path).run()
    with path.open("a") as fh:
        fh.write('{"kind": "interval", "event": [0, 1], "lo": [0,\n')
        fh.write('{"kind": "interval"}\n')
        fh.write("garbage that is not even json")
    resumed = ParaMount(poset, checkpoint=path).run()
    assert resumed.resumed_intervals == len(base.intervals)
    assert resumed.states == base.states


def test_valid_record_after_torn_line_refuses_resume(tmp_path):
    """A torn line in the *middle* means writers interleaved mid-record —
    the journal is corrupt and trusting either side risks double counts."""
    poset = build_figure4_poset()
    path = tmp_path / "x.ckpt"
    ParaMount(poset, checkpoint=path).run()
    lines = journal_lines(path)
    assert len(lines) >= 3
    lines[1] = lines[1][: len(lines[1]) // 2]  # tear a mid-journal record
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(CheckpointError, match="torn line"):
        ParaMount(poset, checkpoint=path).run()


def test_concurrent_committers_interleave_cleanly(tmp_path, d300):
    """Many threads hammering record() (the coordinator's acknowledgement
    threads) produce one intact JSON line per commit — the thread + flock
    locking never tears or interleaves records."""
    import threading

    base = ParaMount(d300).run()
    path = tmp_path / "threads.ckpt"
    journal = CheckpointJournal(path)
    digest = poset_digest(d300)
    journal.load(digest, "lexical")  # writes the header
    stats = base.intervals
    threads = [
        threading.Thread(
            target=lambda chunk=stats[i::8]: [journal.record(s) for s in chunk]
        )
        for i in range(8)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    lines = journal_lines(path)
    assert len(lines) == 1 + len(stats)
    keys = set()
    for line in lines[1:]:
        rec = json.loads(line)  # every line parses: no torn interleaving
        keys.add((tuple(rec["event"]), tuple(rec["lo"]), tuple(rec["hi"])))
    assert len(keys) == len(stats)
    completed = journal.load(digest, "lexical")
    assert len(completed) == len(stats)
    journal.close()


def test_concurrent_run_writes_stay_whole(tmp_path, d300):
    """Eight threads share the journal's one append handle, each writing
    runs of records with a tiny switch interval: every run's records land
    whole and in one piece, none lost or interleaved with another run's."""
    import sys
    import threading

    stats = ParaMount(d300).run().intervals
    runs = [stats[i : i + 5] for i in range(0, len(stats), 5)]
    path = tmp_path / "runs.ckpt"
    journal = CheckpointJournal(path)
    digest = poset_digest(d300)
    journal.load(digest, "lexical")
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(
                target=lambda mine=runs[i::8]: [journal.record(*r) for r in mine]
            )
            for i in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
        journal.close()
    events = [json.loads(line)["event"] for line in journal_lines(path)[1:]]
    by_first = {tuple(run[0].event): run for run in runs}
    at = 0
    while at < len(events):
        run = by_first[tuple(events[at])]
        assert [tuple(e) for e in events[at : at + len(run)]] == [
            s.event for s in run
        ]
        at += len(run)
    assert len(events) == len(stats)
    assert len(journal.load(digest, "lexical")) == len(stats)


def test_unknown_event_record_refuses_resume(tmp_path):
    poset = build_figure4_poset()
    path = tmp_path / "x.ckpt"
    ParaMount(poset, checkpoint=path).run()
    bogus = {
        "kind": "interval",
        "event": [9, 9],
        "lo": [0, 0],
        "hi": [1, 1],
        "states": 1,
        "work": 1,
        "peak_live": 1,
    }
    lines = journal_lines(path)
    path.write_text("\n".join([lines[0], json.dumps(bogus)]) + "\n")
    with pytest.raises(CheckpointError, match="unknown event"):
        ParaMount(poset, checkpoint=path).run()


def test_malformed_header_raises(tmp_path):
    path = tmp_path / "x.ckpt"
    path.write_text("not json\n")
    with pytest.raises(CheckpointError, match="header"):
        ParaMount(build_figure4_poset(), checkpoint=path).run()


def test_journal_version_gate(tmp_path):
    poset = build_figure4_poset()
    path = tmp_path / "x.ckpt"
    ParaMount(poset, checkpoint=path).run()
    lines = journal_lines(path)
    header = json.loads(lines[0])
    header["version"] = 99
    path.write_text("\n".join([json.dumps(header)] + lines[1:]) + "\n")
    with pytest.raises(CheckpointError, match="version"):
        ParaMount(poset, checkpoint=path).run()


def test_multiprocessing_backend_checkpoints_too(tmp_path, d300):
    """The dist backend's worker processes commit through the journal; a
    rerun over the full journal restores every interval."""
    base = ParaMount(d300).run()
    path = tmp_path / "mp.ckpt"

    def run():
        return ParaMount(
            d300,
            executor=DistributedExecutor(workers=2),
            checkpoint=CheckpointJournal(path),
            schedule="fifo",
        ).run()

    first = run()
    assert first.states == base.states
    resumed = run()
    assert resumed.resumed_intervals == len(base.intervals)
    assert resumed.states == base.states
