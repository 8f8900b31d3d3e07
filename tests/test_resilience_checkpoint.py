"""Checkpoint journal: kill a run mid-way, resume, get the same answer.

The journal records each completed interval as it finishes; a resumed run
replays the journal and re-enumerates *only* the unfinished intervals.
Safety rests on two identity checks — the poset digest and the recomputed
interval bounds — both exercised here, including the negative paths.
"""

import json

import pytest

from repro.core.executors import Executor
from repro.core.paramount import ParaMount
from repro.dist import DistributedExecutor
from repro.errors import CheckpointError
from repro.resilience import CheckpointJournal, poset_digest
from repro.workloads.registry import ENUMERATION_WORKLOADS

from tests.conftest import build_diamond_poset, build_figure4_poset


class AbortAfter(Executor):
    """Serial executor that dies after ``k`` tasks — a mid-run kill."""

    name = "abort-after"

    def __init__(self, k: int):
        super().__init__(num_workers=1)
        self.k = k

    def map_tasks(self, tasks):
        results = []
        for index, task in enumerate(tasks):
            if index >= self.k:
                raise RuntimeError("simulated kill")
            results.append(task())
        return results


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
    kill_at = 60
    with pytest.raises(RuntimeError, match="simulated kill"):
        ParaMount(d300, executor=AbortAfter(kill_at), checkpoint=path).run()
    assert len(journal_lines(path)) == 1 + kill_at

    resumed = ParaMount(d300, checkpoint=path).run()
    assert resumed.resumed_intervals == kill_at
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
    kill_at = 100
    with pytest.raises(RuntimeError):
        ParaMount(d300, executor=AbortAfter(kill_at), checkpoint=path).run()
    seen = []
    resumed = ParaMount(d300, checkpoint=path).run(visit=seen.append)
    fresh = sum(s.states for s in base.intervals[kill_at:])
    assert len(seen) == fresh
    assert resumed.states == base.states


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
