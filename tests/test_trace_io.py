"""The trace reader: each op on its own, then lock discipline and thread
lifecycle over the op stream.  A refused trace names the first op that
breaks a rule, and the rule."""

import json

import pytest

from repro.detector import FastTrackDetector, ParaMountDetector
from repro.errors import ReproError
from repro.runtime import run_program
from repro.runtime.trace import Trace, TraceOp
from repro.runtime.trace_io import (
    load_trace,
    save_trace,
    trace_from_dict,
    trace_to_dict,
)
from repro.workloads.registry import ALL_DETECTION_WORKLOADS


def make_trace():
    return Trace(
        program_name="p",
        num_threads=2,
        ops=[
            TraceOp(seq=0, tid=0, kind="thread_start"),
            TraceOp(seq=1, tid=1, kind="thread_start"),
            TraceOp(seq=2, tid=0, kind="write", obj="x"),
            TraceOp(seq=3, tid=1, kind="acquire", obj="l"),
            TraceOp(seq=4, tid=1, kind="read", obj="x"),
        ],
    )


def trace_data(*ops):
    """A trace file's contents; each op is ``(tid, kind)`` or ``(tid, kind,
    lock or variable)``, or ``(tid, kind, thread)`` for fork and join."""
    records = []
    for seq, (tid, kind, *arg) in enumerate(ops):
        record = {"seq": seq, "tid": tid, "kind": kind}
        if arg:
            record["target" if kind in ("fork", "join") else "obj"] = arg[0]
        records.append(record)
    return {"version": 1, "program_name": "p", "num_threads": 2, "ops": records}


def refusal(data):
    with pytest.raises(ReproError) as info:
        trace_from_dict(data)
    return str(info.value)


# --------------------------------------------------------------------- #
# each op on its own


def test_unknown_version_rejected_round_trip(tmp_path):
    """An unknown trace version is a typed, explanatory error, and the
    error path round-trips through the on-disk format."""
    path = tmp_path / "t.json"
    save_trace(make_trace(), path)
    data = json.loads(path.read_text())
    data["version"] = 99
    path.write_text(json.dumps(data))
    with pytest.raises(ReproError, match="version 99") as info:
        load_trace(path)
    assert "version 1" in str(info.value)  # names what it supports


@pytest.mark.parametrize(
    "data",
    [
        [1, 2],
        {"version": 1, "program_name": "p", "ops": []},
        {"version": 1, "program_name": "p", "num_threads": 0, "ops": []},
        {"version": 1, "program_name": "p", "num_threads": 1, "ops": {}},
        {"version": 1, "num_threads": 1, "ops": []},
    ],
    ids=["not-an-object", "no-num_threads", "no-threads", "ops-not-a-list", "no-program_name"],
)
def test_malformed_header_is_refused(data):
    with pytest.raises(ReproError, match="a trace"):
        trace_from_dict(data)


def test_round_trip_healthy_trace(tmp_path):
    path = tmp_path / "t.json"
    save_trace(make_trace(), path)
    trace = load_trace(path)
    assert trace.ops == make_trace().ops


@pytest.mark.parametrize(
    "bad_op, reason_match",
    [
        ({"seq": 5, "tid": 9, "kind": "read"}, "out of range"),
        ({"tid": 1, "kind": "read"}, "missing required field 'seq'"),
        ({"seq": 5, "tid": 1, "kind": "teleport"}, "unknown operation kind"),
        ({"seq": 0, "tid": 1, "kind": "read", "obj": "x"}, "not greater than"),
        ({"seq": "five", "tid": 1, "kind": "read"}, "must be an integer"),
        ("not-an-object", "expected an object"),
        ({"seq": 5, "tid": 0, "kind": "acquire", "obj": ["m"]}, "acquire obj must name a"),
        ({"seq": 5, "tid": 0, "kind": "read"}, "read obj must name a variable or lock, got None"),
        ({"seq": 5, "tid": 0, "kind": "fork"}, "fork target None is not a thread"),
        ({"seq": 5, "tid": 0, "kind": "join", "target": 2}, "join target 2 is not a thread"),
    ],
)
def test_malformed_op_is_refused(bad_op, reason_match):
    data = trace_to_dict(make_trace())
    data["ops"] = data["ops"][:2] + [bad_op] + data["ops"][2:]
    with pytest.raises(ReproError, match=reason_match) as info:
        trace_from_dict(data)
    assert str(info.value).startswith("malformed trace op #2: ")


# --------------------------------------------------------------------- #
# the op stream: lock discipline and thread lifecycle

START = ((0, "thread_start"), (1, "thread_start"))

BREAKS = {
    "double-acquire": (
        START + ((0, "acquire", "m"), (1, "acquire", "m")),
        3, "lock-discipline", "thread 1 acquire of lock 'm' held by thread 0",
    ),
    "wait-reacquires-a-held-lock": (
        START + ((0, "acquire", "m"), (1, "wait", "m")),
        3, "lock-discipline", "thread 1 wait of lock 'm' held by thread 0",
    ),
    "release-by-non-holder": (
        ((0, "thread_start"), (0, "release", "m")),
        1, "lock-discipline", "thread 0 release of lock 'm', which it does not hold",
    ),
    "release-of-another-threads-lock": (
        START + ((0, "acquire", "m"), (1, "release", "m")),
        3, "lock-discipline", "thread 1 release of lock 'm', which it does not hold",
    ),
    "notify-by-non-holder": (
        START + ((0, "acquire", "m"), (1, "notify", "m")),
        3, "lock-discipline", "thread 1 notify of lock 'm', which it does not hold",
    ),
    "end-holding-a-lock": (
        ((0, "thread_start"), (0, "acquire", "m"), (0, "thread_end")),
        2, "lock-discipline", "thread 0 ends holding ['m']",
    ),
    "op-before-start": (
        ((0, "read", "x"),),
        0, "lifecycle", "thread 0 read before its thread_start",
    ),
    "op-after-end": (
        ((0, "thread_start"), (0, "thread_end"), (0, "write", "x")),
        2, "lifecycle", "thread 0 write after its thread_end",
    ),
    "started-twice": (
        ((0, "thread_start"), (0, "thread_start")),
        1, "lifecycle", "thread 0 started twice",
    ),
    "fork-of-a-started-thread": (
        START + ((0, "fork", 1),),
        2, "lifecycle", "thread 0 forks started thread 1",
    ),
    "join-before-end": (
        ((0, "thread_start"), (0, "fork", 1), (1, "thread_start"), (0, "join", 1)),
        3, "lifecycle", "thread 0 joins thread 1, which has not ended",
    ),
}


@pytest.mark.parametrize("name", BREAKS)
def test_reader_refuses_a_break(name):
    ops, index, rule, why = BREAKS[name]
    assert refusal(trace_data(*ops)) == f"malformed trace op #{index}: [{rule}] {why}"


def test_edited_lockfarm_traces_are_refused():
    """Both edits of the first release were read as a trace with three
    racy cells, none of which the program has."""
    data = trace_to_dict(run_program(ALL_DETECTION_WORKLOADS["lockfarm"].build(), seed=0))
    first = next(i for i, op in enumerate(data["ops"]) if op["kind"] == "release")
    renamed = json.loads(json.dumps(data))
    renamed["ops"][first]["obj"] += "#"
    assert refusal(renamed) == (
        f"malformed trace op #{first}: [lock-discipline] thread 2 release "
        f"of lock 'Farm.lock#', which it does not hold"
    )
    deleted = json.loads(json.dumps(data))
    del deleted["ops"][first]
    assert refusal(deleted) == (
        f"malformed trace op #{first}: [lock-discipline] thread 1 acquire "
        f"of lock 'Farm.lock' held by thread 2"
    )
    assert not ParaMountDetector().run(trace_from_dict(data), frozenset()).racy_vars


@pytest.mark.parametrize("name", sorted(ALL_DETECTION_WORKLOADS))
def test_scheduler_traces_load_unchanged(tmp_path, name):
    """Every trace the scheduler writes loads as it was written (monitor
    waits and notifies in ``set (correct)`` included), and both detectors
    find in it what they find in the trace in memory."""
    workload = ALL_DETECTION_WORKLOADS[name]
    path = tmp_path / "t.json"
    for seed in range(5):
        trace = run_program(workload.build(), seed=seed, stickiness=workload.stickiness)
        save_trace(trace, path)
        loaded = load_trace(path)
        assert loaded.ops == trace.ops, seed
        for make in (ParaMountDetector, lambda: FastTrackDetector(trace.num_threads)):
            got, want = (make().run(t, workload.benign_vars) for t in (loaded, trace))
            assert (got.races, got.states_enumerated) == (want.races, want.states_enumerated), seed
