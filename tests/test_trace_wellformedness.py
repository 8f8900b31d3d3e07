"""Property tests: every trace the scheduler produces is well-formed.

Random programs (generated with hypothesis) are scheduled under random
seeds; the resulting traces must satisfy the structural invariants that
the detectors and front-ends rely on:

* the trace reader (:mod:`repro.runtime.trace_io`), the one checker of
  sequence numbers, lock discipline and thread lifecycle, loads each
  trace as it was written, and every thread ends;
* the reader refuses the same trace once one op is edited to break one
  of those rules, naming the rule;
* the collection front-end emits a valid online insertion order (checked
  by feeding an OnlineParaMount, which rejects causality violations).
"""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.online import OnlineParaMount
from repro.errors import DeadlockError, ReproError
from repro.detector.hb import HBFrontEnd
from repro.runtime import (
    Acquire,
    Compute,
    Fork,
    Join,
    Program,
    Read,
    Release,
    Write,
    run_program,
)
from repro.runtime.trace_io import trace_from_dict, trace_to_dict

VARS = ["x", "y"]
LOCKS = ["m", "k"]


def _worker(script):
    def body(ctx):
        held = []
        for kind, obj in script:
            if kind == "read":
                yield Read(obj)
            elif kind == "write":
                yield Write(obj, 1)
            elif kind == "acquire" and obj not in held:
                yield Acquire(obj)
                held.append(obj)
            elif kind == "release" and held and held[-1] == obj:
                yield Release(obj)
                held.pop()
            else:
                yield Compute(1)
        for obj in reversed(held):
            yield Release(obj)

    return body


@st.composite
def traces(draw):
    num_workers = draw(st.integers(min_value=1, max_value=3))
    scripts = []
    for _ in range(num_workers):
        length = draw(st.integers(min_value=0, max_value=8))
        script = [
            (
                draw(st.sampled_from(["read", "write", "acquire", "release", "compute"])),
                draw(st.sampled_from(VARS if draw(st.booleans()) else LOCKS)),
            )
            for _ in range(length)
        ]
        scripts.append(script)
    seed = draw(st.integers(min_value=0, max_value=9999))

    def main(ctx):
        kids = []
        for script in scripts:
            k = yield Fork(_worker(script))
            kids.append(k)
        for k in kids:
            yield Join(k)

    program = Program("prop", main, max_threads=num_workers + 1)
    try:
        return run_program(program, seed=seed)
    except DeadlockError:
        # Generated workers may acquire the two locks in opposite orders
        # and genuinely deadlock under some schedules; such runs produce
        # no trace to check, so discard the example.  (Deadlock *reporting*
        # is covered by the wait-for-graph tests.)
        assume(False)


def _loaded(trace):
    """The trace's dict form, after checking it loads unchanged."""
    data = trace_to_dict(trace)
    assert trace_from_dict(data).ops == trace.ops
    return data


def _refusal(data):
    """The reader's message refusing ``data``."""
    with pytest.raises(ReproError) as err:
        trace_from_dict(data)
    return str(err.value)


@settings(max_examples=50, deadline=None)
@given(traces())
def test_lock_discipline(trace):
    data = _loaded(trace)
    releases = [i for i, op in enumerate(data["ops"]) if op["kind"] == "release"]
    if releases:
        # the thread keeps the lock, so the lock's next acquire or the
        # thread's end breaks lock discipline
        del data["ops"][releases[0]]
        assert "[lock-discipline]" in _refusal(data)


@settings(max_examples=50, deadline=None)
@given(traces())
def test_lifecycle_ordering(trace):
    data = _loaded(trace)
    started = {op.tid for op in trace.ops if op.kind == "thread_start"}
    assert started == {op.tid for op in trace.ops if op.kind == "thread_end"}
    # without the first child's thread_end, main joins a running thread
    child = next(op["target"] for op in data["ops"] if op["kind"] == "fork")
    data["ops"] = [
        op
        for op in data["ops"]
        if not (op["kind"] == "thread_end" and op["tid"] == child)
    ]
    assert "[lifecycle]" in _refusal(data)


@settings(max_examples=50, deadline=None)
@given(traces())
def test_seq_numbers_strictly_increasing(trace):
    data = _loaded(trace)
    data["ops"][-1]["seq"] = data["ops"][-2]["seq"]
    assert "is not greater than" in _refusal(data)


@settings(max_examples=40, deadline=None)
@given(traces())
def test_front_end_emits_valid_online_order(trace):
    online = OnlineParaMount(trace.num_threads)
    fe = HBFrontEnd(trace.num_threads, emit=online.insert)
    for op in trace.ops:
        fe.process(op)
    fe.finish()  # EventOrderError would fail the test
    if fe.events_emitted:
        assert online.result.states >= 1
    else:
        assert online.result.states == 0  # no accesses → empty poset
