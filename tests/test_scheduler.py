"""Tests for the simulated concurrent-program runtime."""

import pytest

from repro.errors import DeadlockError, SchedulerError
from repro.runtime import (
    Acquire,
    Compute,
    Fork,
    Join,
    Notify,
    NotifyAll,
    Program,
    Read,
    Release,
    Scheduler,
    Sleep,
    Wait,
    Write,
    run_program,
)


def _counter_program(workers=3, rounds=2, locked=True):
    def worker(ctx):
        for _ in range(rounds):
            if locked:
                yield Acquire("m")
            v = yield Read("c")
            yield Write("c", v + 1)
            if locked:
                yield Release("m")

    def main(ctx):
        kids = []
        for i in range(workers):
            k = yield Fork(worker, name=f"w{i}")
            kids.append(k)
        for k in kids:
            yield Join(k)

    return Program("counter", main, max_threads=workers + 1, shared={"c": 0})


def test_locked_counter_is_exact():
    for seed in range(6):
        trace = run_program(_counter_program(), seed=seed)
        assert trace.final_shared["c"] == 6


def test_determinism_by_seed():
    t1 = run_program(_counter_program(), seed=3)
    t2 = run_program(_counter_program(), seed=3)
    assert [(o.tid, o.kind, o.obj) for o in t1.ops] == [
        (o.tid, o.kind, o.obj) for o in t2.ops
    ]


def test_different_seeds_interleave_differently():
    t1 = run_program(_counter_program(), seed=0)
    t2 = run_program(_counter_program(), seed=1)
    assert [(o.tid, o.kind) for o in t1.ops] != [(o.tid, o.kind) for o in t2.ops]


def test_trace_structure():
    trace = run_program(_counter_program(), seed=0)
    kinds = [o.kind for o in trace.ops]
    assert kinds.count("fork") == 3
    assert kinds.count("join") == 3
    assert kinds.count("thread_start") == 4
    assert kinds.count("thread_end") == 4
    assert trace.variables() == {"c"}
    assert trace.locks() == {"m"}
    assert not trace.uses_wait_notify()


def test_fork_precedes_child_ops():
    trace = run_program(_counter_program(), seed=2)
    fork_pos = {o.target: o.seq for o in trace.ops if o.kind == "fork"}
    start_pos = {
        o.tid: o.seq for o in trace.ops if o.kind == "thread_start" and o.tid != 0
    }
    for tid, fpos in fork_pos.items():
        assert fpos < start_pos[tid]


def test_release_without_hold_raises():
    def main(ctx):
        yield Release("m")

    with pytest.raises(SchedulerError):
        run_program(Program("bad", main, max_threads=1))


def test_double_acquire_raises():
    def main(ctx):
        yield Acquire("m")
        yield Acquire("m")

    with pytest.raises(SchedulerError):
        run_program(Program("bad", main, max_threads=1))


def test_ending_while_holding_a_lock_raises():
    """Its trace would break the lock discipline the trace reader checks."""

    def main(ctx):
        yield Acquire("m")

    with pytest.raises(SchedulerError, match=r"ended holding lock\(s\) \['m'\]"):
        run_program(Program("bad", main, max_threads=1))


def test_deadlock_detected():
    def a(ctx):
        yield Acquire("x")
        yield Compute(50)
        yield Acquire("y")
        yield Release("y")
        yield Release("x")

    def main(ctx):
        k = yield Fork(a)
        yield Acquire("y")
        yield Compute(50)
        yield Acquire("x")
        yield Release("x")
        yield Release("y")
        yield Join(k)

    # some schedules deadlock (lock-order inversion); find one
    saw_deadlock = False
    for seed in range(40):
        try:
            run_program(Program("dl", main, max_threads=2), seed=seed)
        except DeadlockError:
            saw_deadlock = True
            break
    assert saw_deadlock


def test_fork_beyond_max_threads():
    def main(ctx):
        yield Fork(lambda c: iter(()))
        yield Fork(lambda c: iter(()))

    with pytest.raises(SchedulerError):
        run_program(Program("over", main, max_threads=2))


def test_join_unknown_thread():
    def main(ctx):
        yield Join(5)

    with pytest.raises(SchedulerError):
        run_program(Program("bad-join", main, max_threads=1))


def test_wait_requires_lock():
    def main(ctx):
        yield Wait("m")

    with pytest.raises(SchedulerError):
        run_program(Program("bad-wait", main, max_threads=1))


def test_notify_requires_lock():
    def main(ctx):
        yield Notify("m")

    with pytest.raises(SchedulerError):
        run_program(Program("bad-notify", main, max_threads=1))


def test_wait_notify_handshake():
    def consumer(ctx):
        yield Acquire("mon")
        while True:
            flag = yield Read("flag")
            if flag:
                break
            yield Wait("mon")
        yield Release("mon")

    def main(ctx):
        k = yield Fork(consumer)
        yield Acquire("mon")
        yield Write("flag", True)
        yield Notify("mon")
        yield Release("mon")
        yield Join(k)

    for seed in range(10):
        trace = run_program(
            Program("handshake", main, max_threads=2, shared={"flag": False}),
            seed=seed,
        )
        assert trace.uses_wait_notify()


def test_notify_all_wakes_everyone():
    def waiter(ctx):
        yield Acquire("mon")
        while True:
            go = yield Read("go")
            if go:
                break
            yield Wait("mon")
        yield Release("mon")

    def main(ctx):
        kids = []
        for _ in range(3):
            k = yield Fork(waiter)
            kids.append(k)
        yield Compute(20)
        yield Acquire("mon")
        yield Write("go", True)
        yield NotifyAll("mon")
        yield Release("mon")
        for k in kids:
            yield Join(k)

    for seed in range(10):
        run_program(Program("bcast", main, max_threads=4, shared={"go": False}), seed=seed)


def test_sleep_accumulates_base_time():
    def main(ctx):
        yield Sleep(1.5)
        yield Sleep(0.5)

    trace = run_program(Program("sleepy", main, max_threads=1))
    assert trace.base_seconds == pytest.approx(2.0)


def test_compute_accumulates_base_time():
    def main(ctx):
        yield Compute(1000)

    trace = run_program(Program("compute", main, max_threads=1))
    assert trace.base_seconds > 0


def test_stickiness_reduces_switches():
    def chatty(ctx):
        for _ in range(30):
            yield Compute(1)
            yield Write("x", ctx.tid)

    def main(ctx):
        a = yield Fork(chatty)
        b = yield Fork(chatty)
        yield Join(a)
        yield Join(b)

    def switches(stickiness):
        trace = run_program(
            Program("sticky", main, max_threads=3), seed=7, stickiness=stickiness
        )
        tids = [o.tid for o in trace.ops]
        return sum(1 for a, b in zip(tids, tids[1:]) if a != b)

    assert switches(0.95) < switches(0.0)


def test_stickiness_validation():
    with pytest.raises(SchedulerError):
        Scheduler(_counter_program(), stickiness=1.5)


def test_max_steps_guard():
    def spinner(ctx):
        while True:
            yield Compute(1)

    sched = Scheduler(Program("spin", spinner, max_threads=1), max_steps=100)
    with pytest.raises(SchedulerError):
        sched.run()


def test_unknown_op_rejected():
    def main(ctx):
        yield "not-an-op"

    with pytest.raises(SchedulerError):
        run_program(Program("junk", main, max_threads=1))


def test_fifo_lock_grant():
    """Lock waiters are served in blocking order."""
    order = []

    def worker(ctx):
        yield Acquire("m")
        order.append(ctx.tid)
        yield Compute(1)
        yield Release("m")

    def main(ctx):
        yield Acquire("m")
        kids = []
        for i in range(3):
            k = yield Fork(worker)
            kids.append(k)
        yield Compute(200)  # let all workers block on m
        yield Release("m")
        for k in kids:
            yield Join(k)

    run_program(Program("fifo", main, max_threads=4), seed=5)
    # workers acquired in the order they blocked; with three blocked
    # workers FIFO grant means sorted blocking order is preserved
    assert len(order) == 3
