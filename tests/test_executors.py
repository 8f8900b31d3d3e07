"""Tests for the execution backends."""

import threading
import time

import pytest

from repro.core.executors import (
    RetryPolicy,
    SerialExecutor,
    Task,
    WorkStealingThreadExecutor,
)
from repro.errors import ExecutorTimeoutError


def _make_tasks(n):
    return [Task(lambda i=i: i * i) for i in range(n)]


def test_serial_order_preserved():
    results = SerialExecutor().map_tasks(_make_tasks(10)).results
    assert results == [i * i for i in range(10)]


def test_serial_is_single_worker():
    assert SerialExecutor().num_workers == 1


def test_thread_executor_order_preserved():
    results = WorkStealingThreadExecutor(4).map_tasks(_make_tasks(25)).results
    assert results == [i * i for i in range(25)]


def test_thread_executor_empty():
    assert WorkStealingThreadExecutor(2).map_tasks([]).results == []


def test_thread_executor_runs_concurrently():
    """Two tasks that need each other to proceed only finish if they run
    on different threads."""
    barrier = threading.Barrier(2, timeout=5)

    def task():
        barrier.wait()
        return True

    report = WorkStealingThreadExecutor(2).map_tasks([Task(task), Task(task)])
    assert report.results == [True, True]


def test_thread_executor_propagates_exceptions():
    def boom():
        raise RuntimeError("task failed")

    with pytest.raises(RuntimeError):
        WorkStealingThreadExecutor(2).map_tasks([Task(boom)])


def test_worker_count_validation():
    with pytest.raises(ValueError):
        WorkStealingThreadExecutor(0)
    with pytest.raises(ValueError):
        SerialExecutor.__bases__[0].__init__(SerialExecutor(), -3)


def test_thread_executor_timeout_is_typed_and_names_the_task():
    """A hung task trips the no-progress timeout: the tasks queued behind
    it never start and the error carries the offending task's index."""
    started = threading.Event()
    ran_after = []

    def fast():
        return "fast"

    def hung():
        started.set()
        time.sleep(2.0)
        return "late"

    def never():
        ran_after.append(True)
        return "never"

    ex = WorkStealingThreadExecutor(1, task_timeout=0.1)
    with pytest.raises(ExecutorTimeoutError) as info:
        ex.map_tasks([Task(fast), Task(hung), Task(never)])
    assert info.value.task_index == 1
    assert info.value.timeout == pytest.approx(0.1)
    assert "task 1" in str(info.value)
    assert started.is_set()
    assert not ran_after  # the queued task behind the hang never ran


def test_thread_executor_timeout_names_the_running_task_not_a_queued_one():
    """Tasks start heaviest first, so the hung task (index 1) runs while
    index 0 is still queued: the timeout names the task that is running."""
    release = threading.Event()

    def hung():
        release.wait(2.0)
        return "late"

    ex = WorkStealingThreadExecutor(1, task_timeout=0.1)
    try:
        with pytest.raises(ExecutorTimeoutError) as info:
            ex.map_tasks([Task(lambda: "queued", weight=1), Task(hung, weight=5)])
    finally:
        release.set()
    assert info.value.task_index == 1


def test_thread_executor_without_timeout_waits():
    ex = WorkStealingThreadExecutor(2)
    assert ex.task_timeout is None
    assert ex.map_tasks([Task(lambda: 1), Task(lambda: 2)]).results == [1, 2]


def test_retry_policy_delay_schedule():
    policy = RetryPolicy(
        max_attempts=5, base_delay=0.1, backoff=2.0, max_delay=0.5, jitter=0.0
    )
    assert policy.delay(1) == pytest.approx(0.1)
    assert policy.delay(2) == pytest.approx(0.2)
    assert policy.delay(3) == pytest.approx(0.4)
    assert policy.delay(4) == pytest.approx(0.5)  # capped
    assert policy.delay(9) == pytest.approx(0.5)


def test_retry_policy_jitter_is_deterministic_and_bounded():
    policy = RetryPolicy(base_delay=0.1, jitter=0.25, seed=7)
    d = policy.delay(2)
    assert d == RetryPolicy(base_delay=0.1, jitter=0.25, seed=7).delay(2)
    assert 0.2 <= d <= 0.25  # base·backoff ≤ d ≤ (1+jitter)·that


def test_retry_policy_validation():
    with pytest.raises(ValueError):
        RetryPolicy(max_attempts=0)
    with pytest.raises(ValueError):
        RetryPolicy(backoff=0.5)
    with pytest.raises(ValueError):
        RetryPolicy(base_delay=-1.0)
