"""Differential oracle: every executor, schedule and kill/resume path
visits exactly the reference lattice.

Theorem 2 says the intervals partition the lattice, so however the driver
splits, coalesces, dispatches or resumes them, every consistent cut is
visited exactly once.  Each run here is checked against two references
that share no code with the driver: the unbounded walk of the plain
``lexical`` enumerator (the visited multiset) and the ideal-counting DP
(the state count).  The checkpoint journal must hold exactly one record
per piece of the plan, whichever tasks (runs of pieces) wrote them.

A killed run is stopped after ``k`` tasks have started, the way a kill
stops a process: tasks already running finish and journal, later ones
never run.  The resumed run must then visit exactly the states the
killed run did not.

Hypothesis draws small random posets, executors and schedules from a
fixed seed; the distributed backend, whose worker processes take a while
to start, is checked on a fixed handful of posets instead.
"""

import json
import threading
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.executors import (
    Executor,
    SerialExecutor,
    WorkStealingThreadExecutor,
)
from repro.core.paramount import ParaMount
from repro.core.scheduling import plan_schedule
from repro.dist import DistributedExecutor
from repro.enumeration.base import make_enumerator
from repro.poset.ideals import count_ideals
from repro.poset.random_posets import RandomComputationSpec, random_computation

from tests.conftest import small_posets


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

    def map_tasks(self, tasks):
        def stoppable(task):
            def run():
                with self._lock:
                    if self._started >= self.k:
                        raise Killed(f"killed after {self.k} tasks")
                    self._started += 1
                return task()

            run.weight = task.weight
            run.intervals = task.intervals
            return run

        return self.inner.map_tasks([stoppable(task) for task in tasks])


def reference(poset):
    seen = Counter()
    make_enumerator("lexical", poset).enumerate(lambda c: seen.update([tuple(c)]))
    assert sum(seen.values()) == count_ideals(poset)
    return seen


def make_executor(kind):
    if kind == "serial":
        return SerialExecutor()
    if kind.startswith("threads"):
        return WorkStealingThreadExecutor(int(kind[-1]))
    return DistributedExecutor(workers=2, lease_seconds=2.0, no_worker_grace=5.0)


def assert_one_record_per_piece(path, poset, schedule, workers):
    plan = plan_schedule(
        poset, ParaMount(poset).intervals, schedule, workers
    )
    records = [json.loads(line) for line in path.read_text().splitlines()[1:]]
    keys = [
        (tuple(r["event"]), tuple(r["lo"]), tuple(r["hi"])) for r in records
    ]
    assert sorted(keys) == sorted((iv.event, iv.lo, iv.hi) for iv in plan.tasks)


def check(poset, kind, schedule, kill_at, tmp_path):
    """One uninterrupted run and one killed-then-resumed run of ``kind``
    under ``schedule``, both checked against the references."""
    expected = reference(poset)
    total = count_ideals(poset)
    visits = kind != "dist"  # remote workers do not call back

    def run(executor, path, seen):
        pm = ParaMount(
            poset, executor=executor, schedule=schedule, checkpoint=path
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
            poset, executor=killer, schedule=schedule, checkpoint=path
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


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    poset=small_posets(),
    kind=st.sampled_from(["serial", "threads2", "threads3"]),
    schedule=st.sampled_from(["fifo", "split-steal"]),
    kill_at=st.integers(min_value=0, max_value=3),
)
def test_in_process_runs_match_the_reference(
    tmp_path_factory, poset, kind, schedule, kill_at
):
    check(poset, kind, schedule, kill_at, tmp_path_factory.mktemp("diff"))


@pytest.mark.parametrize("schedule", ["fifo", "split-steal"])
@pytest.mark.parametrize("seed", [3, 11, 29])
def test_dist_local_runs_match_the_reference(tmp_path, seed, schedule):
    poset = random_computation(RandomComputationSpec(4, 40, 0.5, seed=seed))
    check(poset, "dist", schedule, 2, tmp_path)
