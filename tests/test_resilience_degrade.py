"""Graceful degradation: ladders descend, subroutines fall back, and every
step is recorded on the result."""

import pytest

from repro.core.executors import (
    Executor,
    RetryPolicy,
    SerialExecutor,
    WorkStealingThreadExecutor,
)
from repro.core.paramount import ParaMount
from repro.errors import ExecutorError, OutOfMemoryError
from repro.resilience import (
    FaultSpec,
    ResilientExecutor,
    default_ladder,
)

from tests.conftest import build_chain_poset, build_figure4_poset

FAST_RETRY = RetryPolicy(max_attempts=3, base_delay=0.0, max_delay=0.0, jitter=0.0)


class AlwaysBroken(Executor):
    """A rung whose pool dies on every gather."""

    name = "always-broken"

    def __init__(self):
        super().__init__(num_workers=2)

    def map_tasks(self, tasks):
        raise ExecutorError("worker OOM-killed")


def test_default_ladder_shape():
    ladder = default_ladder(3, task_timeout=1.0)
    assert isinstance(ladder[0], WorkStealingThreadExecutor)
    assert ladder[0].num_workers == 3
    assert ladder[0].task_timeout == 1.0
    assert isinstance(ladder[-1], SerialExecutor)


def test_empty_ladder_rejected():
    with pytest.raises(ValueError):
        ResilientExecutor(ladder=[])


def test_broken_pool_descends_after_repeated_breakage():
    ex = ResilientExecutor(
        ladder=[AlwaysBroken(), SerialExecutor()], retry=FAST_RETRY
    )
    report = ex.map_tasks([lambda i=i: i + 1 for i in range(4)])
    assert report.results == [1, 2, 3, 4]
    assert not report.failures
    assert len(report.degradations) == 1
    assert report.degradations[0].kind == "executor"
    assert report.degradations[0].from_name == "always-broken"
    assert report.degradations[0].to_name == "serial"
    # each breakage resubmitted the whole pending batch
    assert report.retries > 0


def test_last_rung_exhaustion_records_failures_not_raises():
    spec = FaultSpec(seed=0, poison=frozenset({1}))
    ex = ResilientExecutor(
        ladder=[SerialExecutor()], retry=FAST_RETRY, fault_spec=spec
    )
    report = ex.map_tasks([lambda: "a", lambda: "b", lambda: "c"])
    assert report.results == ["a", None, "c"]
    failures = report.failures
    assert len(failures) == 1
    assert failures[0].task_index == 1
    assert failures[0].attempts == FAST_RETRY.max_attempts
    assert "poison" in failures[0].error


# --------------------------------------------------------------------- #
# subroutine degradation: BFS over budget → bounded lexical


def oom_setup():
    """A poset + budget where BFS trips its memory budget but the bounded
    lexical subroutine (O(n) live state) fits comfortably."""
    poset = build_chain_poset(4, 3)  # independent chains: BFS worst case
    lexical = ParaMount(poset, subroutine="lexical").run()
    budget = lexical.peak_live + 1
    with pytest.raises(OutOfMemoryError):
        ParaMount(poset, subroutine="bfs", memory_budget=budget).run()
    return poset, budget, lexical


def test_bfs_over_budget_degrades_to_lexical():
    poset, budget, lexical = oom_setup()
    result = ParaMount(
        poset, subroutine="bfs", memory_budget=budget, degrade_on_oom=True
    ).run()
    assert result.states == lexical.states == 4**4
    assert result.degraded
    assert all(d.kind == "subroutine" for d in result.degradations)
    assert all(
        (d.from_name, d.to_name) == ("bfs", "lexical-packed")
        for d in result.degradations
    )
    assert "memory budget" in result.degradations[0].reason


def test_degrade_on_oom_is_off_by_default():
    poset, budget, _ = oom_setup()
    with pytest.raises(OutOfMemoryError):
        ParaMount(poset, subroutine="bfs", memory_budget=budget).run()


def test_lexical_is_budget_immune():
    """The fallback target holds O(n) live state (``peak_live == 1``), so
    it completes under any budget — that is what makes it a safe bottom
    of the subroutine ladder."""
    poset = build_chain_poset(4, 3)
    result = ParaMount(
        poset, subroutine="lexical", memory_budget=1, degrade_on_oom=True
    ).run()
    assert result.states == 4**4
    assert not result.degraded
    assert result.peak_live == 1


# --------------------------------------------------------------------- #
# through the driver: provenance lands on the result


def test_driver_reports_ladder_provenance():
    poset = build_figure4_poset()
    base = ParaMount(poset).run()
    ex = ResilientExecutor(
        ladder=[AlwaysBroken(), SerialExecutor()], retry=FAST_RETRY
    )
    result = ParaMount(poset, executor=ex).run()
    assert result.states == base.states
    assert result.degraded
    assert result.retries > 0
    # a second run reports only its own provenance, not the first's
    again = ParaMount(poset, executor=ex).run()
    assert again.retries == result.retries
    assert again.degradations == result.degradations


def test_driver_attributes_failed_tasks_to_interval_events():
    poset = build_figure4_poset()
    spec = FaultSpec(seed=0, poison=frozenset({0}))
    ex = ResilientExecutor(
        ladder=[SerialExecutor()], retry=FAST_RETRY, fault_spec=spec
    )
    result = ParaMount(poset, executor=ex).run()
    assert len(result.failures) == 1
    pm = ParaMount(poset)
    assert result.failures[0].event == pm.intervals[0].event
