"""Fault-injection suite: exact totals under deterministic infrastructure
faults.

The harness perturbs infrastructure only (crashes, slowdowns, poisoned
tasks), never answers; Theorem 2 makes every interval idempotent,
so any recovery strategy that eventually re-runs the perturbed intervals
must converge to the exact fault-free totals.  That convergence — per
seed, on every Table-1 workload poset — is what this file asserts.

``FAULT_SEED`` (environment) selects the seed; CI runs the suite under
seeds 0, 1 and 2.
"""

import os
import sys
import time

import pytest

from repro.core.executors import RetryPolicy, SerialExecutor, WorkStealingThreadExecutor
from repro.core.paramount import ParaMount
from repro.core.scheduling import coalesce, plan_schedule
from repro.errors import InjectedFaultError, ReproError
from repro.obs import Observer
from repro.poset.random_posets import RandomComputationSpec, random_computation
from repro.resilience import (
    FAULT_CRASH,
    FAULT_NONE,
    FAULT_POISON,
    FAULT_SLOW,
    FaultSpec,
    ResilientExecutor,
    apply_fault,
)
from repro.workloads.registry import ENUMERATION_WORKLOADS

from tests.conftest import build_figure4_poset

FAULT_SEED = int(os.environ.get("FAULT_SEED", "0"))

#: A retry schedule with no real sleeping, for fast tests.
FAST_RETRY = RetryPolicy(max_attempts=4, base_delay=0.0, max_delay=0.0, jitter=0.0)


# --------------------------------------------------------------------- #
# the fault plan itself


def test_decide_is_deterministic():
    spec = FaultSpec(seed=FAULT_SEED, crash=0.3, slow=0.4)
    draws = [(key, a, spec.decide(key, a)) for key in range(50) for a in range(3)]
    again = FaultSpec(seed=FAULT_SEED, crash=0.3, slow=0.4)
    assert draws == [(k, a, again.decide(k, a)) for k, a, _ in draws]


def test_decide_rates_are_roughly_honored():
    spec = FaultSpec(seed=FAULT_SEED, crash=0.5)
    kinds = [spec.decide(key, 0) for key in range(400)]
    crashes = kinds.count(FAULT_CRASH)
    assert 120 < crashes < 280  # ~200 expected; very loose bounds


def test_poison_beats_probabilities_and_ignores_attempts():
    spec = FaultSpec(seed=FAULT_SEED, poison=frozenset({7}), max_faulty_attempts=1)
    assert all(spec.decide(7, attempt) == FAULT_POISON for attempt in range(5))
    assert spec.decide(8, 3) == FAULT_NONE  # past max_faulty_attempts


def test_max_faulty_attempts_guarantees_convergence():
    spec = FaultSpec(seed=FAULT_SEED, crash=1.0, max_faulty_attempts=2)
    assert spec.decide(0, 0) == FAULT_CRASH
    assert spec.decide(0, 1) == FAULT_CRASH
    assert spec.decide(0, 2) == FAULT_NONE


def test_rate_validation():
    with pytest.raises(ValueError):
        FaultSpec(crash=1.5)
    with pytest.raises(ValueError):
        FaultSpec(crash=0.6, slow=0.6)


def test_apply_fault_raises_for_crash_and_poison():
    spec = FaultSpec()
    with pytest.raises(InjectedFaultError) as info:
        apply_fault(FAULT_CRASH, spec, 3, 1)
    assert info.value.kind == FAULT_CRASH
    assert info.value.key == 3
    assert info.value.attempt == 1
    apply_fault(FAULT_NONE, spec, 3, 1)  # no-op


def test_parse_round_trip():
    spec = FaultSpec.parse("seed=5, crash=0.1, slow=0.2, poison=3;7, slow_seconds=0.5")
    assert spec == FaultSpec(
        seed=5, crash=0.1, slow=0.2, poison=frozenset({3, 7}), slow_seconds=0.5
    )
    with pytest.raises(ReproError):
        FaultSpec.parse("crash")
    with pytest.raises(ReproError):
        FaultSpec.parse("teleport=1")


# --------------------------------------------------------------------- #
# end-to-end: exact totals under faults


def test_resilient_totals_exact_under_task_faults():
    poset = build_figure4_poset()
    base = ParaMount(poset).run()
    spec = FaultSpec(seed=FAULT_SEED, crash=0.5, max_faulty_attempts=2)
    ex = ResilientExecutor(SerialExecutor(), retry=FAST_RETRY, fault_spec=spec)
    result = ParaMount(poset, executor=ex).run()
    assert result.states == base.states == 8
    assert result.complete
    assert result.interval_sizes() == base.interval_sizes()


def test_resilient_accounting_identity_with_permanent_failures():
    """Even when tasks fail permanently, the lost states are exactly the
    failed intervals' states — nothing else is perturbed (Theorem 2).  A
    task is a run of interval pieces, so a poisoned task fails each of
    the pieces it carried."""

    class Recording(ResilientExecutor):
        def map_tasks(self, tasks, context):
            self.tasks = list(tasks)
            return super().map_tasks(tasks, context)

    poset = ENUMERATION_WORKLOADS["d-300"].build_poset()
    base = ParaMount(poset).run()
    per_event = {s.event: s.states for s in base.intervals}
    spec = FaultSpec(seed=FAULT_SEED, poison=frozenset({0, 5}))
    ex = Recording(
        SerialExecutor(),
        retry=RetryPolicy(max_attempts=2, base_delay=0.0, max_delay=0.0, jitter=0.0),
        fault_spec=spec,
    )
    result = ParaMount(poset, executor=ex).run()
    poisoned = [iv.event for i in (0, 5) for iv in ex.tasks[i].pieces]
    assert len(result.failures) == len(poisoned) >= 2
    assert [f.event for f in result.failures] == poisoned
    assert {f.attempts for f in result.failures} == {2}
    lost = sum(per_event[f.event] for f in result.failures)
    assert result.states + lost == base.states
    assert not result.complete


def test_provenance_matches_counters():
    """The result's steals and retries equal the observer's counters: the
    resilient executor adds up the reports of every inner gather, not just
    the last one."""
    poset = ENUMERATION_WORKLOADS["d-300"].build_poset()
    observer = Observer()
    ex = ResilientExecutor(
        WorkStealingThreadExecutor(2),
        retry=FAST_RETRY,
        fault_spec=FaultSpec(seed=FAULT_SEED, crash=0.3, max_faulty_attempts=2),
    )
    result = ParaMount(poset, executor=ex, observer=observer).run()
    counters = observer.snapshot()["counters"]
    assert result.complete and result.retries > 0
    assert result.steals == counters.get("steals_total", 0)
    assert result.retries == counters.get("retry_attempts_total", 0)


@pytest.mark.parametrize("name", sorted(ENUMERATION_WORKLOADS))
def test_table1_workloads_exact_under_faults(name):
    """The acceptance sweep: every Table-1 poset, faults on, totals exact
    (or any shortfall recorded as failures — with a bounded fault plan and
    a sufficient retry budget there must be none)."""
    poset = ENUMERATION_WORKLOADS[name].build_poset()
    base = ParaMount(poset).run()
    spec = FaultSpec(seed=FAULT_SEED, crash=0.15, slow=0.05,
                     slow_seconds=0.0, max_faulty_attempts=2)
    ex = ResilientExecutor(SerialExecutor(), retry=FAST_RETRY, fault_spec=spec)
    result = ParaMount(poset, executor=ex).run()
    assert result.complete and not result.degraded
    assert result.states == base.states
    assert result.interval_sizes() == base.interval_sizes()


def test_injecting_rung_keeps_the_task_weights():
    """The guard injects faults into a task's body only: the thread pool
    under it still deals and steals each run by its summed size bound."""

    class WeightRecording(WorkStealingThreadExecutor):
        def map_tasks(self, tasks, context):
            self.weights = [task.weight for task in tasks]
            return super().map_tasks(tasks, context)

    poset = ENUMERATION_WORKLOADS["d-300"].build_poset()
    rung = WeightRecording(2)
    ex = ResilientExecutor(rung, fault_spec=FaultSpec(seed=0))
    pm = ParaMount(poset, executor=ex, schedule="fifo")
    result = pm.run()
    plan = plan_schedule(poset, pm.intervals, "fifo", ex.num_workers)
    runs = coalesce(plan, plan.tasks, pm.intervals)
    assert result.complete
    assert rung.weights == [sum(iv.size_bound for iv in run) for run in runs]
    assert max(rung.weights) > 1


def test_retries_run_each_task_body_once(tmp_path):
    """Crashed attempts are retried and slow ones stall their thread; a
    task that returned is never resubmitted, so every state is visited
    and every interval journaled once.  Four threads on a short switch
    interval stress the visitor lock and the journal the attempts share."""
    # 18 runs of a few ms each
    poset = random_computation(RandomComputationSpec(4, 120, 0.3, seed=5))
    base = ParaMount(poset).run()
    spec = FaultSpec(
        seed=FAULT_SEED, crash=0.3, slow=0.3, slow_seconds=0.5,
        max_faulty_attempts=1,
    )
    ex = ResilientExecutor(
        WorkStealingThreadExecutor(4), retry=FAST_RETRY, fault_spec=spec
    )
    visits = [0]

    def count(cut):
        visits[0] += 1

    path = tmp_path / "faults.ckpt"
    pm = ParaMount(poset, executor=ex, schedule="fifo", checkpoint=path)
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        result = pm.run(count)
    finally:
        sys.setswitchinterval(old)
    plan = plan_schedule(poset, pm.intervals, "fifo", ex.num_workers)
    runs = coalesce(plan, plan.tasks, pm.intervals)
    assert {spec.decide(k, 0) for k in range(len(runs))} >= {FAULT_CRASH, FAULT_SLOW}
    assert result.complete and result.retries > 0
    assert visits[0] == base.states
    assert len(path.read_text().splitlines()) == 1 + len(base.intervals)


def test_a_slow_body_is_waited_for(tmp_path):
    """No fault at all: the visitor sleeps on the first state while it
    holds the visitor lock, so every running body stalls.  No attempt
    outlives its gather, so nothing is retried or given up: the run
    completes, every state visited and every piece journaled once."""
    poset = ENUMERATION_WORKLOADS["d-300"].build_poset()
    base = ParaMount(poset).run()
    seen = {}

    def visit(cut):
        if not seen:
            time.sleep(0.5)
        key = tuple(cut)
        seen[key] = seen.get(key, 0) + 1

    ex = ResilientExecutor(WorkStealingThreadExecutor(2), retry=FAST_RETRY)
    path = tmp_path / "slow.ckpt"
    result = ParaMount(
        poset, executor=ex, schedule="fifo", checkpoint=path
    ).run(visit)
    assert result.complete
    assert not result.failures and result.retries == 0
    assert result.states == base.states
    assert len(seen) == base.states and set(seen.values()) == {1}
    assert len(path.read_text().splitlines()) == 1 + len(base.intervals)
