"""ParaMount — the paper's contribution (§3–§4).

* :mod:`repro.core.intervals` — the interval partition: ``Gmin(e)`` from
  vector clocks, ``Gbnd(e)`` from the total order ``→p`` (Definition 1),
  and ``I(e)`` (Definition 2);
* :mod:`repro.core.bounded` — Algorithm 2, bounded enumeration of one
  interval via any sequential subroutine (lexical or BFS);
* :mod:`repro.core.paramount` — Algorithm 1, the offline parallel driver;
* :mod:`repro.core.online` — Algorithm 4, the online worker driven by a
  live event stream;
* :mod:`repro.core.scheduling` — adaptive task shaping between the
  partition and the executors: Figure-6a recursive splitting,
  largest-first dispatch, and the weights work-stealing backends use;
* :mod:`repro.core.executors` — the serial and work-stealing thread-pool
  backends; process parallelism is :mod:`repro.dist`;
* :mod:`repro.core.simulated` — the deterministic parallel-machine cost
  model used to regenerate the paper's speedup figures on a GIL-bound
  single-core interpreter (see DESIGN.md §3);
* :mod:`repro.core.metrics` — per-interval statistics, the executor
  report and the run result.
"""

from repro.core.bounded import bounded_enumeration
from repro.core.executors import (
    Executor,
    RetryPolicy,
    SerialExecutor,
    WorkStealingThreadExecutor,
)
from repro.core.intervals import (
    Interval,
    IntervalIndex,
    compute_intervals,
    interval_of_cut,
)
from repro.core.metrics import (
    DegradationEvent,
    ExecutorReport,
    IntervalStats,
    ParaMountResult,
    TaskFailure,
)
from repro.core.online import OnlineParaMount
from repro.core.paramount import ParaMount
from repro.core.scheduling import (
    SchedulePlan,
    SchedulePolicy,
    pivot_split,
    plan_schedule,
    split_interval,
    validate_split,
)
from repro.core.simulated import CostModel, simulate_schedule

__all__ = [
    "Interval",
    "IntervalIndex",
    "compute_intervals",
    "interval_of_cut",
    "bounded_enumeration",
    "ParaMount",
    "OnlineParaMount",
    "Executor",
    "SerialExecutor",
    "WorkStealingThreadExecutor",
    "RetryPolicy",
    "SchedulePolicy",
    "SchedulePlan",
    "pivot_split",
    "split_interval",
    "validate_split",
    "plan_schedule",
    "CostModel",
    "simulate_schedule",
    "IntervalStats",
    "ParaMountResult",
    "TaskFailure",
    "DegradationEvent",
    "ExecutorReport",
]
