"""Workloads of the pipeline benchmark: inputs from a seed, the measured
call through the public API, and the reference answer it is checked against.

A *cell* is one workload on one backend.  Detection runs in-process
(``OnlineParaMount`` has no executor choice), so the ``detect-*`` workloads
are one cell each; the ``enum-*`` workloads run on ``serial``,
``threads`` (``WorkStealingThreadExecutor(2)``) and ``dist``
(``DistributedExecutor(workers=2)``).  No cell uses more than two threads or
two worker processes: the reference host has two cores.

Why these four workloads (each stresses a different part of the pipeline):

* ``detect-hedc`` — Table 2's hedc crawler, scaled up: few events, a wide
  lattice, so detection time is visit-mode enumeration, per-state
  ``frontier_events`` and the race predicate.  A faster enumeration kernel
  on the detection path must show here.
* ``detect-tsp`` — Table 2's tsp solver, scaled up: thousands of events
  with about four states each, so the time is per-event work (HB front
  end, ``append_stamped``, insert bookkeeping).  The control on which a
  kernel-only gain must change nothing.
* ``enum-dense`` — the paper's random ``d-*`` computations in counting
  mode on the bitmask kernel, with skewed interval sizes: kernel and
  scheduling bound.  The seed draws a train of small ``d-*`` blocks
  separated by barriers (the lattice is their ordinal sum), so that one
  run's throughput averages over many random shapes instead of hinging on
  one.  A single ``RandomComputationSpec(10, 200, 0.75)`` poset's counting
  throughput spreads by 0.31–0.39 (quartile distance over median) whether
  the seed redraws the poset, its observation order or its process
  numbering, which is more than any regression bound may be (0.25).
* ``enum-sparse`` — a long 4-process random computation with 5,000 tiny
  intervals, above the bitmask budget (array kernel), journaled to a fresh
  checkpoint file per repetition: per-task dispatch and durable journal
  writes dominate.  Batched leases must show here.  Its message
  probability is 0.9, not 0.5: at 0.5 the state count alone varies by
  0.10 (quartile distance over median) across seeds while a repetition's
  time barely moves, so throughput tracked the seed; at 0.9 the state
  count varies by 0.04 and the intervals are smaller still.

The repro modules are reached through their module attributes at call
time, so the per-layer tracer's rebinding (see :mod:`layers`) sees every
call, including the benchmark's own.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import repro.core.executors as executors
import repro.core.paramount as paramount
import repro.detector.fasttrack as fasttrack
import repro.detector.hb as hb
import repro.detector.paramount_detector as paramount_detector
import repro.dist.executor as dist_executor
import repro.enumeration.base as enumeration
import repro.poset.builder as builder
import repro.poset.random_posets as random_posets
import repro.resilience.checkpoint as checkpoint
import repro.runtime.scheduler as scheduler
import repro.util.rng as rng
import repro.workloads.hedc as hedc
import repro.workloads.tsp as tsp

__all__ = [
    "CELLS",
    "FULL",
    "SMOKE",
    "Cell",
    "Outcome",
    "Sizes",
    "chain_posets",
]


@dataclass(frozen=True)
class Sizes:
    """Input scale of every workload."""

    hedc_workers: int
    tsp_tasks: int
    dense_blocks: int
    sparse_events: int


#: The benchmark's scale: 0.3–0.6 s per serial repetition on the
#: reference host, so one run times many repetitions.
FULL = Sizes(hedc_workers=10, tsp_tasks=500, dense_blocks=32, sparse_events=5000)
#: ``--smoke``: the same shapes, small; ``sparse_events`` stays above the
#: bitmask budget so the array-kernel path is still the one exercised.
SMOKE = Sizes(hedc_workers=9, tsp_tasks=200, dense_blocks=8, sparse_events=4200)

#: One ``d-*`` block of ``enum-dense``: processes, events, message probability.
DENSE_BLOCK = (10, 20, 0.75)
#: ``enum-sparse``: processes and message probability (events from Sizes).
SPARSE_SHAPE = (4, 0.9)
#: Workers of the threads and dist backends (the host's core count).
WORKERS = 2


@dataclass
class Outcome:
    """What one repetition produced."""

    states: int
    value: Any  # DetectionReport or ParaMountResult
    journal: Optional[Path] = None
    journal_bytes: int = 0


def chain_posets(parts):
    """Join posets of equal width in sequence, each block's events after
    every event of the block before (a barrier).

    Every consistent cut is a full prefix of blocks plus a consistent cut
    of the next block, so the lattice is the blocks' ordinal sum and
    ``states = Σ states(block) − (blocks − 1)``.
    """
    n = parts[0].num_threads
    out = builder.PosetBuilder(n)
    offset = [0] * n
    for part in parts:
        for tid, idx in part.insertion:
            vc = part.vc(tid, idx)
            deps = [
                (j, vc[j] + offset[j]) for j in range(n) if j != tid and vc[j]
            ]
            if idx == 1:
                deps += [(j, offset[j]) for j in range(n) if j != tid and offset[j]]
            out.append(tid, deps=deps)
        offset = [offset[j] + part.lengths[j] for j in range(n)]
    return out.build()


def _dense_poset(seed: int, sizes: Sizes):
    n, events, prob = DENSE_BLOCK
    return chain_posets(
        [
            random_posets.random_computation(
                random_posets.RandomComputationSpec(
                    n, events, prob, seed=rng.derive_seed(seed, "enum-dense", k)
                )
            )
            for k in range(sizes.dense_blocks)
        ]
    )


def _sparse_poset(seed: int, sizes: Sizes):
    n, prob = SPARSE_SHAPE
    return random_posets.random_computation(
        random_posets.RandomComputationSpec(n, sizes.sparse_events, prob, seed=seed)
    )


class Cell:
    """One (workload, backend) pair and everything needed to measure it."""

    def __init__(self, workload: str, backend: Optional[str] = None):
        self.workload = workload
        self.backend = backend
        self.name = workload if backend is None else f"{workload}-{backend}"
        self.detect = workload.startswith("detect-")

    def __repr__(self) -> str:
        return f"Cell({self.name})"

    # -- inputs --------------------------------------------------------- #

    def setup(self, seed: int, sizes: Sizes) -> Any:
        """Generate the inputs from the seed (this is what ``setup_s`` times):
        capture + HB front end for detection, poset generation + packed
        tables for enumeration."""
        if self.workload == "detect-hedc":
            program = hedc.build_hedc(workers=sizes.hedc_workers, tasks_per_worker=2)
            benign = hedc.WORKLOAD.benign_vars
        elif self.workload == "detect-tsp":
            program = tsp.build_tsp(workers=3, tasks_per_worker=sizes.tsp_tasks)
            benign = tsp.WORKLOAD.benign_vars
        elif self.workload == "enum-dense":
            poset = _dense_poset(seed, sizes)
            poset.packed_tables()
            return poset
        elif self.workload == "enum-sparse":
            poset = _sparse_poset(seed, sizes)
            poset.packed_tables()
            return poset
        else:
            raise ValueError(f"unknown workload {self.workload!r}")
        trace = scheduler.run_program(program, seed=seed)
        poset = hb.poset_from_trace(trace, merge_collections=True)
        return (trace, poset, benign)

    def describe(self, inputs: Any) -> Dict[str, Any]:
        """Identity of the inputs, so paired runs can prove they match."""
        poset = inputs[1] if self.detect else inputs
        info: Dict[str, Any] = {
            "poset_digest": checkpoint.poset_digest(poset),
            "threads": poset.num_threads,
            "events": poset.num_events,
        }
        if self.detect:
            info["ops"] = len(inputs[0])
        return info

    # -- reference answer ----------------------------------------------- #

    def oracle(self, inputs: Any) -> Dict[str, Any]:
        """Computed once per seed, outside the timed region.

        The state count is an unbounded walk of the plain ``lexical``
        enumerator: it uses no intervals, so Theorem 2's partition is
        checked rather than assumed, and shares no code with the packed
        kernel the measured calls run, so a kernel bug cannot hide in both.
        """
        poset = inputs[1] if self.detect else inputs
        answer: Dict[str, Any] = {
            "states": enumeration.make_enumerator("lexical", poset).enumerate().states
        }
        if self.detect:
            trace, _, benign = inputs
            races = fasttrack.FastTrackDetector(trace.num_threads).run(trace, benign)
            answer["racy_vars"] = sorted(races.racy_vars)
        return answer

    # -- the measured call ---------------------------------------------- #

    def run(self, inputs: Any, workdir: Path) -> Outcome:
        if self.detect:
            trace, _, benign = inputs
            report = paramount_detector.ParaMountDetector().run(trace, benign)
            return Outcome(report.states_enumerated, report)
        journal_path = None
        journal = None
        if self.workload == "enum-sparse":
            journal_path = workdir / "journal.jsonl"
            journal_path.unlink(missing_ok=True)  # fresh, never resumed
            journal = checkpoint.CheckpointJournal(journal_path)
        result = paramount.ParaMount(
            inputs,
            subroutine="lexical-packed",
            executor=self.executor(),
            checkpoint=journal,
        ).run()
        return Outcome(result.states, result, journal_path)

    def executor(self):
        if self.backend == "serial":
            return executors.SerialExecutor()
        if self.backend == "threads":
            return executors.WorkStealingThreadExecutor(WORKERS)
        if self.backend == "dist":
            return dist_executor.DistributedExecutor(workers=WORKERS)
        raise ValueError(f"unknown backend {self.backend!r}")

    def check(self, outcome: Outcome, oracle: Dict[str, Any]) -> List[str]:
        """Problems with one repetition's output (empty when correct)."""
        problems = []
        if outcome.states != oracle["states"]:
            problems.append(
                f"states {outcome.states} != reference {oracle['states']}"
            )
        if self.detect:
            found = sorted(outcome.value.racy_vars)
            if found != oracle["racy_vars"]:
                problems.append(f"racy vars {found} != FastTrack {oracle['racy_vars']}")
            return problems
        result = outcome.value
        for label in ("failures", "degradations"):
            if getattr(result, label):
                problems.append(f"{label}: {getattr(result, label)}")
        if result.deadline_expired:
            problems.append("deadline expired")
        if outcome.journal is not None:
            problems += _check_journal(outcome.journal, result)
        return problems


def _check_journal(path: Path, result) -> List[str]:
    lines = path.read_text().splitlines()
    records = [json.loads(line) for line in lines[1:]]
    keys = {
        (tuple(r["event"]), tuple(r["lo"]), tuple(r["hi"])) for r in records
    }
    tasks = {(t.event, t.lo, t.hi) for t in result.tasks}
    if len(records) != len(result.tasks) or keys != tasks:
        return [
            f"journal holds {len(records)} records ({len(keys)} distinct) "
            f"for {len(result.tasks)} tasks"
        ]
    return []


#: Every cell, in the order the full run measures them.
CELLS: Tuple[Cell, ...] = (
    Cell("detect-hedc"),
    Cell("detect-tsp"),
    *(Cell("enum-dense", b) for b in ("serial", "threads", "dist")),
    *(Cell("enum-sparse", b) for b in ("serial", "threads", "dist")),
)
