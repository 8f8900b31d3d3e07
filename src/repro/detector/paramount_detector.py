"""The online-and-parallel predicate detector built on ParaMount (paper §4).

Pipeline (paper Figure 7): the observed trace streams through the HB
front-end (1-pass, event collections, §4.4); each emitted collection event
is inserted into an :class:`~repro.core.online.OnlineParaMount`, whose
atomic insert yields the interval ``I(e)``; the bounded lexical subroutine
(by default its packed kernel) enumerates the interval; and the data-race
predicate (Algorithm 6, with init filtering per §5.2) is evaluated on every
enumerated state.

The detector is *general-purpose*: swap :class:`DataRacePredicate` for any
:class:`~repro.predicates.base.StatePredicate` via the ``predicate_factory``
hook to detect other conditions on the same enumeration (the extension
examples do exactly that).

Since the planner landed, "general-purpose" no longer means "always
enumerate": under ``plan="auto"`` the built predicate is classified
(:mod:`repro.staticcheck.predclass`) and, when the certificate proves a
conjunctive / linear / stable structure, detection routes through the
corresponding slicing fast path on the event-collection poset instead of
the online enumeration.  Arbitrary predicates — including the default
data-race predicate — keep the original online path untouched.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.core.online import OnlineParaMount
from repro.detector.hb import HBFrontEnd, poset_from_trace
from repro.detector.planner import DetectionPlanner
from repro.detector.report import DetectionReport
from repro.enumeration.base import DEFAULT_SUBROUTINE
from repro.predicates.base import StatePredicate
from repro.predicates.data_race import DataRacePredicate
from repro.runtime.trace import Trace
from repro.util.timing import Stopwatch

__all__ = ["ParaMountDetector"]

PredicateFactory = Callable[[DetectionReport, frozenset], StatePredicate]


def _default_predicate_factory(
    report: DetectionReport, benign_vars: frozenset
) -> StatePredicate:
    return DataRacePredicate(
        filter_init=True, benign_vars=benign_vars, report=report
    )


class ParaMountDetector:
    """Online predicate detection with parallel global-state enumeration.

    Parameters
    ----------
    subroutine:
        Bounded sequential subroutine for interval enumeration.  The
        default ``"lexical-packed"`` is the paper's bounded lexical
        algorithm on the builder's live packed tables; the reference
        ``"lexical"`` visits the same states in the same order.
    predicate_factory:
        Builds the predicate to evaluate per state; defaults to the
        init-filtered data-race predicate of Algorithms 5–6.
    memory_budget:
        Optional cap on live intermediate states per interval (irrelevant
        for the stateless lexical subroutine; exercised with ``"bfs"``).
    static_pruner:
        Optional static skip oracle (any object with ``should_skip(var)``,
        e.g. :class:`repro.staticcheck.prune.StaticPruner`): accesses to
        variables it proves statically race-free are dropped before the
        front-end ever ticks a clock for them, skipping their collection
        bookkeeping and predicate work.  Detections are unchanged (the
        pruner only drops provably-ordered variables); the skipped work is
        reported via ``pruned_vars`` / ``pruned_accesses``.
    plan:
        Detection-planner mode: ``"auto"`` (default) routes provably
        structured predicates to the slicing fast paths and everything
        else to the unchanged enumeration; ``"full"`` disables planning
        outright (pre-planner behavior); ``"slice"`` demands a fast path
        and raises :class:`~repro.errors.PlannerError` for predicates the
        classifier cannot prove eligible.
    """

    name = "ParaMount"

    def __init__(
        self,
        subroutine: str = DEFAULT_SUBROUTINE,
        predicate_factory: PredicateFactory = _default_predicate_factory,
        memory_budget: Optional[int] = None,
        static_pruner=None,
        observer=None,
        plan: str = "auto",
    ):
        self.subroutine = subroutine
        self.predicate_factory = predicate_factory
        self.memory_budget = memory_budget
        self.static_pruner = static_pruner
        self.plan = plan
        from repro.obs.observer import ensure_observer

        #: Observability facade: spans the detection pass and is handed to
        #: the inner :class:`OnlineParaMount`, whose per-interval spans and
        #: ``events_inserted_total`` / ``states_enumerated_total`` counters
        #: count the stamped events and the predicate's states.
        self.observer = ensure_observer(observer)

    def run(
        self, trace: Trace, benign_vars: frozenset = frozenset()
    ) -> DetectionReport:
        """Detect the predicate over one observed trace (1-pass, online)."""
        report = DetectionReport(detector=self.name, benchmark=trace.program_name)
        predicate = self.predicate_factory(report, benign_vars)
        obs = self.observer

        if self.plan != "full":
            planner = DetectionPlanner(mode=self.plan, observer=obs)
            dplan = planner.plan(
                predicate, name=getattr(predicate, "name", None)
            )
            report.plan_route = dplan.route
            report.predicate_class = dplan.certificate.assigned.value
            if dplan.fast_path:
                # Provably structured predicate: detect on the same
                # event-collection poset the online pass would build, but
                # via the certificate's slicing route — no enumeration.
                poset = poset_from_trace(trace, merge_collections=True)
                planned = planner.detect(poset, predicate, plan=dplan)
                report.elapsed = planned.elapsed
                report.witness = planned.witness
                report.states_enumerated = planned.states_examined
                report.poset_events = poset.num_events
                return report
            # Arbitrary (or demoted) predicate: fall through to the
            # original online enumeration path, unchanged.

        # The predicate's interval visitor is the unit of predicate work:
        # built once per inserted event over the worker's one live view,
        # it runs on every state of I(e).  The worker holds the bound
        # method and the predicate holds no worker: no reference cycle, so
        # a finished run is freed without the cyclic collector.
        online = OnlineParaMount(
            trace.num_threads,
            subroutine=self.subroutine,
            interval_visitor=predicate.interval_visitor,
            memory_budget=self.memory_budget,
            observer=obs,
        )
        front_end = HBFrontEnd(
            trace.num_threads,
            emit=online.insert,
            merge_collections=True,
            pruner=self.static_pruner,
        )
        with Stopwatch() as sw:
            with obs.span(
                "detect", "detect", benchmark=str(trace.program_name)
            ):
                for op in trace:
                    front_end.process(op)
                front_end.finish()
        report.elapsed = sw.elapsed
        report.states_enumerated = online.result.states
        report.poset_events = front_end.events_emitted
        report.pruned_vars = set(front_end.pruned_vars)
        report.pruned_accesses = front_end.pruned_accesses
        return report
