"""Implementation of the ``repro-tools`` command line interface."""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.enumeration.base import DEFAULT_SUBROUTINE, ENUMERATORS
from repro.util.timing import format_duration

__all__ = ["main"]


def _load(load, source: str, label: Optional[str] = None):
    """``load(source)``; input that cannot be read or is refused ends the
    command with an ``error: <label or source>: <why>`` line and exit
    status 2."""
    from repro.errors import ReproError

    try:
        return load(source)
    except (ReproError, ValueError, OSError) as exc:
        print(f"error: {label or source}: {exc}", file=sys.stderr)
        raise SystemExit(2) from None


def _cmd_list(args: argparse.Namespace) -> int:
    from repro.workloads.registry import (
        DETECTION_WORKLOADS,
        ENUMERATION_WORKLOADS,
        EXTRA_DETECTION_WORKLOADS,
    )

    print("Detection workloads (Table 2):")
    for name, w in DETECTION_WORKLOADS.items():
        print(f"  {name:15s} {w.description}")
    print("\nDetection workloads (extra, MHP-structured):")
    for name, w in EXTRA_DETECTION_WORKLOADS.items():
        print(f"  {name:15s} {w.description}")
    print("\nEnumeration workloads (Table 1):")
    for name, w in ENUMERATION_WORKLOADS.items():
        print(f"  {name:15s} n={w.threads:<3d} {w.description}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.runtime.trace_io import save_trace
    from repro.workloads.registry import detection_workload

    workload = detection_workload(args.workload)
    trace = __import__("repro.runtime.scheduler", fromlist=["run_program"]).run_program(
        workload.build(), seed=args.seed, stickiness=args.stickiness
    )
    print(
        f"ran {workload.name!r}: {trace.num_threads} threads, "
        f"{len(trace.ops)} operations, {len(trace.variables())} variables, "
        f"base time {format_duration(trace.base_seconds)}"
    )
    if args.out:
        save_trace(trace, args.out)
        print(f"trace written to {args.out}")
    return 0


def _cmd_detect(args: argparse.Namespace) -> int:
    from repro.detector import (
        FastTrackDetector,
        ParaMountDetector,
        RVRuntimeDetector,
    )
    from repro.runtime.trace_io import load_trace
    from repro.workloads.registry import DETECTION_WORKLOADS, detection_workload

    if args.trace:
        trace = _load(load_trace, args.trace)
        benign = frozenset()
        if trace.program_name in DETECTION_WORKLOADS:
            benign = DETECTION_WORKLOADS[trace.program_name].benign_vars
    else:
        workload = detection_workload(args.workload)
        trace = workload.trace()
        benign = workload.benign_vars

    pruner = None
    if args.static_prune:
        if args.detector != "paramount":
            print("error: --static-prune requires --detector paramount", file=sys.stderr)
            return 2
        from repro.staticcheck.prune import StaticPruner
        from repro.workloads.registry import ALL_DETECTION_WORKLOADS

        if trace.program_name not in ALL_DETECTION_WORKLOADS:
            print(
                f"error: --static-prune needs the program source; trace "
                f"program {trace.program_name!r} is not a known workload",
                file=sys.stderr,
            )
            return 2
        program = ALL_DETECTION_WORKLOADS[trace.program_name].build()
        pruner = StaticPruner.from_program(program)
        print(pruner.describe())

    if args.detector != "paramount" and args.plan != "auto":
        print("error: --plan requires --detector paramount", file=sys.stderr)
        return 2

    if args.detector == "paramount":
        from repro.errors import PlannerError

        try:
            report = ParaMountDetector(
                subroutine=args.subroutine,
                static_pruner=pruner,
                plan=args.plan,
            ).run(trace, benign)
        except PlannerError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    elif args.detector == "rv":
        report = RVRuntimeDetector().run(trace, benign)
    else:
        report = FastTrackDetector(trace.num_threads).run(trace, benign)

    print(f"detector:   {report.detector}")
    print(f"benchmark:  {report.benchmark}")
    print(f"status:     {report.status}")
    if report.plan_route:
        print(f"plan:       {report.plan_route} ({report.predicate_class})")
    print(f"elapsed:    {format_duration(report.elapsed)}")
    if report.witness is not None:
        print(f"witness:    {report.witness}")
    if report.states_enumerated:
        print(f"states:     {report.states_enumerated}")
    if report.poset_events:
        print(f"events:     {report.poset_events}")
    if report.pruned_vars or report.pruned_accesses:
        print(
            f"pruned:     {len(report.pruned_vars)} variable(s), "
            f"{report.pruned_accesses} access(es) skipped statically"
        )
    print(f"detections: {report.num_detections}")
    for var in report.sorted_vars():
        race = report.races[var]
        benign_tag = " [benign]" if race.benign else ""
        print(
            f"  {var}: t{race.first[0]} {race.first[1]} / "
            f"t{race.second[0]} {race.second[1]}{benign_tag}"
        )
    if report.error:
        print(f"note: {report.error}")
    return 0


def _cmd_capture_poset(args: argparse.Namespace) -> int:
    from repro.detector.hb import poset_from_trace
    from repro.poset.io import save_poset
    from repro.workloads.registry import detection_workload

    workload = detection_workload(args.workload)
    trace = workload.trace()
    poset = poset_from_trace(trace, merge_collections=not args.raw)
    save_poset(poset, args.out)
    kind = "raw access" if args.raw else "event-collection"
    print(
        f"captured {kind} poset of {workload.name!r}: n={poset.num_threads}, "
        f"{poset.num_events} events -> {args.out}"
    )
    return 0


def _make_observer(args: argparse.Namespace):
    """Build an Observer for ``enumerate``/``coordinator`` from the
    --trace-out/--metrics-out/--progress/--profile/--http-port flags.

    Returns ``(observer, finish)``: ``observer`` is ``None`` when none was
    requested; ``finish()`` detaches the log handler, stops the profiler
    and writes the requested trace, metrics and profile files.
    """
    wants_obs = bool(
        getattr(args, "trace_out", None)
        or getattr(args, "metrics_out", None)
        or getattr(args, "progress", False)
        or getattr(args, "profile", None) is not None
        or getattr(args, "http_port", None) is not None
    )
    if not wants_obs:
        return None, lambda: None
    from repro.obs import (
        Observer,
        ProgressReporter,
        SamplingProfiler,
        SpanLogHandler,
        write_chrome_trace,
        write_prometheus,
    )
    from repro.util.log import get_logger

    progress = ProgressReporter() if args.progress else None
    observer = Observer(progress=progress)
    # Warnings (degradations, expired deadlines) land on the trace too.
    handler = SpanLogHandler(observer)
    get_logger("").addHandler(handler)
    profiler = None
    if getattr(args, "profile", None) is not None:
        profiler = SamplingProfiler(observer, hz=args.profile).start()
        print(f"sampling profiler attached at {args.profile:g} Hz")

    def finish() -> None:
        get_logger("").removeHandler(handler)
        if progress is not None:
            progress.close()
        if profiler is not None:
            profiler.stop()
            base = getattr(args, "profile_out", None) or "profile"
            speedscope = profiler.write_speedscope(f"{base}.speedscope.json")
            profiler.write_collapsed(f"{base}.collapsed.txt")
            samples = sum(profiler.samples.values())
            print(
                f"profile written to {speedscope} and {base}.collapsed.txt "
                f"({samples} samples)"
            )
        if args.trace_out:
            write_chrome_trace(args.trace_out, observer.spans())
            print(f"trace written to {args.trace_out} ({len(observer.spans())} spans)")
        if args.metrics_out:
            write_prometheus(args.metrics_out, observer.snapshot())
            print(f"metrics written to {args.metrics_out}")

    return observer, finish


def _cmd_enumerate(args: argparse.Namespace) -> int:
    from repro.core.executors import RetryPolicy
    from repro.core.paramount import ParaMount
    from repro.core.scheduling import SchedulePolicy
    from repro.core.simulated import CostModel, simulate_schedule
    from repro.poset.io import load_poset

    poset = _load(load_poset, args.poset)
    print(f"poset: n={poset.num_threads}, {poset.num_events} events")
    dist = args.backend == "dist"
    resilient = bool(args.resume or args.faults or args.workers)
    if (resilient or dist or args.deadline is not None) and not args.paramount:
        print(
            "error: --resume/--faults/--workers/--backend/--deadline "
            "require --paramount",
            file=sys.stderr,
        )
        return 2
    if dist and args.faults:
        print(
            "error: --faults injects in-process; with --backend dist use "
            "--wire-faults",
            file=sys.stderr,
        )
        return 2
    if args.wire_faults and not dist:
        print("error: --wire-faults requires --backend dist", file=sys.stderr)
        return 2
    faults = wire_faults = None
    if args.faults:
        from repro.resilience import FaultSpec

        faults = _load(FaultSpec.parse, args.faults, "--faults")
    if args.wire_faults:
        from repro.dist import WireFaults

        wire_faults = _load(WireFaults.parse, args.wire_faults, "--wire-faults")
    observer, finish_observer = _make_observer(args)
    if observer is not None and not args.paramount:
        print(
            "error: --trace-out/--metrics-out/--progress/--profile/"
            "--http-port require --paramount",
            file=sys.stderr,
        )
        return 2
    ops = None
    if args.http_port is not None and not dist:
        # dist runs mount the endpoint on the coordinator instead, where
        # the lease table and per-host series live.
        from repro.obs import OpsEndpoint

        ops = OpsEndpoint(observer, port=args.http_port).start()
        print(f"ops endpoint: {ops.url} (/metrics /healthz /progress)")
    if args.paramount:
        policy = SchedulePolicy.parse(args.schedule)
        executor = None
        if dist:
            from repro.dist import DistributedExecutor

            if wire_faults is not None:
                print(f"injecting wire faults: {args.wire_faults}")
            executor = DistributedExecutor(
                workers=args.dist_workers,
                lease_seconds=args.lease_seconds,
                wire_faults=wire_faults,
                http_port=args.http_port,
            )
            print(
                f"distributed backend: {args.dist_workers} local worker "
                f"process(es), {args.lease_seconds:g}s leases"
            )
            if args.http_port is not None:
                print(
                    f"ops endpoint: coordinator will serve /metrics "
                    f"/healthz /progress on port {args.http_port}"
                )
        elif resilient:
            from repro.core.executors import WorkStealingThreadExecutor
            from repro.resilience import ResilientExecutor

            if faults is not None:
                print(f"injecting faults: {args.faults}")
            executor = ResilientExecutor(
                WorkStealingThreadExecutor(args.workers or 1),
                retry=RetryPolicy(max_attempts=args.retries),
                fault_spec=faults,
            )
        pm = ParaMount(
            poset,
            subroutine=args.algorithm,
            executor=executor,
            checkpoint=args.resume,
            schedule=policy,
            observer=observer,
            deadline=args.deadline,
        )
        try:
            result = pm.run()
        finally:
            if ops is not None:
                ops.close()
            finish_observer()
        print(
            f"ParaMount({args.algorithm}): {result.states} states over "
            f"{len(result.intervals)} intervals "
            f"(wall {format_duration(result.wall_time)})"
        )
        print(
            f"  schedule: {result.schedule} — {len(result.tasks)} task(s), "
            f"{result.split_intervals} interval(s) split, "
            f"{result.steals} steal(s)"
        )
        print(
            f"  imbalance: static partition {result.load_imbalance():.2f}, "
            f"executed schedule {result.schedule_imbalance():.2f} "
            f"(max/mean, 1.0 = balanced)"
        )
        if args.resume:
            print(
                f"  checkpoint: {result.resumed_intervals} task(s) "
                f"restored from {args.resume}, "
                f"{len(result.tasks) - result.resumed_intervals} enumerated"
            )
        if result.retries:
            print(f"  retries: {result.retries} task resubmission(s)")
        if result.hosts or result.redispatches or result.leases_expired:
            print(
                f"  dist: hosts={','.join(result.hosts) or '-'}, "
                f"{result.leases_expired} lease(s) expired, "
                f"{result.redispatches} re-dispatch(es)"
            )
        if result.deadline_expired:
            print(
                f"  deadline of {args.deadline:g}s expired: in-flight "
                f"intervals drained, the rest skipped"
            )
        for d in result.degradations:
            print(f"  degraded [{d.kind}]: {d.from_name} -> {d.to_name} ({d.reason})")
        for f in result.failures:
            print(
                f"  FAILED interval {f.event} after {f.attempts} attempt(s) "
                f"on {f.executor}: {f.error}"
            )
        if not result.complete:
            lost = len(result.failures)
            why = f"{lost} interval(s) lost" if lost else "deadline expired"
            print(
                f"  result is a LOWER BOUND: {why} "
                f"(Theorem 2: nothing else is affected)"
            )
        model = CostModel()
        tasks = [model.task_seconds(s.work, s.peak_live) for s in result.intervals]
        split_tasks = [
            model.task_seconds(s.work, s.peak_live) for s in result.tasks
        ]
        for k in (1, 2, 4, 8):
            makespan = simulate_schedule(tasks, k).makespan
            line = f"  modeled time with {k} worker(s): {makespan:.4f}s"
            if len(split_tasks) != len(tasks):
                split_makespan = simulate_schedule(split_tasks, k).makespan
                line += f" (split schedule: {split_makespan:.4f}s)"
            print(line)
    else:
        from repro.enumeration.base import make_enumerator
        from repro.util.timing import Stopwatch

        enumerator = make_enumerator(args.algorithm, poset)
        with Stopwatch() as sw:
            result = enumerator.enumerate()
        print(
            f"{args.algorithm}: {result.states} states "
            f"(wall {format_duration(sw.elapsed)}, peak live {result.peak_live})"
        )
    return 0


def _cmd_coordinator(args: argparse.Namespace) -> int:
    """Serve one distributed run to externally started workers."""
    from repro.core.paramount import ParaMount
    from repro.core.scheduling import SchedulePolicy
    from repro.dist import DistributedExecutor
    from repro.poset.io import load_poset

    poset = _load(load_poset, args.poset)
    if args.port == 0:
        # workers need an address they can be given before the run binds
        print(
            "error: --port 0 names no address a worker can connect to; "
            "pick a free port",
            file=sys.stderr,
        )
        return 2
    observer, finish_observer = _make_observer(args)
    executor = DistributedExecutor(
        workers=args.workers,
        host=args.host,
        port=args.port,
        spawn=False,
        lease_seconds=args.lease_seconds,
        no_worker_grace=args.worker_grace,
        http_port=args.http_port,
    )
    if args.http_port is not None:
        print(
            f"ops endpoint: /metrics /healthz /progress on port "
            f"{args.http_port}"
        )
    pm = ParaMount(
        poset,
        subroutine=args.algorithm,
        executor=executor,
        checkpoint=args.resume,
        schedule=SchedulePolicy.parse(args.schedule),
        observer=observer,
        deadline=args.deadline,
    )
    print(
        f"coordinator: poset n={poset.num_threads}, {poset.num_events} "
        f"events; listening on {args.host}:{args.port} "
        f"(point workers at it with: repro-tools worker --connect "
        f"{args.host}:{args.port} --poset {args.poset})"
    )
    try:
        result = pm.run()
    finally:
        finish_observer()
    print(
        f"coordinator done: {result.states} states over "
        f"{len(result.intervals)} intervals "
        f"(wall {format_duration(result.wall_time)})"
    )
    print(
        f"  hosts: {','.join(result.hosts) or '-'}; "
        f"{result.leases_expired} lease(s) expired, "
        f"{result.redispatches} re-dispatch(es)"
    )
    for d in result.degradations:
        print(f"  degraded [{d.kind}]: {d.from_name} -> {d.to_name} ({d.reason})")
    for f in result.failures:
        print(
            f"  FAILED interval {f.event} after {f.attempts} attempt(s) "
            f"on {f.executor}: {f.error}"
        )
    if not result.complete:
        print("  result is PARTIAL (failures or deadline)")
        return 1
    return 0


def _cmd_worker(args: argparse.Namespace) -> int:
    """Run one enumeration worker against a coordinator."""
    from repro.dist import WireFaults, run_worker
    from repro.errors import StaleDigestError
    from repro.poset.io import load_poset
    from repro.resilience.checkpoint import poset_digest

    host, _, port = args.connect.rpartition(":")
    if not host or not port.isdigit():
        print(
            f"error: --connect wants HOST:PORT, got {args.connect!r}",
            file=sys.stderr,
        )
        return 2
    poset = _load(load_poset, args.poset)
    wire_faults = (
        _load(WireFaults.parse, args.wire_faults, "--wire-faults")
        if args.wire_faults
        else None
    )
    try:
        return run_worker(
            (host, int(port)),
            poset,
            poset_digest(poset),
            name=args.name,
            wire_faults=wire_faults,
        )
    except StaleDigestError as exc:
        print(f"worker refused: {exc}", file=sys.stderr)
        return 3
    except ConnectionRefusedError:
        print(
            f"error: no coordinator listening at {args.connect}",
            file=sys.stderr,
        )
        return 1


def _cmd_obs_render(args: argparse.Namespace) -> int:
    from repro.obs.render import render_trace_file

    print(_load(lambda path: render_trace_file(path, top=args.top), args.trace))
    return 0


def _cmd_obs_report(args: argparse.Namespace) -> int:
    from repro.errors import ReproError
    from repro.obs.forensics import build_report, render_report

    try:
        report = build_report(args.trace, journal_path=args.journal, k=args.k)
    except (ReproError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(render_report(report, trace_path=args.trace))
    if report.reconciled is False:
        return 1
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    from repro.analysis.profile import profile_poset, render_profile
    from repro.poset.io import load_poset

    poset = _load(load_poset, args.poset)
    profile = profile_poset(poset)
    print(render_profile(profile, title=f"Lattice profile: {args.poset}"))
    return 0


def _cmd_explore(args: argparse.Namespace) -> int:
    from repro.runtime.explore import explore_schedules
    from repro.workloads.registry import detection_workload

    workload = detection_workload(args.workload)
    result = explore_schedules(
        workload.build(),
        seeds=range(args.seeds),
        benign_vars=workload.benign_vars,
    )
    print(
        f"explored {result.schedules_run} schedules of {workload.name!r} "
        f"({result.distinct_posets} distinct posets)"
    )
    print(f"racy variables ({result.num_detections}): {sorted(result.racy_vars)}")
    return 0


def _emit_diagnostics(args: argparse.Namespace, per_program, names: List[str]) -> None:
    """Shared ``--format``/``--sarif`` emission for the check sub-modes."""
    from repro.staticcheck import diag as diagmod

    all_diags = [d for name in names for d in per_program.get(name, ())]
    if args.format == "json":
        doc = {
            "version": 1,
            "programs": {
                name: [d.to_json() for d in per_program.get(name, ())]
                for name in names
            },
        }
        print(json.dumps(doc, indent=2, sort_keys=True))
    elif args.format == "jsonl":
        for d in all_diags:
            print(json.dumps(d.to_json(), sort_keys=True))
    if args.sarif:
        diagmod.write_sarif(args.sarif, all_diags)
        if args.format == "text":
            print(f"SARIF report written to {args.sarif}")


def _check_predicates(args: argparse.Namespace, names: List[str]) -> int:
    """The ``check --predicates`` lint: classify every registered predicate
    under its author-declared class, surface demotions (unsound
    declarations), and — unless ``--static-only`` — cross-validate each
    planner fast path against full enumeration."""
    from repro.detector.hb import poset_from_trace
    from repro.predicates.registry import predicates_for
    from repro.staticcheck import cross_validate_planner
    from repro.staticcheck.predclass import PredicateClass, classify_predicate
    from repro.workloads.registry import detection_workload

    text = args.format == "text"
    demotions = 0
    failures = 0
    per_program = {}
    for name in names:
        workload = detection_workload(name)
        poset = poset_from_trace(workload.trace(), merge_collections=True)
        diags = []
        if text:
            print(f"predicate classification for {name!r}:")
        for spec in predicates_for(name, include_adversarial=args.adversarial):
            cert = classify_predicate(
                spec.build(poset),
                name=spec.name,
                claimed=PredicateClass(spec.claimed),
            )
            tag = "DEMOTED" if cert.demoted else "ok"
            if text:
                print(
                    f"  {spec.name:15s} claimed={cert.claimed.value:11s} "
                    f"assigned={cert.assigned.value:11s} {tag}"
                )
            if cert.demoted:
                demotions += 1
                diags.extend(cert.diagnostics(program=name))
                if text:
                    for d in cert.demotions:
                        print(f"    {d.describe()}")
        per_program[name] = diags
        if not args.static_only:
            cv = cross_validate_planner(
                name, include_adversarial=args.adversarial
            )
            if text:
                print(cv.format())
            if not cv.ok:
                failures += 1
        if text:
            print()
    _emit_diagnostics(args, per_program, names)
    if failures:
        print(
            f"{failures} workload(s) FAILED planner cross-validation "
            "(fast-path verdict differs from full enumeration)"
        )
        return 1
    if args.strict and demotions:
        print(
            f"strict mode: {demotions} unsound predicate declaration(s) "
            "demoted to arbitrary"
        )
        return 1
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    from repro.staticcheck import analyze_program, cross_validate
    from repro.staticcheck import diag as diagmod
    from repro.workloads.registry import ALL_DETECTION_WORKLOADS, detection_workload

    if args.all:
        names = list(ALL_DETECTION_WORKLOADS)
    elif args.workloads:
        names = list(args.workloads)
    else:
        print("error: give one or more workload names or --all", file=sys.stderr)
        return 2
    if args.adversarial and not args.predicates:
        print("error: --adversarial requires --predicates", file=sys.stderr)
        return 2
    if args.baseline and args.predicates:
        print(
            "error: --baseline applies to the static check, not --predicates",
            file=sys.stderr,
        )
        return 2
    if args.update_baseline and not args.baseline:
        print("error: --update-baseline requires --baseline", file=sys.stderr)
        return 2
    if args.predicates:
        return _check_predicates(args, names)

    text = args.format == "text"
    failures = 0
    warnings_emitted = 0
    per_program = {}
    for name in names:
        workload = detection_workload(name)
        if args.mhp and text:
            from repro.staticcheck import build_mhp
            from repro.staticcheck.extract import extract_summary

            print(build_mhp(extract_summary(workload.build())).describe())
        if args.static_only:
            report = analyze_program(workload.build())
            if text:
                print(report.format())
        else:
            cv = cross_validate(name)
            report = cv.static_report
            if text:
                print(report.format())
                print(cv.format())
            if not cv.ok:
                failures += 1
        per_program[name] = report.diagnostics()
        warnings_emitted += len(report.warnings)
        if text:
            print()
    _emit_diagnostics(args, per_program, names)
    baseline_rc = 0
    if args.baseline:
        current = diagmod.baseline_from_diagnostics(per_program)
        if args.update_baseline:
            diagmod.write_baseline(args.baseline, current)
            if text:
                print(f"baseline updated: {args.baseline}")
        else:
            try:
                baseline = diagmod.load_baseline(args.baseline)
            except FileNotFoundError:
                print(
                    f"error: baseline file {args.baseline!r} not found "
                    "(run with --update-baseline to create it)",
                    file=sys.stderr,
                )
                return 2
            deltas = diagmod.diff_baseline(baseline, current)
            if deltas:
                for delta in deltas:
                    print(f"baseline delta: {delta}", file=sys.stderr)
                print(
                    f"{len(deltas)} precision delta(s) vs {args.baseline} — "
                    "fix the regression or update the baseline explicitly",
                    file=sys.stderr,
                )
                baseline_rc = 1
    if failures:
        print(
            f"{failures} workload(s) have dynamically confirmed races with "
            "no static warning (soundness violation)"
        )
        return 1
    if args.strict and warnings_emitted:
        print(f"strict mode: {warnings_emitted} static warning(s) emitted")
        return 1
    return baseline_rc


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI parser (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro-tools",
        description="Capture, detect, enumerate and explore with ParaMount.",
    )
    parser.add_argument(
        "--log-level",
        choices=("debug", "info", "warning", "error", "critical"),
        default=None,
        help="root log level for the 'repro' logger hierarchy",
    )
    parser.add_argument(
        "-v",
        "--verbose",
        action="count",
        default=0,
        help="increase log verbosity (-v info, -vv debug); "
        "ignored when --log-level is given",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available workloads").set_defaults(
        func=_cmd_list
    )

    p = sub.add_parser("run", help="run a workload and optionally save its trace")
    p.add_argument("workload")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--stickiness", type=float, default=0.0)
    p.add_argument("--out", help="write the observed trace as JSON")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("detect", help="run a detector over a trace")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--trace", help="path to a saved trace JSON")
    src.add_argument("--workload", help="capture a fresh trace of this workload")
    p.add_argument(
        "--detector",
        choices=("paramount", "rv", "fasttrack"),
        default="paramount",
    )
    p.add_argument(
        "--subroutine",
        choices=tuple(ENUMERATORS),
        default=DEFAULT_SUBROUTINE,
        help="ParaMount's bounded subroutine (default lexical-packed: the "
        "lexical algorithm on the packed kernel; lexical is its reference)",
    )
    p.add_argument(
        "--static-prune",
        action="store_true",
        help="skip variables the static MHP analysis proves race-free "
        "(paramount only; workload must be in the registry)",
    )
    p.add_argument(
        "--plan",
        choices=("auto", "full", "slice"),
        default="auto",
        help="detection-planner mode (paramount only): auto routes "
        "provably structured predicates to the slicing fast paths, full "
        "disables planning (baseline), slice demands a fast path and "
        "fails on arbitrary predicates",
    )
    p.set_defaults(func=_cmd_detect)

    p = sub.add_parser("capture-poset", help="capture a workload's poset")
    p.add_argument("workload")
    p.add_argument("--out", required=True)
    p.add_argument(
        "--raw",
        action="store_true",
        help="one event per access (default: merged event collections)",
    )
    p.set_defaults(func=_cmd_capture_poset)

    p = sub.add_parser("enumerate", help="enumerate a saved poset's states")
    p.add_argument("poset")
    p.add_argument(
        "--algorithm",
        "--subroutine",
        choices=tuple(ENUMERATORS),
        default=DEFAULT_SUBROUTINE,
        help="sequential (sub)routine (default lexical-packed: the lexical "
        "algorithm on the packed kernel); lexical is its reference, "
        "level-space the bounded-memory level traversal",
    )
    p.add_argument(
        "--paramount",
        action="store_true",
        help="partition with ParaMount and model 1/2/4/8 workers",
    )
    p.add_argument(
        "--schedule",
        choices=("fifo", "largest", "split", "split-steal", "adaptive"),
        default="split-steal",
        help="task schedule for --paramount: fifo is the pre-scheduling "
        "behavior; split-steal (default; split is the same policy) splits "
        "oversized intervals and dispatches largest-first with work "
        "stealing",
    )
    p.add_argument(
        "--resume",
        metavar="JOURNAL",
        help="checkpoint journal path: record finished intervals, and "
        "resume a previously killed run from it (requires --paramount)",
    )
    p.add_argument(
        "--faults",
        metavar="SPEC",
        help="inject deterministic faults, e.g. "
        "'seed=1,crash=0.1,slow=0.2,poison=3;7' (requires --paramount)",
    )
    p.add_argument(
        "--workers",
        type=int,
        default=0,
        help="run interval tasks on a resilient thread pool with this "
        "many workers (requires --paramount)",
    )
    p.add_argument(
        "--retries",
        type=int,
        default=3,
        help="retry budget per interval task (default 3)",
    )
    p.add_argument(
        "--trace-out",
        metavar="TRACE.json",
        help="write a Chrome trace-event JSON of the run (open in "
        "Perfetto or chrome://tracing; requires --paramount)",
    )
    p.add_argument(
        "--metrics-out",
        metavar="METRICS.prom",
        help="write the run's metrics in Prometheus text format "
        "(requires --paramount)",
    )
    p.add_argument(
        "--progress",
        action="store_true",
        help="print a live one-line progress report to stderr "
        "(requires --paramount)",
    )
    p.add_argument(
        "--profile",
        nargs="?",
        const=100.0,
        type=float,
        default=None,
        metavar="HZ",
        help="attach the sampling profiler at HZ samples/s (default 100) "
        "and write PROFILE.speedscope.json + PROFILE.collapsed.txt at "
        "the end of the run (requires --paramount)",
    )
    p.add_argument(
        "--profile-out",
        metavar="PREFIX",
        default=None,
        help="output prefix for --profile artifacts (default 'profile')",
    )
    p.add_argument(
        "--http-port",
        type=int,
        default=None,
        metavar="PORT",
        help="serve /metrics, /healthz and /progress over HTTP for the "
        "duration of the run (0 = any free port); with --backend dist the "
        "endpoint is mounted on the coordinator and carries per-host "
        "series (requires --paramount)",
    )
    p.add_argument(
        "--backend",
        choices=("auto", "dist"),
        default="auto",
        help="task backend: auto (in-process, default) or dist — spawn "
        "--dist-workers local worker processes behind a fault-tolerant "
        "coordinator (requires --paramount)",
    )
    p.add_argument(
        "--dist-workers",
        type=int,
        default=2,
        help="worker processes for --backend dist (default 2)",
    )
    p.add_argument(
        "--lease-seconds",
        type=float,
        default=5.0,
        help="per-lease acknowledgement deadline for --backend dist; "
        "crashed/hung workers are detected within one lease period",
    )
    p.add_argument(
        "--wire-faults",
        metavar="SPEC",
        help="inject deterministic wire/process faults into the first "
        "dist worker, e.g. 'seed=1,drop_ack=0.2,kill_after=3' "
        "(requires --backend dist)",
    )
    p.add_argument(
        "--deadline",
        type=float,
        default=None,
        metavar="SECONDS",
        help="global wall-clock budget: stop dispatching intervals once "
        "it expires, drain in-flight ones, and return a partial result "
        "with complete=False (requires --paramount)",
    )
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser(
        "coordinator",
        help="serve a distributed enumeration to external workers",
    )
    p.add_argument("poset", help="path to a saved poset JSON")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument(
        "--port",
        type=int,
        required=True,
        help="port to listen on; workers are pointed at it, so it must "
        "be a fixed port (0 is refused)",
    )
    p.add_argument(
        "--algorithm",
        "--subroutine",
        choices=tuple(ENUMERATORS),
        default=DEFAULT_SUBROUTINE,
    )
    p.add_argument(
        "--schedule",
        choices=("fifo", "largest", "split", "split-steal", "adaptive"),
        default="split-steal",
    )
    p.add_argument(
        "--workers",
        type=int,
        default=2,
        help="planned parallelism the schedule splits for (default 2)",
    )
    p.add_argument("--resume", metavar="JOURNAL", help="checkpoint journal path")
    p.add_argument("--lease-seconds", type=float, default=5.0)
    p.add_argument(
        "--worker-grace",
        type=float,
        default=30.0,
        help="seconds to wait for (re)connecting workers before degrading "
        "to in-process enumeration (default 30)",
    )
    p.add_argument("--deadline", type=float, default=None, metavar="SECONDS")
    p.add_argument("--trace-out", metavar="TRACE.json")
    p.add_argument("--metrics-out", metavar="METRICS.prom")
    p.add_argument("--progress", action="store_true")
    p.add_argument(
        "--http-port",
        type=int,
        default=None,
        metavar="PORT",
        help="serve /metrics, /healthz and /progress from the coordinator "
        "(0 = any free port)",
    )
    p.set_defaults(func=_cmd_coordinator)

    p = sub.add_parser(
        "worker", help="run an enumeration worker against a coordinator"
    )
    p.add_argument(
        "--connect", required=True, metavar="HOST:PORT", help="coordinator address"
    )
    p.add_argument("--name", help="worker name (default HOSTNAME-PID)")
    p.add_argument(
        "--poset",
        required=True,
        help="the run's poset file; its digest must match the "
        "coordinator's or the worker is rejected (stale-digest "
        "protection, exit 3)",
    )
    p.add_argument(
        "--wire-faults",
        metavar="SPEC",
        help="deterministic wire/process fault plan, e.g. "
        "'seed=1,drop_ack=0.2,kill_after=3'",
    )
    p.set_defaults(func=_cmd_worker)

    p = sub.add_parser("profile", help="profile a saved poset's lattice")
    p.add_argument("poset")
    p.set_defaults(func=_cmd_profile)

    p = sub.add_parser(
        "check",
        help="static race/deadlock analysis, cross-validated against the "
        "dynamic detectors",
    )
    p.add_argument("workloads", nargs="*", help="detection workload name(s)")
    p.add_argument("--all", action="store_true", help="check every detection workload")
    p.add_argument(
        "--static-only",
        action="store_true",
        help="skip the dynamic cross-validation run",
    )
    p.add_argument(
        "--strict",
        action="store_true",
        help="exit nonzero when any static warning is emitted (for CI)",
    )
    p.add_argument(
        "--mhp",
        action="store_true",
        help="also print the static MHP segment graph per workload",
    )
    p.add_argument(
        "--predicates",
        action="store_true",
        help="lint registered predicate declarations instead: classify "
        "each under its declared class and (unless --static-only) "
        "cross-validate every planner fast path against full enumeration; "
        "with --strict, exit nonzero on any demoted (unsound) declaration",
    )
    p.add_argument(
        "--adversarial",
        action="store_true",
        help="with --predicates: include the deliberately misdeclared "
        "predicate suite (they MUST be demoted; combined with --strict "
        "the exit status is expected nonzero)",
    )
    p.add_argument(
        "--format",
        choices=("text", "json", "jsonl"),
        default="text",
        help="diagnostic output format: human text (default), one JSON "
        "document keyed by workload, or one JSON object per line",
    )
    p.add_argument(
        "--sarif",
        metavar="PATH",
        default=None,
        help="additionally write all diagnostics as a SARIF 2.1.0 report",
    )
    p.add_argument(
        "--baseline",
        metavar="PATH",
        default=None,
        help="compare diagnostic fingerprints against this per-workload "
        "baseline JSON and exit nonzero on any delta",
    )
    p.add_argument(
        "--update-baseline",
        action="store_true",
        help="with --baseline: (re)write the baseline file instead of "
        "diffing against it",
    )
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("explore", help="multi-schedule race exploration")
    p.add_argument("workload")
    p.add_argument("--seeds", type=int, default=8)
    p.set_defaults(func=_cmd_explore)

    p = sub.add_parser("obs", help="observability artifact tools")
    obs_sub = p.add_subparsers(dest="obs_command", required=True)
    r = obs_sub.add_parser(
        "render", help="summarize a Chrome trace-event JSON in the terminal"
    )
    r.add_argument("trace", help="path to a trace written by --trace-out")
    r.add_argument(
        "--top",
        type=int,
        default=5,
        help="how many slowest spans to list (default 5)",
    )
    r.set_defaults(func=_cmd_obs_render)
    r = obs_sub.add_parser(
        "report",
        help="post-run forensics: stragglers, per-host skew, degradation "
        "timeline, journal reconciliation",
    )
    r.add_argument("trace", help="path to a trace written by --trace-out")
    r.add_argument(
        "--journal",
        default=None,
        metavar="JOURNAL",
        help="checkpoint journal to reconcile committed intervals against "
        "(exit 1 on divergence)",
    )
    r.add_argument(
        "--k",
        type=float,
        default=3.0,
        help="straggler threshold multiplier over the p95 interval "
        "duration (default 3.0)",
    )
    r.set_defaults(func=_cmd_obs_report)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point."""
    args = build_parser().parse_args(argv)
    from repro.util.log import configure_logging

    configure_logging(level=args.log_level, verbosity=args.verbose)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
