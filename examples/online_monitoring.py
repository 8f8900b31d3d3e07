#!/usr/bin/env python
"""Online enumeration of a long-running (server-style) computation.

ParaMount is *online*: it enumerates global states incrementally while the
monitored program is still running, so it applies to non-terminating
programs such as web servers (paper §1, §4).  This example simulates a
small request-processing server: worker threads repeatedly pick up
requests and update shared statistics under a lock.  Events stream into an
:class:`OnlineParaMount` as they happen; after every request batch we
report how many global states have been covered so far — no restart, no
re-enumeration of earlier intervals.

A custom predicate rides along, demonstrating the general-purpose claim:
it watches for a *mutual-exclusion violation* (two workers inside the
same resource's critical section concurrently), which the faulty server
variant triggers.

Run:  python examples/online_monitoring.py
"""

from repro.core import OnlineParaMount
from repro.detector.hb import HBFrontEnd
from repro.predicates import MutualExclusionPredicate
from repro.poset.event import Event
from repro.runtime import Acquire, Compute, Fork, Join, Program, Read, Release, Write, run_program


def make_server(faulty: bool) -> Program:
    """Three workers process requests; the faulty variant 'forgets' the
    lock on one path, letting two workers into the handler concurrently."""

    def worker(ctx):
        for req in range(3):
            skip_lock = faulty and ctx.tid == 1 and req == 1
            if not skip_lock:
                yield Acquire("handler.lock")
            # the handler's critical section, tagged as such
            served = yield Read("stats.served")
            yield Compute(2)
            yield Write("stats.served", (served or 0) + 1)
            if not skip_lock:
                yield Release("handler.lock")

    def main(ctx):
        workers = []
        for i in range(3):
            tid = yield Fork(worker, name=f"worker{i}")
            workers.append(tid)
        for tid in workers:
            yield Join(tid)

    return Program(
        name="mini-server",
        main=main,
        max_threads=4,
        shared={"stats.served": 0},
    )


def monitor(program: Program, seed: int = 1):
    """Stream the observed execution through an online ParaMount."""
    trace = run_program(program, seed=seed)

    # Critical-section tagging: a collection that touches stats.served was
    # produced inside the handler.
    def resource_of(event: Event):
        for access in event.accesses:
            if access.var == "stats.served":
                return "handler"
        return None

    # The predicate builds one visitor per interval; its default checks
    # every state's frontier events, read off the worker's one live view.
    predicate = MutualExclusionPredicate(resource_of)
    online = OnlineParaMount(
        trace.num_threads, interval_visitor=predicate.interval_visitor
    )
    front_end = HBFrontEnd(trace.num_threads, emit=online.insert)

    checkpoint = 0
    for op in trace:
        front_end.process(op)
        if online.result.states - checkpoint >= 25:
            checkpoint = online.result.states
            print(
                f"    ... {online.builder.num_events:3d} events inserted, "
                f"{online.result.states:4d} global states enumerated so far"
            )
    front_end.finish()
    return online, predicate


def main() -> None:
    for faulty in (False, True):
        label = "faulty (lock skipped once)" if faulty else "correct"
        print(f"Monitoring the {label} server:")
        online, predicate = monitor(make_server(faulty))
        print(
            f"    done: {online.builder.num_events} events, "
            f"{online.result.states} global states, "
            f"{len(online.intervals)} intervals enumerated online"
        )
        violations = predicate.matches()
        if violations:
            resource, a, b = violations[0]
            print(
                f"    MUTUAL-EXCLUSION VIOLATION on {resource!r}: "
                f"events {a} and {b} can be inside the section concurrently"
            )
        else:
            print("    no mutual-exclusion violations")
        print()


if __name__ == "__main__":
    main()
