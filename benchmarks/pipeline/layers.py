"""Per-layer tracing for the pipeline benchmark.

The layers are the ``repro`` modules of the pipeline (capture → HB front
end → online insert → interval partition → schedule → bounded enumeration
→ predicate → executor / dist dispatch → journal).  :class:`Tracer` wraps
one public callable per layer boundary by rebinding *every* reference to it
found in the loaded ``repro.*`` modules and their classes, and restores the
originals afterwards, so the program under test is not edited.  A symbol
that no longer exists (after a refactor) marks its layer *absent*: the run
goes on and that layer's time counts as unattributed.

Calls at interval granularity or coarser become spans (name, start, end,
parent, run id), kept in memory and written as JSONL at the end.  Finer
calls (one per trace op or per enumerated state) are aggregated per parent
span as count, total and self time, so tracing them costs no memory per
call.

Self time is wall time shared out among the frames that are running and
have no running child.  On one thread this is the span's duration minus
the union of its children; when worker threads run children of one span
concurrently, each instant is split equally among them.  The tracer's own
bookkeeping is timed apart and charged to no frame.  The self times of a
root's frames plus that bookkeeping sum to the root's wall time exactly;
the root's own share plus the bookkeeping is the time no layer accounts
for (``unattributed_s``).
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

__all__ = ["Target", "TARGETS", "Tracer", "Span", "tail", "percentile"]


def _count(result: Any) -> Dict[str, Any]:
    return {"count": len(result)}


def _plan(result: Any) -> Dict[str, Any]:
    return {"tasks": len(result.tasks), "split": result.split_intervals}


def _interval_stats(result: Any) -> Dict[str, Any]:
    return {"states": result.states, "work": result.work}


@dataclass(frozen=True)
class Target:
    """One wrapped callable: ``module`` + ``qualname`` (``Cls.meth`` or a
    function name), the layer it belongs to, and how its calls are kept."""

    layer: str
    module: str
    qualname: str
    #: Finer than one interval (per trace op or per state): aggregate the
    #: calls per parent span instead of recording each as a span.
    aggregate: bool = False
    #: Summarizes the return value into the span's attributes.
    attrs: Optional[Callable[[Any], Dict[str, Any]]] = None


#: The layer boundaries, one row per wrapped callable.
TARGETS: Tuple[Target, ...] = (
    Target("runtime", "repro.runtime.scheduler", "run_program", attrs=_count),
    Target("detector.hb", "repro.detector.hb", "HBFrontEnd.process", aggregate=True),
    Target("core.online", "repro.core.online", "OnlineParaMount.insert"),
    Target("poset.builder", "repro.poset.builder", "PosetBuilder.append_stamped"),
    Target(
        "poset.builder",
        "repro.poset.builder",
        "BuilderView.frontier_events",
        aggregate=True,
    ),
    Target("poset.packed", "repro.poset.poset", "Poset.packed_tables"),
    Target(
        "core.intervals", "repro.core.intervals", "compute_intervals", attrs=_count
    ),
    Target("core.scheduling", "repro.core.scheduling", "plan_schedule", attrs=_plan),
    Target(
        "enumeration",
        "repro.core.bounded",
        "bounded_enumeration",
        attrs=_interval_stats,
    ),
    Target(
        "predicates",
        "repro.predicates.data_race",
        "DataRacePredicate.check",
        aggregate=True,
    ),
    Target("core.executors", "repro.core.executors", "SerialExecutor.map_tasks"),
    Target(
        "core.executors",
        "repro.core.executors",
        "WorkStealingThreadExecutor.map_tasks",
    ),
    Target("dist", "repro.dist.executor", "DistributedExecutor.map_tasks"),
    Target("dist", "repro.dist.worker", "spawn_local_workers"),
    Target("dist", "repro.dist.coordinator", "Coordinator.stop"),
    # Per lease request; its first granted lease ends the worker start-up.
    Target("dist", "repro.dist.lease", "LeaseTable.next_for", aggregate=True),
    # load: the poset digest and header of a fresh journal
    Target("resilience.checkpoint", "repro.resilience.checkpoint", "CheckpointJournal.load"),
    Target(
        "resilience.checkpoint",
        "repro.resilience.checkpoint",
        "CheckpointJournal.record",
    ),
)


@dataclass
class Span:
    """A finished span (or root) with its self time."""

    span_id: int
    name: str
    layer: str
    start: float
    end: float
    parent: Optional[int]
    run_id: str
    thread: int
    self_time: float
    attrs: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_json(self) -> Dict[str, Any]:
        return {
            "id": self.span_id,
            "name": self.name,
            "layer": self.layer,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "run": self.run_id,
            "thread": self.thread,
            "self": self.self_time,
            "attrs": self.attrs,
        }


class _Frame:
    __slots__ = (
        "target", "name", "layer", "start", "self_time", "active", "parent",
        "span_parent", "span_id", "run_id",
    )

    def __init__(self, target, name, layer, parent, span_id, run_id):
        self.target = target
        self.name = name
        self.layer = layer
        self.start = 0.0
        self.self_time = 0.0
        self.active = 0  # running children, on any thread
        self.parent = parent
        # nearest enclosing frame that is recorded as a span
        if parent is not None and parent.target is not None and parent.target.aggregate:
            self.span_parent = parent.span_parent
        else:
            self.span_parent = parent
        self.span_id = span_id
        self.run_id = run_id


class Tracer:
    """Wraps the layer callables while installed; see the module docstring.

    The tracer's own bookkeeping runs between two clock reads under its
    lock and is charged to no frame: it is kept per run as
    :attr:`bookkeeping`, so that layer self times hold only the layers'
    work and ``Σ self + bookkeeping`` is the root's wall time.
    """

    def __init__(self, targets: Sequence[Target] = TARGETS):
        self.targets = tuple(targets)
        self.clock = time.perf_counter
        self._lock = threading.Lock()
        self._local = threading.local()
        self._leaves: set = set()
        self._last = 0.0
        self._next_id = 1
        self._root_stack: Optional[List[_Frame]] = None
        self._rebound: List[Tuple[Any, str, Any]] = []
        # finished spans and roots, in end order: (frame, end, thread, result)
        self._records: List[tuple] = []
        self._bk = 0.0
        #: (parent span id, target name) -> [calls, total s, self s].
        self.aggregates: Dict[Tuple[int, str], List[float]] = {}
        #: Per-target end time of the first call that returned a truthy value.
        self.first_truthy: Dict[str, float] = {}
        #: run id -> seconds of tracer bookkeeping inside that run.
        self.bookkeeping: Dict[str, float] = {}
        #: layer -> why it is absent (a wrapped symbol was not found).
        self.absent: Dict[str, str] = {}

    # ------------------------------------------------------------------ #
    # install / restore

    def install(self) -> "Tracer":
        resolved: Dict[Target, Any] = {}
        for target in self.targets:
            try:
                resolved[target] = _resolve(target)
            except (ImportError, AttributeError, KeyError) as exc:
                self.absent.setdefault(
                    target.layer,
                    f"{target.module}:{target.qualname} not found ({exc})",
                )
        for target, original in resolved.items():
            if target.layer in self.absent:
                continue
            wrapper = self._wrap(target, original)
            for owner, key in _references(original):
                self._rebound.append((owner, key, original))
                setattr(owner, key, wrapper)
        return self

    def restore(self) -> None:
        for owner, key, original in reversed(self._rebound):
            setattr(owner, key, original)
        self._rebound.clear()

    # ------------------------------------------------------------------ #
    # roots and frames

    def root(self, name: str, run_id: str) -> "_Root":
        """Context manager timing one top-level operation (setup, rep)."""
        return _Root(self, name, run_id)

    def _stack(self) -> List[_Frame]:
        try:
            return self._local.stack
        except AttributeError:
            stack = self._local.stack = []
            return stack

    def _push(self, target: Optional[Target], name: str, layer: str,
              run_id: Optional[str] = None) -> Optional[_Frame]:
        stack = self._stack()
        clock = self.clock
        with self._lock:
            t0 = clock()
            if stack:
                parent = stack[-1]
            elif run_id is not None:
                parent = None
                self._bk = 0.0
            elif self._root_stack:
                # a worker thread: its work belongs to the frame the root's
                # thread is inside (e.g. map_tasks)
                parent = self._root_stack[-1]
            else:
                return None  # outside any root: untraced
            leaves = self._leaves
            if leaves:
                share = (t0 - self._last) / len(leaves)
                for leaf in leaves:
                    leaf.self_time += share
            frame = _Frame(
                target, name, layer, parent, self._next_id,
                run_id if parent is None else parent.run_id,
            )
            self._next_id += 1
            if parent is not None:
                parent.active += 1
                leaves.discard(parent)
            leaves.add(frame)
            stack.append(frame)
            t1 = clock()
            frame.start = t1
            self._last = t1
            self._bk += t1 - t0
        return frame

    def _pop(self, frame: _Frame, result: Any = None) -> Optional[tuple]:
        stack = self._stack()
        clock = self.clock
        with self._lock:
            t0 = clock()
            leaves = self._leaves
            share = (t0 - self._last) / len(leaves)
            for leaf in leaves:
                leaf.self_time += share
            stack.pop()
            leaves.discard(frame)
            parent = frame.parent
            if parent is not None:
                parent.active -= 1
                if parent.active == 0:
                    leaves.add(parent)
            target = frame.target
            record = None
            if target is not None and target.aggregate:
                key = (frame.span_parent.span_id, frame.name)
                agg = self.aggregates.get(key)
                if agg is None:
                    agg = self.aggregates[key] = [0, 0.0, 0.0]
                agg[0] += 1
                agg[1] += t0 - frame.start
                agg[2] += frame.self_time
            else:
                record = (frame, t0, threading.get_ident(), result)
                self._records.append(record)
            if result and frame.name not in self.first_truthy:
                self.first_truthy[frame.name] = t0
            t1 = clock()
            self._last = t1
            self._bk += t1 - t0
            if parent is None:
                self.bookkeeping[frame.run_id] = self._bk
        return record

    def _wrap(self, target: Target, original: Callable) -> Callable:
        push = self._push
        pop = self._pop
        name = target.qualname
        layer = target.layer

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            frame = push(target, name, layer)
            if frame is None:
                return original(*args, **kwargs)
            try:
                result = original(*args, **kwargs)
            except BaseException:
                pop(frame)
                raise
            pop(frame, result)
            return result

        return wrapper

    # ------------------------------------------------------------------ #
    # queries

    @property
    def spans(self) -> List[Span]:
        """Finished spans and roots, in end order."""
        return [_span(*record) for record in self._records]

    def run_spans(self, run_id: str) -> List[Span]:
        return [
            _span(*record) for record in self._records
            if record[0].run_id == run_id
        ]

    def run_aggregates(self, run_id: str) -> Dict[str, List[float]]:
        """Target name -> [calls, total, self] summed over one run."""
        ids = {s.span_id for s in self.run_spans(run_id)}
        out: Dict[str, List[float]] = {}
        for (span_id, name), (calls, total, self_s) in self.aggregates.items():
            if span_id in ids:
                acc = out.setdefault(name, [0, 0.0, 0.0])
                acc[0] += calls
                acc[1] += total
                acc[2] += self_s
        return out

    def layer_self(self, run_id: str) -> Dict[str, float]:
        """Layer -> self seconds within one run.  The root's own share is
        keyed ``"unattributed"`` and the tracer's bookkeeping ``"tracer"``;
        together with the layers they sum to the root's wall time."""
        layer_of = {t.qualname: t.layer for t in self.targets}
        out: Dict[str, float] = {"tracer": self.bookkeeping.get(run_id, 0.0)}
        for span in self.run_spans(run_id):
            key = span.layer if span.parent is not None else "unattributed"
            out[key] = out.get(key, 0.0) + span.self_time
        for name, (_, _, self_s) in self.run_aggregates(run_id).items():
            layer = layer_of[name]
            out[layer] = out.get(layer, 0.0) + self_s
        return out

    def write_jsonl(self, path) -> None:
        """Write every span, then every per-parent aggregate, as JSONL."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.as_json()) + "\n")
            for (span_id, name), (calls, total, self_s) in sorted(
                self.aggregates.items()
            ):
                fh.write(
                    json.dumps(
                        {
                            "aggregate": name,
                            "parent": span_id,
                            "calls": calls,
                            "total": total,
                            "self": self_s,
                        }
                    )
                    + "\n"
                )


class _Root:
    def __init__(self, tracer: Tracer, name: str, run_id: str):
        self.tracer = tracer
        self.name = name
        self.run_id = run_id

    def __enter__(self) -> "_Root":
        tracer = self.tracer
        if tracer._stack():
            raise RuntimeError("a root cannot nest inside a traced frame")
        self._frame = tracer._push(None, self.name, "root", run_id=self.run_id)
        tracer._root_stack = tracer._stack()
        return self

    def __exit__(self, *exc) -> None:
        tracer = self.tracer
        tracer._pop(self._frame)
        tracer._root_stack = None


def _span(frame: _Frame, end: float, thread: int, result: Any) -> Span:
    target = frame.target
    attrs: Dict[str, Any] = {}
    if target is not None and target.attrs is not None:
        try:
            attrs = target.attrs(result)
        except Exception:  # noqa: BLE001 - a changed result type
            attrs = {}
    parent = frame.span_parent
    return Span(
        span_id=frame.span_id,
        name=frame.name,
        layer=frame.layer,
        start=frame.start,
        end=end,
        parent=None if parent is None else parent.span_id,
        run_id=frame.run_id,
        thread=thread,
        self_time=frame.self_time,
        attrs=attrs,
    )


# ---------------------------------------------------------------------- #
# symbol resolution and rebinding


def _resolve(target: Target) -> Any:
    obj: Any = importlib.import_module(target.module)
    parts = target.qualname.split(".")
    for part in parts[:-1]:
        obj = getattr(obj, part)
    if isinstance(obj, type):
        return vars(obj)[parts[-1]]  # the function itself, not a bound view
    return getattr(obj, parts[-1])


def _repro_modules() -> List[Any]:
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
    ]


def _references(original: Any, include_wrapped: bool = False):
    """Every (owner, name) in loaded repro modules and their classes bound to
    ``original`` (or, with ``include_wrapped``, to a wrapper of it)."""

    def matches(value: Any) -> bool:
        if value is original:
            return True
        return include_wrapped and getattr(value, "__wrapped__", None) is original

    seen_classes = set()
    found = []
    for module in _repro_modules():
        namespace = vars(module)
        for key, value in list(namespace.items()):
            if matches(value):
                found.append((module, key))
            if isinstance(value, type) and id(value) not in seen_classes:
                seen_classes.add(id(value))
                if not value.__module__.startswith("repro"):
                    continue
                for attr, member in list(vars(value).items()):
                    if matches(member):
                        found.append((value, attr))
    return found


def _lookup(owner: Any, key: str) -> Any:
    if isinstance(owner, type):
        return vars(owner)[key]
    return getattr(owner, key)


# ---------------------------------------------------------------------- #
# order statistics


def percentile(samples: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile of ``samples`` (0 when there are none)."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = max(int(-(-pct * len(ordered) // 100)), 1)  # ceil
    return ordered[min(rank, len(ordered)) - 1]


#: Candidate tail percentiles, highest first.
_TAILS = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def tail(samples: Sequence[float]) -> Tuple[Optional[float], float]:
    """The highest percentile with at least ten samples beyond it, and its
    value; ``(None, max)`` when there are too few samples for any."""
    n = len(samples)
    for pct in _TAILS:
        if n * (100.0 - pct) / 100.0 >= 10:
            return pct, percentile(samples, pct)
    return None, (max(samples) if samples else 0.0)
