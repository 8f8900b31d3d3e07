"""JSON (de)serialization of execution traces.

Traces are the hand-off artifact between observation and analysis: capture
once, then replay through any detector or front-end — including from the
command line (:mod:`repro.tools`).  The format is one JSON object with the
operation list; values are intentionally restricted to what detectors need
(operation kind, thread, object, target, init flag), not the program's
data values.

The reader is where a trace file enters the program, so it admits only a
trace that models a computation (Chauhan–Garg, arXiv:1410.1209), and
raises :class:`~repro.errors.ReproError` naming the first op that breaks
one of these:

* each op on its own: the required fields and their types, a thread id
  and fork/join target in range, a known kind, a variable or lock name
  for the ops that need one, and a sequence number greater than the
  previous op's;
* ``[lock-discipline]``: an ``acquire``, or a ``wait`` re-acquisition,
  of a lock some thread holds; a ``release`` or ``notify`` of a lock the
  thread does not hold; a ``thread_end`` while the thread holds a lock;
* ``[lifecycle]``: an op before its thread's ``thread_start`` or after
  its ``thread_end``, a second ``thread_start``, a ``fork`` of a started
  thread, a ``join`` of a thread that has not ended.

The happened-before front ends read lock atomicity and fork/join straight
off these ops (paper §4.1), so a broken rule would turn into false race
verdicts downstream.  The :class:`~repro.runtime.scheduler.Scheduler`
refuses the same ops in the programs it runs, before emitting them.  An
unknown *format version* is refused as well: the reader cannot know what
its fields mean.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Optional, Set, Union

from repro.errors import ReproError
from repro.runtime.trace import ACCESS_KINDS, SYNC_KINDS, Trace, TraceOp

__all__ = ["trace_to_dict", "trace_from_dict", "save_trace", "load_trace"]

_FORMAT_VERSION = 1
_KNOWN_KINDS = SYNC_KINDS | ACCESS_KINDS
#: Kinds whose ``obj`` names a variable or a lock.
_NAMED_KINDS = ACCESS_KINDS | {"acquire", "release", "wait", "notify"}


def trace_to_dict(trace: Trace) -> Dict[str, Any]:
    """Serialize a trace to a JSON-compatible dictionary."""
    return {
        "version": _FORMAT_VERSION,
        "program_name": trace.program_name,
        "num_threads": trace.num_threads,
        "base_seconds": trace.base_seconds,
        "ops": [
            {
                "seq": op.seq,
                "tid": op.tid,
                "kind": op.kind,
                "obj": op.obj,
                "target": op.target,
                "is_init": op.is_init,
            }
            for op in trace.ops
        ],
    }


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _check_op(rec: Any, num_threads: int, prev_seq: int) -> Optional[str]:
    """Reason the record is malformed, or ``None`` when it is healthy."""
    if not isinstance(rec, dict):
        return f"operation record is {type(rec).__name__}, expected an object"
    for req in ("seq", "tid", "kind"):
        if req not in rec:
            return f"missing required field {req!r}"
    if not _is_int(rec["seq"]):
        return f"seq must be an integer, got {rec['seq']!r}"
    if not _is_int(rec["tid"]):
        return f"tid must be an integer, got {rec['tid']!r}"
    if not 0 <= rec["tid"] < num_threads:
        return (
            f"tid {rec['tid']} out of range for a "
            f"{num_threads}-thread trace"
        )
    if rec["kind"] not in _KNOWN_KINDS:
        return f"unknown operation kind {rec['kind']!r}"
    if rec["kind"] in _NAMED_KINDS and not isinstance(rec.get("obj"), str):
        return f"{rec['kind']} obj must name a variable or lock, got {rec.get('obj')!r}"
    if rec["kind"] in ("fork", "join"):
        target = rec.get("target")
        if not (_is_int(target) and 0 <= target < num_threads):
            return (
                f"{rec['kind']} target {target!r} is not a thread of a "
                f"{num_threads}-thread trace"
            )
    if rec["seq"] <= prev_seq:
        return (
            f"sequence number {rec['seq']} is not greater than the "
            f"previous op's {prev_seq} — the observed total order is broken"
        )
    return None


class _Stream:
    """The lock holders and thread lifetimes of the ops read so far."""

    def __init__(self) -> None:
        self.owner: Dict[str, int] = {}
        self.started: Set[int] = set()
        self.ended: Set[int] = set()

    def step(self, op: TraceOp) -> Optional[str]:
        """Take ``op``; the ``[rule]``-tagged reason it cannot follow the
        ops before it, or ``None``."""
        tid, kind, lock = op.tid, op.kind, op.obj
        if tid in self.ended:
            return f"[lifecycle] thread {tid} {kind} after its thread_end"
        if kind == "thread_start":
            if tid in self.started:
                return f"[lifecycle] thread {tid} started twice"
            self.started.add(tid)
            return None
        if tid not in self.started:
            return f"[lifecycle] thread {tid} {kind} before its thread_start"
        if kind == "acquire" or kind == "wait":
            # a wait record is the monitor re-acquisition; its release was
            # recorded when the thread suspended
            owner = self.owner.get(lock)
            if owner is not None:
                return (
                    f"[lock-discipline] thread {tid} {kind} of lock "
                    f"{lock!r} held by thread {owner}"
                )
            self.owner[lock] = tid
        elif kind == "release" or kind == "notify":
            if self.owner.get(lock) != tid:
                return (
                    f"[lock-discipline] thread {tid} {kind} of lock "
                    f"{lock!r}, which it does not hold"
                )
            if kind == "release":
                del self.owner[lock]
        elif kind == "thread_end":
            held = sorted(name for name, owner in self.owner.items() if owner == tid)
            if held:
                return f"[lock-discipline] thread {tid} ends holding {held}"
            self.ended.add(tid)
        elif kind == "fork":
            if op.target in self.started:
                return f"[lifecycle] thread {tid} forks started thread {op.target}"
        elif kind == "join":
            if op.target not in self.ended:
                return (
                    f"[lifecycle] thread {tid} joins thread {op.target}, "
                    f"which has not ended"
                )
        return None


def trace_from_dict(data: Dict[str, Any]) -> Trace:
    """Deserialize a trace from :func:`trace_to_dict`'s format, refusing
    the first op that breaks a rule of this module."""
    if not isinstance(data, dict):
        raise ReproError(f"a trace is a JSON object, not {type(data).__name__}")
    version = data.get("version")
    if version != _FORMAT_VERSION:
        raise ReproError(
            f"unsupported trace format version {version!r}: this reader "
            f"understands version {_FORMAT_VERSION} only — re-capture the "
            f"trace or convert it before replaying"
        )
    num_threads = data.get("num_threads")
    if not (
        isinstance(data.get("program_name"), str)
        and _is_int(num_threads)
        and num_threads > 0
        and isinstance(data.get("ops"), list)
    ):
        raise ReproError(
            "a trace needs program_name (a string), num_threads (a positive "
            "integer) and ops (a list)"
        )
    ops = []
    stream = _Stream()
    prev_seq = -1
    for index, rec in enumerate(data["ops"]):
        reason = _check_op(rec, num_threads, prev_seq)
        if reason is None:
            op = TraceOp(
                seq=rec["seq"],
                tid=rec["tid"],
                kind=rec["kind"],
                obj=rec.get("obj"),
                target=rec.get("target"),
                is_init=rec.get("is_init", False),
            )
            reason = stream.step(op)
        if reason is not None:
            raise ReproError(f"malformed trace op #{index}: {reason}")
        prev_seq = op.seq
        ops.append(op)
    return Trace(
        program_name=data["program_name"],
        num_threads=num_threads,
        base_seconds=data.get("base_seconds", 0.0),
        ops=ops,
    )


def save_trace(trace: Trace, path: Union[str, Path]) -> None:
    """Write a trace to ``path`` as JSON."""
    Path(path).write_text(json.dumps(trace_to_dict(trace)))


def load_trace(path: Union[str, Path]) -> Trace:
    """Load a trace previously written by :func:`save_trace`."""
    return trace_from_dict(json.loads(Path(path).read_text()))
