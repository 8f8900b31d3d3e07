"""Interval checkpoint journal: crash-survivable enumeration progress.

Theorem 2 partitions the lattice into per-event intervals enumerated
independently, so enumeration progress is exactly the set of finished
intervals.  The executors dispatch *runs* — consecutive pieces (intervals
or split sub-intervals) grouped by :func:`repro.core.scheduling.coalesce`
— and a run's records are written together when it finishes, so a run
killed mid-way loses nothing but its in-flight runs, none larger than the
plan's largest piece.  The journal is an append-only JSON-lines file:

* line 1 — a header binding the journal to a poset **digest** (SHA-256 of
  the canonical serialized poset), the subroutine name, and the event
  count;
* each further line — one completed piece's ``(event, lo, hi, states,
  work, peak_live)`` record; a finished run's records go out in one write
  and flush, on an append handle the journal keeps open for the whole run.

On resume the driver recomputes the partition, replays the journal, and
re-enumerates only the unfinished pieces.  Three identity checks
make resumption provably safe rather than hopeful: the digest must match
(same poset); the header's **schedule descriptor** must match (adaptive
scheduling may split an interval into sub-tasks, and records of one split
shape cannot safely seed a run with another); and every journaled record's
``(event, lo, hi)`` must equal one of the recomputed task triples (same
total order ``→p`` and same split) — given all three, Theorem-2
disjointness guarantees the resumed total is identical to an uninterrupted
run.  Records are therefore keyed by the full ``(event, lo, hi)`` triple,
so each sub-task of a split interval keeps its own checkpoint/retry
identity.  How pieces were grouped into runs is not part of that identity:
a resumed run regroups whatever is pending.  Journals written before the
schedule field existed carry no descriptor and are read as ``"unsplit"``.
A torn tail (the crash happened mid-write, possibly mid-run) is detected,
discarded, and cut off the file before the resumed run appends to it.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from pathlib import Path
from typing import IO, Dict, Optional, Sequence, Tuple, Union

try:  # POSIX only; on other platforms the in-process lock still applies
    import fcntl
except ImportError:  # pragma: no cover
    fcntl = None  # type: ignore[assignment]

from repro.core.intervals import Interval
from repro.core.metrics import IntervalStats
from repro.errors import CheckpointError
from repro.obs.observer import Observer, ensure_observer
from repro.poset.io import poset_to_dict
from repro.poset.poset import Poset
from repro.types import Cut, EventId

__all__ = ["CheckpointJournal", "TaskKey", "poset_digest"]

#: Checkpoint identity of one enumeration task: a split interval's
#: sub-tasks share the event but differ in bounds.
TaskKey = Tuple[EventId, Cut, Cut]

_JOURNAL_VERSION = 1


def _record_line(stats: IntervalStats) -> str:
    """One piece's journal line: the bytes ``json.dumps`` writes for the
    record dict (integer tuples and a float), formatted directly, at about
    half its cost."""
    return (
        f'{{"kind": "interval", "event": {list(stats.event)}, '
        f'"lo": {list(stats.lo)}, "hi": {list(stats.hi)}, '
        f'"states": {stats.states}, "work": {stats.work}, '
        f'"peak_live": {stats.peak_live}, "seconds": {stats.seconds!r}}}\n'
    )


def poset_digest(poset: Poset) -> str:
    """SHA-256 digest of the canonical JSON serialization of a poset.

    Stable across processes and Python versions; two posets share a digest
    iff they serialize identically (same chains, clocks, and insertion
    order), which is what makes a journal safely resumable.  It is
    computed once per :class:`Poset`, on first use, and kept in the poset
    (which is immutable, and pickles it along); never at admission, where
    it would cost about as much as building the poset.  So a journaled
    run, its resume and a dist coordinator on one poset serialize it once
    between them.
    """
    if poset._digest is None:
        canonical = json.dumps(
            poset_to_dict(poset), sort_keys=True, separators=(",", ":")
        )
        poset._digest = hashlib.sha256(canonical.encode("utf-8")).hexdigest()
    return poset._digest


class CheckpointJournal:
    """Append-only JSON-lines journal of completed pieces.

    Thread-safe: runs finishing on a thread executor (or the distributed
    coordinator's acknowledgement threads) append concurrently through one
    internal lock.  Each :meth:`record` call writes one run's records in
    one write, flushed before the call returns, so a kill after the flush
    never loses that run.  The append handle opens on the first write and
    stays open until :meth:`close`, which the driver calls when its run
    ends.  The journal holds no observer: each writer passes its run's to
    :meth:`record`, so one journal serves successive runs (a killed run
    and its resume) and each run's trace holds only its own writes.
    """

    def __init__(self, path: Union[str, Path]):
        self.path = Path(path)
        self._lock = threading.Lock()
        self._fh: Optional[IO[str]] = None

    # ------------------------------------------------------------------ #
    # resume

    def load(
        self,
        digest: str,
        subroutine: str,
        intervals: Optional[Sequence[Interval]] = None,
        schedule: str = "unsplit",
    ) -> Dict[TaskKey, IntervalStats]:
        """Replay the journal; return completed stats keyed by task triple.

        ``intervals`` is the run's *task list* — the scheduled tasks, which
        equal the partition intervals when no splitting happened — and
        ``schedule`` its descriptor (``"unsplit"`` or
        ``"split(budget=…,cap=…)"``).  Creates the journal (writing its
        header) when the file is absent or empty.  Raises
        :class:`~repro.errors.CheckpointError` when the header's digest,
        subroutine, or schedule descriptor does not match, or — when
        ``intervals`` is given — when a record's ``(event, lo, hi)`` is not
        one of the recomputed task triples.
        """
        if not self.path.exists() or self.path.stat().st_size == 0:
            self._write_header(digest, subroutine, intervals, schedule)
            return {}
        lines = self.path.read_text().splitlines(keepends=True)
        header = self._parse_header(lines[0])
        if header["digest"] != digest:
            raise CheckpointError(
                f"checkpoint {self.path} was written for poset digest "
                f"{header['digest'][:12]}…, this run's poset is "
                f"{digest[:12]}… — refusing to resume across posets"
            )
        if header["subroutine"] != subroutine:
            written = header["subroutine"]
            raise CheckpointError(
                f"checkpoint {self.path} was written with subroutine "
                f"{written!r}, this run uses {subroutine!r} — "
                f"per-interval work/memory stats would not be comparable; "
                f"pass subroutine={written!r} (--algorithm {written}) to "
                f"resume it, or start a fresh journal"
            )
        # Journals predating adaptive scheduling have no schedule field and
        # were necessarily written one-task-per-interval.
        journal_schedule = header.get("schedule", "unsplit")
        if journal_schedule != schedule:
            raise CheckpointError(
                f"checkpoint {self.path} was written under schedule "
                f"{journal_schedule!r}, this run plans {schedule!r} — split "
                f"sub-task records only resume under the identical split; "
                f"rerun with the same schedule/worker count or start a "
                f"fresh journal"
            )
        known = (
            {(iv.event, iv.lo, iv.hi) for iv in intervals}
            if intervals is not None
            else None
        )
        events = (
            {iv.event for iv in intervals} if intervals is not None else None
        )
        completed: Dict[TaskKey, IntervalStats] = {}
        torn_at: Optional[int] = None
        intact = len(lines[0].encode())  # bytes up to the last good line
        for lineno, line in enumerate(lines[1:], start=2):
            rec = self._parse_record(line)
            if rec is None or not line.endswith("\n"):
                # Torn line from a mid-write crash.  A crash tears only the
                # *tail* (possibly several lines, when a multi-record buffer
                # was cut short), so torn lines may be discarded — but only
                # if nothing valid follows.  A valid record *after* a torn
                # line means writers interleaved mid-record (the corruption
                # flock prevents), and trusting either side would risk
                # double-counting an interval.
                if torn_at is None:
                    torn_at = lineno
                continue
            if torn_at is not None:
                raise CheckpointError(
                    f"checkpoint {self.path} has a valid record after a "
                    f"torn line {torn_at} — interleaved concurrent writes "
                    f"corrupted the journal; delete it and start fresh"
                )
            event = tuple(rec["event"])
            stats = IntervalStats(
                event=event,
                lo=tuple(rec["lo"]),
                hi=tuple(rec["hi"]),
                states=rec["states"],
                work=rec["work"],
                peak_live=rec["peak_live"],
                seconds=float(rec.get("seconds", 0.0)),
            )
            key = (event, stats.lo, stats.hi)
            if known is not None:
                if events is not None and event not in events:
                    raise CheckpointError(
                        f"checkpoint records interval of unknown event "
                        f"{event} — journal is not from this poset"
                    )
                if key not in known:
                    raise CheckpointError(
                        f"checkpoint bounds for event {event} are "
                        f"[{stats.lo}, {stats.hi}] but no recomputed task "
                        f"has those bounds — the journal used a different "
                        f"total order →p (or a different split)"
                    )
            completed[key] = stats
            intact += len(line.encode())
        if torn_at is not None:
            # Cut the torn tail off, so this run's first append starts a
            # fresh line instead of extending the torn one.
            with self._lock:
                os.truncate(self.path, intact)
        return completed

    # ------------------------------------------------------------------ #
    # record

    def record(
        self, *stats: IntervalStats, observer: Optional[Observer] = None
    ) -> None:
        """Append one finished run's records in one write, flushed before
        returning; an enabled ``observer`` (the writer's run's) gets the
        write as a ``flush`` span and ``checkpoint_records_total``."""
        text = "".join(map(_record_line, stats))
        obs = ensure_observer(observer)
        observe = obs.enabled
        t0 = obs.clock() if observe else 0.0
        with self._lock:
            fh = self._fh
            if fh is None:
                fh = self._fh = self.path.open("a")
            # The thread lock serializes committers in this process; the
            # OS-level lock serializes against *other* processes — the
            # coordinator's acknowledgement threads and any in-process
            # fallback executor commit to the same journal, and an
            # interleaved write would tear two records at once.
            if fcntl is not None:
                fcntl.flock(fh.fileno(), fcntl.LOCK_EX)
            try:
                fh.write(text)
                fh.flush()
            finally:
                if fcntl is not None:
                    fcntl.flock(fh.fileno(), fcntl.LOCK_UN)
        if observe:
            obs.record(
                "flush",
                "checkpoint",
                t0,
                obs.clock() - t0,
                attrs={
                    "event": str(stats[0].event) if stats else "",
                    "records": len(stats),
                    "bytes": len(text),
                },
            )
            obs.counter("checkpoint_records_total").inc(len(stats))

    def close(self) -> None:
        """Close the append handle; the next :meth:`record` reopens it."""
        with self._lock:
            if self._fh is not None:
                self._fh.close()
                self._fh = None

    # ------------------------------------------------------------------ #
    # internals

    def _write_header(
        self,
        digest: str,
        subroutine: str,
        intervals: Optional[Sequence[Interval]],
        schedule: str = "unsplit",
    ) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        header = {
            "kind": "header",
            "version": _JOURNAL_VERSION,
            "digest": digest,
            "subroutine": subroutine,
            "num_intervals": len(intervals) if intervals is not None else None,
            "schedule": schedule,
        }
        self.close()  # a handle on a replaced file would append past it
        with self._lock:
            self.path.write_text(json.dumps(header) + "\n")

    def _parse_header(self, line: str) -> dict:
        try:
            header = json.loads(line)
        except ValueError as exc:
            raise CheckpointError(
                f"checkpoint {self.path} has a malformed header: {exc}"
            ) from exc
        if not isinstance(header, dict) or header.get("kind") != "header":
            raise CheckpointError(
                f"checkpoint {self.path} does not start with a header record"
            )
        if header.get("version") != _JOURNAL_VERSION:
            raise CheckpointError(
                f"checkpoint {self.path} has journal version "
                f"{header.get('version')!r}; this reader understands "
                f"version {_JOURNAL_VERSION}"
            )
        return header

    @staticmethod
    def _parse_record(line: str) -> Optional[dict]:
        try:
            rec = json.loads(line)
            if not isinstance(rec, dict) or rec.get("kind") != "interval":
                return None
            # touch every field so a structurally short record is torn too
            tuple(rec["event"]), tuple(rec["lo"]), tuple(rec["hi"])
            int(rec["states"]), int(rec["work"]), int(rec["peak_live"])
        except (ValueError, KeyError, TypeError):
            return None
        return rec
