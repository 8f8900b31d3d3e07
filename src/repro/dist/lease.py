"""Lease table: exactly-one-commit bookkeeping for distributed dispatch.

A task is one run of interval pieces (:func:`repro.core.scheduling.coalesce`),
keyed by its first piece's ``(event, lo, hi)`` triple — runs are disjoint,
so the first piece names the run.  Each task moves through::

    pending ──dispatch──▶ leased ──ack──▶ committed
       ▲                    │ │
       └──expiry / worker───┘ └──task error──▶ dropped
          death (re-dispatch)

A lease carries its holder, an expiry deadline extended by heartbeats,
and an attempt counter.  A task error from the lease's holder drops the
lease for good: the coordinator records the failure, and the run is
never leased again.  Because Theorem-2 interval tasks are idempotent,
re-dispatching an expired lease is always safe — the only invariant the
table must enforce is **exactly one commit per task**: the first
acknowledgement wins and is journaled; a duplicate (the original worker
was merely slow, and its ack raced the re-dispatched copy's) is counted
and dropped.

The pending queue is an ordered dict, so membership, removal and
re-queueing at the front cost O(1) whatever the task count: an ack's key,
rebuilt from the wire, is never the queued object itself, and a list scan
would compare it against every pending key under the coordinator's lock.

The table itself is not synchronized; the coordinator serializes access
through its condition-variable lock, which it also uses to wake the
dispatch loop whenever the table changes.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.resilience.checkpoint import TaskKey

__all__ = ["Lease", "LeaseTable"]


@dataclass
class Lease:
    """One outstanding task lease."""

    key: TaskKey
    worker: str
    expires_at: float
    attempt: int
    #: Summed size bound of the run, for largest-first re-dispatch ordering.
    weight: int = 0


@dataclass
class LeaseTable:
    """Tracks every task's lease state for one distributed run.

    ``lease_seconds`` is the acknowledgement deadline; a heartbeat extends
    the leases its worker names by the same amount, so a *live* worker
    chewing on a giant run keeps its lease while a killed/hung/partitioned
    one loses it after at most ``lease_seconds``.
    """

    lease_seconds: float = 5.0
    clock: Callable[[], float] = time.monotonic
    #: pending keys in dispatch order (schedule order, re-dispatches first)
    _queue: "OrderedDict[TaskKey, None]" = field(
        default_factory=OrderedDict, repr=False
    )
    leased: Dict[TaskKey, Lease] = field(default_factory=dict)
    #: the first acknowledgement's payload per task (a run's stats)
    committed: Dict[TaskKey, Any] = field(default_factory=dict)
    #: per-key attempt counters (monotone across re-dispatches)
    attempts: Dict[TaskKey, int] = field(default_factory=dict)
    #: per-key workers already tried, to prefer a different host on retry
    tried: Dict[TaskKey, Set[str]] = field(default_factory=dict)
    weights: Dict[TaskKey, int] = field(default_factory=dict)
    # robustness counters, drained into ParaMountResult / obs
    leases_expired: int = 0
    redispatches: int = 0
    duplicate_acks: int = 0

    # ------------------------------------------------------------------ #
    # setup

    @property
    def pending(self) -> List[TaskKey]:
        """Pending keys in dispatch order (a snapshot)."""
        return list(self._queue)

    def add_tasks(
        self, keys: Sequence[TaskKey], weights: Optional[Sequence[int]] = None
    ) -> None:
        """Register the distributed run's tasks (in dispatch order)."""
        for i, key in enumerate(keys):
            self._queue[key] = None
            self.attempts.setdefault(key, 0)
            if weights is not None:
                self.weights[key] = weights[i]

    # ------------------------------------------------------------------ #
    # dispatch / heartbeat / expiry

    def next_for(self, worker: str) -> Optional[Tuple[TaskKey, int]]:
        """Lease the next pending task to ``worker``.

        Prefers a task this worker has not already failed — when every
        pending task was tried by ``worker``, takes the head anyway (with
        one surviving worker there is nobody else to give it to).
        Returns ``(key, attempt)`` or ``None`` when nothing is pending.
        """
        if not self._queue:
            return None
        pick = None
        for key in self._queue:
            if worker not in self.tried.get(key, ()):
                pick = key
                break
        if pick is None:
            pick = next(iter(self._queue))
        del self._queue[pick]
        attempt = self.attempts[pick]
        self.attempts[pick] = attempt + 1
        self.tried.setdefault(pick, set()).add(worker)
        self.leased[pick] = Lease(
            key=pick,
            worker=worker,
            expires_at=self.clock() + self.lease_seconds,
            attempt=attempt,
            weight=self.weights.get(pick, 0),
        )
        return pick, attempt

    def heartbeat(self, worker: str, keys: Sequence[TaskKey] = ()) -> int:
        """Extend ``worker``'s leases on ``keys``; return how many were
        extended.

        ``keys`` names the tasks the worker reports it is *actively*
        working on — only those leases are extended.  A lease the worker
        no longer claims (it finished the task but its acknowledgement
        was dropped by a one-way partition) must keep aging toward
        expiry, or the heartbeat would pin the orphaned lease alive
        forever and the task would never be re-dispatched.
        """
        deadline = self.clock() + self.lease_seconds
        n = 0
        for key in set(keys):
            lease = self.leased.get(key)
            if lease is not None and lease.worker == worker:
                lease.expires_at = deadline
                n += 1
        return n

    def expire(self) -> List[Lease]:
        """Return expired leases to the pending pool (front of the queue,
        largest first, so recovered stragglers restart immediately)."""
        now = self.clock()
        expired = [le for le in self.leased.values() if le.expires_at <= now]
        self._reclaim(expired)
        self.leases_expired += len(expired)
        self.redispatches += len(expired)
        return expired

    def release_worker(self, worker: str) -> List[Lease]:
        """A worker's connection died: reclaim everything it held."""
        lost = [le for le in self.leased.values() if le.worker == worker]
        self._reclaim(lost)
        self.redispatches += len(lost)
        return lost

    def _reclaim(self, leases: List[Lease]) -> None:
        # Each key goes to the front of the queue, pushing earlier ones
        # back, so reclaiming in ascending weight order leaves the
        # heaviest key at the head.
        for lease in sorted(leases, key=lambda le: le.weight):
            del self.leased[lease.key]
            self._queue[lease.key] = None
            self._queue.move_to_end(lease.key, last=False)

    # ------------------------------------------------------------------ #
    # commit

    def commit(self, key: TaskKey, stats: Any) -> bool:
        """Record an acknowledgement; True iff this is the first commit.

        The caller journals the stats *only* on True — that is the
        exactly-one-record-per-piece guarantee.  A duplicate ack (the
        lease expired, the task was re-dispatched, and then the original
        slow worker answered anyway) is counted and dropped; by
        idempotence both copies carry identical stats, so dropping either
        is correct.
        """
        if key in self.committed:
            self.duplicate_acks += 1
            return False
        self.committed[key] = stats
        self.leased.pop(key, None)
        self._queue.pop(key, None)  # ack raced its own expiry re-queue
        return True

    # ------------------------------------------------------------------ #
    # queries

    @property
    def done(self) -> bool:
        return not self._queue and not self.leased

    def next_deadline(self) -> Optional[float]:
        """Earliest lease expiry (the dispatch loop's wait bound)."""
        if not self.leased:
            return None
        return min(le.expires_at for le in self.leased.values())

    def outstanding(self) -> List[TaskKey]:
        """Every task not yet committed (pending + leased)."""
        return list(self._queue) + list(self.leased)
