"""The coordinator: leases interval descriptors, commits acknowledgements.

One coordinator serves one distributed run.  It binds a listening socket,
accepts worker connections on a background thread, and answers each
worker's pull-based ``request`` messages with leases.  A lease carries one
*run* — the ``(event, lo, hi)`` descriptors of consecutive interval pieces
(:func:`repro.core.scheduling.coalesce`) — and the worker acknowledges the
whole run in one message; the coordinator commits it once (the first ack
wins) and journals its records in one write.  The ack is the worker's
only report: spans, the per-host ``enumeration_seconds`` histogram and
the per-host ``states_enumerated_total`` and
``intervals_enumerated_total`` counters are all fed from the pieces a
first ack commits, so they reconcile with the journal's one record per
piece.  A worker holds the poset before it connects and names its
digest in its hello; a hello with a stale or missing digest is refused
before the worker can hold a lease.  A monitor
loop in the calling thread watches for lease expiry, wall-clock deadline,
and worker exhaustion.  All shared state — the :class:`LeaseTable` and
the connected-worker set — is serialized through one condition variable,
whose notifications double as the monitor loop's wake-ups.

Robustness properties, and where they live:

* **crash** (``kill -9``, ``os._exit``) — the worker's socket dies; its
  reader thread reclaims every lease it held (``release_worker``) for
  immediate re-dispatch;
* **hang** — no acknowledgement and no heartbeat, so the lease expires
  after ``lease_seconds`` and :meth:`LeaseTable.expire` re-queues it;
* **partition** (dropped ack) — same as a hang from the coordinator's
  viewpoint: lease expiry recovers it, and if the original ack limps in
  later, :meth:`LeaseTable.commit` drops the duplicate so the journal
  still holds exactly one record per piece;
* **stale digest** — the hello, every lease and every acknowledgement
  carry the poset digest; a stale hello is refused before its worker
  holds a lease, and a stale ack is counted, refused, and the worker
  disconnected before it can corrupt the commit log;
* **a task raises** — the worker sends one ``task-error`` naming the run
  and the error as text.  The run's outcome depends only on the poset,
  subroutine, memory budget and bounds, so every worker would raise the
  same error: the lease's holder's report is final, the run is recorded
  in :attr:`Coordinator.failures` and never re-leased, and a report from
  a worker that no longer holds the lease is ignored;
* **no workers left** — the monitor loop notices an empty worker set with
  work outstanding and stops; the
  :class:`~repro.dist.executor.DistributedExecutor` then runs in-process
  every run that did not commit, recording the step as a degradation.
"""

from __future__ import annotations

import json
import socket
import threading
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.metrics import IntervalStats
from repro.dist.wire import (
    ConnectionClosedError,
    recv_message,
    send_message,
)
from repro.errors import WireError
from repro.obs import ensure_observer
from repro.poset.poset import Poset
from repro.resilience.checkpoint import CheckpointJournal, TaskKey, poset_digest

__all__ = ["Coordinator"]

#: Monitor-loop tick when no lease deadline is nearer (seconds).
_TICK = 0.25


def _key_wire(key: TaskKey) -> Dict[str, Any]:
    return {"event": list(key[0]), "lo": list(key[1]), "hi": list(key[2])}


def _key_from_wire(obj: Dict[str, Any]) -> TaskKey:
    return (tuple(obj["event"]), tuple(obj["lo"]), tuple(obj["hi"]))


def _run_from_wire(msg: Dict[str, Any]) -> List[TaskKey]:
    tasks = msg.get("tasks")
    if not isinstance(tasks, list) or not tasks:
        raise WireError(f"{msg.get('type')} names no run: {tasks!r}")
    return [_key_from_wire(t) for t in tasks]


def _shutdown_and_close(sock: socket.socket) -> None:
    """Close ``sock`` so that every holder notices at once.

    ``shutdown`` acts on the socket itself rather than on this process's
    descriptor: it wakes a thread blocked in ``accept``/``recv`` on it,
    and the peer sees end-of-stream even while a forked local worker
    still holds an inherited copy of the descriptor.
    """
    try:
        sock.shutdown(socket.SHUT_RDWR)
    except OSError:
        pass  # never connected, or already shut down
    try:
        sock.close()
    except OSError:
        pass


class Coordinator:
    """Coordinates one distributed enumeration run.

    Usage::

        coord = Coordinator(poset, "lexical-packed", journal=journal)
        coord.start()                      # binds; coord.address is live
        ...spawn/point workers at coord.address...
        committed = coord.execute(runs, weights)
        coord.stop()

    ``runs`` lists each task's piece descriptors; a task is keyed by its
    first piece.  ``journal`` (optional) is the commit log: the first
    acknowledgement of each run is recorded through it, one record per
    piece in one write, under its process-level file lock, before the run
    is considered done.
    """

    def __init__(
        self,
        poset: Poset,
        subroutine: str,
        memory_budget: Optional[int] = None,
        journal: Optional[CheckpointJournal] = None,
        observer=None,
        host: str = "127.0.0.1",
        port: int = 0,
        lease_seconds: float = 5.0,
        no_worker_grace: float = 10.0,
        http_port: Optional[int] = None,
    ):
        self.subroutine = subroutine
        self.memory_budget = memory_budget
        self.journal = journal
        self.observer = ensure_observer(observer)
        self.digest = poset_digest(poset)
        self.lease_seconds = lease_seconds
        self.no_worker_grace = no_worker_grace
        self._host = host
        self._port = port
        self._listener: Optional[socket.socket] = None
        self._accept_thread: Optional[threading.Thread] = None
        self._reader_threads: List[threading.Thread] = []
        self._cond = threading.Condition()
        # guarded by _cond:
        from repro.dist.lease import LeaseTable

        self.table = LeaseTable(lease_seconds=lease_seconds)
        #: run key (its first piece) -> the run's piece descriptors
        self._runs: Dict[TaskKey, List[TaskKey]] = {}
        self._workers: Dict[str, socket.socket] = {}
        self._draining = False
        self._closing = False
        #: set once ``execute`` has registered the task list; earlier
        #: lease requests wait for it instead of being drained
        self._executing = False
        self._ever_connected = False
        self._last_worker_at = time.monotonic()
        #: runs that raised on a worker: key -> (attempts, error, worker)
        self.failures: Dict[TaskKey, Tuple[int, str, str]] = {}
        #: hosts that committed at least one run
        self.hosts: List[str] = []
        #: ``None`` disables the ops endpoint; ``0`` picks a free port.
        self._http_port = http_port
        #: The mounted :class:`~repro.obs.http.OpsEndpoint`, if any.
        self.ops = None

    # ------------------------------------------------------------------ #
    # lifecycle

    @property
    def address(self) -> Tuple[str, int]:
        assert self._listener is not None, "coordinator not started"
        return self._listener.getsockname()[:2]

    def start(self) -> "Coordinator":
        """Bind, listen, and start accepting workers."""
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((self._host, self._port))
        self._listener.listen(16)
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="dist-accept", daemon=True
        )
        self._accept_thread.start()
        if self._http_port is not None:
            from repro.obs.http import OpsEndpoint

            self.ops = OpsEndpoint(
                self.observer,
                port=self._http_port,
                progress_provider=self._progress_doc,
                health_provider=self._health_doc,
            ).start()
        return self

    def stop(self) -> None:
        """Close the listener and every worker connection."""
        if self.ops is not None:
            self.ops.close()
            self.ops = None
        with self._cond:
            self._closing = True
            self._cond.notify_all()
        if self._listener is not None:
            # close() alone does not wake the thread blocked in accept()
            _shutdown_and_close(self._listener)
        with self._cond:
            conns = list(self._workers.values())
        for conn in conns:
            try:
                send_message(conn, {"type": "shutdown"})
            except (WireError, ConnectionClosedError, OSError):
                pass
            _shutdown_and_close(conn)
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=2.0)
        for t in self._reader_threads:
            t.join(timeout=2.0)

    # ------------------------------------------------------------------ #
    # the run

    def execute(
        self,
        runs: Sequence[Sequence[TaskKey]],
        weights: Optional[Sequence[int]] = None,
        deadline_at: Optional[float] = None,
    ) -> Dict[TaskKey, List[IntervalStats]]:
        """Run the runs to completion (or deadline / worker loss).

        Each run is a list of piece descriptors, keyed by its first.
        Returns the per-piece stats of every run that committed; a run
        that raised on a worker is in :attr:`failures`, and the
        executor's in-process fallback runs every run not committed.
        """
        obs = self.observer
        with self._cond:
            for run in runs:
                self._runs[run[0]] = list(run)
            self.table.add_tasks([run[0] for run in runs], weights)
            self._executing = True
            self._cond.notify_all()
            self._last_worker_at = time.monotonic()
            while True:
                if self._closing or self.table.done:
                    break
                now = time.monotonic()
                if deadline_at is not None and now >= deadline_at:
                    if not self._draining:
                        self._draining = True
                        if obs.enabled:
                            obs.instant("deadline", "dist")
                        # grace: let in-flight leases finish or expire once
                        deadline_at = now + self.lease_seconds
                        continue
                    break  # drain grace elapsed; abandon what's left
                expired = self.table.expire()
                if expired and obs.enabled:
                    obs.counter("leases_expired_total").inc(len(expired))
                    obs.counter("redispatches_total").inc(len(expired))
                    for lease in expired:
                        obs.instant(
                            "lease-expired",
                            "dist",
                            worker=lease.worker,
                            event=str(lease.key[0]),
                            attempt=lease.attempt,
                        )
                if obs.enabled:
                    self._publish_lease_gauges()
                if self._workers:
                    self._last_worker_at = now
                elif (
                    not self.table.done
                    and now - self._last_worker_at > self.no_worker_grace
                ):
                    break  # nobody left to run the rest; degrade locally
                timeout = _TICK
                next_expiry = self.table.next_deadline()
                if next_expiry is not None:
                    timeout = min(timeout, max(next_expiry - now, 0.01))
                if deadline_at is not None:
                    timeout = min(timeout, max(deadline_at - now, 0.01))
                self._cond.wait(timeout)
            return dict(self.table.committed)

    def _publish_lease_gauges(self) -> None:
        """Refresh the live lease-table gauges and trace counter tracks.

        Called with ``_cond`` held, once per monitor tick (~4 Hz), so the
        counter samples stay bounded regardless of task count.
        """
        obs = self.observer
        pending = len(self.table.pending)
        leased = len(self.table.leased)
        obs.gauge("leases_pending").set(pending)
        obs.gauge("leases_leased").set(leased)
        obs.gauge("leases_committed").set(len(self.table.committed))
        obs.gauge("dist_workers_connected").set(len(self._workers))
        obs.counter_sample("leases_pending", pending)
        obs.counter_sample("leases_leased", leased)

    # ------------------------------------------------------------------ #
    # ops endpoint providers

    def _progress_doc(self) -> Dict[str, Any]:
        snapshot = self.observer.snapshot()
        with self._cond:
            per_worker: Dict[str, int] = {}
            for lease in self.table.leased.values():
                per_worker[lease.worker] = per_worker.get(lease.worker, 0) + 1
            doc: Dict[str, Any] = {
                "pending": len(self.table.pending),
                "leased": len(self.table.leased),
                "committed": len(self.table.committed),
                "failed": len(self.failures),
                "workers": sorted(self._workers),
                "per_worker_leases": per_worker,
                "draining": self._draining,
            }
        doc["rates"] = snapshot.get("rates", {})
        counters = snapshot.get("counters", {})
        doc["states"] = counters.get("states_enumerated_total", 0)
        return doc

    def _health_doc(self) -> Dict[str, Any]:
        with self._cond:
            workers = len(self._workers)
            outstanding = len(self.table.outstanding())
            degraded = (
                workers == 0 and outstanding > 0 and self._ever_connected
            )
            return {
                "status": "degraded" if degraded else "ok",
                "workers": workers,
                "outstanding": outstanding,
                "draining": self._draining,
            }

    # ------------------------------------------------------------------ #
    # accept / reader threads

    def _accept_loop(self) -> None:
        assert self._listener is not None
        while True:
            try:
                conn, _ = self._listener.accept()
            except OSError:
                return  # listener closed
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            t = threading.Thread(
                target=self._serve_worker,
                args=(conn,),
                name="dist-reader",
                daemon=True,
            )
            t.start()
            self._reader_threads.append(t)

    def _serve_worker(self, conn: socket.socket) -> None:
        name = "?"
        try:
            hello = recv_message(conn)
            if hello.get("type") != "hello":
                raise WireError(f"expected hello, got {hello.get('type')!r}")
            name = str(hello.get("name") or f"worker-{hello.get('pid')}")
            worker_digest = hello.get("digest")
            if worker_digest != self.digest:
                # a worker must hold this run's poset: refuse a stale or
                # missing digest before it can hold a single lease
                send_message(
                    conn,
                    {
                        "type": "reject",
                        "reason": "stale-digest" if worker_digest else "no-digest",
                        "expected": self.digest,
                        "actual": worker_digest,
                    },
                )
                conn.close()
                if self.observer.enabled:
                    self.observer.counter("stale_workers_total").inc()
                return
            welcome: Dict[str, Any] = {
                "type": "welcome",
                "digest": self.digest,
                "subroutine": self.subroutine,
                "memory_budget": self.memory_budget,
                "lease_seconds": self.lease_seconds,
            }
            send_message(conn, welcome)
            with self._cond:
                self._workers[name] = conn
                self._ever_connected = True
                self._cond.notify_all()
            if self.observer.enabled:
                self.observer.instant("worker-join", "dist", worker=name)
            self._reader_loop(conn, name)
        except (ConnectionClosedError, WireError, OSError, json.JSONDecodeError):
            pass
        finally:
            self._drop_worker(name, conn)

    def _reader_loop(self, conn: socket.socket, name: str) -> None:
        while True:
            msg = recv_message(conn)
            mtype = msg.get("type")
            if mtype == "request":
                self._handle_request(conn, name)
            elif mtype == "ack":
                self._handle_ack(conn, name, msg)
            elif mtype == "heartbeat":
                keys = [_key_from_wire(t) for t in msg.get("tasks") or []]
                with self._cond:
                    self.table.heartbeat(name, keys)
                    self._cond.notify_all()
            elif mtype == "task-error":
                self._handle_task_error(name, msg)
            elif mtype == "bye":
                return
            else:
                raise WireError(f"unexpected message type {mtype!r}")

    def _handle_request(self, conn: socket.socket, name: str) -> None:
        with self._cond:
            while not (self._executing or self._closing):
                self._cond.wait()
            if self._closing or self._draining or self.table.done:
                reply: Dict[str, Any] = {"type": "drain"}
            else:
                leased = self.table.next_for(name)
                if leased is None:
                    reply = {"type": "idle", "seconds": 0.05}
                else:
                    key, attempt = leased
                    reply = {
                        "type": "lease",
                        "tasks": [_key_wire(k) for k in self._runs[key]],
                        "attempt": attempt,
                        "digest": self.digest,
                    }
            self._cond.notify_all()
        send_message(conn, reply)

    def _handle_ack(
        self, conn: socket.socket, name: str, msg: Dict[str, Any]
    ) -> None:
        obs = self.observer
        if msg.get("digest") != self.digest:
            # a worker that changed posets underneath us must never commit
            if obs.enabled:
                obs.counter("stale_acks_total").inc()
            raise WireError(
                f"stale digest in ack from {name}: "
                f"{str(msg.get('digest'))[:12]}…"
            )
        keys = _run_from_wire(msg)
        key = keys[0]
        results = msg.get("results")
        if self._runs.get(key) != keys or not (
            isinstance(results, list) and len(results) == len(keys)
        ):
            raise WireError(f"ack from {name} does not match a leased run")
        run_stats = [
            IntervalStats(
                event=k[0],
                lo=k[1],
                hi=k[2],
                states=int(r["states"]),
                work=int(r["work"]),
                peak_live=int(r["peak_live"]),
                seconds=float(r.get("seconds", 0.0)),
            )
            for k, r in zip(keys, results)
        ]
        with self._cond:
            first = self.table.commit(key, run_stats)
            if first and name not in self.hosts:
                self.hosts.append(name)
            self._cond.notify_all()
        if not first:
            if obs.enabled:
                obs.counter("duplicate_acks_total").inc()
            return
        # journal outside the condition lock: commit() already decided
        # uniqueness, and the journal has its own thread + file locks
        if self.journal is not None:
            self.journal.record(*run_stats, observer=obs)
        if obs.enabled:
            host = {"host": name}
            obs.counter("states_enumerated_total", labels=host).inc(
                sum(stats.states for stats in run_stats)
            )
            obs.counter("intervals_enumerated_total", labels=host).inc(
                len(run_stats)
            )
        attempt = int(msg.get("attempt", 0))
        for stats, r in zip(run_stats, results):
            if obs.enabled:
                obs.record_epoch(
                    f"I({stats.event})",
                    "enumerate",
                    float(r.get("epoch_t0", 0.0)),
                    stats.seconds,
                    worker=name,
                    attrs={
                        "event": str(stats.event),
                        "states": stats.states,
                        "attempt": attempt,
                    },
                )
                # One labeled observation per *committed* piece, so the
                # per-host histogram _count totals reconcile exactly with
                # the checkpoint journal's record count (duplicate and
                # stale acks never reach this line, nor the per-host
                # counters above).
                obs.histogram(
                    "enumeration_seconds", labels={"host": name}
                ).observe(stats.seconds)
            obs.task_done(stats)

    def _handle_task_error(self, name: str, msg: Dict[str, Any]) -> None:
        key = _run_from_wire(msg)[0]
        with self._cond:
            lease = self.table.leased.get(key)
            if lease is not None and lease.worker == name:
                # final: any worker would raise the same error, so the
                # run leaves the table for the in-process fallback
                del self.table.leased[key]
                self.failures[key] = (
                    self.table.attempts[key],
                    str(msg.get("error", "unknown remote failure")),
                    name,
                )
                self._cond.notify_all()
        if self.observer.enabled:
            self.observer.counter(
                "task_errors_total", labels={"host": name}
            ).inc()
            self.observer.instant(
                "task-error", "dist", worker=name, event=str(key[0])
            )

    def _drop_worker(self, name: str, conn: socket.socket) -> None:
        _shutdown_and_close(conn)
        with self._cond:
            if self._workers.get(name) is conn:
                del self._workers[name]
            lost = self.table.release_worker(name)
            self._cond.notify_all()
        if lost and self.observer.enabled:
            self.observer.counter("redispatches_total").inc(len(lost))
            self.observer.instant(
                "worker-lost", "dist", worker=name, leases=len(lost)
            )

    # ------------------------------------------------------------------ #
    # introspection (executor drains these into ParaMountResult)

    def robustness_counters(self) -> Dict[str, int]:
        with self._cond:
            return {
                "leases_expired": self.table.leases_expired,
                "redispatches": self.table.redispatches,
            }
