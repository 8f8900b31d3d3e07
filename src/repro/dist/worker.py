"""The worker: connects, verifies the digest, enumerates leased intervals.

A worker is one process with one coordinator connection.  It either loads
its own poset file (``--poset``) — in which case the handshake *compares
digests* and a stale worker is rejected before holding a single lease —
or receives the poset from the coordinator's welcome message and verifies
the shipped digest against its own recomputation, so a corrupted transfer
can never be enumerated.

The main loop is pull-based: request a lease — one run of consecutive
interval pieces — enumerate its pieces in order with the subroutine's
``enumerate_interval``, acknowledge the whole run in one message carrying
every piece's stats (and the digest, re-presented so the coordinator can
refuse a stale commit), repeat.  A background heartbeat thread keeps the
in-flight run's lease extended; the injected ``hang`` fault suppresses
it, so a hung worker is indistinguishable from a partitioned one — which
is the point, since lease expiry must recover both.

Task failures are reported as ``task-error`` messages whose payload is
the pickled typed exception (:class:`~repro.errors.OutOfMemoryError`
with its budget, :class:`~repro.errors.DeadlockError` with its wait-for
graph, …), so the coordinator's failure records keep the same fidelity
as in-process runs.
"""

from __future__ import annotations

import multiprocessing
import os
import socket
import sys
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.dist.wire import (
    WIRE_CRASH,
    WIRE_HANG,
    WIRE_NONE,
    WireFaults,
    apply_wire_fault,
    recv_message,
    send_message,
)
from repro.errors import ConnectionClosedError, ReproError, StaleDigestError
from repro.poset.io import load_poset, poset_from_dict
from repro.poset.poset import Poset
from repro.resilience.checkpoint import poset_digest

__all__ = ["run_worker", "spawn_local_workers"]


class _Heartbeat:
    """Background lease-extension pulse, suppressible for hang faults.

    Each pulse names the run the worker is *currently* enumerating
    (``current``, the wire form of its first piece, or ``None``) so the
    coordinator extends only that lease — a run whose acknowledgement was
    dropped must not be kept alive by the heartbeats of its now-idle
    worker.
    """

    def __init__(self, sock: socket.socket, lock: threading.Lock, every: float):
        self._sock = sock
        self._lock = lock
        self._every = max(every, 0.05)
        self._stop = threading.Event()
        self._suppressed = threading.Event()
        #: Wire form of the in-flight run; set/cleared by the work loop.
        self.current: Optional[Dict[str, Any]] = None
        #: Cumulative worker-local counters, piggybacked on every pulse so
        #: the coordinator's ``/metrics`` can show per-host-labeled series
        #: without a second channel.  The work loop mutates it in place.
        self.metrics: Dict[str, float] = {}
        self._thread = threading.Thread(
            target=self._loop, name="dist-heartbeat", daemon=True
        )

    def start(self) -> None:
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()

    def suppress(self, yes: bool) -> None:
        if yes:
            self._suppressed.set()
        else:
            self._suppressed.clear()

    def _loop(self) -> None:
        while not self._stop.wait(self._every):
            if self._suppressed.is_set():
                continue
            current = self.current
            pulse: Dict[str, Any] = {
                "type": "heartbeat",
                "tasks": [current] if current is not None else [],
            }
            if self.metrics:
                pulse["metrics"] = dict(self.metrics)
            try:
                with self._lock:
                    send_message(self._sock, pulse)
            except (ReproError, OSError):
                return  # connection is gone; the main loop will notice


def run_worker(
    address: Tuple[str, int],
    name: Optional[str] = None,
    poset: Optional[Poset] = None,
    wire_faults: Optional[WireFaults] = None,
    connect_timeout: float = 10.0,
) -> int:
    """Run one worker against ``address`` until the coordinator drains it.

    Returns a process exit code: 0 after a clean drain, 3 when rejected
    for a stale digest, 1 on a lost coordinator.  ``poset`` (optional) is
    the worker's own copy; when ``None`` the coordinator's welcome must
    ship one.
    """
    name = name or f"{socket.gethostname()}-{os.getpid()}"
    faults = wire_faults or WireFaults()
    sock = socket.create_connection(address, timeout=connect_timeout)
    sock.settimeout(None)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    send_lock = threading.Lock()
    try:
        hello: Dict[str, Any] = {
            "type": "hello",
            "name": name,
            "pid": os.getpid(),
            "host": socket.gethostname(),
        }
        own_digest = poset_digest(poset) if poset is not None else None
        if own_digest is not None:
            hello["digest"] = own_digest
        with send_lock:
            send_message(sock, hello)
        welcome = recv_message(sock)
        if welcome.get("type") == "reject":
            # the coordinator compared digests and refused us
            raise StaleDigestError(
                str(welcome.get("expected")),
                str(welcome.get("actual")),
                where="worker handshake",
            )
        if welcome.get("type") != "welcome":
            raise ConnectionClosedError(
                f"expected welcome, got {welcome.get('type')!r}"
            )
        digest = str(welcome["digest"])
        if poset is None:
            poset = poset_from_dict(welcome["poset"])
            actual = poset_digest(poset)
            if actual != digest:
                raise StaleDigestError(digest, actual, where="poset transfer")
        elif own_digest != digest:
            raise StaleDigestError(digest, own_digest or "", where="worker")
        subroutine = str(welcome["subroutine"])
        memory_budget = welcome.get("memory_budget")
        heartbeat = _Heartbeat(
            sock, send_lock, float(welcome.get("heartbeat_seconds", 1.0))
        )
        heartbeat.start()
        try:
            code = _work_loop(
                sock,
                send_lock,
                heartbeat,
                poset,
                subroutine,
                memory_budget,
                digest,
                faults,
            )
        finally:
            heartbeat.stop()
        return code
    except StaleDigestError:
        raise
    except (ReproError, OSError):
        return 1
    finally:
        try:
            sock.close()
        except OSError:
            pass


def _work_loop(
    sock: socket.socket,
    send_lock: threading.Lock,
    heartbeat: _Heartbeat,
    poset: Poset,
    subroutine: str,
    memory_budget: Optional[int],
    digest: str,
    faults: WireFaults,
) -> int:
    # imported here so a worker that is rejected during the handshake
    # never pays for the enumeration machinery
    from repro.enumeration import make_enumerator

    enumerator = make_enumerator(subroutine, poset, memory_budget=memory_budget)
    metrics = heartbeat.metrics  # shipped to the coordinator every pulse
    acked = 0
    while True:
        with send_lock:
            send_message(sock, {"type": "request"})
        msg = recv_message(sock)
        mtype = msg.get("type")
        if mtype in ("drain", "shutdown"):
            with send_lock:
                send_message(sock, {"type": "bye"})
            return 0
        if mtype == "idle":
            time.sleep(float(msg.get("seconds", 0.05)))
            continue
        if mtype != "lease":
            return 1
        if msg.get("digest") != digest:
            raise StaleDigestError(
                digest, str(msg.get("digest")), where="lease"
            )
        tasks = msg["tasks"]
        keys = [
            (tuple(t["event"]), tuple(t["lo"]), tuple(t["hi"])) for t in tasks
        ]
        attempt = int(msg.get("attempt", 0))
        heartbeat.current = tasks[0]
        fault = faults.decide(keys[0], attempt) if faults.active else WIRE_NONE
        if fault == WIRE_CRASH:
            os._exit(1)
        if fault == WIRE_HANG:
            heartbeat.suppress(True)
        results: List[Dict[str, Any]] = []
        try:
            for _, lo, hi in keys:
                epoch_t0 = time.time()
                t0 = time.perf_counter()
                result = enumerator.enumerate_interval(lo, hi)
                results.append(
                    {
                        "states": result.states,
                        "work": result.work,
                        "peak_live": result.peak_live,
                        "seconds": time.perf_counter() - t0,
                        "epoch_t0": epoch_t0,
                    }
                )
        except ReproError as exc:
            heartbeat.current = None
            heartbeat.suppress(False)
            metrics["task_errors_total"] = (
                metrics.get("task_errors_total", 0) + 1
            )
            with send_lock:
                send_message(
                    sock,
                    {
                        "type": "task-error",
                        "tasks": [tasks[0]],
                        "attempt": attempt,
                        "payload": exc,
                    },
                )
            continue
        metrics["intervals_enumerated_total"] = (
            metrics.get("intervals_enumerated_total", 0) + len(results)
        )
        metrics["states_enumerated_total"] = metrics.get(
            "states_enumerated_total", 0
        ) + sum(r["states"] for r in results)
        if fault in (WIRE_HANG,):
            # the hang happens *after* the work: results exist but the
            # heartbeat stayed silent, so the lease may already be gone
            apply_wire_fault(fault, faults)
            heartbeat.suppress(False)
        acked += 1
        if faults.kill_after is not None and acked >= faults.kill_after:
            # kill -9 semantics: the run was fully enumerated but the
            # acknowledgement dies with the process
            os._exit(137)
        drop = False
        if fault not in (WIRE_NONE, WIRE_CRASH, WIRE_HANG):
            drop = apply_wire_fault(fault, faults)
        if drop:
            # the ack dies here (one-way partition); stop claiming the
            # run so the coordinator's lease ages out and re-dispatches
            heartbeat.current = None
            continue
        with send_lock:
            send_message(
                sock,
                {
                    "type": "ack",
                    "tasks": tasks,
                    "attempt": attempt,
                    "digest": digest,
                    "results": results,
                },
            )
        heartbeat.current = None


# ---------------------------------------------------------------------- #
# spawning local worker processes (tests, CI, and --dist-workers N)


def spawn_local_workers(
    n: int,
    address: Tuple[str, int],
    poset_path: Optional[Path] = None,
    wire_faults: Optional[WireFaults] = None,
) -> List[multiprocessing.Process]:
    """Start ``n`` local worker processes connected to ``address``.

    Each child runs :func:`run_worker` under the platform's default
    :mod:`multiprocessing` start method; a forked child shares the
    parent's imported modules, so it starts in milliseconds rather than
    re-importing the package.  With ``poset_path`` the child loads that
    file itself, so the coordinator's stale-digest handshake applies;
    otherwise the poset arrives in the welcome message.

    Only the first process (``host0``) receives ``wire_faults`` — the
    victim/survivor split every recovery test needs.  Workers are named
    ``host0 … hostN-1`` so traces get one lane per simulated host.
    """
    procs: List[multiprocessing.Process] = []
    for i in range(n):
        proc = multiprocessing.Process(
            target=_local_worker,
            args=(address, f"host{i}", poset_path, wire_faults if i == 0 else None),
            name=f"dist-worker-host{i}",
            daemon=True,
        )
        proc.start()
        procs.append(proc)
    return procs


def _local_worker(
    address: Tuple[str, int],
    name: str,
    poset_path: Optional[Path],
    wire_faults: Optional[WireFaults],
) -> None:
    """Child-process body of :func:`spawn_local_workers`; exits with the
    ``repro-tools worker`` codes (0 drained, 1 lost, 3 stale digest)."""
    poset = load_poset(poset_path) if poset_path is not None else None
    try:
        code = run_worker(address, name=name, poset=poset, wire_faults=wire_faults)
    except StaleDigestError as exc:
        print(f"worker {name} refused: {exc}", file=sys.stderr)
        code = 3
    except OSError:  # the run ended before this worker could connect
        code = 1
    sys.exit(code)
