"""The worker: holds its poset, connects, enumerates leased intervals.

A worker is one process with one coordinator connection, and it holds
the run's poset before it connects: a forked local worker inherits the
parent's :class:`~repro.poset.poset.Poset`, and ``repro-tools worker``
loads ``--poset``.  Its hello presents the poset's digest; the
coordinator refuses a stale or missing digest before the worker holds a
single lease, and the worker checks the welcome's digest against its
own.  No poset ever crosses the wire.

The main loop is pull-based: request a lease — one run of consecutive
interval pieces — enumerate its pieces in order with the subroutine's
checked ``enumerate_interval`` (the bounds come off the wire),
acknowledge the whole run in one message carrying every piece's stats
(and the digest, re-presented so the coordinator can refuse a stale
commit), repeat.  The ack is the worker's only report: the coordinator
counts its per-host series from the pieces it commits.  A background
heartbeat thread names the in-flight run every ``lease_seconds / 5``
(the welcome names ``lease_seconds``), so its lease stays extended;
the injected ``hang`` fault suppresses it, so a hung worker is
indistinguishable from a partitioned one — which is the point, since
lease expiry must recover both.

A run that raises a :class:`~repro.errors.ReproError` is reported in one
``task-error`` message naming the run and the error as the text
``"<Type>: <message>"`` — the string an in-process run's failure record
holds.  The report is final: the coordinator leases that run to no one
again.
"""

from __future__ import annotations

import multiprocessing
import os
import socket
import sys
import threading
import time
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
from repro.poset.poset import Poset

__all__ = ["run_worker", "spawn_local_workers"]

#: Seconds a worker waits for the coordinator to accept its connection.
_CONNECT_TIMEOUT = 10.0

#: Heartbeats per lease period: a live worker's lease survives a few lost
#: or late pulses before it expires.
_BEATS_PER_LEASE = 5


class _Heartbeat:
    """Background lease-extension pulse, suppressible for hang faults.

    Each pulse names the run the worker is *currently* enumerating
    (``current``, the wire form of its first piece) and nothing else, so
    the coordinator extends only that lease — a run whose acknowledgement
    was dropped must not be kept alive by the heartbeats of its now-idle
    worker, which sends none.
    """

    def __init__(self, sock: socket.socket, lock: threading.Lock, every: float):
        self._sock = sock
        self._lock = lock
        self._every = max(every, 0.05)
        self._stop = threading.Event()
        self._suppressed = threading.Event()
        #: Wire form of the in-flight run; set/cleared by the work loop.
        self.current: Optional[Dict[str, Any]] = None
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
            current = self.current
            if current is None or self._suppressed.is_set():
                continue
            try:
                with self._lock:
                    send_message(self._sock, {"type": "heartbeat", "tasks": [current]})
            except (ReproError, OSError):
                return  # connection is gone; the main loop will notice


def run_worker(
    address: Tuple[str, int],
    poset: Poset,
    digest: str,
    name: Optional[str] = None,
    wire_faults: Optional[WireFaults] = None,
) -> int:
    """Run one worker on ``poset`` against ``address`` until the
    coordinator drains it.

    ``digest`` is :func:`~repro.resilience.checkpoint.poset_digest` of
    ``poset`` (a forked local worker is handed the coordinator's).
    Returns a process exit code: 0 after a clean drain, 1 on a lost
    coordinator.  Raises :class:`~repro.errors.StaleDigestError` when the
    coordinator refuses the worker's digest or names another poset (the
    ``repro-tools worker`` exit code 3).
    """
    name = name or f"{socket.gethostname()}-{os.getpid()}"
    faults = wire_faults or WireFaults()
    sock = socket.create_connection(address, timeout=_CONNECT_TIMEOUT)
    sock.settimeout(None)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    send_lock = threading.Lock()
    try:
        hello: Dict[str, Any] = {
            "type": "hello",
            "name": name,
            "pid": os.getpid(),
            "host": socket.gethostname(),
            "digest": digest,
        }
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
        if welcome.get("digest") != digest:
            raise StaleDigestError(
                str(welcome.get("digest")), digest, where="worker"
            )
        subroutine = str(welcome["subroutine"])
        memory_budget = welcome.get("memory_budget")
        heartbeat = _Heartbeat(
            sock, send_lock, float(welcome["lease_seconds"]) / _BEATS_PER_LEASE
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
    acked = 0
    while True:
        with send_lock:
            send_message(sock, {"type": "request"})
        msg = recv_message(sock)
        mtype = msg.get("type")
        if mtype in ("drain", "shutdown"):
            try:
                with send_lock:
                    send_message(sock, {"type": "bye"})
            except (ReproError, OSError):
                pass  # the coordinator closed first; the run is over
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
            with send_lock:
                send_message(
                    sock,
                    {
                        "type": "task-error",
                        "tasks": [tasks[0]],
                        "attempt": attempt,
                        "error": f"{type(exc).__name__}: {exc}",
                    },
                )
            continue
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
    poset: Poset,
    digest: str,
    wire_faults: Optional[WireFaults] = None,
) -> List[multiprocessing.Process]:
    """Start ``n`` local worker processes on ``poset``, connected to
    ``address``.

    Each child runs :func:`run_worker` under the platform's default
    :mod:`multiprocessing` start method.  A forked child inherits the
    parent's imported modules and ``poset`` (with any packed tables the
    parent built), so it starts in milliseconds and receives, decodes
    and validates no copy; under ``spawn`` the poset is pickled as a
    process argument, which needs no re-validation either.  ``digest``
    is the coordinator's digest of ``poset``: the child presents it
    without digesting the poset again.

    Only the first process (``host0``) receives ``wire_faults`` — the
    victim/survivor split every recovery test needs.  Workers are named
    ``host0 … hostN-1`` so traces get one lane per simulated host.
    """
    procs: List[multiprocessing.Process] = []
    for i in range(n):
        proc = multiprocessing.Process(
            target=_local_worker,
            args=(address, f"host{i}", poset, digest, wire_faults if i == 0 else None),
            name=f"dist-worker-host{i}",
            daemon=True,
        )
        proc.start()
        procs.append(proc)
    return procs


def _local_worker(
    address: Tuple[str, int],
    name: str,
    poset: Poset,
    digest: str,
    wire_faults: Optional[WireFaults],
) -> None:
    """Child-process body of :func:`spawn_local_workers`; exits with the
    ``repro-tools worker`` codes (0 drained, 1 lost, 3 stale digest)."""
    try:
        code = run_worker(address, poset, digest, name=name, wire_faults=wire_faults)
    except StaleDigestError as exc:
        print(f"worker {name} refused: {exc}", file=sys.stderr)
        code = 3
    except OSError:  # the run ended before this worker could connect
        code = 1
    sys.exit(code)
