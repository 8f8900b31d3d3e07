"""Length-prefixed JSON frames and wire-level fault injection.

Every message on a coordinator/worker connection is one **frame**::

    +----------------+------------------+
    | length (4B !I) | body (length B)  |
    +----------------+------------------+

The body is one JSON object with a ``type`` — handshakes, leases,
acknowledgements, heartbeats and task errors alike.  No poset travels:
every worker holds its own before it connects, and the handshake
compares digests.  A worker's task error crosses as the text
``"<Type>: <message>"``, so a frame capture stays human-readable and
nothing a peer sends is ever unpickled.

Frames larger than :data:`MAX_FRAME` are refused on both ends
(:class:`~repro.errors.WireError`), and a short read anywhere raises
:class:`~repro.errors.ConnectionClosedError` — which the coordinator
treats exactly like a crashed worker: return its leases to the pending
pool.

:class:`WireFaults` extends the seeded fault-injection discipline of
:mod:`repro.resilience.faults` to the transport: dropped acknowledgements
(one-way partition), delayed acknowledgements (slow network), worker
crashes and hangs, and a hard ``kill_after`` that ``os._exit``'s the
worker process mid-run — the distributed analogue of ``kill -9``.
"""

from __future__ import annotations

import json
import os
import socket
import struct
import time
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from repro.errors import ConnectionClosedError, ReproError, WireError
from repro.util.rng import DeterministicRng, derive_seed

__all__ = [
    "MAX_FRAME",
    "encode_frame",
    "decode_frame",
    "send_frame",
    "recv_frame",
    "send_message",
    "recv_message",
    "WireFaults",
    "WIRE_NONE",
    "WIRE_DROP_ACK",
    "WIRE_DELAY_ACK",
    "WIRE_CRASH",
    "WIRE_HANG",
]

#: Upper bound on one frame's body.  Generous for the largest lease or
#: acknowledgement (a run's piece descriptors and stats) while bounding what
#: a corrupt length prefix can make the receiver allocate.
MAX_FRAME = 64 * 1024 * 1024

_HEADER = struct.Struct("!I")


# ---------------------------------------------------------------------- #
# framing


def encode_frame(body: bytes) -> bytes:
    """Prefix ``body`` with its length."""
    if len(body) > MAX_FRAME:
        raise WireError(
            f"refusing to send {len(body)}-byte frame (max {MAX_FRAME})"
        )
    return _HEADER.pack(len(body)) + body


def decode_frame(data: bytes) -> Tuple[bytes, bytes]:
    """Split one frame off ``data``; return ``(body, rest)``.

    Raises :class:`~repro.errors.WireError` for an oversized frame and
    :class:`~repro.errors.ConnectionClosedError` when ``data`` ends
    mid-frame (the byte-string analogue of a peer hangup).
    """
    if len(data) < _HEADER.size:
        raise ConnectionClosedError(
            f"truncated frame header: {len(data)} of {_HEADER.size} bytes"
        )
    (length,) = _HEADER.unpack_from(data)
    if length > MAX_FRAME:
        raise WireError(f"refusing {length}-byte frame (max {MAX_FRAME})")
    end = _HEADER.size + length
    if len(data) < end:
        raise ConnectionClosedError(
            f"truncated frame body: {len(data) - _HEADER.size} of {length} bytes"
        )
    return data[_HEADER.size : end], data[end:]


def _recv_exact(sock: socket.socket, n: int) -> bytes:
    chunks = []
    remaining = n
    while remaining:
        try:
            chunk = sock.recv(min(remaining, 1 << 20))
        except (ConnectionResetError, BrokenPipeError) as exc:
            raise ConnectionClosedError(f"peer reset: {exc}") from exc
        if not chunk:
            raise ConnectionClosedError(
                f"peer closed with {remaining} of {n} bytes outstanding"
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def send_frame(sock: socket.socket, body: bytes) -> None:
    """Send one frame, raising ConnectionClosedError on a dead peer."""
    try:
        sock.sendall(encode_frame(body))
    except (BrokenPipeError, ConnectionResetError, OSError) as exc:
        raise ConnectionClosedError(f"send failed: {exc}") from exc


def recv_frame(sock: socket.socket) -> bytes:
    """Receive one complete frame's body."""
    (length,) = _HEADER.unpack(_recv_exact(sock, _HEADER.size))
    if length > MAX_FRAME:
        raise WireError(f"refusing {length}-byte frame (max {MAX_FRAME})")
    return _recv_exact(sock, length)


# ---------------------------------------------------------------------- #
# messages


def send_message(sock: socket.socket, message: Dict[str, Any]) -> None:
    """Send one control message as a JSON frame."""
    send_frame(sock, json.dumps(message).encode("utf-8"))


def recv_message(sock: socket.socket) -> Dict[str, Any]:
    """Receive one control message: a JSON object with a ``type``."""
    body = recv_frame(sock)
    try:
        message = json.loads(body.decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise WireError(f"malformed control frame: {exc}") from exc
    if not isinstance(message, dict) or "type" not in message:
        raise WireError(f"control frame is not a typed message: {message!r}")
    return message


# ---------------------------------------------------------------------- #
# wire-level fault injection

WIRE_NONE = "none"
WIRE_DROP_ACK = "drop_ack"
WIRE_DELAY_ACK = "delay_ack"
WIRE_CRASH = "crash"
WIRE_HANG = "hang"


@dataclass(frozen=True)
class WireFaults:
    """Seeded, deterministic wire/process fault plan for workers.

    ``drop_ack``/``delay_ack``/``crash``/``hang`` are per-task
    probabilities drawn from ``derive_seed(seed, "wire", key, attempt)`` —
    the same discipline as :class:`~repro.resilience.faults.FaultSpec`, in
    a decorrelated stream; a task is one leased run of interval pieces,
    keyed by its first piece.  ``kill_after=N`` additionally
    ``os._exit(137)``s the worker process immediately before it would
    acknowledge its ``N``-th completed run: the enumeration work is done
    but the result is lost with the process, which is the worst-case
    ``kill -9`` the lease table must absorb.

    * ``drop_ack`` — enumerate, then silently discard the acknowledgement
      (a one-way partition: the coordinator sees a hung lease);
    * ``delay_ack`` — sleep ``delay_seconds`` before acknowledging (a slow
      network; may arrive after the lease was re-dispatched, exercising
      duplicate-commit suppression);
    * ``crash`` — ``os._exit(1)`` before enumerating (instant worker
      death, detected as a closed connection);
    * ``hang`` — sleep ``hang_seconds`` while *suppressing heartbeats*, so
      only lease expiry can detect it.
    """

    seed: int = 0
    drop_ack: float = 0.0
    delay_ack: float = 0.0
    crash: float = 0.0
    hang: float = 0.0
    delay_seconds: float = 0.2
    hang_seconds: float = 2.0
    kill_after: Optional[int] = None

    def __post_init__(self) -> None:
        for name in ("drop_ack", "delay_ack", "crash", "hang"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be a probability, got {p}")
        if (
            self.drop_ack + self.delay_ack + self.crash + self.hang
        ) > 1.0 + 1e-9:
            raise ValueError("wire fault rates must not exceed 1")

    def decide(self, key: object, attempt: int) -> str:
        """The wire fault (if any) for ``attempt`` of task ``key``."""
        rng = DeterministicRng(derive_seed(self.seed, "wire", key, attempt))
        r = rng.random()
        for name in (WIRE_DROP_ACK, WIRE_DELAY_ACK, WIRE_CRASH, WIRE_HANG):
            p = getattr(self, name)
            if r < p:
                return name
            r -= p
        return WIRE_NONE

    @property
    def active(self) -> bool:
        return (
            self.drop_ack > 0
            or self.delay_ack > 0
            or self.crash > 0
            or self.hang > 0
            or self.kill_after is not None
        )

    @classmethod
    def parse(cls, text: str) -> "WireFaults":
        """Parse a CLI spec like
        ``"seed=1,drop_ack=0.1,delay_ack=0.2,kill_after=3"``."""
        kwargs: Dict[str, object] = {}
        for item in text.split(","):
            item = item.strip()
            if not item:
                continue
            if "=" not in item:
                raise ReproError(
                    f"bad wire fault item {item!r}: expected key=value"
                )
            key, _, value = item.partition("=")
            key = key.strip()
            value = value.strip()
            if key in ("seed", "kill_after"):
                kwargs[key] = int(value)
            elif key in (
                "drop_ack",
                "delay_ack",
                "crash",
                "hang",
                "delay_seconds",
                "hang_seconds",
            ):
                kwargs[key] = float(value)
            else:
                raise ReproError(f"unknown wire fault key {key!r}")
        return cls(**kwargs)  # type: ignore[arg-type]


def apply_wire_fault(kind: str, spec: WireFaults) -> bool:
    """Perform a decided wire fault; return True when the ack must be
    dropped.  ``crash`` exits the process; ``hang`` and ``delay_ack``
    sleep (the caller suppresses heartbeats for the hang's duration)."""
    if kind == WIRE_CRASH:
        os._exit(1)
    if kind == WIRE_HANG:
        time.sleep(spec.hang_seconds)
        return False
    if kind == WIRE_DELAY_ACK:
        time.sleep(spec.delay_seconds)
        return False
    if kind == WIRE_DROP_ACK:
        return True
    return False
