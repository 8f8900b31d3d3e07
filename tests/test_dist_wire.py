"""Wire protocol: framing, message codec, fault plans, hostile peers.

Every frame is a 4-byte length and a JSON body.  The tests pin the
framing invariants (oversize and truncation refusals), the codec's typed
messages, the seeded determinism of :class:`~repro.dist.wire.WireFaults`,
and that nothing a peer sends is ever unpickled: a pickle sent to the
coordinator in place of a message is refused unread.
"""

import json
import pathlib
import pickle
import socket
import struct

import pytest

from repro.dist import Coordinator
from repro.dist.wire import (
    MAX_FRAME,
    WIRE_NONE,
    WireFaults,
    decode_frame,
    encode_frame,
    recv_frame,
    recv_message,
    send_frame,
    send_message,
)
from repro.errors import ConnectionClosedError, ReproError, WireError

from tests.conftest import build_figure4_poset


@pytest.fixture
def pair():
    a, b = socket.socketpair()
    yield a, b
    a.close()
    b.close()


# ---------------------------------------------------------------------- #
# framing


def test_frame_round_trip():
    data = encode_frame(b"hello") + encode_frame(b"\x00\x01")
    body, rest = decode_frame(data)
    assert body == b"hello"
    body, rest = decode_frame(rest)
    assert body == b"\x00\x01"
    assert rest == b""


def test_encode_refuses_oversize():
    huge = bytearray(MAX_FRAME + 1)
    with pytest.raises(WireError, match="refusing to send"):
        encode_frame(bytes(huge))


def test_decode_refuses_oversize():
    # a corrupt length prefix must not make the receiver allocate
    with pytest.raises(WireError, match="refusing"):
        decode_frame(struct.pack("!I", MAX_FRAME + 1))


def test_decode_truncation_is_a_closed_connection():
    with pytest.raises(ConnectionClosedError, match="header"):
        decode_frame(b"\x00\x00")
    with pytest.raises(ConnectionClosedError, match="body"):
        decode_frame(struct.pack("!I", 10) + b"short")


def test_socket_frame_round_trip(pair):
    a, b = pair
    send_frame(a, b"ping")
    assert recv_frame(b) == b"ping"


def test_recv_frame_on_hangup_raises_connection_closed(pair):
    a, b = pair
    a.sendall(struct.pack("!I", 100) + b"only this")
    a.close()
    with pytest.raises(ConnectionClosedError, match="outstanding"):
        recv_frame(b)


# ---------------------------------------------------------------------- #
# message codec


def test_message_round_trip(pair):
    a, b = pair
    message = {"type": "ack", "task": [[0, 1], [0, 0], [1, 1]], "states": 7}
    send_message(a, message)
    assert recv_message(b) == message


def test_message_rejects_malformed_json(pair):
    a, b = pair
    send_frame(a, b"not json at all")
    with pytest.raises(WireError, match="malformed control frame"):
        recv_message(b)


def test_message_rejects_untyped_message(pair):
    a, b = pair
    send_frame(a, b'{"no_type": 1}')
    with pytest.raises(WireError, match="not a typed message"):
        recv_message(b)


# ---------------------------------------------------------------------- #
# fault plans


def test_wire_faults_parse_spec_round_trip():
    spec = WireFaults.parse("seed=3, drop_ack=0.25, hang=0.1, kill_after=2")
    assert spec == WireFaults(seed=3, drop_ack=0.25, hang=0.1, kill_after=2)
    assert not WireFaults(seed=9).active


def test_wire_faults_parse_rejects_bad_specs():
    with pytest.raises(ReproError, match="key=value"):
        WireFaults.parse("drop_ack")
    with pytest.raises(ReproError, match="unknown wire fault key"):
        WireFaults.parse("frobnicate=1")
    with pytest.raises(ValueError, match="probability"):
        WireFaults(drop_ack=1.5)
    with pytest.raises(ValueError, match="must not exceed 1"):
        WireFaults(drop_ack=0.7, crash=0.7)


def test_wire_faults_decide_is_seeded_and_deterministic():
    spec = WireFaults(seed=11, drop_ack=0.3, delay_ack=0.3)
    key = ((0, 4), (0, 0), (1, 1))
    decisions = [spec.decide(key, attempt) for attempt in range(32)]
    assert decisions == [spec.decide(key, attempt) for attempt in range(32)]
    assert set(decisions) <= {WIRE_NONE, "drop_ack", "delay_ack"}
    assert len(set(decisions)) > 1  # attempts draw decorrelated streams
    other = WireFaults(seed=12, drop_ack=0.3, delay_ack=0.3)
    assert decisions != [other.decide(key, attempt) for attempt in range(32)]


# ---------------------------------------------------------------------- #
# hostile peers


class _Marker:
    """Unpickling one creates the file at ``path``."""

    def __init__(self, path):
        self.path = path

    def __reduce__(self):
        return (pathlib.Path.touch, (self.path,))


@pytest.mark.parametrize("case", ["hello", "task-error"])
def test_coordinator_never_unpickles_what_a_peer_sends(tmp_path, case):
    """A raw peer announces a pickled payload — in its hello, or in a
    task-error after a valid-digest hello — then sends a pickle whose
    loading would create a marker file.  The coordinator refuses or drops
    the peer, and the pickle is never loaded."""
    marker = tmp_path / "pwned.mark"
    coord = Coordinator(build_figure4_poset(), "lexical").start()
    hello = {"type": "hello", "name": "hostile", "pid": 0}
    run = [{"event": [0, 1], "lo": [0, 0], "hi": [1, 1]}]
    opening = {
        "hello": [dict(hello, payload_pickled=True)],
        "task-error": [
            dict(hello, digest=coord.digest),
            {"type": "task-error", "tasks": run, "attempt": 0, "payload_pickled": True},
        ],
    }[case]
    bodies = [json.dumps(m).encode() for m in opening]
    bodies.append(pickle.dumps(_Marker(marker)))
    try:
        with socket.create_connection(coord.address, timeout=5.0) as conn:
            # one write, so a prompt refusal cannot fail a second send
            conn.sendall(b"".join(map(encode_frame, bodies)))
            # refused or dropped: the coordinator ends the stream (a
            # coordinator that kept reading would time this recv out),
            # with a reset when it closes with frames unread
            try:
                while conn.recv(1 << 16):
                    pass
            except ConnectionResetError:
                pass
    finally:
        coord.stop()
    assert not marker.exists()
