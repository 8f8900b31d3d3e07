"""Wire protocol: framing, message codec, fault plans, error transport.

The control plane is length-prefixed JSON frames; pickle is accepted only
as the hoisted attachment of an ``error`` message's payload.  The tests
pin the framing invariants (oversize/unknown-tag/truncation refusals),
the codec's attachment protocol, the seeded determinism of
:class:`~repro.dist.wire.WireFaults`, and — the round-trip that the
coordinator's failure reporting depends on — that **every** typed
:class:`~repro.errors.ExecutorError` survives both pickling and a trip
through a socket with its structured payload intact.
"""

import pickle
import socket
import struct

import pytest

from repro.dist.wire import (
    MAX_FRAME,
    TAG_JSON,
    TAG_PICKLE,
    WIRE_NONE,
    WireFaults,
    decode_frame,
    encode_frame,
    recv_frame,
    recv_message,
    send_frame,
    send_message,
)
from repro.errors import (
    ConnectionClosedError,
    DeadlockError,
    ExecutorError,
    ExecutorTimeoutError,
    InjectedFaultError,
    OutOfMemoryError,
    ReproError,
    StaleDigestError,
    WireError,
    WorkerLostError,
)


@pytest.fixture
def pair():
    a, b = socket.socketpair()
    yield a, b
    a.close()
    b.close()


# ---------------------------------------------------------------------- #
# framing


def test_frame_round_trip():
    data = encode_frame(b"hello", TAG_JSON) + encode_frame(b"\x00\x01", TAG_PICKLE)
    body, tag, rest = decode_frame(data)
    assert (body, tag) == (b"hello", TAG_JSON)
    body, tag, rest = decode_frame(rest)
    assert (body, tag) == (b"\x00\x01", TAG_PICKLE)
    assert rest == b""


def test_encode_refuses_unknown_tag_and_oversize():
    with pytest.raises(WireError, match="unknown frame tag"):
        encode_frame(b"x", tag=7)
    huge = bytearray(MAX_FRAME + 1)
    with pytest.raises(WireError, match="refusing to send"):
        encode_frame(bytes(huge))


def test_decode_refuses_unknown_tag_and_oversize():
    with pytest.raises(WireError, match="unknown frame tag"):
        decode_frame(struct.pack("!IB", 1, 9) + b"x")
    # a corrupt length prefix must not make the receiver allocate
    with pytest.raises(WireError, match="refusing"):
        decode_frame(struct.pack("!IB", MAX_FRAME + 1, TAG_JSON))


def test_decode_truncation_is_a_closed_connection():
    with pytest.raises(ConnectionClosedError, match="header"):
        decode_frame(b"\x00\x00")
    with pytest.raises(ConnectionClosedError, match="body"):
        decode_frame(struct.pack("!IB", 10, TAG_JSON) + b"short")


def test_socket_frame_round_trip(pair):
    a, b = pair
    send_frame(a, b"ping")
    assert recv_frame(b) == (b"ping", TAG_JSON)


def test_recv_frame_on_hangup_raises_connection_closed(pair):
    a, b = pair
    a.sendall(struct.pack("!IB", 100, TAG_JSON) + b"only this")
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


def test_message_rejects_pickle_control_frame(pair):
    a, b = pair
    send_frame(a, pickle.dumps({"type": "ack"}), TAG_PICKLE)
    with pytest.raises(WireError, match="expected a JSON control frame"):
        recv_message(b)


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


def test_message_rejects_missing_pickle_attachment(pair):
    a, b = pair
    send_frame(a, b'{"type": "error", "payload_pickled": true}')
    send_frame(a, b'{"type": "ack"}')  # JSON where the pickle should be
    with pytest.raises(WireError, match="missing pickle attachment"):
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
# error transport (satellite: the full hierarchy crosses the wire intact)

ERRORS = [
    ExecutorError("infrastructure failed"),
    ExecutorTimeoutError(3, 1.5, "process(4)"),
    InjectedFaultError("crash", ((0, 1), (0, 0), (1, 1)), 1),
    WireError("unknown frame tag 9"),
    ConnectionClosedError("peer closed with 12 of 40 bytes outstanding"),
    StaleDigestError("a" * 64, "b" * 64, "worker"),
    WorkerLostError("host1", 3),
    DeadlockError("all threads blocked", {"t0": ["t1"], "t1": ["t0"]}),
    OutOfMemoryError(2048, 1024),
]

#: The structured payload each error must carry across the boundary.
_PAYLOAD_ATTRS = {
    ExecutorTimeoutError: ("task_index", "timeout", "executor"),
    InjectedFaultError: ("kind", "key", "attempt"),
    StaleDigestError: ("expected", "actual", "where"),
    WorkerLostError: ("worker", "lost_leases"),
    DeadlockError: ("wait_for",),
    OutOfMemoryError: ("used", "budget"),
}


def _assert_equivalent(copy, original):
    assert type(copy) is type(original)
    assert str(copy) == str(original)
    for attr in _PAYLOAD_ATTRS.get(type(original), ()):
        assert getattr(copy, attr) == getattr(original, attr), attr


@pytest.mark.parametrize("error", ERRORS, ids=lambda e: type(e).__name__)
def test_error_pickle_round_trip(error):
    _assert_equivalent(pickle.loads(pickle.dumps(error)), error)


@pytest.mark.parametrize("error", ERRORS, ids=lambda e: type(e).__name__)
def test_error_frame_round_trip(error, pair):
    """A worker's task-error message arrives with its payload intact."""
    a, b = pair
    send_message(a, {"type": "error", "task": [[0, 1]], "payload": error})
    received = recv_message(b)
    assert received["type"] == "error"
    assert received["task"] == [[0, 1]]
    _assert_equivalent(received["payload"], error)
