"""Framing for RPC messages exchanged between Alpenhorn components.

Every message a :class:`~repro.net.transport.Transport` carries is one
*frame*: a small header (magic, kind, message id, source, destination,
method) followed by a method-specific payload, declared -- like the protocol
messages themselves -- as a :class:`~repro.utils.serialization.Message`.  The
framing is what the simulated network charges against link bandwidth, so the
header is deliberately compact.  The mix-chain hop payload (an envelope
batch) is at the bottom.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import SerializationError
from repro.utils.serialization import U8, U64, Bytes, Fixed, List, Message, Str

FRAME_MAGIC = b"ANH1"

KIND_REQUEST = 0
KIND_RESPONSE = 1
KIND_ERROR = 2

FRAME = Message(
    "frame",
    Fixed("magic", 4), U8("kind"), U64("msg_id"), Str("src"), Str("dst"), Str("method"),
    Bytes("payload"),
    note=f"magic is `{FRAME_MAGIC.decode()}`; kind is {KIND_REQUEST} request, "
    f"{KIND_RESPONSE} response, {KIND_ERROR} error",
)


@dataclass(frozen=True)
class Frame:
    """One framed RPC message."""

    kind: int
    msg_id: int
    src: str
    dst: str
    method: str
    payload: bytes

    def to_bytes(self) -> bytes:
        return FRAME.encode(
            FRAME_MAGIC, self.kind, self.msg_id, self.src, self.dst, self.method, self.payload
        )

    @staticmethod
    def from_bytes(data: bytes) -> "Frame":
        magic, kind, *fields = FRAME.decode(data)
        if magic != FRAME_MAGIC:
            raise SerializationError(f"bad frame magic {magic!r}")
        if kind not in (KIND_REQUEST, KIND_RESPONSE, KIND_ERROR):
            raise SerializationError(f"unknown frame kind {kind}")
        return Frame(kind, *fields)


def frame_overhead(src: str, dst: str, method: str) -> int:
    """Header bytes a frame adds on top of its payload.

    Closed-form -- the transports compute this on every message -- from the
    declaration's own fixed size, so it cannot drift from the codec.
    """
    return (
        FRAME.fixed_size
        + len(src.encode("utf-8"))
        + len(dst.encode("utf-8"))
        + len(method.encode("utf-8"))
    )


# --------------------------------------------------------------------------- #
# Stream framing (real sockets)
# --------------------------------------------------------------------------- #
#: Bytes of big-endian length prefix in front of every wire message.
WIRE_LENGTH_BYTES = 4

#: Hard ceiling on a single wire message.  Large enough for a full mix-batch
#: hop at megacity scale (payloads are envelope batches, not mailboxes), small
#: enough that a corrupted or hostile length prefix cannot make a server
#: buffer gigabytes.
MAX_WIRE_MESSAGE_BYTES = 256 * 1024 * 1024


def encode_wire_message(body: bytes) -> bytes:
    """Prefix ``body`` with its length for stream transports (TCP).

    :class:`Frame` is a datagram codec -- it assumes the receiver already
    knows where the message ends.  On a byte stream the boundary has to ride
    the wire, so real transports wrap every frame in a 4-byte big-endian
    length prefix.  The prefix is *transport* framing and is deliberately not
    charged against link bandwidth: the simulated network's accounting
    (payload + :func:`frame_overhead`) stays the comparison
    baseline across runtimes.
    """
    if len(body) > MAX_WIRE_MESSAGE_BYTES:
        raise SerializationError(
            f"wire message of {len(body)} bytes exceeds the "
            f"{MAX_WIRE_MESSAGE_BYTES}-byte limit"
        )
    return len(body).to_bytes(WIRE_LENGTH_BYTES, "big") + body


def decode_wire_length(prefix: bytes) -> int:
    """Parse a length prefix, rejecting truncation and absurd sizes."""
    if len(prefix) != WIRE_LENGTH_BYTES:
        raise SerializationError(
            f"truncated wire length prefix ({len(prefix)}/{WIRE_LENGTH_BYTES} bytes)"
        )
    length = int.from_bytes(prefix, "big")
    if length > MAX_WIRE_MESSAGE_BYTES:
        raise SerializationError(
            f"wire message of {length} bytes exceeds the "
            f"{MAX_WIRE_MESSAGE_BYTES}-byte limit"
        )
    return length


# --------------------------------------------------------------------------- #
# The mix-chain hop payload
# --------------------------------------------------------------------------- #
ENVELOPE_BATCH = Message("envelope_batch", List("envelopes", Bytes("envelope")))


def encode_envelope_batch(envelopes: list[bytes]) -> bytes:
    """A batch of onion envelopes."""
    return ENVELOPE_BATCH.encode(envelopes)


def decode_envelope_batch(data: bytes) -> list[bytes]:
    return ENVELOPE_BATCH.decode(data)[0]
