"""The wire codec real transports put on TCP sockets.

Every wire message is one :class:`~repro.net.frames.Frame` -- the exact
codec the in-process transports already round-trip -- optionally followed by
a trace context (tracing enabled on the sender only; never charged to
bandwidth accounting, like the length prefix).  Nothing else crosses a
socket: an RPC is its payload bytes.

**Error replies**: a handler exception is encoded as a ``KIND_ERROR`` frame
whose payload names the exception class and message.  Classes from
:mod:`repro.errors` reconstruct exactly (the round engine's abort/requeue
semantics key on them); anything else reconstructs as
:class:`~repro.errors.RemoteCallError`.

On the stream each message is preceded by the 4-byte length prefix from
:func:`repro.net.frames.encode_wire_message`; this module only encodes and
decodes the message *bodies*.
"""

from __future__ import annotations

from dataclasses import dataclass

import repro.errors as errors_module
from repro.errors import RemoteCallError
from repro.net.frames import Frame
from repro.obs.distributed import TRACE_CONTEXT, TraceContext
from repro.utils.serialization import Bytes, Message, Opt, Str, Trailing

# The two tolerated short forms, declared: a peer that never writes the trace
# flag, and an error payload from a sender that predates the endpoint field.
WIRE_BODY = Message(
    "wire_body", Bytes("frame"), Trailing(Opt(TRACE_CONTEXT)),
    note="the context is never charged to bandwidth",
)
ERROR_PAYLOAD = Message(
    "error_payload", Str("class"), Str("message"), Trailing(Str("endpoint"), ""),
    note="the payload of a kind-2 frame; classes of `repro.errors` rebuild exactly, "
    "others as `RemoteCallError`",
)


@dataclass(frozen=True)
class WireMessage:
    """One decoded wire body: the frame plus its optional trace context."""

    frame: Frame
    trace: TraceContext | None = None


def encode_message(frame: Frame, trace: TraceContext | None = None) -> bytes:
    """Encode one frame (+ trace context) into a wire body (no length prefix)."""
    return WIRE_BODY.encode(frame.to_bytes(), trace)


def decode_message(body: bytes) -> WireMessage:
    frame, trace = WIRE_BODY.decode(body)
    return WireMessage(Frame.from_bytes(frame), trace and TraceContext(*trace))


# --------------------------------------------------------------------------- #
# Error replies
# --------------------------------------------------------------------------- #
#: Exception classes a remote error reply may reconstruct, by name.  Only
#: the library's own hierarchy: the round engine's abort/requeue decisions
#: key on these types, and nothing else should ever cross a trust boundary.
_ERROR_TYPES: dict[str, type] = {
    name: value
    for name, value in vars(errors_module).items()
    if isinstance(value, type) and issubclass(value, errors_module.AlpenhornError)
}


def encode_error(exc: BaseException, endpoint: str = "") -> bytes:
    """The payload of a ``KIND_ERROR`` frame: class name + message + the
    endpoint whose handler raised it."""
    return ERROR_PAYLOAD.encode(type(exc).__name__, str(exc), endpoint)


def decode_error(payload: bytes) -> Exception:
    """Rebuild a remote handler failure as a raisable exception.

    An error reply means the request was *delivered and rejected* -- the
    same contract as the simulated network's error replies -- so no
    ``request_delivered`` tag rides along: callers that treat a lost ack as
    success must not treat a rejection as one.

    The reconstructed exception carries ``remote_endpoint`` naming the
    server that raised it.  Known :mod:`repro.errors` classes reconstruct
    with their message untouched (abort/requeue semantics key on them);
    unknown classes become :class:`~repro.errors.RemoteCallError` with the
    endpoint folded into the message.
    """
    name, message, endpoint = ERROR_PAYLOAD.decode(payload)
    error_type = _ERROR_TYPES.get(name)
    if error_type is None:
        where = f" (from {endpoint})" if endpoint else ""
        exc: Exception = RemoteCallError(f"{name}: {message}{where}")
    else:
        exc = error_type(message)
    exc.remote_endpoint = endpoint  # type: ignore[attr-defined]
    return exc
