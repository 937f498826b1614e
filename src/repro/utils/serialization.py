"""Minimal length-prefixed binary serialization.

Alpenhorn messages (friend requests, onion layers, mailbox entries) are
fixed- or variable-length concatenations of byte strings and small integers.
The :class:`Packer` / :class:`Unpacker` pair implements a simple canonical
encoding so that signatures are computed over unambiguous byte strings:

* ``u8``/``u32``/``u64`` -- fixed-width big-endian unsigned integers.
* ``f64`` -- an IEEE-754 double, big-endian (used by RPC frames that carry
  model parameters; protocol messages themselves never contain floats).
* ``bytes`` -- a 4-byte big-endian length prefix followed by the raw bytes.
* ``str`` -- UTF-8 encoded, then written as ``bytes``.

The format is deliberately tiny; it has no tags or schema evolution because
every message type in the protocol has a fixed field order.
"""

from __future__ import annotations

import struct

from repro.errors import SerializationError


class Packer:
    """Accumulates fields into a canonical byte string."""

    def __init__(self) -> None:
        self._parts: list[bytes] = []

    def u8(self, value: int) -> "Packer":
        if not 0 <= value < 2**8:
            raise SerializationError(f"u8 out of range: {value}")
        self._parts.append(value.to_bytes(1, "big"))
        return self

    def u32(self, value: int) -> "Packer":
        if not 0 <= value < 2**32:
            raise SerializationError(f"u32 out of range: {value}")
        self._parts.append(value.to_bytes(4, "big"))
        return self

    def u64(self, value: int) -> "Packer":
        if not 0 <= value < 2**64:
            raise SerializationError(f"u64 out of range: {value}")
        self._parts.append(value.to_bytes(8, "big"))
        return self

    def f64(self, value: float) -> "Packer":
        try:
            self._parts.append(struct.pack(">d", value))
        except (struct.error, TypeError) as exc:
            raise SerializationError(f"f64 not packable: {value!r}") from exc
        return self

    def bytes(self, value: bytes) -> "Packer":
        self.u32(len(value))
        self._parts.append(bytes(value))
        return self

    def fixed(self, value: bytes, length: int) -> "Packer":
        """Write exactly ``length`` bytes with no length prefix."""
        if len(value) != length:
            raise SerializationError(
                f"fixed field length mismatch: got {len(value)}, want {length}"
            )
        self._parts.append(bytes(value))
        return self

    def str(self, value: str) -> "Packer":
        return self.bytes(value.encode("utf-8"))

    def pack(self) -> bytes:
        return b"".join(self._parts)


class Unpacker:
    """Reads fields written by :class:`Packer`, in the same order."""

    def __init__(self, data: bytes) -> None:
        self._data = bytes(data)
        self._offset = 0

    def _take(self, n: int) -> bytes:
        if self._offset + n > len(self._data):
            raise SerializationError(
                f"truncated message: need {n} bytes at offset {self._offset}, "
                f"have {len(self._data) - self._offset}"
            )
        chunk = self._data[self._offset : self._offset + n]
        self._offset += n
        return chunk

    def u8(self) -> int:
        return int.from_bytes(self._take(1), "big")

    def flag(self) -> bool:
        """A presence byte: exactly 0 or 1, so every message has one encoding."""
        value = self.u8()
        if value > 1:
            raise SerializationError(f"invalid flag byte {value}")
        return bool(value)

    def u32(self) -> int:
        return int.from_bytes(self._take(4), "big")

    def u64(self) -> int:
        return int.from_bytes(self._take(8), "big")

    def f64(self) -> float:
        return struct.unpack(">d", self._take(8))[0]

    def bytes(self) -> bytes:
        length = self.u32()
        return self._take(length)

    def fixed(self, length: int) -> bytes:
        return self._take(length)

    def str(self) -> str:
        raw = self.bytes()
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise SerializationError("invalid UTF-8 in string field") from exc

    def remaining(self) -> int:
        return len(self._data) - self._offset

    def done(self) -> None:
        """Assert that the whole buffer was consumed."""
        if self.remaining() != 0:
            raise SerializationError(
                f"{self.remaining()} trailing bytes after message"
            )
