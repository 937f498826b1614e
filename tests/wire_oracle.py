"""The reference the message table is held to, and what the tests derive from it.

``Packer``/``Unpacker`` are the field-at-a-time primitives every layout was
hand-written with until the table (``repro.utils.serialization``) replaced
them; they left ``src/`` with their last caller and stay here, verbatim, as
the oracle: :func:`oracle_encode`/:func:`oracle_decode` interpret a
:class:`~repro.utils.serialization.Message` declaration field by field through
them, and the table's own codec must agree on every input, accepted or rejected
(``tests/test_wire_codec.py::TestTableEqualsOracle``).  :func:`values` derives
a message's hypothesis strategy from the same declaration, so a message
cannot be declared without being fuzzed.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path

from hypothesis import strategies as st

from repro.errors import SerializationError
from repro.utils import serialization as table

#: The bytes the hand-written codecs produced at the last commit that had
#: them (see the file's ``_about``): ``{message, values, hex}`` per vector.
VECTORS = json.loads((Path(__file__).parent / "wire_vectors.json").read_text())["vectors"]


def vector_bytes(message: table.Message) -> list[bytes]:
    """The valid encodings of ``message`` among the vectors."""
    return [bytes.fromhex(v["hex"]) for v in VECTORS if v["message"] == message.name]


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
        try:
            raw = value.encode("utf-8")
        except UnicodeEncodeError as exc:
            raise SerializationError("unencodable string field") from exc
        return self.bytes(raw)

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


# --------------------------------------------------------------------------- #
# A declaration, interpreted field by field
# --------------------------------------------------------------------------- #
_SCALARS = {table.U8: "u8", table.U32: "u32", table.U64: "u64", table.F64: "f64"}


def _write(field, packer: Packer, value) -> None:
    kind = type(field)
    if kind in _SCALARS:
        getattr(packer, _SCALARS[kind])(value)
    elif kind is table.Flag:
        packer.u8(1 if value else 0)
    elif kind is table.Fixed:
        packer.fixed(value, field.length)
    elif kind is table.Bytes:
        packer.bytes(value)
    elif kind is table.Str:
        packer.str(value)
    elif kind is table.Rest:
        packer.fixed(value, len(value))
    elif kind is table.Opt:
        if value is None:
            packer.u8(0)
        else:
            _write(field.field, packer.u8(1), value)
    elif kind is table.Trailing:
        _write(field.field, packer, value)
    elif kind is table.List:
        packer.u32(len(value))
        for item in value:
            if len(field.fields) == 1:
                _write(field.fields[0], packer, item)
            else:
                _write_group(field, packer, item)
    elif kind is table.Message:
        _write_group(field, packer, value)
    else:
        raise AssertionError(f"no reference interpretation for {kind.__name__}")


def _write_group(group, packer: Packer, values) -> None:
    assert len(values) == len(group.fields)
    for field, value in zip(group.fields, values):
        _write(field, packer, value)


def _read(field, unpacker: Unpacker):
    kind = type(field)
    if kind in _SCALARS:
        return getattr(unpacker, _SCALARS[kind])()
    if kind is table.Flag:
        return unpacker.flag()
    if kind is table.Fixed:
        return unpacker.fixed(field.length)
    if kind is table.Bytes:
        return unpacker.bytes()
    if kind is table.Str:
        return unpacker.str()
    if kind is table.Rest:
        return unpacker.fixed(unpacker.remaining())
    if kind is table.Opt:
        return _read(field.field, unpacker) if unpacker.flag() else None
    if kind is table.Trailing:
        return _read(field.field, unpacker) if unpacker.remaining() else field.default
    if kind is table.List:
        if len(field.fields) == 1:
            return [_read(field.fields[0], unpacker) for _ in range(unpacker.u32())]
        return [_read_group(field, unpacker) for _ in range(unpacker.u32())]
    if kind is table.Message:
        return _read_group(field, unpacker)
    raise AssertionError(f"no reference interpretation for {kind.__name__}")


def _read_group(group, unpacker: Unpacker) -> tuple:
    return tuple(_read(field, unpacker) for field in group.fields)


def oracle_encode(message: table.Message, values) -> bytes:
    packer = Packer()
    _write_group(message, packer, values)
    return packer.pack()


def oracle_decode(message: table.Message, data: bytes) -> tuple:
    unpacker = Unpacker(data)
    values = _read_group(message, unpacker)
    unpacker.done()
    return values


# --------------------------------------------------------------------------- #
# A declaration's values, as a hypothesis strategy
# --------------------------------------------------------------------------- #
def values(field, slack: int = 0):
    """Values of ``field`` (for a message: its value tuples).

    ``slack`` widens every integer range by that much on both sides, so some
    draws are out of range -- ``encode`` must then refuse, not wrap -- and
    lets strings hold lone surrogates (category ``Cs``), which UTF-8 cannot
    encode.
    """
    kind = type(field)
    if kind in (table.U8, table.U32, table.U64):
        return st.integers(-slack, 2 ** (8 * field.size()[0]) - 1 + slack)
    if kind is table.F64:
        return st.floats(allow_nan=False)
    if kind is table.Flag:
        return st.booleans()
    if kind is table.Fixed:
        return st.binary(min_size=field.length, max_size=field.length)
    if kind in (table.Bytes, table.Rest):
        return st.binary(max_size=40)
    if kind is table.Str:
        return st.text(st.characters(exclude_categories=() if slack else ("Cs",)), max_size=12)
    if kind is table.Opt:
        return st.none() | values(field.field, slack)
    if kind is table.Trailing:
        return values(field.field, slack)
    if kind is table.List:
        item = values(field.fields[0], slack) if len(field.fields) == 1 else _tuples(field, slack)
        return st.lists(item, max_size=3)
    if kind is table.Message:
        return _tuples(field, slack)
    raise AssertionError(f"no strategy for {kind.__name__}")


def _tuples(group, slack: int):
    return st.tuples(*(values(field, slack) for field in group.fields))
