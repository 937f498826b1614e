"""The wire as a table: a byte layout is declared once, as data.

Alpenhorn hides metadata only while every request of a round has the same
shape, so the byte layout of each message is a security fact.  It is written
down once, as a :class:`Message` declaration in ``docs/wire.md``'s own field
notation::

    GREETING = Message("greeting", Str("name"), U64("round"), Opt(Bytes("token")))

and everything else is derived from it: ``GREETING.encode(*values)`` /
``GREETING.decode(data)`` walk the declared fields, ``docs/wire.md`` prints
:meth:`Field.layout` and :meth:`Field.size_formula`, and the test suite
derives each message's hypothesis strategy, fuzz corpus and reference
interpretation from :attr:`Message.fields`.

The rules are the same for every message: big-endian, no tags, fixed field
order; a message's value is the tuple of its fields' values (a nested
message's value is itself a tuple, a list's a Python list).  ``decode``
accepts exactly the strings ``encode`` produces -- trailing bytes, truncation,
a flag byte above 1 and invalid UTF-8 raise :class:`SerializationError`, a
declared count or length larger than the buffer fails on the first missing
byte -- and ``encode`` raises it for an integer out of its field's range.  The
one declared exception is :class:`Trailing`.  Checks that are not layout (a
frame's magic, a mailbox id in range, a point on the curve) are the caller's.
"""

from __future__ import annotations

import struct

from repro.errors import SerializationError

#: Every declared message by name: what ``docs/wire.md`` tabulates and the
#: test suite fuzzes.
MESSAGES: dict[str, "Message"] = {}

_U32 = struct.Struct(">I")


def _take(data: bytes, pos: int, length: int) -> tuple[bytes, int]:
    """``length`` raw bytes at ``pos``; bounds-checked, since a slice is not."""
    end = pos + length
    if end > len(data):
        raise SerializationError(f"truncated: {length} bytes declared, {len(data) - pos} left")
    return data[pos:end], end


class Field:
    """One named field of a layout.

    Subclasses give the doc notation (``kind``), the encoded size as ``(fixed
    bytes, variable terms)``, ``write(append, value)`` and ``read(data, pos)
    -> (value, next pos)``.
    """

    kind = ""

    def __init__(self, name: str) -> None:
        self.name = name

    def layout(self) -> str:
        return f"{self.kind} {self.name}"

    def size(self) -> tuple[int, list[str]]:
        raise NotImplementedError

    def size_formula(self) -> str:
        """The encoded size: the fixed bytes plus one term per variable field."""
        fixed, terms = self.size()
        return " + ".join(([str(fixed)] if fixed or not terms else []) + terms)


class _Scalar(Field):
    """A fixed-width number; ``struct`` refuses a value out of its range."""

    codec = struct.Struct(">B")

    def size(self):
        return self.codec.size, []

    def write(self, append, value):
        append(self.codec.pack(value))

    def read(self, data, pos):
        return self.codec.unpack_from(data, pos)[0], pos + self.codec.size


class U8(_Scalar):
    kind = "u8"


class U32(_Scalar):
    kind, codec = "u32", _U32


class U64(_Scalar):
    kind, codec = "u64", struct.Struct(">Q")


class F64(_Scalar):
    kind, codec = "f64", struct.Struct(">d")


class Flag(_Scalar):
    """A boolean byte: exactly 0 or 1, so every value has one encoding."""

    kind = "flag"

    def write(self, append, value):
        append(b"\x01" if value else b"\x00")

    def read(self, data, pos):
        value, pos = super().read(data, pos)
        if value > 1:
            raise SerializationError(f"invalid flag byte {value} ({self.name})")
        return value == 1, pos


class Fixed(Field):
    """Exactly ``length`` raw bytes, no length prefix."""

    def __init__(self, name: str, length: int) -> None:
        super().__init__(name)
        self.length, self.kind = length, f"fixed[{length}]"

    def size(self):
        return self.length, []

    def write(self, append, value):
        if len(value) != self.length:
            raise SerializationError(f"{self.name} must be {self.length} bytes, got {len(value)}")
        append(value)

    def read(self, data, pos):
        return _take(data, pos, self.length)


class Bytes(Field):
    """A ``u32`` length, then the raw bytes."""

    kind = "bytes"

    def size(self):
        return 4, [f"|{self.name}|"]

    def write(self, append, value):
        append(_U32.pack(len(value)))
        append(value)

    def read(self, data, pos):
        return _take(data, pos + 4, _U32.unpack_from(data, pos)[0])


class Str(Bytes):
    """UTF-8, written as :class:`Bytes`."""

    kind = "str"

    def write(self, append, value):
        Bytes.write(self, append, value.encode("utf-8"))

    def read(self, data, pos):
        raw, pos = Bytes.read(self, data, pos)
        return str(raw, "utf-8"), pos


class Rest(Field):
    """Raw bytes to the end of the message; only as the last field."""

    kind = "rest"

    def size(self):
        return 0, [f"|{self.name}|"]

    def write(self, append, value):
        append(value)

    def read(self, data, pos):
        return data[pos:], len(data)


class Opt(Field):
    """A presence flag, then the field when the flag is 1; absent is ``None``."""

    def __init__(self, field: Field) -> None:
        super().__init__(field.name)
        self.field, self.flag = field, Flag(f"before {field.name}")

    def layout(self):
        return f"flag [{self.field.layout()}]"

    def size(self):
        return 1, [f"[{self.field.size_formula()}]"]

    def write(self, append, value):
        self.flag.write(append, value is not None)
        if value is not None:
            self.field.write(append, value)

    def read(self, data, pos):
        present, pos = self.flag.read(data, pos)
        return self.field.read(data, pos) if present else (None, pos)


class Trailing(Field):
    """A last field a sender may leave off entirely: absent reads as ``default``.

    The tolerated short forms are declared with it, so a message that has one
    is exactly a message that has a second accepted encoding.  ``encode``
    always writes the field.
    """

    def __init__(self, field: Field, default=None) -> None:
        super().__init__(field.name)
        self.field, self.default = field, default

    def layout(self):
        return f"{self.field.layout()} (may be absent: {self.default!r})"

    def size(self):
        return 0, [f"[{self.field.size_formula()}]"]

    def write(self, append, value):
        self.field.write(append, value)

    def read(self, data, pos):
        return self.field.read(data, pos) if pos < len(data) else (self.default, pos)


class _Group(Field):
    """Fields in order; the value is the tuple of their values."""

    def __init__(self, name: str, *fields: Field) -> None:
        super().__init__(name)
        self.fields = fields

    def layout(self):
        return f"({', '.join(field.layout() for field in self.fields)})"

    def size(self):
        sizes = [field.size() for field in self.fields]
        return sum(fixed for fixed, _ in sizes), [term for _, terms in sizes for term in terms]

    def write(self, append, values):
        for field, value in zip(self.fields, values, strict=True):
            field.write(append, value)

    def read(self, data, pos):
        values = []
        for field in self.fields:
            value, pos = field.read(data, pos)
            values.append(value)
        return tuple(values), pos


class List(_Group):
    """A ``u32`` count, then the items: one field each, or a tuple of several."""

    def __init__(self, name: str, *fields: Field) -> None:
        super().__init__(name, *fields)
        self.item = fields[0] if len(fields) == 1 else _Group(name, *fields)

    def layout(self):
        return f"list<{self.item.layout()}> {self.name}"

    def size(self):
        fixed, terms = self.item.size()
        if terms:
            return 4, [f"Σ {self.name} ({self.item.size_formula()})"]
        return 4, [f"{fixed}·|{self.name}|" if fixed > 1 else f"|{self.name}|"]

    def write(self, append, value):
        append(_U32.pack(len(value)))
        for item in value:
            self.item.write(append, item)

    def read(self, data, pos):
        (count,) = _U32.unpack_from(data, pos)
        pos += 4
        items = []
        # A hostile count costs nothing: the first missing item ends the loop.
        for _ in range(count):
            item, pos = self.item.read(data, pos)
            items.append(item)
        return items, pos


class Message(_Group):
    """A declared byte layout and its codec.

    As a field of another message it is embedded inline (no length prefix)
    and its value is a tuple.  ``note`` is a remark for ``docs/wire.md``.
    """

    def __init__(self, name: str, *fields: Field, note: str = "") -> None:
        super().__init__(name, *fields)
        for field in fields[:-1]:
            if isinstance(field, (Rest, Trailing)):
                raise ValueError(f"{name}.{field.name}: only the last field may be open-ended")
        self.note = note
        #: Bytes every encoding has; the variable fields add to it.
        self.fixed_size = self.size()[0]
        # A module imported twice declares its layouts twice, identically;
        # two different layouts under one name are a mistake.
        registered = MESSAGES.setdefault(name, self)
        if repr(registered) != repr(self):
            raise ValueError(f"{self!r} is already declared as {registered!r}")

    def __repr__(self) -> str:
        return f"Message({self.name}: {_Group.layout(self)})"

    def layout(self):
        return self.name

    def encode(self, *values) -> bytes:
        parts: list[bytes] = []
        try:
            self.write(parts.append, values)
        except struct.error as exc:
            raise SerializationError(f"{self.name} not encodable: {exc}") from None
        return b"".join(parts)

    def decode(self, data: bytes) -> tuple:
        data = bytes(data)
        try:
            values, pos = self.read(data, 0)
        except struct.error:
            raise SerializationError(f"truncated {self.name}") from None
        except UnicodeDecodeError:
            raise SerializationError(f"invalid UTF-8 in {self.name}") from None
        if pos != len(data):
            raise SerializationError(f"{len(data) - pos} trailing bytes after {self.name}")
        return values
