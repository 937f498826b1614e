"""The wire as a table: a byte layout is declared once, as data.

Alpenhorn hides metadata only while every request of a round has the same
shape, so the byte layout of each message is a security fact.  It is written
down once, as a :class:`Message` declaration in ``docs/wire.md``'s own field
notation::

    GREETING = Message("greeting", Str("name"), U64("round"), Opt(Bytes("token")))

and everything else is derived from it.  The codec is compiled from the
table: each field emits the source lines that write and read it, adjacent
fixed-width fields (and the ``u32`` length or count that opens a variable
one) share one ``struct.Struct``, and ``GREETING.encode(*values)`` /
``GREETING.decode(data)`` are the two straight-line functions that result
(filename ``<codec greeting>`` in a traceback or a profile).  A declaration
compiles at once, not on first use: a module's import compiles its layouts,
and the ``mp`` runtime's workers, forked from a server that imported them,
inherit them compiled.  Generated source holds no declared name or default:
every constant reaches it through the namespace it is executed in.
``docs/wire.md`` prints :meth:`Field.layout` and :meth:`Field.size_formula`,
and the test suite derives each message's hypothesis strategy, fuzz corpus
and reference interpretation from :attr:`Message.fields`.

The rules are the same for every message: big-endian, no tags, fixed field
order; a message's value is the tuple of its fields' values (a nested
message's value is itself a tuple, a list's a Python list).  ``decode``
accepts exactly the strings ``encode`` produces -- trailing bytes, truncation,
a flag byte above 1 and invalid UTF-8 raise :class:`SerializationError`, a
declared count or length larger than the buffer fails on the first missing
byte -- and ``encode`` raises it for an integer out of its field's range, a
``Fixed`` value of the wrong length or a string UTF-8 cannot encode (a lone
surrogate).  The one declared exception is :class:`Trailing`.  Checks that
are not layout (a frame's magic, a mailbox id in range, a point on the curve)
are the caller's.
"""

from __future__ import annotations

import contextlib
import struct

from repro.errors import SerializationError

#: Every declared message by name: what ``docs/wire.md`` tabulates and the
#: test suite fuzzes.
MESSAGES: dict[str, "Message"] = {}


class _Source:
    """One generated function: its lines, its locals and its namespace."""

    def __init__(self) -> None:
        self.namespace = {"SerializationError": SerializationError, "struct_error": struct.error}
        self.lines: list[str] = []
        self.depth = 2  # inside ``def`` and ``try``
        self.count = 0

    def const(self, value) -> str:
        """The name the generated code reads ``value`` by."""
        name = f"k{len(self.namespace)}"
        self.namespace[name] = value
        return name

    def var(self) -> str:
        self.count += 1
        return f"v{self.count}"

    def line(self, text: str) -> None:
        self.lines.append("    " * self.depth + text)

    @contextlib.contextmanager
    def block(self, header: str):
        """An indented ``if``/``else``/``for`` body, settled on both sides."""
        self.settle()
        self.line(header)
        self.depth += 1
        yield
        self.settle()
        self.depth -= 1

    def function(self, name: str, params: list[str], body: list[str], handlers: list[str],
                 message: "Message"):
        """``def name(params)``: ``body`` inside a ``try`` that ``handlers`` close."""
        source = "\n".join([f"def {name}({', '.join(params)}):", "    try:", *body, *handlers])
        exec(compile(source, f"<codec {message.name}>", "exec"), self.namespace)
        return self.namespace[name]


class _Encoder(_Source):
    """Collects the parts of an encoding; a run of fixed-width values packs
    as one ``Struct``, and a layout without a branch or a loop is one
    ``b"".join`` of its parts."""

    def __init__(self) -> None:
        super().__init__()
        self.run: list[tuple[str, str]] = []  # (struct format, value expression)
        self.parts: list[str] = []
        self.straight = True

    def scalar(self, fmt: str, value: str) -> None:
        self.run.append((fmt, value))

    def part(self, value: str) -> None:
        self._pack()
        self.parts.append(value)

    def _pack(self) -> None:
        if self.run:
            pack = struct.Struct(">" + "".join(fmt for fmt, _ in self.run)).pack
            self.parts.append(f"{self.const(pack)}({', '.join(value for _, value in self.run)})")
            self.run = []

    def settle(self) -> None:
        self._pack()
        self.straight = False
        if len(self.parts) == 1:
            self.line(f"append({self.parts[0]})")
        elif self.parts:
            self.line(f"parts += ({', '.join(self.parts)})")
        self.parts = []

    def compile(self, message: "Message"):
        args = [self.var() for _ in message.fields]
        for field, arg in zip(message.fields, args):
            field.emit_encode(self, arg)
        if self.straight:
            self._pack()
            parts = "".join(part + ", " for part in self.parts)
            body = [*self.lines, f"        return b''.join(({parts}))"]
        else:
            self.settle()
            body = ["        parts = []", "        append = parts.append", *self.lines,
                    "        return b''.join(parts)"]
        name = self.const(message.name)
        return self.function("encode", args, body, [
            "    except struct_error as exc:",
            f"        raise SerializationError(f'{{{name}}} not encodable: {{exc}}') from None",
        ], message)


class _Decoder(_Source):
    """Reads at a position known as ``base + offset`` (``base`` a local, or
    none while every earlier field is fixed-width); a run of fixed-width
    fields unpacks as one ``Struct`` call."""

    def __init__(self) -> None:
        super().__init__()
        self.run: list[tuple[str, str]] = []  # (struct format, local)
        self.checks: list[str] = []  # run after the run's unpack
        self.base, self.offset = "", 0

    def pos(self) -> str:
        if not self.base:
            return str(self.offset)
        return f"{self.base} + {self.offset}" if self.offset else self.base

    def scalar(self, fmt: str) -> str:
        local = self.var()
        self.run.append((fmt, local))
        return local

    def check(self, text: str) -> None:
        self.checks.append(text)

    def _unpack(self) -> None:
        if self.run:
            codec = struct.Struct(">" + "".join(fmt for fmt, _ in self.run))
            locals_ = "".join(local + ", " for _, local in self.run)
            self.line(f"{locals_}= {self.const(codec.unpack_from)}(data, {self.pos()})")
            self.offset += codec.size
            for text in self.checks:
                self.line(text)
            self.run, self.checks = [], []

    def emit(self, text: str) -> None:
        """A statement that may read what the pending run unpacks."""
        self._unpack()
        self.line(text)

    def settle(self) -> None:
        """Unpack the pending run and hold the position in ``p``."""
        self._unpack()
        if self.base != "p":
            self.line(f"p = {self.pos()}")
        elif self.offset:
            self.line(f"p += {self.offset}")
        self.base, self.offset = "p", 0

    def take(self, length: str) -> str:
        """``length`` bytes at the position, bounds-checked, since a slice is not."""
        self._unpack()
        # The new position goes to whichever of p and q the start does not read.
        start, local, stop = self.pos(), self.var(), "p" if self.base == "q" else "q"
        self.line(f"{stop} = {start} + {length}")
        self.line(
            f"if {stop} > end: raise SerializationError("
            f"f'truncated: {{{length}}} bytes declared, {{end - ({start})}} left')"
        )
        self.line(f"{local} = data[{start}:{stop}]")
        self.base, self.offset = stop, 0
        return local

    def rest(self) -> str:
        self._unpack()
        local = self.var()
        self.line(f"{local} = data[{self.pos()}:]")
        self.base, self.offset = "end", 0
        return local

    def compile(self, message: "Message"):
        value = message.emit_decode(self)
        self._unpack()
        name = self.const(message.name)
        if self.base != "end":
            self.line(
                f"if {self.pos()} != end: raise SerializationError("
                f"f'{{end - ({self.pos()})}} trailing bytes after {{{name}}}')"
            )
        self.line(f"return {value}")
        truncated = self.const(f"truncated {message.name}")
        invalid = self.const(f"invalid UTF-8 in {message.name}")
        return self.function("decode", ["data"], [
            "        data = bytes(data)",
            "        end = len(data)",
            *self.lines,
        ], [
            "    except struct_error:",
            f"        raise SerializationError({truncated}) from None",
            "    except UnicodeDecodeError:",
            f"        raise SerializationError({invalid}) from None",
        ], message)


class Field:
    """One named field of a layout.

    Subclasses give the doc notation (``kind``), the encoded size as ``(fixed
    bytes, variable terms)``, and the codec's source:
    ``emit_encode(out, value)`` emits what writes the value held in the
    local ``value``, and ``emit_decode(out)`` emits what reads the field and
    returns an expression for its value.
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

    fmt = "B"

    def size(self):
        return struct.calcsize(">" + self.fmt), []

    def emit_encode(self, out, value):
        out.scalar(self.fmt, value)

    def emit_decode(self, out):
        return out.scalar(self.fmt)


class U8(_Scalar):
    kind = "u8"


class U32(_Scalar):
    kind, fmt = "u32", "I"


class U64(_Scalar):
    kind, fmt = "u64", "Q"


class F64(_Scalar):
    kind, fmt = "f64", "d"


class Flag(_Scalar):
    """A boolean byte: exactly 0 or 1, so every value has one encoding."""

    kind = "flag"

    def emit_encode(self, out, value):
        out.scalar("?", value)  # packs the truth value as 0 or 1

    def emit_decode(self, out):
        byte = out.scalar("B")
        out.check(
            f"if {byte} > 1: raise SerializationError("
            f"f'invalid flag byte {{{byte}}} ({{{out.const(self.name)}}})')"
        )
        return f"({byte} == 1)"


class Fixed(Field):
    """Exactly ``length`` raw bytes, no length prefix."""

    def __init__(self, name: str, length: int) -> None:
        super().__init__(name)
        self.length, self.kind = length, f"fixed[{length}]"

    def size(self):
        return self.length, []

    def emit_encode(self, out, value):
        length, name = out.const(self.length), out.const(self.name)
        out.line(
            f"if len({value}) != {length}: raise SerializationError("
            f"f'{{{name}}} must be {{{length}}} bytes, got {{len({value})}}')"
        )
        out.part(value)

    def emit_decode(self, out):
        return out.scalar(f"{self.length}s")


class Bytes(Field):
    """A ``u32`` length, then the raw bytes."""

    kind = "bytes"

    def size(self):
        return 4, [f"|{self.name}|"]

    def emit_encode(self, out, value):
        out.scalar("I", f"len({value})")
        out.part(value)

    def emit_decode(self, out):
        return out.take(out.scalar("I"))


class Str(Bytes):
    """UTF-8, written as :class:`Bytes`."""

    kind = "str"

    def emit_encode(self, out, value):
        raw, name = out.var(), out.const(self.name)
        out.line("try:")
        out.line(f"    {raw} = {value}.encode('utf-8')")
        out.line("except UnicodeEncodeError as exc:")
        out.line(f"    raise SerializationError(f'{{{name}}} not encodable: {{exc}}') from None")
        Bytes.emit_encode(self, out, raw)

    def emit_decode(self, out):
        return f"str({Bytes.emit_decode(self, out)}, 'utf-8')"


class Rest(Field):
    """Raw bytes to the end of the message; only as the last field."""

    kind = "rest"

    def size(self):
        return 0, [f"|{self.name}|"]

    def emit_encode(self, out, value):
        out.part(value)

    def emit_decode(self, out):
        return out.rest()


class Opt(Field):
    """A presence flag, then the field when the flag is 1; absent is ``None``."""

    def __init__(self, field: Field) -> None:
        super().__init__(field.name)
        self.field, self.flag = field, Flag(f"before {field.name}")

    def layout(self):
        return f"flag [{self.field.layout()}]"

    def size(self):
        return 1, [f"[{self.field.size_formula()}]"]

    def emit_encode(self, out, value):
        self.flag.emit_encode(out, f"{value} is not None")
        with out.block(f"if {value} is not None:"):
            self.field.emit_encode(out, value)

    def emit_decode(self, out):
        present, local = self.flag.emit_decode(out), out.var()
        with out.block(f"if {present}:"):
            out.emit(f"{local} = {self.field.emit_decode(out)}")
        with out.block("else:"):
            out.line(f"{local} = None")
        return local


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

    def emit_encode(self, out, value):
        self.field.emit_encode(out, value)

    def emit_decode(self, out):
        local = out.var()
        with out.block("if p < end:"):
            out.emit(f"{local} = {self.field.emit_decode(out)}")
        with out.block("else:"):
            out.line(f"{local} = {out.const(self.default)}")
        return local


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

    def emit_encode(self, out, value):
        # Unpacking refuses a tuple of the wrong length.
        locals_ = [out.var() for _ in self.fields]
        out.line(f"{''.join(local + ', ' for local in locals_) or '() '}= {value}")
        for field, local in zip(self.fields, locals_):
            field.emit_encode(out, local)

    def emit_decode(self, out):
        return f"({''.join(field.emit_decode(out) + ', ' for field in self.fields)})"


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

    def emit_encode(self, out, value):
        out.scalar("I", f"len({value})")
        item = out.var()
        with out.block(f"for {item} in {value}:"):
            self.item.emit_encode(out, item)

    def emit_decode(self, out):
        count, items, add = out.scalar("I"), out.var(), out.var()
        out.emit(f"{items} = []")
        out.line(f"{add} = {items}.append")
        # A hostile count costs nothing: the first missing item ends the loop.
        with out.block(f"for _ in range({count}):"):
            out.emit(f"{add}({self.item.emit_decode(out)})")
        return items


class Message(_Group):
    """A declared byte layout and its codec.

    As a field of another message it is embedded inline (no length prefix)
    and its value is a tuple.  ``note`` is a remark for ``docs/wire.md``.
    ``encode(*values) -> bytes`` and ``decode(data) -> tuple`` are compiled
    from the fields when the message is declared.
    """

    def __init__(self, name: str, *fields: Field, note: str = "") -> None:
        super().__init__(name, *fields)
        for field in fields[:-1]:
            if isinstance(field, (Rest, Trailing)):
                raise ValueError(f"{name}.{field.name}: only the last field may be open-ended")
        self.note = note
        #: Bytes every encoding has; the variable fields add to it.
        self.fixed_size = self.size()[0]
        self.encode = _Encoder().compile(self)
        self.decode = _Decoder().compile(self)
        # A module imported twice declares its layouts twice, identically;
        # two different layouts under one name are a mistake.
        registered = MESSAGES.setdefault(name, self)
        if repr(registered) != repr(self):
            raise ValueError(f"{self!r} is already declared as {registered!r}")

    def __repr__(self) -> str:
        return f"Message({self.name}: {_Group.layout(self)})"

    def layout(self):
        return self.name
