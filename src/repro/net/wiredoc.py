"""``docs/wire.md``, generated from the message table.

``python -m repro.net.wiredoc > docs/wire.md`` after changing a layout; the
tier-1 suite fails while the committed file differs
(``tests/test_wire_codec.py::TestWireDoc``).  Every table row comes from a
:class:`~repro.utils.serialization.Message` declaration or :data:`METHODS`,
every number from a constant; ``docs/wire.template.md`` holds the only
hand-written parts -- the prose, the field-notation table and the crypto
encodings (which are not table layouts).
"""

from __future__ import annotations

import importlib
import pkgutil
import re
from pathlib import Path

import repro
from repro.net.frames import FRAME, MAX_WIRE_MESSAGE_BYTES, WIRE_LENGTH_BYTES
from repro.net.rpc import METHODS
from repro.primitives.bloom import MAX_NUM_HASHES
from repro.runtime.wire import ERROR_PAYLOAD, WIRE_BODY
from repro.utils.serialization import MESSAGES, Message

TEMPLATE = Path(__file__).resolve().parents[3] / "docs" / "wire.template.md"
NOTICE = (
    "<!-- Generated by `python -m repro.net.wiredoc` from docs/wire.template.md and the "
    "Message declarations; edit those, not this file. -->"
)


def load_messages() -> dict[str, Message]:
    """Import every module of the package, so every declaration is registered."""
    for module in pkgutil.walk_packages(repro.__path__, "repro."):
        if not module.name.endswith("__main__"):
            importlib.import_module(module.name)
    return MESSAGES


def _declaring_files() -> dict[str, str]:
    """Message name -> the file, relative to the package, whose text declares it."""
    package = Path(repro.__file__).parent
    return {
        name: path.relative_to(package).as_posix()
        for path in sorted(package.rglob("*.py"))
        for name in re.findall(r'\bMessage\(\s*"(\w+)"', path.read_text(encoding="utf-8"))
    }


def _layout(message: Message | str | None) -> str:
    if not isinstance(message, Message):
        return message or ""
    fields = ", ".join(f"`{field.layout()}`" for field in message.fields)
    return fields + (f" ({message.note})" if message.note else "")


def _size(message: Message | str | None) -> str:
    if isinstance(message, Message):
        return message.size_formula()
    return "see Values" if message else "0"


def _row(*cells: str) -> str:
    return "| " + " | ".join(cell.replace("|", "\\|") for cell in cells) + " |"


def _value_row(message: Message, files: dict[str, str]) -> str:
    return _row(f"`{message.name}` (`{files[message.name]}`)", _layout(message), _size(message))


def generate() -> str:
    messages, files = load_messages(), _declaring_files()
    framing = (FRAME, WIRE_BODY, ERROR_PAYLOAD)
    in_methods = {id(layout) for row in METHODS for layout in row[2:]}
    methods = [
        _row(
            f"{', '.join(endpoints)} · {', '.join(f'`{name}`' for name in names)}",
            _layout(request), _layout(response), f"{_size(request)} / {_size(response)}",
        )
        for endpoints, names, request, response in METHODS
    ]
    values = [
        _value_row(message, files)
        for _, message in sorted(messages.items())
        if message not in framing and id(message) not in in_methods
    ]
    return TEMPLATE.read_text(encoding="utf-8").format(
        notice=NOTICE,
        framing="\n".join(_value_row(message, files) for message in framing),
        methods="\n".join(methods),
        values="\n".join(values),
        max_num_hashes=MAX_NUM_HASHES,
        max_wire_mib=MAX_WIRE_MESSAGE_BYTES // 2**20,
        wire_length_bytes=WIRE_LENGTH_BYTES,
    )


if __name__ == "__main__":
    print(generate(), end="")
