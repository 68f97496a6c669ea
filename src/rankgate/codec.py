"""One way to read and write the package's file formats.

Binary formats (embedding stores and models) open with a magic tag and a
u32 version, use little-endian fixed-width integers and u16-length-prefixed
UTF-8 strings, and end exactly where their declared contents end.
:class:`Reader` checks all three, so a truncated, foreign or padded file is
rejected the same way whichever format it claims to be.

JSON blocks (experiment plans, synth configs, the model's config block,
evaluation reports) are written with :func:`dataclasses.asdict` and read
back with :func:`from_dict`, so a dataclass's fields are the only list of
its keys. Nested records, such as a plan's conditions or a report's rows
and failures, decode through the same function.
"""

from __future__ import annotations

import dataclasses
import struct
import typing


class StoreFormatError(ValueError):
    """Raised when a file does not follow its declared format."""


def encode_str(s: str) -> bytes:
    """u16 byte length, then the UTF-8 bytes."""
    raw = s.encode("utf-8")
    if len(raw) > 0xFFFF:
        raise ValueError(f"string field of {len(raw)} UTF-8 bytes is over 65535")
    return struct.pack("<H", len(raw)) + raw


class Reader:
    """Strict cursor over a binary payload."""

    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def header(self, magic: bytes, version: int, what: str) -> None:
        """Consume the magic tag and the u32 version; ``what`` names the file."""
        if self.take(len(magic)) != magic:
            raise StoreFormatError(f"{what}: bad magic, expected {magic!r}")
        found = self.u32()
        if found != version:
            raise StoreFormatError(f"{what}: unsupported version {found}")

    def end(self, what: str) -> None:
        """Reject bytes left over after the declared contents (``what``)."""
        if self.remaining():
            raise StoreFormatError(f"{self.remaining()} trailing bytes after {what}")

    def remaining(self) -> int:
        """Bytes not yet consumed."""
        return len(self.data) - self.pos

    def take(self, n: int) -> bytes:
        start = self.pos
        end = start + n
        if end > len(self.data):
            raise StoreFormatError("unexpected end of file")
        self.pos = end
        return self.data[start:end]

    def u16(self) -> int:
        return _U16.unpack(self.take(2))[0]

    def u32(self) -> int:
        return _U32.unpack(self.take(4))[0]

    def u64(self) -> int:
        return _U64.unpack(self.take(8))[0]

    def string(self) -> str:
        try:
            return self.take(self.u16()).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise StoreFormatError(f"invalid UTF-8 in string field: {exc}") from exc


_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")


def from_dict(cls, payload, what: str, required=()):
    """Build dataclass ``cls`` from its JSON object form.

    Keys are the dataclass's field names. A field without a default, and
    every name in ``required``, must be present; any other key is an error,
    so a misspelt field cannot silently fall back to its default. A present
    value must have the JSON type of its field's annotation: a list (or the
    tuple ``asdict`` leaves) for a tuple or list, each item checked the same
    way; a bool for a bool; a non-bool integer for an int; any number for a
    float (``1`` becomes ``1.0``, and an int past the float range is an
    error); a string for a str; an object for a dict; and ``null`` only
    where the field is ``Optional``. So a loaded object equals, and
    serializes like, the one that was written. A field annotated
    with a dataclass is decoded from its JSON object by these same rules
    (``required`` applies to ``cls`` alone), or takes an instance the caller
    has already built. Raises ValueError prefixed with ``what``, also for a
    value the dataclass itself rejects; an error inside a nested record or a
    list names the way to it, as in ``report: field rows item 1 unknown
    field 'extra'``.
    """
    try:
        return _record(cls, payload, required)
    except _Invalid as exc:
        raise ValueError(f"{what}: {exc}") from None


class _Invalid(Exception):
    """A JSON value that does not fit its type; the message says how, from
    the value's own place (``field rows item 1 ...``) down."""


def _record(cls, payload, required=()):
    if not isinstance(payload, dict):
        raise _Invalid(f"expected a JSON object, got {type(payload).__name__}")
    fields = {f.name: f for f in dataclasses.fields(cls)}
    for key in payload:
        if key not in fields:
            raise _Invalid(f"unknown field {key!r}")
    for name, f in fields.items():
        no_default = (
            f.default is dataclasses.MISSING
            and f.default_factory is dataclasses.MISSING
        )
        if name not in payload and (no_default or name in required):
            raise _Invalid(f"missing required field {name!r}")
    hints = typing.get_type_hints(cls)
    values = {}
    for key, value in payload.items():
        try:
            values[key] = _cast(hints[key], value)
        except _Invalid as exc:
            raise _Invalid(f"field {key} {exc}") from None
    try:
        return cls(**values)
    except (TypeError, ValueError) as exc:
        raise _Invalid(str(exc)) from None


# JSON types a scalar field accepts; a bool is never taken for a number.
_SCALARS = {bool: (bool,), int: (int,), float: (int, float), str: (str,), dict: (dict,)}


def _cast(tp, value):
    """``value`` as a field annotated ``tp``; _Invalid says what was expected."""
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin is typing.Union:  # Optional[X]
        return None if value is None else _cast(args[0], value)
    if origin in (tuple, list):
        fixed = origin is tuple and args[-1] is not Ellipsis
        if not isinstance(value, (list, tuple)) or (fixed and len(value) != len(args)):
            of = f"{len(args)} items" if fixed else _name(args[0])
            raise _Invalid(f"must be a JSON list of {of}, got {_name(type(value))}")
        types = args if fixed else args[:1] * len(value)
        items = []
        for i, (t, v) in enumerate(zip(types, value)):
            try:
                items.append(_cast(t, v))
            except _Invalid as exc:
                raise _Invalid(f"item {i} {exc}") from None
        return tuple(items) if origin is tuple else items
    if dataclasses.is_dataclass(tp):
        return value if isinstance(value, tp) else _record(tp, value)
    accepted = _SCALARS[tp]
    if not isinstance(value, accepted) or (tp is not bool and isinstance(value, bool)):
        raise _Invalid(f"must be {_name(tp)}, got {_name(type(value))}")
    try:
        return float(value) if tp is float else value
    except OverflowError:  # an int past the float range
        raise _Invalid("must be float, got an int too large for a float") from None


def _name(tp) -> str:
    return tp.__name__ if isinstance(tp, type) else str(tp)
