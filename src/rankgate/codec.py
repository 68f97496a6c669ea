"""One way to read and write the package's file formats.

Binary formats (embedding stores and models) open with a magic tag and a
u32 version, use little-endian fixed-width integers and u16-length-prefixed
UTF-8 strings, and end exactly where their declared contents end.
:class:`Reader` checks all three, so a truncated, foreign or padded file is
rejected the same way whichever format it claims to be.

JSON blocks (experiment plans, synth configs, the model's config block)
are written with :func:`dataclasses.asdict` and read back with
:func:`from_dict`, so a dataclass's fields are the only list of its keys.
"""

from __future__ import annotations

import dataclasses
import struct


class StoreFormatError(ValueError):
    """Raised when a file does not follow its declared format."""


def encode_str(s: str) -> bytes:
    """u16 byte length, then the UTF-8 bytes."""
    raw = s.encode("utf-8")
    if len(raw) > 0xFFFF:
        raise ValueError(f"string field too long to encode: {len(raw)} bytes")
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
        if self.pos != len(self.data):
            raise StoreFormatError(
                f"{len(self.data) - self.pos} trailing bytes after {what}"
            )

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise StoreFormatError("unexpected end of file")
        out = self.data[self.pos : self.pos + n]
        self.pos += n
        return out

    def u16(self) -> int:
        return struct.unpack("<H", self.take(2))[0]

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def u64(self) -> int:
        return struct.unpack("<Q", self.take(8))[0]

    def string(self) -> str:
        n = self.u16()
        try:
            return self.take(n).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise StoreFormatError(f"invalid UTF-8 in string field: {exc}") from exc


def from_dict(cls, payload, what: str, required=()):
    """Build dataclass ``cls`` from its JSON object form.

    Keys are the dataclass's field names. A field without a default, and
    every name in ``required``, must be present; any other key is an error,
    so a misspelt field cannot silently fall back to its default. A present
    value is cast by the type of its field's default (``1`` for a float
    field becomes ``1.0``, a list for a tuple field becomes a tuple), so a
    loaded object equals, and serializes like, the one that was written.
    Fields defaulting to ``None`` or without a default are passed as they
    are. Raises ValueError prefixed with ``what``, also for a value the
    dataclass itself rejects.
    """
    if not isinstance(payload, dict):
        raise ValueError(f"{what}: expected a JSON object, got {type(payload).__name__}")
    fields = {f.name: f for f in dataclasses.fields(cls)}
    for key in payload:
        if key not in fields:
            raise ValueError(f"{what}: unknown field {key!r}")
    for name, f in fields.items():
        no_default = (
            f.default is dataclasses.MISSING
            and f.default_factory is dataclasses.MISSING
        )
        if name not in payload and (no_default or name in required):
            raise ValueError(f"{what}: missing required field {name!r}")
    try:
        return cls(
            **{key: _cast(fields[key].default, value) for key, value in payload.items()}
        )
    except (TypeError, ValueError) as exc:
        # TypeError: a value of the wrong JSON type, e.g. a number where a
        # list belongs.
        raise ValueError(f"{what}: {exc}") from None


def _cast(default, value):
    if default is None or default is dataclasses.MISSING:
        return value
    return type(default)(value)
