"""Embedding storage with identity metadata and strict validation.

Records carry an identity id, an image id unique within the identity, a
demographic group label, a capture order index, and a unit-norm float32
vector. A store holds records of one dimension, sorted by
``(identity_id, image_id)``.

Two interchangeable on-disk formats:

* Binary: magic ``OGEM``, u32 version (1), u32 dimension, u64 record count,
  then per record a u16-length-prefixed UTF-8 identity_id, image_id and
  group, a u32 capture_index, and ``dimension`` little-endian f32
  components. Read and written with :mod:`rankgate.codec`, which also
  owns :class:`StoreFormatError` (re-exported here); a file with bytes
  after its last declared record is rejected.
* CSV: header ``identity_id,image_id,group,capture_index,v0,...,v{d-1}``,
  one record per row, components printed with full round-trip precision.

Vectors are normalized exactly once, at ingest, so downstream search can
treat dot products as cosine similarities. Normalization iterates
``x -> f32(x / ||x||)`` with the norm accumulated in f64 until the f32 bits
stop changing; stored vectors are therefore fixed points of the map and a
written store re-ingests bit-equal.
"""

from __future__ import annotations

import csv
import math
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from .codec import Reader, StoreFormatError, encode_str

NORM_TOLERANCE = 1e-5

_MAGIC = b"OGEM"
_VERSION = 1
_CSV_META_COLUMNS = ("identity_id", "image_id", "group", "capture_index")


def l2_normalize(v) -> np.ndarray:
    """Return ``v / ||v||`` as float64.

    Args:
        v: 1-d array-like with finite components and nonzero norm.

    Raises:
        ValueError: on non-1-d input, non-finite components, or a zero vector.
    """
    w = np.asarray(v, dtype=np.float64)
    if w.ndim != 1:
        raise ValueError(f"expected a 1-d vector, got shape {w.shape}")
    if not np.all(np.isfinite(w)):
        raise ValueError("vector has non-finite components")
    n = math.sqrt(float(np.dot(w, w)))
    if n == 0.0:
        raise ValueError("cannot normalize a zero vector")
    return w / n


def unit_f32(v) -> np.ndarray:
    """Normalize ``v`` and round to float32, iterated to a bit-stable fixed point.

    Re-ingesting a vector produced here reproduces its bits exactly, which is
    what makes store round-trips byte-deterministic.
    """
    cur = l2_normalize(v).astype(np.float32)
    for _ in range(8):
        nxt = l2_normalize(cur.astype(np.float64)).astype(np.float32)
        if nxt.tobytes() == cur.tobytes():
            break
        cur = nxt
    return cur


@dataclass(frozen=True, eq=False)
class EmbeddingRecord:
    """One enrolled or probe image: metadata plus a unit-norm f32 vector."""

    identity_id: str
    image_id: str
    group: str
    capture_index: int
    vector: np.ndarray

    def key(self) -> tuple[str, str]:
        return (self.identity_id, self.image_id)


class EmbeddingStore:
    """Immutable collection of validated records of one dimension.

    Iteration order is always ascending ``(identity_id, image_id)``
    regardless of construction order.
    """

    def __init__(self, dimension: int, records: Iterable[EmbeddingRecord]):
        if dimension <= 0:
            raise ValueError(f"dimension must be positive, got {dimension}")
        recs = sorted(records, key=lambda r: (r.identity_id, r.image_id))
        seen: set[tuple[str, str]] = set()
        for r in recs:
            if r.vector.shape != (dimension,):
                raise ValueError(
                    f"record {r.key()} has shape {r.vector.shape}, "
                    f"store dimension is {dimension}"
                )
            if r.key() in seen:
                raise ValueError(f"duplicate record key {r.key()}")
            seen.add(r.key())
            if not np.all(np.isfinite(r.vector)):
                raise ValueError(f"record {r.key()} has non-finite components")
            norm = float(np.linalg.norm(r.vector.astype(np.float64)))
            if abs(norm - 1.0) > NORM_TOLERANCE:
                raise ValueError(
                    f"record {r.key()} has norm {norm!r}, expected 1.0 "
                    f"within {NORM_TOLERANCE}"
                )
            if r.capture_index < 0:
                raise ValueError(
                    f"record {r.key()} has negative capture_index "
                    f"{r.capture_index}"
                )
        self._dimension = int(dimension)
        self._records = tuple(recs)
        self._groups = frozenset(r.group for r in recs)

    @property
    def dimension(self) -> int:
        return self._dimension

    @property
    def records(self) -> tuple[EmbeddingRecord, ...]:
        return self._records

    @property
    def groups(self) -> frozenset[str]:
        return self._groups

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[EmbeddingRecord]:
        return iter(self._records)

    def by_identity(self) -> dict[str, tuple[EmbeddingRecord, ...]]:
        """Group records by identity, identities and images both ascending."""
        out: dict[str, list[EmbeddingRecord]] = {}
        for r in self._records:
            out.setdefault(r.identity_id, []).append(r)
        return {k: tuple(v) for k, v in out.items()}

    def filter_by_group(self, group: str) -> "EmbeddingStore":
        """Substore containing exactly the records labeled ``group``."""
        if group not in self._groups:
            known = ", ".join(sorted(self._groups)) or "<none>"
            raise ValueError(f"unknown group {group!r}; store has: {known}")
        return EmbeddingStore(
            self._dimension, [r for r in self._records if r.group == group]
        )

    def save(self, path, format: str = "binary") -> None:
        write_store(self, path, format)


def write_store(store: EmbeddingStore, path, format: str = "binary") -> None:
    """Write a store to ``path`` in the named format (``binary`` or ``csv``)."""
    path = Path(path)
    if format == "binary":
        with open(path, "wb") as fh:
            fh.write(_MAGIC)
            fh.write(struct.pack("<IIQ", _VERSION, store.dimension, len(store)))
            for r in store:
                fh.write(encode_str(r.identity_id))
                fh.write(encode_str(r.image_id))
                fh.write(encode_str(r.group))
                fh.write(struct.pack("<I", r.capture_index))
                fh.write(r.vector.astype("<f4").tobytes())
    elif format == "csv":
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            header = list(_CSV_META_COLUMNS) + [
                f"v{i}" for i in range(store.dimension)
            ]
            writer.writerow(header)
            for r in store:
                row = [r.identity_id, r.image_id, r.group, str(r.capture_index)]
                row.extend(repr(float(x)) for x in r.vector)
                writer.writerow(row)
    else:
        raise ValueError(f"unknown store format {format!r}")


def ingest(path, format: str = "binary") -> EmbeddingStore:
    """Parse, validate and normalize an embedding file into a store.

    Args:
        path: file to read.
        format: ``binary`` or ``csv``.

    Raises:
        StoreFormatError: malformed file (bad magic, truncation, bad header,
            trailing bytes, unparseable values).
        ValueError: contract violations (duplicate keys, non-finite or
            zero-norm vectors, dimension mismatches).
    """
    path = Path(path)
    if format == "binary":
        return _ingest_binary(path)
    if format == "csv":
        return _ingest_csv(path)
    raise ValueError(f"unknown store format {format!r}")


def _ingest_binary(path: Path) -> EmbeddingStore:
    reader = Reader(path.read_bytes())
    reader.header(_MAGIC, _VERSION, f"embedding store {path}")
    dimension = reader.u32()
    if dimension == 0:
        raise StoreFormatError("header declares dimension 0")
    count = reader.u64()
    records = []
    for _ in range(count):
        identity_id = reader.string()
        image_id = reader.string()
        group = reader.string()
        capture_index = reader.u32()
        raw = reader.take(4 * dimension)
        vec = np.frombuffer(raw, dtype="<f4").astype(np.float64)
        records.append(
            EmbeddingRecord(identity_id, image_id, group, capture_index, unit_f32(vec))
        )
    reader.end(f"{count} declared records")
    return EmbeddingStore(dimension, records)


def _ingest_csv(path: Path) -> EmbeddingStore:
    with open(path, newline="") as fh:
        rows = csv.reader(fh)
        try:
            header = next(rows)
        except StopIteration:
            raise StoreFormatError(f"{path} is empty") from None
        if tuple(header[:4]) != _CSV_META_COLUMNS:
            raise StoreFormatError(
                f"bad CSV header, expected leading columns {_CSV_META_COLUMNS}"
            )
        dimension = len(header) - 4
        if dimension <= 0:
            raise StoreFormatError("CSV header has no vector columns")
        expected = [f"v{i}" for i in range(dimension)]
        if header[4:] != expected:
            raise StoreFormatError("CSV vector columns must be v0..v{d-1} in order")
        records = []
        for lineno, row in enumerate(rows, start=2):
            if not row:
                continue
            if len(row) != 4 + dimension:
                raise StoreFormatError(
                    f"line {lineno}: expected {4 + dimension} fields, got {len(row)}"
                )
            try:
                capture_index = int(row[3])
                vec = np.array([float(x) for x in row[4:]], dtype=np.float64)
            except ValueError as exc:
                raise StoreFormatError(f"line {lineno}: {exc}") from exc
            records.append(
                EmbeddingRecord(row[0], row[1], row[2], capture_index, unit_f32(vec))
            )
    return EmbeddingStore(dimension, records)
