"""Columnar embedding storage with identity metadata and strict validation.

A store holds one row per image: ``identity_ids``, ``image_ids`` (unique
within an identity) and ``groups`` as tuples of ``str``, an int64
``capture_index`` array, and ``vectors``, one C-contiguous float32
``(n, D)`` matrix of unit-norm rows. Rows are sorted by ``(identity_id,
image_id)`` once, at construction, where every check runs once over whole
columns; so row numbers are search's tie order, and each identity is one
run of rows. Ids stay Python strings: numpy ``U`` arrays drop trailing NUL
characters, which a binary store can hold.

Two interchangeable on-disk formats:

* Binary: magic ``OGEM``, u32 version (1), u32 dimension, u64 record count,
  then per record a u16-length-prefixed UTF-8 identity_id, image_id and
  group, a u32 capture_index, and ``dimension`` little-endian f32
  components. Read and written with :mod:`rankgate.codec`, which also
  owns :class:`StoreFormatError` (re-exported here); a file with bytes
  after its last declared record is rejected. A store refuses what this
  format cannot hold (a ``capture_index`` of 2³² or more, an id or group
  over 65535 UTF-8 bytes), so writing one never fails halfway.
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
from pathlib import Path

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


class EmbeddingStore:
    """Immutable, validated columns of one dimension, one row per image.

    Takes the columns in any row order, ``vectors`` as an ``(n, D)``
    array-like. Raises ValueError on columns of different lengths, a
    duplicate key, a non-finite or non-unit vector, or a value the binary
    format cannot hold.
    """

    def __init__(self, identity_ids, image_ids, groups, capture_index, vectors):
        try:
            matrix = np.asarray(vectors, dtype=np.float32)
        except ValueError as exc:  # vectors of different lengths
            raise ValueError(f"vectors differ in dimension: {exc}") from None
        # No integer dtype is forced: an int past 64 bits makes an object
        # array, so the range check below sees every value as given.
        capture = np.asarray(capture_index)
        if matrix.ndim != 2 or matrix.shape[1] < 1:
            raise ValueError(f"vectors must be an (n, dimension) matrix, got {matrix.shape}")
        n = len(matrix)
        if not len(identity_ids) == len(image_ids) == len(groups) == len(capture) == n:
            raise ValueError("store columns differ in length")
        order = sorted(range(n), key=lambda i: (identity_ids[i], image_ids[i]))
        self.identity_ids = tuple(identity_ids[i] for i in order)
        self.image_ids = tuple(image_ids[i] for i in order)
        self.groups = tuple(groups[i] for i in order)
        keys = list(zip(self.identity_ids, self.image_ids))
        for prev, key in zip(keys, keys[1:]):
            if key == prev:
                raise ValueError(f"duplicate record key {key}")
        capture = capture[order]
        outside = (capture < 0) | (capture >= 2**32)
        if outside.any():
            bad = int(outside.argmax())
            raise ValueError(
                f"row {keys[bad]} has capture_index {capture[bad]}, "
                f"outside [0, 2**32)"
            )
        self.capture_index = capture.astype(np.int64)
        self.vectors = matrix[order]
        # Squares of finite float32 values cannot overflow a float64 sum.
        v = self.vectors
        norms = np.sqrt(np.einsum("ij,ij->i", v, v, dtype=np.float64))
        finite = np.isfinite(norms)
        if not finite.all():
            raise ValueError(f"row {keys[finite.argmin()]} has non-finite components")
        off = np.abs(norms - 1.0) > NORM_TOLERANCE
        if off.any():
            bad = int(off.argmax())
            raise ValueError(
                f"row {keys[bad]} has norm {float(norms[bad])!r}, expected 1.0 "
                f"within {NORM_TOLERANCE}"
            )
        for text in {*self.identity_ids, *self.image_ids, *self.groups}:
            encode_str(text)  # raises when over 65535 UTF-8 bytes
        self.capture_index.flags.writeable = False
        self.vectors.flags.writeable = False

    @property
    def dimension(self) -> int:
        return self.vectors.shape[1]

    def __len__(self) -> int:
        return len(self.identity_ids)

    def filter_by_group(self, group: str) -> "EmbeddingStore":
        """Substore containing exactly the rows labeled ``group``."""
        if group not in self.groups:
            known = ", ".join(sorted(set(self.groups))) or "<none>"
            raise ValueError(f"unknown group {group!r}; store has: {known}")
        rows = [i for i, g in enumerate(self.groups) if g == group]
        return EmbeddingStore(
            [self.identity_ids[i] for i in rows],
            [self.image_ids[i] for i in rows],
            [group] * len(rows),
            self.capture_index[rows],
            self.vectors[rows],
        )


def write_store(store: EmbeddingStore, path, format: str = "binary") -> None:
    """Write a store to ``path`` in the named format (``binary`` or ``csv``)."""
    path = Path(path)
    rows = zip(
        store.identity_ids, store.image_ids, store.groups, store.capture_index.tolist()
    )
    if format == "binary":
        vectors = store.vectors.astype("<f4", copy=False)
        with open(path, "wb") as fh:
            fh.write(_MAGIC)
            fh.write(struct.pack("<IIQ", _VERSION, store.dimension, len(store)))
            for (identity_id, image_id, group, capture), vector in zip(rows, vectors):
                fh.write(encode_str(identity_id))
                fh.write(encode_str(image_id))
                fh.write(encode_str(group))
                fh.write(struct.pack("<I", capture))
                fh.write(vector)
    elif format == "csv":
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            header = list(_CSV_META_COLUMNS) + [
                f"v{i}" for i in range(store.dimension)
            ]
            writer.writerow(header)
            for (identity_id, image_id, group, capture), vector in zip(rows, store.vectors):
                row = [identity_id, image_id, group, str(capture)]
                row.extend(repr(x) for x in vector.tolist())
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
            zero-norm vectors, values the binary format cannot hold).
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
    identity_ids, image_ids, groups, capture, vectors = [], [], [], [], []
    for _ in range(count):
        identity_ids.append(reader.string())
        image_ids.append(reader.string())
        groups.append(reader.string())
        capture.append(reader.u32())
        raw = reader.take(4 * dimension)
        vec = np.frombuffer(raw, dtype="<f4").astype(np.float64)
        vectors.append(unit_f32(vec))
    reader.end(f"{count} declared records")
    matrix = np.reshape(vectors, (-1, dimension))  # (0, dimension) when empty
    return EmbeddingStore(identity_ids, image_ids, groups, capture, matrix)


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
        identity_ids, image_ids, groups, capture, vectors = [], [], [], [], []
        for lineno, row in enumerate(rows, start=2):
            if not row:
                continue
            if len(row) != 4 + dimension:
                raise StoreFormatError(
                    f"line {lineno}: expected {4 + dimension} fields, got {len(row)}"
                )
            try:
                capture.append(int(row[3]))
                vec = np.array([float(x) for x in row[4:]], dtype=np.float64)
            except ValueError as exc:
                raise StoreFormatError(f"line {lineno}: {exc}") from exc
            identity_ids.append(row[0])
            image_ids.append(row[1])
            groups.append(row[2])
            vectors.append(unit_f32(vec))
    matrix = np.reshape(vectors, (-1, dimension))  # (0, dimension) when empty
    return EmbeddingStore(identity_ids, image_ids, groups, capture, matrix)
