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
  over 65535 UTF-8 bytes), so writing one never fails halfway. The reader
  walks the records in one :meth:`~rankgate.codec.Reader.records` call,
  which parses each record's strings and capture_index and gathers the
  vector bytes into one buffer, read as one matrix. A header whose record
  count cannot fit in the bytes that follow is refused before any buffer
  is sized from it.
* CSV: header ``identity_id,image_id,group,capture_index,v0,...,v{d-1}``,
  one record per row. The four leading fields go through
  :func:`~rankgate.codec.csv_line` (quoted where needed) and each line ends
  in ``\\r\\n``; each component is printed as ``'%.9g' % x``.
  Nine significant digits identify every float32 uniquely, so the file
  holds exactly the stored bits. The reader rounds ``float(field)`` to
  float32, as the binary format holds it: a finite value past float32's
  range is refused, naming its line, and a magnitude below half the
  smallest subnormal (about 7e-46) becomes 0. The printed decimal, and
  its float64 parse, lie within 5.1e-9 (relative) of the float32 printed,
  well inside its half-ulp (at least 2.9e-8), so a written row parses
  back to its own bits, and the CSV reader hands :func:`unit_rows` what
  the binary reader does.

Vectors are normalized once, at ingest, so downstream search can treat dot
products as cosine similarities. :func:`unit_rows` rounds each row ``x`` to
float32 and keeps it if its float64 norm lies within ``β(D)`` of 1
(:func:`norm_window`). Any other row takes one step, ``f32(x / ||x||)``,
whose float64 part, :func:`l2_normalize_rows`, is the package's one row
step (tiny rows are scaled first, below); ``synth``'s means and curation's
degraded probes take it too. Every step's output lies within ``β``
(below), so a second call keeps every row, and a written store re-ingests
bit-equal in either format. A row from elsewhere that is already within
``β`` of unit norm is kept as it is, not nudged.

**The window**, in the rounding model of :mod:`rankgate.search` (``u₃₂``,
``u₆₄``, ``γ_D``, and ``η`` for underflow), for a row ``x`` of norm ``t``:

* The float64 sum of squares is ``t²(1 + θ)`` with ``|θ| ≤ γ_D(u₆₄) +
  D·2⁻¹⁰⁷⁵/t²``, and its square root ``s`` adds a ``u₆₄``. A row whose sum
  is below ``2⁻⁶⁰⁰`` is first scaled by ``2⁶⁰⁰``: that is exact, leaves
  ``x / ||x||`` as it is, and makes ``t² ≥ 2⁻⁹⁴⁸``, so the underflow part
  of ``θ`` is below ``D·2⁻¹²⁷``.
* Each ``xᵢ / s`` is rounded to float64 (``u₆₄``, ``|η| ≤ 2⁻¹⁰⁷⁵``), then
  to float32 (``u₃₂``, and ``|η| ≤ 2⁻¹⁵⁰`` in its subnormal range). So the
  stored row ``y`` has ``|‖y‖ − 1| ≤ u₃₂ + 2u₆₄ + |θ|/2 +
  √D·(2⁻¹⁵⁰ + 2⁻¹⁰⁷⁴)`` to first order.
* The check squares float32 components exactly in float64 (24-bit
  significands; squares between ``2⁻²⁹⁸`` and ``2²⁵⁶``), so only its
  ``D − 1`` additions (``γ_{D−1}(u₆₄)``) and its square root ``c``
  (``u₆₄``) round, and ``c − 1`` is exact for ``c`` in [1/2, 2]
  (Sterbenz).

So a stepped row has ``|c − 1| ≤ u₃₂ + 3u₆₄ + γ_D(u₆₄) + √D·2⁻¹⁵⁰`` to
first order, and ``β(D)`` is 1.01 times that. The 1% covers the
second-order terms, the float64 underflow terms (below ``2⁻⁹⁵`` for the
binary format's u32 dimension) and the rounding of ``β``. For every such
``D``, ``β < 5.5·10⁻⁷``, over 18 times inside ``NORM_TOLERANCE``; at
D = 64 it is ``6.0·10⁻⁸``.
"""

from __future__ import annotations

import math
import struct
from pathlib import Path

import numpy as np

from .codec import Reader, StoreFormatError, csv_line, csv_table, encode_str

NORM_TOLERANCE = 1e-5
# Rows that unit_rows normalizes together; the size of its temporaries.
BLOCK_ROWS = 256
# The rounding model of the window, and of search's bound.
_U32 = 2.0**-24
_U64 = 2.0**-53
_F32_UNDERFLOW = 2.0**-150  # half the smallest float32 subnormal
_TINY = 2.0**-600  # a row whose sum of squares is smaller is scaled by 1 / _TINY

FORMATS = ("binary", "csv")
_MAGIC = b"OGEM"
_VERSION = 1
_CSV_META_COLUMNS = ("identity_id", "image_id", "group", "capture_index")
_CSV_COLUMN = "v{}".format


class RowError(ValueError):
    """A row that cannot be normalized; ``row`` is its index in the input."""

    def __init__(self, row: int, reason: str):
        super().__init__(reason)
        self.row = row


def norm_window(dimension: int) -> float:
    """``β(D)``: the float64 norm of every output of the normalization step
    lies within it of 1, as the module docstring proves."""
    d = dimension
    return 1.01 * (_U32 + 3 * _U64 + d * _U64 / (1 - d * _U64) + _F32_UNDERFLOW * math.sqrt(d))


def unit_rows(rows) -> np.ndarray:
    """Normalize each row of an ``(n, D)`` matrix to a float32 unit vector,
    by the rule of the module docstring; a second call keeps every row.

    Raises:
        RowError: as :func:`l2_normalize_rows`, for the first row that
            takes the step and cannot; ``row`` is its index in ``rows``.
    """
    rows = np.asarray(rows)
    if rows.ndim != 2:
        raise ValueError(f"expected an (n, dimension) matrix, got shape {rows.shape}")
    beta = norm_window(rows.shape[1])
    out = np.empty(rows.shape, dtype=np.float32)
    for start in range(0, len(rows), BLOCK_ROWS):
        block = rows[start : start + BLOCK_ROWS]
        cur = out[start : start + len(block)]
        # A row past float32's range rounds to inf and takes the step.
        with np.errstate(over="ignore", invalid="ignore"):
            cur[:] = block
            step = ~(np.abs(np.sqrt(_row_dots(cur.astype(np.float64))) - 1.0) <= beta)
        try:
            cur[step] = l2_normalize_rows(block[step])
        except RowError as exc:
            raise RowError(start + int(np.flatnonzero(step)[exc.row]), str(exc)) from None
    return out


def l2_normalize_rows(rows) -> np.ndarray:
    """Each row of an ``(n, D)`` matrix over its float64 norm, as float64,
    a row whose sum of squares is below ``2⁻⁶⁰⁰`` scaled by ``2⁶⁰⁰`` first.
    Raises RowError for the first row with a non-finite component, a zero
    norm or a norm past the float64 range; ``row`` is its index."""
    x = np.ascontiguousarray(rows, dtype=np.float64)
    with np.errstate(over="ignore"):  # an overflowing row is refused below
        dots = _row_dots(x)
    # Python floats are cheaper than numpy reductions on one row; NaN or inf fails the sum.
    squares = dots.tolist()
    if not (min(squares, default=_TINY) >= _TINY and sum(squares) < math.inf):
        tiny = dots < _TINY
        x = x.copy()  # ``x`` may be the caller's array
        x[tiny] /= _TINY
        dots[tiny] = _row_dots(x[tiny])
        bad = ~((dots > 0) & (dots < math.inf))
        if bad.any():
            i = int(bad.argmax())
            if not np.isfinite(x[i]).all():
                raise RowError(i, "vector has non-finite components")
            if dots[i] == 0:
                raise RowError(i, "cannot normalize a zero vector")
            raise RowError(i, "vector norm overflows float64")
    return x / np.sqrt(dots[:, None])


def l2_normalize(v) -> np.ndarray:
    """``v / ||v||`` as float64 for a 1-d ``v``: :func:`l2_normalize_rows` of one row."""
    w = np.asarray(v, dtype=np.float64)
    if w.ndim != 1:
        raise ValueError(f"expected a 1-d vector, got shape {w.shape}")
    return l2_normalize_rows(w[None])[0]


def _row_dots(x: np.ndarray) -> np.ndarray:
    """Each row's ``np.dot(w, w)``, bit for bit, for a C-contiguous float64
    ``x``: a stack of ``(1, D) @ (D, 1)`` products runs the same ``ddot``.
    ``einsum("ij,ij->i")`` and ``(x * x).sum(1)`` add in other orders and
    change the last bit on about half the rows."""
    return (x[:, None, :] @ x[:, :, None])[:, 0, 0]


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
        """Substore containing exactly the rows labeled ``group``: the store
        itself, which is immutable, when every row is."""
        if group not in self.groups:
            known = ", ".join(sorted(set(self.groups))) or "<none>"
            raise ValueError(f"unknown group {group!r}; store has: {known}")
        if self.groups.count(group) == len(self):
            return self
        rows = [i for i, g in enumerate(self.groups) if g == group]
        return EmbeddingStore(
            [self.identity_ids[i] for i in rows],
            [self.image_ids[i] for i in rows],
            [group] * len(rows),
            self.capture_index[rows],
            self.vectors[rows],
        )


def write_store(store: EmbeddingStore, path, format: str = "binary") -> None:
    """Write a store to ``path`` in one of :data:`FORMATS`."""
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
        # A formatted float never needs quoting, so the components go in
        # one % format.
        line = "%s," + ",".join(["%.9g"] * store.dimension) + "\r\n"
        with open(path, "w", newline="") as fh:
            header = [*_CSV_META_COLUMNS, *map(_CSV_COLUMN, range(store.dimension))]
            fh.write(csv_line(header) + "\r\n")
            for start in range(0, len(store), BLOCK_ROWS):
                block = store.vectors[start : start + BLOCK_ROWS].tolist()
                # The block goes first, so zip stops without taking a row's fields.
                for vector, fields in zip(block, rows):
                    fh.write(line % (csv_line(fields), *vector))
    else:
        raise ValueError(f"unknown store format {format!r}, expected one of {FORMATS}")


def ingest(path, format: str = "binary") -> EmbeddingStore:
    """Parse, validate and normalize an embedding file into a store.

    Args:
        path: file to read.
        format: one of :data:`FORMATS`.

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
    raise ValueError(f"unknown store format {format!r}, expected one of {FORMATS}")


def _ingest_binary(path: Path) -> EmbeddingStore:
    reader = Reader(path.read_bytes())
    reader.header(_MAGIC, _VERSION, f"embedding store {path}")
    dimension = reader.u32()
    if dimension == 0:
        raise StoreFormatError("header declares dimension 0")
    count = reader.u64()
    size = 4 * dimension
    remaining = reader.remaining()
    # Three empty strings, the capture index and the vector.
    if count * (10 + size) > remaining:
        raise StoreFormatError(
            f"unexpected end of file: header declares {count} records, more "
            f"than the {remaining} remaining bytes can hold"
        )
    (identity_ids, image_ids, groups), capture, raw = reader.records(count, size)
    reader.end(f"{count} declared records")
    # The file's bytes, then the raw vectors, go before the store's sorted copy.
    del reader
    try:
        matrix = unit_rows(np.frombuffer(raw, dtype="<f4").reshape(count, dimension))
    except RowError as exc:
        key = (identity_ids[exc.row], image_ids[exc.row])
        raise ValueError(f"record {exc.row} {key}: {exc}") from None
    del raw
    return EmbeddingStore(identity_ids, image_ids, groups, capture, matrix)


def _ingest_csv(path: Path) -> EmbeddingStore:
    with open(path, newline="") as fh:
        dimension, rows = csv_table(fh, path, _CSV_META_COLUMNS, _CSV_COLUMN)
        identity_ids, image_ids, groups, capture = [], [], [], []
        # Rows are parsed into one float64 block, then rounded to float32
        # and normalized a block at a time; ``lines`` holds the file line
        # on which each row in the block starts.
        block = np.empty((BLOCK_ROWS, dimension))
        lines, blocks = [], []
        for lineno, row in rows:
            try:
                capture.append(int(row[3]))
                block[len(lines)] = np.fromiter(map(float, row[4:]), np.float64, dimension)
            except ValueError as exc:
                raise StoreFormatError(f"line {lineno}: {exc}") from exc
            identity_ids.append(row[0])
            image_ids.append(row[1])
            groups.append(row[2])
            lines.append(lineno)
            if len(lines) == BLOCK_ROWS:
                blocks.append(_unit_lines(block, lines))
                lines = []
    blocks.append(_unit_lines(block[: len(lines)], lines))
    matrix = np.concatenate(blocks)
    return EmbeddingStore(identity_ids, image_ids, groups, capture, matrix)


def _unit_lines(parsed: np.ndarray, lines: list) -> np.ndarray:
    """:func:`unit_rows` of CSV rows parsed as float64, each component
    rounded to float32 first; an error names the row's line."""
    with np.errstate(over="ignore"):  # a finite value past float32, refused below
        block = parsed.astype(np.float32)
    try:
        return unit_rows(block)
    except RowError as exc:
        source, rounded = parsed[exc.row], block[exc.row]
        if np.isfinite(source).all() and np.isinf(rounded).any():
            column = int(np.isinf(rounded).argmax())
            raise ValueError(
                f"line {lines[exc.row]}: v{column} = {float(source[column])!r} "
                f"is outside the float32 range"
            ) from None
        raise ValueError(f"line {lines[exc.row]}: {exc}") from None
