"""Independent curation reference and input readers for the benchmark.

Nothing here imports ``rankgate``. The store file is parsed from its
documented binary layout, the probe/pool selection and probe degradation
are replayed from the algorithm described in ``rankgate.curation``, and
each search is a naive full sort: one dot product per gallery row, ties
broken by ``(identity_id, image_id)``.
"""

from __future__ import annotations

import csv
import hashlib
import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class Record:
    identity_id: str
    image_id: str
    group: str
    capture_index: int
    vector: np.ndarray


@dataclass(frozen=True)
class Expected:
    """One reference sample: what curation must emit for a probe and label."""

    probe_identity: str
    label: int
    ranks: tuple[int, ...]
    rank_one_identity: str
    gallery_size: int


def read_store(path) -> list[Record]:
    """Records of an ``OGEM`` binary store, in file order."""
    data = Path(path).read_bytes()
    if data[:4] != b"OGEM":
        raise ValueError(f"{path}: bad magic")
    _version, dim, count = struct.unpack_from("<IIQ", data, 4)
    pos = 20
    out = []
    for _ in range(count):
        fields = []
        for _ in range(3):
            (n,) = struct.unpack_from("<H", data, pos)
            fields.append(data[pos + 2 : pos + 2 + n].decode("utf-8"))
            pos += 2 + n
        (capture,) = struct.unpack_from("<I", data, pos)
        vec = np.frombuffer(data, dtype="<f4", count=dim, offset=pos + 4)
        pos += 4 + 4 * dim
        out.append(Record(*fields, capture, vec.astype(np.float64)))
    if pos != len(data):
        raise ValueError(f"{path}: trailing bytes")
    return out


def read_samples_csv(path) -> list[dict]:
    """Rows of a rank-sample CSV as dicts with int label, size and ranks."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = []
        for row in reader:
            rows.append(
                {
                    "probe_identity": row[0],
                    "label": int(row[3]),
                    "gallery_size": int(row[4]),
                    "ranks": tuple(int(x) for x in row[5:]),
                }
            )
    if header[5:] != [f"r{i + 1}" for i in range(len(header) - 5)]:
        raise ValueError(f"{path}: unexpected header {header}")
    return rows


def stream_seed(master: int, *labels: str) -> int:
    text = "|".join([str(int(master))] + [str(x) for x in labels])
    return int.from_bytes(hashlib.sha256(text.encode("utf-8")).digest()[:8], "little")


def _pcg(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))


def _select(records: list[Record], d_in: int, rng_seed: int):
    """(probe, pool) per eligible identity, identities ascending."""
    by_identity: dict[str, list[Record]] = {}
    for r in records:
        by_identity.setdefault(r.identity_id, []).append(r)
    chosen = []
    for ident in sorted(by_identity):
        recs = sorted(by_identity[ident], key=lambda r: r.image_id)
        if len(recs) < d_in + 2:
            continue
        probe = max(recs, key=lambda r: (r.capture_index, r.image_id))
        candidates = [r for r in recs if r is not probe]
        rng = _pcg(stream_seed(rng_seed, ident, "pool"))
        idx = list(range(len(candidates)))
        for i in range(d_in + 1):
            j = int(rng.integers(i, len(candidates)))
            idx[i], idx[j] = idx[j], idx[i]
        chosen.append((probe, [candidates[t] for t in idx[: d_in + 1]]))
    return chosen


def _rank_vector(gallery: list[Record], probe: np.ndarray, d_in: int):
    order = sorted(
        gallery,
        key=lambda r: (-float(np.dot(r.vector, probe)), r.identity_id, r.image_id),
    )
    winner = order[0].identity_id
    held = [pos + 1 for pos, r in enumerate(order) if r.identity_id == winner]
    return winner, tuple(held[1 : d_in + 1])


def expected_samples(
    records: list[Record],
    *,
    group: str,
    d_in: int,
    rng_seed: int,
    sigma: float,
    n_probes: int,
) -> list[Expected]:
    """Reference in- and out-of-gallery samples for ``n_probes`` probes.

    The probes are spread evenly over the eligible identities of ``group``
    (all records when ``group`` is empty).
    """
    if group:
        records = [r for r in records if r.group == group]
    chosen = _select(records, d_in, rng_seed)
    gallery = [r for _, pool in chosen for r in pool]
    last = len(chosen) - 1
    picks = sorted({round(i * last / (n_probes - 1)) for i in range(n_probes)})
    out = []
    for i in picks:
        probe_rec = chosen[i][0]
        ident = probe_rec.identity_id
        vec = probe_rec.vector
        if sigma > 0:
            rng = _pcg(stream_seed(rng_seed, ident, "degrade"))
            w = vec + sigma * rng.standard_normal(vec.shape[0])
            vec = w / math.sqrt(float(np.dot(w, w)))
        reduced = [r for r in gallery if r.identity_id != ident]
        for label, rows in ((1, gallery), (0, reduced)):
            winner, ranks = _rank_vector(rows, vec, d_in)
            out.append(Expected(ident, label, ranks, winner, len(rows)))
    return out


def compare(expected: list[Expected], got: dict, with_winner: bool) -> list[str]:
    """Mismatches between reference samples and ``got``.

    ``got`` maps ``(probe_identity, label)`` to a dict with ``ranks``,
    ``gallery_size`` and, when ``with_winner``, ``rank_one_identity``.
    """
    problems = []
    for e in expected:
        g = got.get((e.probe_identity, e.label))
        if g is None:
            problems.append(f"no sample for probe {e.probe_identity} label {e.label}")
            continue
        want = (e.ranks, e.gallery_size) + ((e.rank_one_identity,) if with_winner else ())
        have = (tuple(g["ranks"]), g["gallery_size"]) + (
            (g["rank_one_identity"],) if with_winner else ()
        )
        if want != have:
            problems.append(
                f"probe {e.probe_identity} label {e.label}: reference {want}, got {have}"
            )
    return problems
