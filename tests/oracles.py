"""Independent reference implementations the real modules are checked against.

Everything here is deliberately naive: python loops, explicit sorts,
hashlib called directly. None of it shares code with the package beyond
plain data containers, so a bug in the production path cannot hide in the
oracle.
"""

from __future__ import annotations

import hashlib
import math
from collections import namedtuple

import numpy as np

Row = namedtuple("Row", "identity_id image_id group capture_index vector")


def oracle_rows(store) -> list:
    """A store's rows as plain ``Row`` tuples, read from its columns."""
    return [
        Row(*fields)
        for fields in zip(
            store.identity_ids,
            store.image_ids,
            store.groups,
            store.capture_index.tolist(),
            store.vectors,
        )
    ]


def naive_norm(vector) -> float:
    """Euclidean norm via exact compensated summation of squares."""
    return math.sqrt(math.fsum(float(x) * float(x) for x in vector))


def oracle_l2_normalize(v) -> np.ndarray:
    """``v / ||v||`` in float64, one row at a time: the per-row normalization
    the store used before it worked on blocks, kept as written."""
    w = np.asarray(v, dtype=np.float64)
    if w.ndim != 1:
        raise ValueError(f"expected a 1-d vector, got shape {w.shape}")
    if not np.all(np.isfinite(w)):
        raise ValueError("vector has non-finite components")
    n = math.sqrt(float(np.dot(w, w)))
    if n == 0.0:
        raise ValueError("cannot normalize a zero vector")
    return w / n


def oracle_unit_f32(v) -> np.ndarray:
    """One row by the rule of ``store.unit_rows``: the row rounded to
    float32 when its float64 norm is within ``β(D)`` of 1, else one step
    ``f32(v / ||v||)``, after scaling a row whose float64 sum of squares is
    below 2**-600 by 2**600."""
    w = np.asarray(v, dtype=np.float64)
    d = len(w)
    beta = 1.01 * (2.0**-24 + 3 * 2.0**-53 + d * 2.0**-53 / (1 - d * 2.0**-53)
                   + 2.0**-150 * math.sqrt(d))
    with np.errstate(over="ignore"):
        rounded = w.astype(np.float32)
    wide = rounded.astype(np.float64)
    if abs(math.sqrt(float(np.dot(wide, wide))) - 1.0) <= beta:
        return rounded
    if float(np.dot(w, w)) < 2.0**-600:
        w = w * 2.0**600
    return oracle_l2_normalize(w).astype(np.float32)


def oracle_stream_seed(master: int, *parts: str) -> int:
    """First 8 bytes of sha256("{master}|{part}|..."), little-endian."""
    text = str(int(master))
    for part in parts:
        text += "|" + str(part)
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def oracle_search_order(rows, probe) -> list[tuple[str, str]]:
    """Full ranking of ``((identity_id, image_id), vector)`` rows, best
    first: per-row dot product, then a plain sort on (-similarity,
    identity_id, image_id)."""
    probe = np.asarray(probe, dtype=np.float64)
    entries = []
    for (ident, image), vector in rows:
        sim = float(np.dot(np.asarray(vector, dtype=np.float64), probe))
        entries.append((-sim, ident, image))
    entries.sort()
    return [(ident, image) for _, ident, image in entries]


def oracle_rank_vector(order: list[tuple[str, str]], d_in: int):
    """Additional ranks of the rank-one identity from an oracle ranking.

    Returns (rank_one_identity, ranks tuple) or None when the winner has
    fewer than d_in images beyond rank 1.
    """
    top_identity = order[0][0]
    held = [pos + 1 for pos, (ident, _) in enumerate(order) if ident == top_identity]
    additional = held[1:]
    if len(additional) < d_in:
        return None
    return top_identity, tuple(additional[:d_in])


def oracle_select(store, d_in, rng_seed, min_images=None, enrolled=None):
    """Probe and pool per identity, replayed with explicit set arithmetic.

    Probe: the record with the highest (capture_index, image_id). Pool: a
    partial Fisher-Yates draw over the remaining records in ascending
    image_id order, from a PCG64 stream seeded per identity.
    """
    if min_images is None:
        min_images = d_in + 2
    if enrolled is None:
        enrolled = d_in + 1
    per_identity: dict[str, list] = {}
    for rec in oracle_rows(store):
        per_identity.setdefault(rec.identity_id, []).append(rec)
    chosen = []
    for ident in sorted(per_identity):
        recs = per_identity[ident]
        if len(recs) < min_images:
            continue
        probe = recs[0]
        for rec in recs[1:]:
            if (rec.capture_index, rec.image_id) > (probe.capture_index, probe.image_id):
                probe = rec
        rest = sorted(
            (r for r in recs if r.image_id != probe.image_id),
            key=lambda r: r.image_id,
        )
        rng = np.random.Generator(
            np.random.PCG64(oracle_stream_seed(rng_seed, ident, "pool"))
        )
        idx = list(range(len(rest)))
        for i in range(enrolled):
            j = int(rng.integers(i, len(rest)))
            idx[i], idx[j] = idx[j], idx[i]
        pool = [rest[t] for t in idx[:enrolled]]
        chosen.append((ident, probe, pool))
    return chosen


def oracle_curate(
    store,
    d_in,
    rng_seed,
    group,
    condition,
    degrade_sigma=0.0,
    min_images=None,
    enrolled=None,
):
    """Straight-line replay of the dual-search protocol.

    Returns (samples, skipped) where each sample is the tuple
    (ranks, label, probe_identity, group, condition, gallery_size,
    rank_one_identity).
    """
    chosen = oracle_select(store, d_in, rng_seed, min_images, enrolled)
    assert len(chosen) >= 2, "protocol needs at least two eligible identities"
    gallery = [rec for _, _, pool in chosen for rec in pool]
    samples = []
    skipped = 0
    for ident, probe, _pool in chosen:
        vec = probe.vector.astype(np.float64)
        if degrade_sigma > 0:
            rng = np.random.Generator(
                np.random.PCG64(oracle_stream_seed(rng_seed, ident, "degrade"))
            )
            noisy = vec + degrade_sigma * rng.standard_normal(vec.shape[0])
            # curation normalizes the noisy probe in degrade_probes and
            # once more on its result; replay both divisions bit for bit
            once = noisy / math.sqrt(float(np.dot(noisy, noisy)))
            vec = once / math.sqrt(float(np.dot(once, once)))
        sample_group = group if group else probe.group

        order_in = oracle_search_order(_keyed(gallery), vec)
        extracted = oracle_rank_vector(order_in, d_in)
        assert extracted is not None
        winner, ranks = extracted
        samples.append(
            (ranks, 1, ident, sample_group, condition, len(gallery), winner)
        )

        reduced = [rec for rec in gallery if rec.identity_id != ident]
        order_out = oracle_search_order(_keyed(reduced), vec)
        extracted = oracle_rank_vector(order_out, d_in)
        if extracted is None:
            skipped += 1
            continue
        winner, ranks = extracted
        samples.append(
            (ranks, 0, ident, sample_group, condition, len(reduced), winner)
        )
    return samples, skipped


def _keyed(rows) -> list:
    return [((r.identity_id, r.image_id), r.vector) for r in rows]


def sample_tuple(sample) -> tuple:
    """Project a RankSample onto the fields the protocol oracle produces."""
    return (
        tuple(sample.ranks),
        sample.label,
        sample.probe_identity,
        sample.group,
        sample.condition,
        sample.gallery_size,
        sample.rank_one_identity,
    )


def finite_difference_gradients(model, batch, loss_fn, step=1e-4):
    """Central-difference gradient of the batch loss for every parameter.

    Perturbs the live parameter arrays in place and restores them, so the
    model is unchanged afterwards. ``loss_fn(model, batch)`` must return the
    scalar loss; ``batch`` (for the MLP an ``(x, y)`` pair of arrays) is
    passed through as it is.
    """
    grads = {}
    for name, arr in model.params.items():
        flat = arr.ravel()
        grad = np.zeros(flat.size)
        for i in range(flat.size):
            saved = flat[i]
            flat[i] = saved + step
            plus = loss_fn(model, batch)
            flat[i] = saved - step
            minus = loss_fn(model, batch)
            flat[i] = saved
            grad[i] = (plus - minus) / (2.0 * step)
        grads[name] = grad.reshape(arr.shape)
    return grads


def oracle_threshold(scores, target_fpir) -> float:
    """Brute-force minimal sound threshold over observed-score candidates.

    Scans every candidate (one representable float above each distinct
    score) in ascending order and returns the first whose empirical FPIR
    does not exceed the target.
    """
    n = len(scores)
    candidates = sorted({float(np.nextafter(s, np.inf)) for s in scores})
    for cand in candidates:
        accepted = sum(1 for s in scores if s >= cand)
        if accepted / n <= target_fpir:
            return cand
    raise AssertionError("no sound candidate; unreachable for target > 0")


def oracle_centroid(rows, statistic):
    """Per-coordinate mean or median through explicit sorting."""
    d = len(rows[0])
    center = []
    for j in range(d):
        values = sorted(float(r[j]) for r in rows)
        if statistic == "mean":
            center.append(math.fsum(values) / len(values))
        else:
            m = len(values) // 2
            if len(values) % 2 == 1:
                center.append(values[m])
            else:
                center.append((values[m - 1] + values[m]) / 2.0)
    return np.array(center)


def oracle_fused_scores(rows, probe):
    """identity -> dot(probe, normalized mean of that identity's vectors),
    over ``((identity_id, image_id), vector)`` rows."""
    probe = np.asarray(probe, dtype=np.float64)
    per_identity: dict[str, list] = {}
    for (ident, _image), vector in rows:
        per_identity.setdefault(ident, []).append(
            np.asarray(vector, dtype=np.float64)
        )
    out = {}
    for ident, vecs in per_identity.items():
        total = np.zeros(probe.shape[0])
        for v in vecs:
            total = total + v
        mean = total / len(vecs)
        norm = naive_norm(mean)
        if norm < 1e-12:
            out[ident] = None
            continue
        out[ident] = float(np.dot(mean / norm, probe))
    return out


def oracle_fuse_gallery(gallery):
    """``(identity_ids, matrix, excluded)`` of a gallery fused one identity
    at a time: the loop ``baselines.fuse_gallery`` ran before it worked on
    whole matrices, kept as written."""
    ids, rows, excluded = [], [], []
    for identity_id in sorted(gallery.identity_map):
        positions = gallery.identity_map[identity_id]
        mean = gallery.vectors[positions].astype(np.float64).mean(axis=0)
        norm = float(np.linalg.norm(mean))
        if norm < 1e-12:
            excluded.append(identity_id)
            continue
        ids.append(identity_id)
        rows.append(mean / norm)
    return ids, np.stack(rows), excluded
