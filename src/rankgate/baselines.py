"""Reference deciders the rank classifier is compared against.

* Max-score thresholding: accept the rank-one result when the top
  similarity clears a threshold calibrated to a target false-positive
  identification rate on non-mated scores.
* Centroid classifiers: per-class coordinatewise mean or median of rank
  vectors; a probe takes the label of the nearer center (Euclidean).
* Naive feature fusion: average each identity's enrolled vectors,
  re-normalize, and threshold the best fused score. Top fused scores go
  through the screen → refine protocol of :mod:`rankgate.search`, a block
  of probes at a time, and are the exact kernel's values.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from itertools import compress
from typing import Sequence

import numpy as np

from .codec import read_json, write_json
from .curation import IN_GALLERY, OUT_OF_GALLERY, RankSample
from .search import (
    GalleryIndex,
    max_row_norm,
    screen,
    screen_tolerance,
    screened_best,
)
from .store import _row_dots

TARGET_FPIR = 1e-4  # the false-positive identification rate a threshold targets by default


@dataclass(frozen=True)
class ThresholdModel:
    threshold: float
    target_fpir: float
    n_nonmated: int


def calibrate_threshold(
    nonmated_scores: Sequence[float], target_fpir: float = TARGET_FPIR
) -> ThresholdModel:
    """Smallest threshold whose empirical FPIR does not exceed the target.

    Sort the non-mated scores descending; the score at index
    ``floor(n * target_fpir)`` is the first that must be rejected, and the
    threshold sits one representable float above it. A target of 1.0 yields
    the accept-everything sentinel (negative infinity).
    """
    scores = np.asarray(nonmated_scores, dtype=np.float64)
    if scores.size == 0:
        raise ValueError("need at least one non-mated score")
    if not np.all(np.isfinite(scores)):
        raise ValueError("non-mated scores must be finite")
    if not 0.0 < target_fpir <= 1.0:
        raise ValueError(f"target_fpir must be in (0, 1], got {target_fpir}")
    n = scores.size
    if target_fpir >= 1.0:
        return ThresholdModel(float("-inf"), float(target_fpir), n)
    k = int(np.floor(n * target_fpir))
    ordered = np.sort(scores)[::-1]
    alpha = float(np.nextafter(ordered[k], np.inf))
    return ThresholdModel(alpha, float(target_fpir), n)


def classify_score(model: ThresholdModel, top_score: float) -> int:
    return IN_GALLERY if top_score >= model.threshold else OUT_OF_GALLERY


def threshold_to_json(model: ThresholdModel, path) -> None:
    """Persist with both a decimal string and raw float bits, so reloading
    is exact even through text-mangling tools."""
    payload = {
        "threshold": repr(model.threshold),
        "threshold_bits": struct.pack("<d", model.threshold).hex(),
        "target_fpir": repr(model.target_fpir),
        "n_nonmated": model.n_nonmated,
    }
    write_json(path, payload)


def threshold_from_json(path) -> ThresholdModel:
    payload = read_json(path)
    threshold = struct.unpack("<d", bytes.fromhex(payload["threshold_bits"]))[0]
    return ThresholdModel(
        threshold=threshold,
        target_fpir=float(payload["target_fpir"]),
        n_nonmated=int(payload["n_nonmated"]),
    )


@dataclass(frozen=True, eq=False)
class CentroidModel:
    statistic: str
    center_out: np.ndarray
    center_in: np.ndarray


def fit_centroid(samples: Sequence[RankSample], statistic: str) -> CentroidModel:
    """Coordinatewise mean or median of raw ranks per class.

    The median of an even count is the average of the two middle values.
    """
    if statistic not in ("mean", "median"):
        raise ValueError(f"statistic must be 'mean' or 'median', got {statistic!r}")
    by_label: dict[int, list] = {OUT_OF_GALLERY: [], IN_GALLERY: []}
    for s in samples:
        by_label[s.label].append(np.asarray(s.ranks, dtype=np.float64))
    for label, rows in by_label.items():
        if not rows:
            raise ValueError(f"no samples with label {label}, cannot fit centers")
    reduce = np.mean if statistic == "mean" else np.median
    center_out = reduce(np.stack(by_label[OUT_OF_GALLERY]), axis=0)
    center_in = reduce(np.stack(by_label[IN_GALLERY]), axis=0)
    return CentroidModel(statistic, center_out, center_in)


def centroid_classify(model: CentroidModel, ranks: Sequence[int]) -> int:
    """Label of the nearer center; an exact tie rejects (label 0)."""
    x = np.asarray(ranks, dtype=np.float64)
    d_out = float(np.sum((x - model.center_out) ** 2))
    d_in = float(np.sum((x - model.center_in) ** 2))
    return IN_GALLERY if d_in < d_out else OUT_OF_GALLERY


def centroid_to_json(model: CentroidModel, path) -> None:
    payload = {
        "statistic": model.statistic,
        "center_out": [repr(float(v)) for v in model.center_out],
        "center_in": [repr(float(v)) for v in model.center_in],
    }
    write_json(path, payload)


def centroid_from_json(path) -> CentroidModel:
    payload = read_json(path)
    return CentroidModel(
        statistic=payload["statistic"],
        center_out=np.array([float(v) for v in payload["center_out"]]),
        center_in=np.array([float(v) for v in payload["center_in"]]),
    )


@dataclass(eq=False)
class FusedGallery:
    """One re-normalized mean vector per identity.

    Identities whose enrolled vectors average to (numerically) zero cannot
    be fused; they are excluded and reported so callers can surface it.
    ``vectors`` is the float32 copy of ``matrix`` that the screen reads,
    ``max_norm`` the largest row norm of ``matrix`` and ``position`` each
    fused identity's row.
    """

    identity_ids: list[str]
    matrix: np.ndarray
    excluded: list[str]
    vectors: np.ndarray = field(init=False, repr=False)
    max_norm: float = field(init=False)
    position: dict[str, int] = field(init=False, repr=False)

    def __post_init__(self):
        self.vectors = self.matrix.astype(np.float32)
        self.max_norm = max_row_norm(self.matrix)
        self.position = {ident: i for i, ident in enumerate(self.identity_ids)}


def fuse_gallery(gallery: GalleryIndex) -> FusedGallery:
    """Fuse each identity, in sorted identity order, to its re-normalized mean.

    An identity whose mean has a norm below 1e-12 is excluded. Each mean
    has the bits of ``vectors[positions].astype(float64).mean(axis=0)``
    and each norm those of ``np.linalg.norm``, with whole-matrix steps
    and no float64 copy of the gallery:

    * For ``D >= 2`` that ``mean`` adds an identity's rows one at a time,
      in position order. So step ``j`` here adds the ``j``-th row of every
      identity that has one to its float64 sum, which is that order.
      ``np.add.reduceat`` is not: per column it adds the first row to the
      pairwise sum of the others, and on ``[1, 2**-53, 2**-53]`` it gives
      ``1 + 2**-52`` where the loop gives ``1``.
    * For ``D == 1`` that ``mean`` sums pairwise, but every unit row is
      ``±(1 ± 1e-5)``, a multiple of ``2**-24``, so every partial sum is
      exact and every order gives the same bits.
    * Dividing by the count is the last step of ``mean`` too, and
      :func:`rankgate.store._row_dots` runs the ``ddot`` of ``np.linalg.norm``.
    """
    ids = sorted(gallery.identity_map)
    groups = [gallery.identity_map[identity_id] for identity_id in ids]
    counts = np.array([len(g) for g in groups])
    order = np.concatenate(groups)
    starts = np.cumsum(counts) - counts
    sums = gallery.vectors[order[starts]].astype(np.float64)
    for j in range(1, int(counts.max())):
        has = np.flatnonzero(counts > j)
        sums[has] += gallery.vectors[order[starts[has] + j]]
    means = sums / counts[:, None]
    norms = np.sqrt(_row_dots(means))
    zero = norms < 1e-12
    if zero.all():
        raise ValueError("every identity fused to a zero vector")
    keep = ~zero
    return FusedGallery(
        list(compress(ids, keep)), means[keep] / norms[keep, None], list(compress(ids, zero))
    )


def fused_scores(
    fused: FusedGallery, probes: np.ndarray, identities: Sequence[str]
) -> tuple[np.ndarray, np.ndarray]:
    """Top fused scores of a ``(b, D)`` block of probes, ``(b,)`` each.

    ``identities`` names each probe's identity. Returns the in-gallery
    top score, the maximum over every centroid, and the out-of-gallery
    one, the maximum with the probe identity's centroid left out, which is
    ``-inf`` when no other centroid is left. Both are exact kernel values,
    the bits of :func:`rankgate.search.similarities`.
    """
    p = np.asarray(probes, dtype=np.float64)
    want = (len(identities), fused.matrix.shape[1])
    if p.shape != want:
        raise ValueError(
            f"probes have shape {p.shape}, need {want}: one probe per identity "
            f"of the fused dimension"
        )
    screened = screen(fused, p)
    window = 2 * screen_tolerance(fused, p)
    # Only the top scores are wanted, so any tie order will do.
    tie_rank = np.arange(len(fused.matrix))
    _rows, inside = screened_best(fused.matrix, p, screened, window, tie_rank)
    for j, identity_id in enumerate(identities):
        if identity_id in fused.position:
            screened[j, fused.position[identity_id]] = -np.inf
    _rows, outside = screened_best(fused.matrix, p, screened, window, tie_rank)
    return inside, outside
