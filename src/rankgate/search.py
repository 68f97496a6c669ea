"""Exact 1-to-many cosine search with a deterministic content tie rule.

Similarities are plain dot products (vectors are unit norm by store
contract) accumulated in 64-bit arithmetic by one kernel,
:func:`similarities`. Rank 1 is the best match. Equal similarities are
ordered by ascending ``(identity_id, image_id)``, so rankings never depend
on the order gallery records were supplied in.

:func:`search` materializes the full ranking. Curation needs only a few
ranks per probe, so it uses a cheaper protocol that gives the same ranks
bit for bit:

* **Screen.** :func:`screen` scores a block of probes against every row
  with one BLAS matrix product. Its rounding depends on the BLAS, so its
  scores decide nothing on their own.
* **Refine.** Both the screen and :func:`similarities` lie within
  ``γ_D·‖m‖·‖p‖`` of the real dot product, with ``γ_D = D·u/(1 − D·u)``
  and ``u = 2⁻⁵³``, whatever their summation order and with or without
  fused multiply-adds (Higham, *Accuracy and Stability of Numerical
  Algorithms*, §3.1). So a screened score is within
  ``δ = 2·γ_D·max‖m‖·‖p‖`` of the kernel's (:func:`screen_tolerance`),
  and two rows whose screened scores are more than ``2δ`` apart sort in
  screened order. The kernel rescores only the rows within ``2δ`` of a
  decision: those near the screened maximum, which hold the winner, and
  those near the screened score of one of the winner identity's rows.
* **Count.** A rank is one plus the number of rows that sort ahead:
  screened scores decide for rows outside the rescored band, exact
  scores and the tie order inside it (:func:`extract_rank_vector`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .store import EmbeddingRecord

_PROBE_NORM_TOLERANCE = 2e-3
_UNIT_ROUNDOFF = 2.0**-53
_SMALLEST_SUBNORMAL = 2.0**-1074


class GalleryIndex:
    """Search-ready view of a fixed set of records.

    Holds the f64 similarity matrix, its largest row norm, positions per
    identity, and the content-based tie order computed once from record ids.
    """

    def __init__(self, records: Iterable[EmbeddingRecord]):
        recs = tuple(records)
        if not recs:
            raise ValueError("cannot build a gallery from zero records")
        dim = recs[0].vector.shape[0]
        seen: set[tuple[str, str]] = set()
        for r in recs:
            if r.vector.shape != (dim,):
                raise ValueError(
                    f"record {r.key()} has dimension {r.vector.shape[0]}, "
                    f"gallery dimension is {dim}"
                )
            if r.key() in seen:
                raise ValueError(f"duplicate record key {r.key()} in gallery")
            seen.add(r.key())
        self.records = recs
        self.dimension = int(dim)
        self.matrix = np.stack([r.vector for r in recs]).astype(np.float64)
        norms_sq = np.einsum("ij,ij->i", self.matrix, self.matrix)
        if not np.max(np.abs(norms_sq - 1.0)) <= 1e-3:
            raise ValueError("gallery vectors must be finite and unit norm")
        self.max_norm = math.sqrt(float(np.max(norms_sq)))
        identities = np.array([r.identity_id for r in recs])
        images = np.array([r.image_id for r in recs])
        order = np.lexsort((images, identities))
        self.tie_rank = np.empty(len(recs), dtype=np.int64)
        self.tie_rank[order] = np.arange(len(recs))
        self.identity_map: dict[str, np.ndarray] = {}
        for pos, r in enumerate(recs):
            self.identity_map.setdefault(r.identity_id, []).append(pos)  # type: ignore[arg-type]
        self.identity_map = {
            k: np.asarray(v, dtype=np.int64) for k, v in self.identity_map.items()
        }

    @property
    def size(self) -> int:
        return len(self.records)


def build_gallery(records: Iterable[EmbeddingRecord]) -> GalleryIndex:
    return GalleryIndex(records)


@dataclass(eq=False)
class SearchResult:
    """Full ranking of one probe against one gallery, best first."""

    positions: np.ndarray
    similarities: np.ndarray
    records: tuple[EmbeddingRecord, ...]


def similarities(matrix: np.ndarray, probe: np.ndarray) -> np.ndarray:
    """Dot product of every row of ``matrix`` with ``probe``.

    Not ``matrix @ probe``: BLAS gemv rounds a row differently depending
    on its position in the matrix, so bit-identical vectors could stop
    being exact ties after a permutation. A per-row product-then-reduce
    depends only on the row's own bits.
    """
    return (matrix * probe).sum(axis=1)


def check_probe(gallery: GalleryIndex, probe: np.ndarray) -> np.ndarray:
    """``probe`` as float64, once it matches the gallery dimension and is unit norm."""
    p = np.asarray(probe, dtype=np.float64)
    if p.shape != (gallery.dimension,):
        raise ValueError(
            f"probe has shape {p.shape}, gallery dimension is {gallery.dimension}"
        )
    norm_sq = float(np.dot(p, p))
    if not abs(norm_sq - 1.0) <= _PROBE_NORM_TOLERANCE:
        raise ValueError(f"probe must be finite and unit norm, got squared norm {norm_sq!r}")
    return p


def search(gallery: GalleryIndex, probe: np.ndarray) -> SearchResult:
    """Rank every gallery record against ``probe`` by cosine similarity.

    The probe must be unit norm and match the gallery dimension. Ties are
    broken by ascending ``(identity_id, image_id)``.
    """
    p = check_probe(gallery, probe)
    sims = similarities(gallery.matrix, p)
    order = np.lexsort((gallery.tie_rank, -sims))
    return SearchResult(
        positions=order, similarities=sims[order], records=gallery.records
    )


def screen(gallery: GalleryIndex, probes: np.ndarray) -> np.ndarray:
    """Approximate scores of a ``(b, D)`` stack of checked probes, ``(b, N)``.

    One BLAS product; each score is within :func:`screen_tolerance` of
    what :func:`similarities` gives for the same row and probe.
    """
    return probes @ gallery.matrix.T


def screen_tolerance(gallery: GalleryIndex, probe: np.ndarray) -> float:
    """``δ``, a bound on ``|screen − similarities|`` over the gallery's rows.

    ``2·γ_D·max‖m‖·‖p‖``, raised by 1% to cover the rounding of the norms
    and of ``δ`` itself, plus ``D`` of the smallest subnormal for products
    that underflow, where the relative error model does not hold.
    """
    d = gallery.dimension
    gamma = d * _UNIT_ROUNDOFF / (1.0 - d * _UNIT_ROUNDOFF)
    p_norm = math.sqrt(float(np.dot(probe, probe)))
    bound = 2.0 * gamma * gallery.max_norm * p_norm
    return 1.01 * bound + d * _SMALLEST_SUBNORMAL


def extract_rank_vector(
    gallery: GalleryIndex, probe: np.ndarray, screened: np.ndarray, d_in: int
) -> tuple[tuple[int, ...], str, float]:
    """Ranks of the rank-one identity's additional images, counted.

    ``screened`` is the :func:`screen` row of ``probe``, with ``-inf`` on
    the rows left out of the search. Returns the ``d_in`` smallest
    additional ranks ascending, the rank-one identity and its exact
    similarity: what :func:`search` over the rows left in would give, bit
    for bit. Raises ValueError when the rank-one identity has fewer than
    ``d_in`` images beyond the winner.
    """
    if d_in < 1:
        raise ValueError(f"d_in must be >= 1, got {d_in}")
    # Two rows whose screened scores are more than 2δ apart sort in
    # screened order.
    window = 2 * screen_tolerance(gallery, probe)
    tie_rank = gallery.tie_rank
    near_top = (screened >= screened.max() - window).nonzero()[0]
    if len(near_top) > 1:
        exact = similarities(gallery.matrix[near_top], probe)
        near_top = near_top[exact == exact.max()]
    winner = near_top[tie_rank[near_top].argmin()]
    top_identity = gallery.records[winner].identity_id
    own = gallery.identity_map[top_identity]
    if len(own) - 1 < d_in:
        raise ValueError(
            f"rank-one identity {top_identity!r} has {len(own) - 1} "
            f"additional images, need {d_in}"
        )
    # Against own row i: rows screened more than 2δ above it sort ahead,
    # rows more than 2δ below sort after, and the rest are rescored and
    # compared on (exact score, tie_rank).
    own_screened = screened[own, None]
    reach = (screened >= own_screened.min() - window).nonzero()[0]
    diff = screened[reach] - own_screened
    near = abs(diff) <= window
    in_band = near.any(axis=0)
    band = reach[in_band]
    exact = similarities(gallery.matrix[band], probe)
    scores = exact[np.searchsorted(band, own), None]
    exact_ahead = (exact > scores) | (
        (exact == scores) & (tie_rank[band] < tie_rank[own, None])
    )
    ahead = (diff > window).sum(axis=1) + (near[:, in_band] & exact_ahead).sum(axis=1)
    ranks = np.sort(ahead) + 1
    assert ranks[0] == 1
    return tuple(int(r) for r in ranks[1 : d_in + 1]), top_identity, float(scores.max())
