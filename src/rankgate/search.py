"""Exact 1-to-many cosine search with a deterministic content tie rule.

Similarities are plain dot products (vectors are unit norm by store
contract) accumulated in 64-bit arithmetic. The full ranking is
materialized: rank 1 is the best match. Equal similarities are ordered by
ascending ``(identity_id, image_id)``, so rankings never depend on the
order gallery records were supplied in.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .store import EmbeddingRecord

_PROBE_NORM_TOLERANCE = 2e-3


@dataclass(frozen=True)
class RankVector:
    """The ``d_in`` smallest ranks held by the rank-one identity's other images.

    Ranks are strictly increasing and start at 2 or worse, because rank 1 is
    the image that won the search and is excluded by definition.
    """

    ranks: tuple[int, ...]
    rank_one_identity: str
    gallery_size: int

    def __post_init__(self):
        if len(self.ranks) == 0:
            raise ValueError("a rank vector needs at least one rank")
        prev = 1
        for r in self.ranks:
            if r <= prev:
                raise ValueError(
                    f"ranks must be strictly increasing and >= 2, got {self.ranks}"
                )
            prev = r
        if self.ranks[-1] > self.gallery_size:
            raise ValueError(
                f"rank {self.ranks[-1]} exceeds gallery size {self.gallery_size}"
            )


class GalleryIndex:
    """Search-ready view of a fixed set of records.

    Holds the f64 similarity matrix, positions per identity, and the
    content-based tie order computed once from record ids.
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
        if np.max(np.abs(norms_sq - 1.0)) > 1e-3:
            raise ValueError("gallery vectors must be unit norm")
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

    def __len__(self) -> int:
        return len(self.positions)

    def record_at(self, rank: int) -> EmbeddingRecord:
        """Record holding the given 1-based rank."""
        if not 1 <= rank <= len(self.positions):
            raise ValueError(f"rank {rank} out of range 1..{len(self.positions)}")
        return self.records[self.positions[rank - 1]]

    def identity_at(self, rank: int) -> str:
        return self.record_at(rank).identity_id

    def entries(self) -> Iterator[tuple[int, str, str, float]]:
        for i, pos in enumerate(self.positions):
            r = self.records[pos]
            yield (i + 1, r.identity_id, r.image_id, float(self.similarities[i]))


def similarities(matrix: np.ndarray, probe: np.ndarray) -> np.ndarray:
    """Dot product of every row of ``matrix`` with ``probe``.

    Not ``matrix @ probe``: BLAS gemv rounds a row differently depending
    on its position in the matrix, so bit-identical vectors could stop
    being exact ties after a permutation. A per-row product-then-reduce
    depends only on the row's own bits.
    """
    return np.sum(matrix * probe, axis=1)


def search(gallery: GalleryIndex, probe: np.ndarray) -> SearchResult:
    """Rank every gallery record against ``probe`` by cosine similarity.

    The probe must be unit norm and match the gallery dimension. Ties are
    broken by ascending ``(identity_id, image_id)``.
    """
    p = np.asarray(probe, dtype=np.float64)
    if p.shape != (gallery.dimension,):
        raise ValueError(
            f"probe has shape {p.shape}, gallery dimension is {gallery.dimension}"
        )
    norm_sq = float(np.dot(p, p))
    if abs(norm_sq - 1.0) > _PROBE_NORM_TOLERANCE:
        raise ValueError(f"probe must be unit norm, got squared norm {norm_sq!r}")
    sims = similarities(gallery.matrix, p)
    order = np.lexsort((gallery.tie_rank, -sims))
    return SearchResult(
        positions=order, similarities=sims[order], records=gallery.records
    )


def extract_rank_vector(
    result: SearchResult, gallery: GalleryIndex, d_in: int
) -> RankVector:
    """Ranks of the rank-one identity's additional enrolled images.

    Takes the ``d_in`` smallest of them, ascending. Raises ValueError when
    the rank-one identity has fewer than ``d_in`` images beyond the winner.
    ``result`` may rank any subset of ``gallery`` that holds every image of
    the winner; the gallery size recorded is ``len(result)``.
    """
    if d_in < 1:
        raise ValueError(f"d_in must be >= 1, got {d_in}")
    top_identity = result.records[result.positions[0]].identity_id
    positions = gallery.identity_map[top_identity]
    rank_of = np.empty(gallery.size, dtype=np.int64)
    rank_of[result.positions] = np.arange(1, len(result) + 1)
    ranks = sorted(int(rank_of[pos]) for pos in positions)
    assert ranks[0] == 1
    additional = ranks[1:]
    if len(additional) < d_in:
        raise ValueError(
            f"rank-one identity {top_identity!r} has {len(additional)} "
            f"additional images, need {d_in}"
        )
    return RankVector(tuple(additional[:d_in]), top_identity, len(result))
