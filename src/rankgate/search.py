"""Exact 1-to-many cosine search with a deterministic content tie rule.

Similarities are plain dot products (vectors are unit norm by store
contract) accumulated in 64-bit arithmetic by one kernel,
:func:`similarities`, on rows upcast from the store's float32. Rank 1 is
the best match. A gallery is a list of rows of one
:class:`~rankgate.store.EmbeddingStore`, and equal similarities are
ordered by store row. The store is sorted by ``(identity_id, image_id)``
in Python string order, so ties break in that order, and a ranking
depends neither on the order the gallery's rows are listed in nor on the
order the store was built from.

:func:`search` materializes the full ranking. Curation needs only a few
ranks per probe and the fusion baseline only top scores, so they use a
cheaper protocol that gives the same ranks and scores bit for bit, a
block of probes at a time:

* **Screen.** :func:`screen` scores a block of probes against every row
  with one float32 BLAS product, straight from the float32 rows. Its
  rounding depends on the BLAS, so its scores decide nothing on their
  own. A block holds :func:`screen_block` probes, so its score matrix is
  no larger than the float32 rows it screens.
* **Refine.** A screened score lies within ``δ`` of the kernel's
  (:func:`screen_tolerance`), so two rows whose screened scores are more
  than ``2δ`` apart sort in screened order. The kernel rescores only the
  rows within ``2δ`` of a decision: those near the screened maximum,
  which hold the winner (:func:`screened_best`), and those near the
  screened score of one of the winner identity's rows.
* **Count.** A rank is one plus the number of rows that sort ahead:
  screened scores decide for rows outside the rescored band, exact
  scores and the tie order inside it (:func:`extract_rank_vector`).

Every mask is taken over a whole ``(b, N)`` score block. Each threshold
is computed in float64 and rounded outward to a float32 (a floor down, a
ceiling up) before it is compared with a float32 screened score; so
each score lands in exactly one class (certainly ahead, certainly
behind, or rescored), and a rounding can only move a score into the
rescored band.

**The bound.** Write ``m`` for a row as the kernel reads it (a float32
store row upcast exactly, or a float64 fused centroid), ``p`` for a
float64 probe, ``u₃₂ = 2⁻²⁴``, ``u₆₄ = 2⁻⁵³`` and
``γ_D(u) = D·u/(1 − D·u)``. With gradual underflow (the IEEE default,
no flush to zero) every rounding is ``fl(x) = x(1 + ε) + η`` with
``|ε| ≤ u``, ``|η|`` at most half the smallest subnormal, and ``η = 0``
for a sum (Higham, *Accuracy and Stability of Numerical Algorithms*,
§2.1 and §3.1). In any summation order, with or without fused
multiply-adds:

* rounding ``m`` and ``p`` to float32 moves their dot product by at most
  ``2u₃₂·‖m‖·‖p‖``, to first order, plus
  ``2⁻¹⁵⁰·(‖m‖₁ + ‖p‖₁) ≤ 2⁻¹⁵⁰·√D·(‖m‖ + ‖p‖)`` for components that
  round into the subnormal range (a store row is float32 already, so
  only a fused centroid loses bits here);
* the float32 accumulation adds at most ``γ_D(u₃₂)·‖m‖·‖p‖``, plus
  ``D·2⁻¹⁵⁰`` for products that underflow;
* the float64 kernel lies within ``γ_D(u₆₄)·‖m‖·‖p‖ + D·2⁻¹⁰⁷⁵`` of the
  real dot product.

So ``|screen − similarities| ≤ δ`` with ``δ = 1.01·((γ_D(u₃₂) + 2u₃₂ +
γ_D(u₆₄))·max‖m‖·‖p‖ + 2⁻¹⁵⁰·(D + √D·(max‖m‖ + ‖p‖)) + D·2⁻¹⁰⁷⁴)``. The
1% covers the second-order terms and the rounding of the norms and of
``δ`` itself. For unit vectors at D = 64, ``2δ`` is about ``7.9·10⁻⁶``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from .store import BLOCK_ROWS, EmbeddingStore

_PROBE_NORM_TOLERANCE = 2e-3
_U32 = 2.0**-24
_U64 = 2.0**-53
_F32_UNDERFLOW = 2.0**-150  # half the smallest float32 subnormal
_F64_SUBNORMAL = 2.0**-1074


class GalleryIndex:
    """Search-ready view of distinct rows of one store, in the order given.

    ``tie_rank`` holds each position's store row, which is its place in
    the tie order, and ``vectors`` those rows' float32 vectors. Also holds
    the largest row norm, each row's identity and the positions per
    identity. The store has checked every vector already.
    """

    def __init__(self, store: EmbeddingStore, rows: Iterable[int]):
        self.tie_rank = np.array(list(rows), dtype=np.int64)
        if not self.tie_rank.size:
            raise ValueError("cannot build a gallery from zero rows")
        distinct = np.unique(self.tie_rank)
        if len(distinct) != self.size:
            raise ValueError("duplicate store row in gallery")
        if distinct[0] < 0 or distinct[-1] >= len(store):
            raise ValueError(f"gallery rows must lie in [0, {len(store)})")
        self.dimension = store.dimension
        self.vectors = store.vectors[self.tie_rank]
        self.max_norm = max_row_norm(self.vectors)
        self.identities = tuple(store.identity_ids[r] for r in self.tie_rank.tolist())
        positions: dict[str, list[int]] = {}
        for pos, identity_id in enumerate(self.identities):
            positions.setdefault(identity_id, []).append(pos)
        self.identity_map = {
            k: np.array(v, dtype=np.int64) for k, v in positions.items()
        }

    @property
    def size(self) -> int:
        return len(self.tie_rank)


build_gallery = GalleryIndex  # the name callers and the benchmark's tracer use


def max_row_norm(rows: np.ndarray) -> float:
    """Largest row norm of ``rows``, in float64, ``BLOCK_ROWS`` rows at a time."""
    peak = 0.0
    for start in range(0, len(rows), BLOCK_ROWS):
        block = rows[start : start + BLOCK_ROWS].astype(np.float64)
        peak = max(peak, float(np.einsum("ij,ij->i", block, block).max()))
    return math.sqrt(peak)


@dataclass(eq=False)
class SearchResult:
    """Full ranking of one probe against one gallery, best first."""

    positions: np.ndarray
    similarities: np.ndarray


def similarities(matrix: np.ndarray, probe: np.ndarray) -> np.ndarray:
    """Dot product of every row of ``matrix`` with ``probe``, in float64.

    Not ``matrix @ probe``: BLAS gemv rounds a row differently depending
    on its position in the matrix, so bit-identical vectors could stop
    being exact ties after a permutation. A per-row product-then-reduce
    depends only on the row's own bits.
    """
    return (matrix * probe).sum(axis=1)


def rescore(
    matrix: np.ndarray, probes: np.ndarray, pidx: np.ndarray, ridx: np.ndarray
) -> np.ndarray:
    """Kernel scores of the pairs ``(probes[pidx[i]], matrix[ridx[i]])``.

    Each is the bits :func:`similarities` gives for that row and probe
    (float32 rows are upcast exactly). The pairs go an eighth of the
    matrix's rows at a time, so their float64 products take at most a
    quarter of the bytes of the ``(N, D)`` float32 rows.
    """
    out = np.empty(len(pidx))
    step = max(1, len(matrix) // 8)
    for start in range(0, len(pidx), step):
        part = slice(start, start + step)
        product = probes[pidx[part]]
        product *= matrix[ridx[part]]
        out[part] = product.sum(axis=1)
    return out


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
    """Rank every gallery row against ``probe`` by cosine similarity.

    The probe must be unit norm and match the gallery dimension. Ties are
    broken by store row, which is ascending ``(identity_id, image_id)``.
    """
    p = check_probe(gallery, probe)
    sims = similarities(gallery.vectors.astype(np.float64), p)
    order = np.lexsort((gallery.tie_rank, -sims))
    return SearchResult(positions=order, similarities=sims[order])


def screen(index, probes: np.ndarray) -> np.ndarray:
    """Float32 scores of a ``(b, D)`` block of checked probes, ``(b, N)``.

    ``index`` is a :class:`GalleryIndex` or a fused gallery: anything with
    float32 ``vectors`` and their ``max_norm``. One BLAS product; each
    score is within :func:`screen_tolerance` of what :func:`similarities`
    gives for the same row and probe.
    """
    return probes.astype(np.float32) @ index.vectors.T


def screen_block(index) -> int:
    """Probes per screen block: ``D``, so that the ``(b, N)`` float32 score
    block holds no more bytes than the ``(N, D)`` float32 rows it screens."""
    return index.vectors.shape[1]


def screen_tolerance(index, probes: np.ndarray) -> np.ndarray:
    """``δ`` per probe of a ``(b, D)`` block: a bound on ``|screen −
    similarities|`` over the rows of ``index``. The module docstring
    derives it."""
    d = probes.shape[1]
    p_norm = np.sqrt(np.einsum("ij,ij->i", probes, probes))
    m_norm = index.max_norm
    gamma = (d * _U32 / (1.0 - d * _U32)) + 2 * _U32 + (d * _U64 / (1.0 - d * _U64))
    underflow = _F32_UNDERFLOW * (d + math.sqrt(d) * (m_norm + p_norm))
    return 1.01 * (gamma * m_norm * p_norm + underflow + d * _F64_SUBNORMAL)


def _floor_f32(x: np.ndarray) -> np.ndarray:
    """A float32 strictly below each finite float64 of ``x``."""
    return np.nextafter(x.astype(np.float32), np.float32(-np.inf))


def _ceil_f32(x: np.ndarray) -> np.ndarray:
    """A float32 strictly above each finite float64 of ``x``."""
    return np.nextafter(x.astype(np.float32), np.float32(np.inf))


def _pairs(mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The ``(probe, row)`` indices of a ``(b, N)`` mask's true entries, in
    row-major order; ``flatnonzero`` is about ten times faster than a 2-d
    ``nonzero`` here."""
    return np.divmod(np.flatnonzero(mask), mask.shape[1])


def screened_best(
    matrix: np.ndarray,
    probes: np.ndarray,
    screened: np.ndarray,
    window: np.ndarray,
    tie_rank: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Each probe's best row of ``matrix`` and its kernel score, ``(b,)`` each.

    ``screened`` is the screen of the ``(b, D)`` ``probes`` against the
    rows of ``matrix``, ``-inf`` on rows left out, and ``window`` is ``2δ``
    per probe. The kernel rescores the rows screened within ``window`` of
    each probe's screened maximum, which hold every row of the highest
    kernel score; ties go to the lowest ``tie_rank``, one per row. A probe
    with every row left out gets row -1 and ``-inf``.
    """
    top = screened.max(axis=1)
    floor = _floor_f32(top.astype(np.float64) - window)
    floor[top == -np.inf] = np.inf
    pidx, ridx = _pairs(screened >= floor[:, None])
    exact = rescore(matrix, probes, pidx, ridx)
    order = np.lexsort((tie_rank[ridx], -exact, pidx))
    first = order[np.flatnonzero(np.diff(pidx, prepend=-1))]
    rows = np.full(len(top), -1, dtype=np.int64)
    scores = np.full(len(top), -np.inf)
    rows[pidx[first]] = ridx[first]
    scores[pidx[first]] = exact[first]
    return rows, scores


RankResult = tuple[tuple[int, ...], str, float]


def extract_rank_vector(
    gallery: GalleryIndex, probes: np.ndarray, screened: np.ndarray, d_in: int
) -> list[Optional[RankResult]]:
    """Ranks of each probe's rank-one identity's additional images, counted.

    ``probes`` is a ``(b, D)`` block of checked probes and ``screened``
    its :func:`screen` block, with ``-inf`` on the rows left out of each
    probe's search; a left-out identity is left out whole, and at least
    one row is left in. Per probe, returns the ``d_in`` smallest
    additional ranks ascending, the rank-one identity and its exact
    similarity: what :func:`search` over the rows left in would give, bit
    for bit. Returns None for a probe whose rank-one identity has fewer
    than ``d_in`` images beyond the winner.
    """
    if d_in < 1:
        raise ValueError(f"d_in must be >= 1, got {d_in}")
    b, n = screened.shape
    # Two rows whose screened scores are more than 2δ apart sort in
    # screened order.
    window = 2 * screen_tolerance(gallery, probes)
    winners, tops = screened_best(gallery.vectors, probes, screened, window, gallery.tie_rank)
    if (winners < 0).any():
        raise ValueError("a search left out every gallery row")
    identities = [gallery.identities[w] for w in winners.tolist()]
    owns = [gallery.identity_map[identity_id] for identity_id in identities]
    sizes = np.array([len(own) for own in owns])
    kept = sizes > d_in
    if not kept.any():
        return [None] * b
    # Each probe's winner-identity positions, (b, k), padded with the winner.
    k = int(sizes.max())
    valid = np.arange(k) < sizes[:, None]
    own = np.repeat(winners[:, None], k, axis=1)
    own[valid] = np.concatenate(owns)
    block_rows = np.arange(b)[:, None]
    own_screened = screened[block_rows, own].astype(np.float64)
    # Against own row i, a row screened above ``above[i]``, more than 2δ
    # over it, sorts ahead, and one below ``below[i]`` sorts after; the
    # band between is rescored and compared on (exact score, tie_rank).
    # Both bounds are float32, rounded outward. The rows below every
    # ``below``, outside the reach, sort after all own rows.
    above = _ceil_f32(own_screened + window[:, None])
    below = _floor_f32(own_screened - window[:, None])
    floor = below.min(axis=1)
    floor[~kept] = np.inf
    rp, rr = _pairs(screened >= floor[:, None])
    scores = screened[rp, rr]
    # One own row at a time, so each temporary is one score per reach row.
    ahead = np.empty((k, len(rp)), dtype=bool)
    band = np.zeros(len(rp), dtype=bool)
    for c in range(k):
        np.greater(scores, above[rp, c], out=ahead[c])
        band |= (scores >= below[rp, c]) & ~ahead[c]
    bp, br = rp[band], rr[band]
    exact = rescore(gallery.vectors, probes, bp, br)
    # Own rows are band rows of their own probe.
    at = np.searchsorted(bp * n + br, block_rows * n + own)
    own_exact = exact[np.minimum(at, len(exact) - 1)][bp]
    tie_rank = gallery.tie_rank
    score = exact[:, None]
    exact_ahead = (score > own_exact) | (
        (score == own_exact) & (tie_rank[br][:, None] < tie_rank[own[bp]])
    )
    in_band = scores[band, None]
    near = (in_band >= below[bp]) & (in_band <= above[bp])
    ahead[:, band] |= (near & exact_ahead).T
    counts = np.stack([np.bincount(rp[column], minlength=b) for column in ahead], axis=1)
    ranks = np.where(valid, counts + 1, n + 1)
    ranks.sort(axis=1)
    assert (ranks[kept, 0] == 1).all()
    return [
        (tuple(r), identity_id, top) if keep else None
        for r, identity_id, top, keep in zip(
            ranks[:, 1 : d_in + 1].tolist(), identities, tops.tolist(), kept.tolist()
        )
    ]
