"""Dual-search curation: labeled rank vectors from one embedding store.

For every eligible identity (at least ``d_in + 2`` images in the requested
group) the most recent image is the probe: highest ``capture_index``, ties
broken by taking the highest ``image_id``. ``d_in + 1`` of the identity's
remaining images are enrolled in a gallery shared by all probes of the run:
one image wins rank one, the other ``d_in`` supply the rank vector, and at
least one non-probe image is left over, so the draw is a real choice.
Probes and pools are store rows, and the gallery holds the pools' rows in
selection order: identities ascending, each pool in draw order. Each probe
is scored against the gallery once, for two rankings:

* in-gallery: against the shared gallery, which contains the probe
  identity's enrolled images. Label 1.
* out-of-gallery: against the shared gallery with every image of the probe
  identity removed. Label 0. This is the in-gallery scoring with those
  rows dropped, exactly: a row's score depends only on its own bits and
  ties break on the store's row order, which is ``(identity_id,
  image_id)`` order.

A sample needs the rank-one identity and the ranks of its other rows, not
a full ranking, so curation does not sort the gallery. It follows the
screen → refine → count protocol of :mod:`rankgate.search`, a block of
probes at a time: one float32 BLAS product scores the block against every
row, the exact kernel rescores only the rows whose screened score lies
within twice the error bound ``δ`` of a decision, and each rank is a
count of the rows ahead. The out-of-gallery rankings reuse the block's
screened scores with each probe identity's rows set to ``-inf``. Samples,
``top_similarity`` included, are bit-identical to those of a full
:func:`rankgate.search.search`. A block holds
:func:`rankgate.search.screen_block` probes, ``D`` of them, so its
``(b, N)`` float32 scores take no more bytes than the gallery's ``(N, D)``
float32 rows.

Both rankings yield the rank vector of whatever identity came back at rank
one. Every enrolled identity holds ``d_in + 1`` rows, so every rank-one
identity has the ``d_in`` additional images a sample needs, and each probe
yields its in-gallery sample and then its out-of-gallery sample, in
selection order. :attr:`CurationResult.probe_vectors` and the score
baselines rely on that order.

Sampling algorithm (reproducible outside this package): the candidate list
is the identity's non-probe rows in ascending ``image_id`` order. The
identity's stream is exactly ``np.random.Generator(np.random.PCG64(
derive_seed(rng_seed, identity_id, "pool")))`` (see
:mod:`rankgate.seeds`). Enrollment uses a partial Fisher-Yates pass: for
draw ``i``, swap index ``i`` with ``rng.integers(i, n)`` and keep the
first ``d_in + 1`` entries in draw order. A probe degraded at σ > 0 is
its row plus σ times one ``standard_normal(D)`` draw from the identity's
stream labeled ``"degrade"``, then normalized twice, a screen block per
call. The streams are seeded in bulk: numpy's ``SeedSequence`` words for
every identity of a run are computed in one vectorized step and handed to
``PCG64``, which seeds itself from them as it would from the
``SeedSequence``; each generator is built just before its draws.

Rank samples have one file format, the CSV written by
:func:`write_samples_csv` and read by :func:`load_samples_csv`.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass, field, fields, replace
from itertools import groupby, islice
from pathlib import Path
from typing import Iterator, Optional, Sequence

import numpy as np

from .codec import csv_line, csv_table
from .search import (
    GalleryIndex,
    build_gallery,
    extract_rank_vector,
    screen,
    screen_block,
)

# Not called here. The benchmark tracer wraps ``rankgate.curation.search``
# by name, so the name stays bound.
from .search import search  # noqa: F401
from .seeds import derive_seed
from .store import EmbeddingStore, l2_normalize_rows
from .synth import check_sigma, degrade_probes

IN_GALLERY = 1
OUT_OF_GALLERY = 0


@dataclass(frozen=True)
class CurationConfig:
    """Protocol knobs. The default ``d_in`` gives the 1 probe + 4 enrolled
    pairing; see the module docstring."""

    d_in: int = 3
    rng_seed: int = 0
    group: str = ""
    condition: str = "original"

    def __post_init__(self):
        if self.d_in < 1:
            raise ValueError(f"d_in must be >= 1, got {self.d_in}")


@dataclass(frozen=True)
class RankSample:
    """One labeled training/testing row.

    ``rank_one_identity`` and ``top_similarity`` are in-memory diagnostics
    used by score-based baselines; they are not part of the serialized
    formats, and ``top_similarity`` never takes part in equality because it
    is float-order sensitive.
    """

    ranks: tuple[int, ...]
    label: int
    probe_identity: str
    group: str
    condition: str
    gallery_size: int
    rank_one_identity: str = ""
    top_similarity: float = field(default=float("nan"), compare=False)

    def __post_init__(self):
        if self.label not in (IN_GALLERY, OUT_OF_GALLERY):
            raise ValueError(f"label must be 0 or 1, got {self.label}")
        if len(self.ranks) == 0:
            raise ValueError("a sample needs at least one rank")
        # Augmented copies shuffle feature positions, so ranks are a set of
        # distinct values in [2, gallery_size] but not necessarily sorted.
        if len(set(self.ranks)) != len(self.ranks):
            raise ValueError(f"ranks must be distinct, got {self.ranks}")
        for r in self.ranks:
            if not 2 <= r <= self.gallery_size:
                raise ValueError(
                    f"rank {r} outside [2, gallery_size={self.gallery_size}]"
                )


@dataclass
class CurationResult:
    """Samples plus everything score baselines need from the same run.

    ``probe_vectors`` is the ``(n_probes, D)`` float64 matrix of the probes
    as searched (degraded, if so), in selection order: row ``j`` is the
    probe of ``samples[2j]`` and ``samples[2j + 1]``.
    """

    samples: list[RankSample]
    gallery: GalleryIndex
    probe_vectors: np.ndarray


@dataclass(frozen=True)
class SplitDataset:
    train: tuple[RankSample, ...]
    test: tuple[RankSample, ...]


def select_probes(
    store: EmbeddingStore, config: CurationConfig
) -> list[tuple[int, tuple[int, ...]]]:
    """Pick (probe row, enrolled pool rows) per eligible identity, identities
    ascending; each pool lists its rows in draw order.

    The store must already be restricted to the configured group when one
    is set; mixing groups in one curation is an error.
    """
    if config.group and set(store.groups) - {config.group}:
        extra = sorted(set(store.groups) - {config.group})
        raise ValueError(
            f"store contains groups {extra} beyond configured {config.group!r}"
        )
    # Store rows are sorted by key, so each identity is one run of rows in
    # ascending image_id order.
    eligible = []
    for identity_id, run in groupby(range(len(store)), store.identity_ids.__getitem__):
        rows = list(run)
        if len(rows) >= config.d_in + 2:
            eligible.append((identity_id, rows))
    streams = _identity_streams(config.rng_seed, [i for i, _ in eligible], "pool")
    capture, image_ids = store.capture_index.tolist(), store.image_ids
    out = []
    for (_, rows), rng in zip(eligible, streams):
        probe = max(rows, key=lambda r: (capture[r], image_ids[r]))
        candidates = [r for r in rows if r != probe]
        out.append((probe, _fisher_yates_pool(candidates, config.d_in + 1, rng)))
    return out


def _identity_streams(
    rng_seed: int, identity_ids: Sequence[str], label: str
) -> Iterator[np.random.Generator]:
    """The identities' PCG64 streams of the module docstring, in order."""
    return _pcg64_streams([derive_seed(rng_seed, i, label) for i in identity_ids])


def _pcg64_streams(seeds: Sequence[int]) -> Iterator[np.random.Generator]:
    """``np.random.Generator(np.random.PCG64(seed))`` for each 64-bit seed,
    bit for bit, each built as it is taken.

    numpy seeds PCG64 from ``SeedSequence(seed).generate_state(4,
    uint64)``. Those words are computed for every seed at once
    (:func:`_seed_sequence_words`) and handed to ``PCG64``, which does its
    own 128-bit seeding from them.
    """
    words = _seed_sequence_words(seeds)
    # Registered here, not at import: ``import rankgate`` never loads numpy.random.
    np.random.bit_generator.ISeedSequence.register(_SeedWords)
    for row in words:
        yield np.random.Generator(np.random.PCG64(_SeedWords(row)))


# numpy's SeedSequence constants (numpy/random/bit_generator.pyx).
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF


def _seed_sequence_words(seeds: Sequence[int]) -> np.ndarray:
    """Row ``i`` is ``SeedSequence(seeds[i]).generate_state(4, np.uint64)``
    for 64-bit seeds, numpy's pool mix run as uint32 array operations over
    all seeds. A seed is the entropy words ``[lo, hi]``; below 2³² numpy
    takes ``[lo]`` alone and pads the pool with ``hashmix(0)``, which is
    what ``hi = 0`` gives."""
    seeds = np.array(seeds, dtype=np.uint64)
    const = _INIT_A

    def hashmix(value):
        nonlocal const
        value = value ^ const
        const = const * _MULT_A & _MASK32
        value = value * const
        return value ^ (value >> 16)

    zero = np.zeros(len(seeds), dtype=np.uint32)
    entropy = ((seeds & _MASK32).astype(np.uint32), (seeds >> 32).astype(np.uint32))
    pool = [hashmix(e) for e in (*entropy, zero, zero)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                mixed = _MIX_MULT_L * pool[dst] - _MIX_MULT_R * hashmix(pool[src])
                pool[dst] = mixed ^ (mixed >> 16)
    # generate_state(4, uint64): 8 uint32 words cycling over the pool, under
    # a second hash constant, paired little-endian into uint64 words.
    const = _INIT_B
    state = np.empty((len(seeds), 8), dtype=np.uint64)
    for i in range(8):
        value = pool[i % 4] ^ const
        const = const * _MULT_B & _MASK32
        value = value * const
        state[:, i] = value ^ (value >> 16)
    return state[:, 0::2] | state[:, 1::2] << 32


class _SeedWords:
    """A seed for ``np.random.PCG64``: the precomputed ``generate_state(4,
    uint64)`` of its SeedSequence. Registered as numpy's ``ISeedSequence``
    on first use; any other request is refused, so a change in how numpy
    seeds PCG64 fails loudly instead of drawing other bits."""

    __slots__ = ("words",)

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise RuntimeError(
                f"PCG64 asked for generate_state({n_words}, {np.dtype(dtype)}), "
                f"precomputed for (4, uint64)"
            )
        return self.words


def _fisher_yates_pool(
    candidates: Sequence[int], k: int, rng: np.random.Generator
) -> tuple[int, ...]:
    idx = list(range(len(candidates)))
    for i in range(k):
        j = int(rng.integers(i, len(candidates)))
        idx[i], idx[j] = idx[j], idx[i]
    return tuple(candidates[t] for t in idx[:k])


def curate_detailed(
    store: EmbeddingStore,
    config: CurationConfig,
    probe_sigma: float = 0.0,
) -> CurationResult:
    """Run the dual-search protocol over every eligible identity.

    Emits, per identity in ascending order, the in-gallery sample followed
    by the out-of-gallery sample. With ``probe_sigma > 0`` each probe is
    degraded as the module docstring says, and the degraded probe is used
    for both rankings; ``probe_sigma`` must be finite and ``>= 0``. Probes
    are screened in blocks of :func:`rankgate.search.screen_block`.
    """
    check_sigma("probe_sigma", probe_sigma)
    selected = select_probes(store, config)
    if len(selected) < 2:
        raise ValueError(
            f"need at least 2 eligible identities, found {len(selected)} "
            f"(each needs d_in + 2 = {config.d_in + 2} images)"
        )
    gallery = build_gallery(store, [r for _, pool in selected for r in pool])
    samples: list[RankSample] = []
    probe_vectors = np.empty((len(selected), gallery.dimension))
    block = screen_block(gallery)
    probe_ids = [store.identity_ids[probe] for probe, _pool in selected]
    if probe_sigma > 0:
        streams = _identity_streams(config.rng_seed, probe_ids, "degrade")
    for start in range(0, len(selected), block):
        rows = [probe for probe, _pool in selected[start : start + block]]
        probes = probe_vectors[start : start + len(rows)]
        identities = probe_ids[start : start + len(rows)]
        if probe_sigma > 0:
            rngs = list(islice(streams, len(rows)))
            degraded = degrade_probes(store.vectors[rows], probe_sigma, rngs)
            probes[:] = l2_normalize_rows(degraded)
        else:
            probes[:] = store.vectors[rows]
        screened = screen(gallery, probes)
        inside = extract_rank_vector(gallery, probes, screened, config.d_in)
        owns = [gallery.identity_map[identity_id] for identity_id in identities]
        block_rows = np.repeat(np.arange(len(rows)), [len(own) for own in owns])
        screened[block_rows, np.concatenate(owns)] = -np.inf
        outside = extract_rank_vector(gallery, probes, screened, config.d_in)
        for row, identity_id, own, found_in, found_out in zip(
            rows, identities, owns, inside, outside
        ):
            group = config.group or store.groups[row]
            for label, (ranks, winner, top), size in (
                (IN_GALLERY, found_in, gallery.size),
                (OUT_OF_GALLERY, found_out, gallery.size - len(own)),
            ):
                samples.append(
                    RankSample(
                        ranks=ranks,
                        label=label,
                        probe_identity=identity_id,
                        group=group,
                        condition=config.condition,
                        gallery_size=size,
                        rank_one_identity=winner,
                        top_similarity=top,
                    )
                )
    return CurationResult(samples, gallery, probe_vectors)


def check_test_fraction(name: str, fraction: float) -> None:
    """Reject a test share that is not strictly between 0 and 1, NaN included."""
    if not 0 < fraction < 1:
        raise ValueError(f"{name} must be in (0, 1), got {fraction}")


def check_copies(name: str, copies: int) -> None:
    """Reject a negative number of augmentation copies."""
    if copies < 0:
        raise ValueError(f"{name} must be >= 0")


def stratified_split(
    samples: Sequence[RankSample],
    test_fraction: float = 0.2,
    rng_seed: int = 0,
) -> SplitDataset:
    """Disjoint train/test split preserving the label mix within one sample.

    Per class: shuffle, send ``round(n * test_fraction)`` samples to test.
    Output preserves the input's relative order within each part. Raises
    ValueError when that leaves a class with no test or no training sample.
    """
    check_test_fraction("test_fraction", test_fraction)
    rng = np.random.default_rng(derive_seed(rng_seed, "split"))
    test_idx: set[int] = set()
    for label in (OUT_OF_GALLERY, IN_GALLERY):
        idx = [i for i, s in enumerate(samples) if s.label == label]
        perm = rng.permutation(len(idx))
        n_test = int(round(len(idx) * test_fraction))
        if not 0 < n_test < len(idx):
            raise ValueError(
                f"label {label} has {len(idx)} samples and test_fraction {test_fraction} "
                f"sends {n_test} to test; each part needs one, so at least 2 samples"
            )
        test_idx.update(idx[p] for p in perm[:n_test])
    train = tuple(s for i, s in enumerate(samples) if i not in test_idx)
    test = tuple(s for i, s in enumerate(samples) if i in test_idx)
    return SplitDataset(train=train, test=test)


def permute_augment(
    samples: Sequence[RankSample], copies_per_sample: int, rng_seed: int = 0
) -> list[RankSample]:
    """Originals plus ``copies_per_sample`` rank-permuted variants each.

    Variants shuffle the feature positions of a sample; the rank multiset
    and the label are untouched. Copies use non-identity permutations so
    they actually vary (with a single rank the only permutation is the
    identity and copies are plain duplicates). Output groups each original
    with its variants, in input order.
    """
    check_copies("copies_per_sample", copies_per_sample)
    rng = np.random.default_rng(derive_seed(rng_seed, "augment"))
    out: list[RankSample] = []
    for sample in samples:
        out.append(sample)
        d = len(sample.ranks)
        for _ in range(copies_per_sample):
            perm = _non_identity_permutation(rng, d)
            out.append(replace(sample, ranks=tuple(sample.ranks[p] for p in perm)))
    return out


def _non_identity_permutation(rng: np.random.Generator, d: int) -> np.ndarray:
    perm = rng.permutation(d)
    if d < 2:
        return perm
    for _ in range(100):
        if not np.array_equal(perm, np.arange(d)):
            return perm
        perm = rng.permutation(d)
    return perm


@dataclass(frozen=True)
class RankDistRow:
    rank: int
    count_in: int
    count_out: int
    cum_in: int
    cum_out: int
    p_in_given_rank_at_most: Optional[float]


def rank_distribution_report(
    samples: Sequence[RankSample], max_rank: int
) -> list[RankDistRow]:
    """Per-rank counts by label plus cumulative P(in-gallery | rank <= r).

    Every rank entry of every sample counts individually. The table runs
    from rank 2 to ``max_rank`` or the largest ``gallery_size``, whichever
    is smaller, because no rank exceeds its sample's gallery size. Rows
    where no entries have been seen yet carry ``None`` for the probability.
    """
    if max_rank < 2:
        raise ValueError("max_rank must be >= 2")
    if not samples:
        raise ValueError("no samples")
    last = min(max_rank, max(s.gallery_size for s in samples))
    counts = {label: np.zeros(last + 1, dtype=np.int64) for label in (0, 1)}
    for s in samples:
        for r in s.ranks:
            if r <= last:
                counts[s.label][r] += 1
    rows = []
    cum_in = 0
    cum_out = 0
    for r in range(2, last + 1):
        c_in = int(counts[IN_GALLERY][r])
        c_out = int(counts[OUT_OF_GALLERY][r])
        cum_in += c_in
        cum_out += c_out
        total = cum_in + cum_out
        p = cum_in / total if total else None
        rows.append(RankDistRow(r, c_in, c_out, cum_in, cum_out, p))
    return rows


def write_rank_distribution_csv(rows: Sequence[RankDistRow], path) -> None:
    """One line per row, its fields in order; a ``None`` probability is empty."""
    with open(Path(path), "w") as fh:
        fh.write(csv_line([f.name for f in fields(RankDistRow)]) + "\n")
        for row in rows:
            fh.write(csv_line(astuple(row)) + "\n")


def d_in_of(samples: Sequence[RankSample]) -> int:
    if not samples:
        raise ValueError("no samples")
    widths = {len(s.ranks) for s in samples}
    if len(widths) != 1:
        raise ValueError(f"samples mix rank widths {sorted(widths)}")
    return widths.pop()


_SAMPLE_COLUMNS = ("probe_identity", "group", "condition", "label", "gallery_size")


def _rank_column(i: int) -> str:
    return f"r{i + 1}"


def write_samples_csv(samples: Sequence[RankSample], path) -> None:
    """Write ``probe_identity,group,condition,label,gallery_size,r1..`` lines ending in CRLF."""
    d = d_in_of(samples)
    with open(Path(path), "w", newline="") as fh:
        fh.write(csv_line([*_SAMPLE_COLUMNS, *map(_rank_column, range(d))]) + "\r\n")
        for s in samples:
            fields = [s.probe_identity, s.group, s.condition, s.label, s.gallery_size, *s.ranks]
            fh.write(csv_line(fields) + "\r\n")


def load_samples_csv(path) -> list[RankSample]:
    with open(Path(path), newline="") as fh:
        _, rows = csv_table(fh, path, _SAMPLE_COLUMNS, _rank_column)
        samples = []
        for lineno, row in rows:
            try:
                sample = RankSample(
                    ranks=tuple(int(x) for x in row[5:]),
                    label=int(row[3]),
                    probe_identity=row[0],
                    group=row[1],
                    condition=row[2],
                    gallery_size=int(row[4]),
                )
            except ValueError as exc:
                raise ValueError(f"line {lineno}: {exc}") from exc
            samples.append(sample)
    return samples
