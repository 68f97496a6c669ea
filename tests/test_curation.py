import hashlib
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import oracle_curate, oracle_select, sample_tuple
from rankgate import curation
from rankgate.curation import (
    CurationConfig,
    RankSample,
    curate_detailed,
    d_in_of,
    load_samples_csv,
    permute_augment,
    rank_distribution_report,
    select_probes,
    stratified_split,
    write_rank_distribution_csv,
    write_samples_csv,
)
from rankgate.search import screen, screen_tolerance, similarities
from rankgate.store import EmbeddingStore
from rankgate.synth import SynthConfig, generate

from conftest import make_row, store_of


def sample(ranks, label, ident="p", gallery_size=100, group="g", condition="orig"):
    return RankSample(
        ranks=tuple(ranks),
        label=label,
        probe_identity=ident,
        group=group,
        condition=condition,
        gallery_size=gallery_size,
    )


def tie_heavy_store():
    """9 identities x 5 images in 3 triples; the identities of a triple hold
    bit-identical vectors and enroll the same image ids, so every search
    meets exact three-way ties across identities."""
    rng = np.random.default_rng(17)
    bases = [rng.standard_normal((5, 16)) for _ in range(3)]
    return store_of(
        make_row(f"id{k}", f"im{j}", capture=j, vector=bases[k % 3][j])
        for k in range(9)
        for j in range(5)
    )


def near_tie_store():
    """12 identities x 5 images whose scores tie or nearly tie, computed exactly.

    Components are multiples of 2^-20 except component 0, where probes (the
    highest capture) hold 2^-32 and enrolled images hold j * 2^-20 for a small
    integer j. Every product and partial sum of a score is then exact in
    float64 whatever the summation order, so the oracle, the kernel and a BLAS
    screen agree, while enrolled copies that differ in component 0 score
    j * 2^-52 apart, far inside the screen's error bound (about 10^-6 at 16
    dimensions). The three identities of a family share their enrolled
    vectors apart from component 0; the third stores them with components 14
    and 15 swapped, which every probe weights equally.
    """
    rng = np.random.default_rng(29)
    step = 2.0**-20

    def on_grid(v):
        v = v.copy()
        v[0] = 0.0
        return np.round(v / np.linalg.norm(v) / step) * step

    rows = []
    for family in range(4):
        center = rng.standard_normal(16)
        enrolled = [on_grid(center + 0.3 * rng.standard_normal(16)) for _ in range(4)]
        for member in range(3):
            ident = f"f{family}m{member}"
            for k, vec in enumerate(enrolled):
                vec = vec.copy()
                if member == 2:
                    vec[[14, 15]] = vec[[15, 14]]
                vec[0] = int(rng.integers(-6, 7)) * step
                rows.append((ident, f"im{k}", "g", k, vec.astype(np.float32)))
            probe = center + 0.3 * rng.standard_normal(16)
            probe[15] = probe[14]
            probe = on_grid(probe)
            probe[0] = 2.0**-32
            rows.append((ident, "im4", "g", 4, probe.astype(np.float32)))
    return store_of(rows)


def sample_digest(samples) -> str:
    """sha256 over every field of every sample, ``top_similarity`` by its bits."""
    h = hashlib.sha256()
    for s in samples:
        h.update(repr((s.ranks, s.label, s.probe_identity, s.group, s.condition,
                       s.gallery_size, s.rank_one_identity,
                       s.top_similarity.hex())).encode())
    return h.hexdigest()


class TestCurationConfig:
    def test_defaults_follow_d_in(self):
        rows = [make_row("a", f"i{j}", capture=j) for j in range(5)]
        rows += [make_row("b", f"i{j}", capture=j) for j in range(4)]
        [(probe, pool)] = select_probes(store_of(rows), CurationConfig(d_in=3))
        assert probe == 4
        assert len(pool) == 4


class TestRankSample:
    def test_rejects_bad_label(self):
        with pytest.raises(ValueError, match="label"):
            sample((2, 3), label=2)

    def test_rejects_empty_ranks(self):
        with pytest.raises(ValueError, match="at least one rank"):
            sample((), label=1)

    def test_rejects_duplicate_ranks(self):
        with pytest.raises(ValueError, match="distinct"):
            sample((2, 2, 3), label=1)

    def test_rejects_rank_one(self):
        with pytest.raises(ValueError, match="outside"):
            sample((1, 2, 3), label=1)

    def test_rejects_rank_beyond_gallery(self):
        with pytest.raises(ValueError, match="outside"):
            sample((2, 101), label=0, gallery_size=100)

    def test_accepts_unsorted_ranks(self):
        # augmented copies are unsorted on purpose
        s = sample((9, 2, 5), label=1)
        assert s.ranks == (9, 2, 5)


class TestSelectProbes:
    def test_forced_selection_no_sampling_freedom(self):
        store = store_of(make_row("a", f"i{k}", capture=k, seed=k) for k in range(1, 6))
        cfg = CurationConfig(d_in=3)  # enrolled 4 of remaining 4
        [(probe, pool)] = select_probes(store, cfg)
        assert store.image_ids[probe] == "i5"
        assert sorted(store.image_ids[r] for r in pool) == ["i1", "i2", "i3", "i4"]

    def test_capture_tie_broken_by_image_id(self):
        store = store_of([
            make_row("a", "x1", capture=3, seed=1),
            make_row("a", "x2", capture=3, seed=2),
            make_row("a", "a9", capture=2, seed=3),
            make_row("a", "b1", capture=1, seed=4),
            make_row("a", "b2", capture=1, seed=5),
        ])
        [(probe, _)] = select_probes(store, CurationConfig(d_in=3))
        assert store.image_ids[probe] == "x2"

    def test_identity_below_threshold_excluded(self):
        store = store_of(make_row("a", f"i{k}", capture=k, seed=k) for k in range(4))
        assert select_probes(store, CurationConfig(d_in=3)) == []

    def test_pool_matches_reference_fisher_yates(self, small_store):
        cfg = CurationConfig(d_in=3, rng_seed=42)
        got = select_probes(small_store, cfg)
        expected = oracle_select(small_store, d_in=3, rng_seed=42)
        ids, images = small_store.identity_ids, small_store.image_ids
        assert len(got) == len(expected)
        for (probe, pool), (ident, oracle_probe, oracle_pool) in zip(got, expected):
            assert ids[probe] == ident
            assert images[probe] == oracle_probe.image_id
            assert all(ids[r] == ident for r in pool)
            assert [images[r] for r in pool] == [r.image_id for r in oracle_pool]

    def test_pool_independent_of_other_identities(self, small_store):
        """Per-identity seeding: dropping other identities keeps this pool."""
        cfg = CurationConfig(d_in=3, rng_seed=8)
        ids, images = small_store.identity_ids, small_store.image_ids
        full = {
            ids[p]: [images[r] for r in pool]
            for p, pool in select_probes(small_store, cfg)
        }
        idents = sorted(full)[:3]
        kept = [i for i, ident in enumerate(ids) if ident in idents]
        sub = EmbeddingStore(
            [ids[i] for i in kept],
            [images[i] for i in kept],
            [small_store.groups[i] for i in kept],
            small_store.capture_index[kept],
            small_store.vectors[kept],
        )
        for probe, pool in select_probes(sub, cfg):
            assert [sub.image_ids[r] for r in pool] == full[sub.identity_ids[probe]]

    def test_group_mismatch_rejected(self):
        store = store_of([make_row("a", "i1", group="A"), make_row("b", "i1", group="B")])
        with pytest.raises(ValueError, match="beyond configured"):
            select_probes(store, CurationConfig(d_in=1, group="A"))


class TestCurate:
    def test_two_identity_forced_case(self):
        """1 probe + 4 enrolled each: in-gallery searches 8, out searches 4."""
        store = generate(
            SynthConfig(n_identities=2, images_per_identity=5, dimension=16,
                        within_noise_sigma=0.05, rng_seed=3)
        )
        samples = curate_detailed(store, CurationConfig(d_in=3, rng_seed=0)).samples
        assert len(samples) == 4
        by_label = {s.label: [] for s in samples}
        for s in samples:
            by_label[s.label].append(s)
        for s in by_label[1]:
            assert s.gallery_size == 8
        idents = sorted({s.probe_identity for s in samples})
        for s in by_label[0]:
            assert s.gallery_size == 4
            other = [i for i in idents if i != s.probe_identity][0]
            assert s.rank_one_identity == other

    def test_perfect_match_gives_contiguous_ranks(self):
        """Zero within-noise puts the probe identity at ranks 1..4."""
        store = generate(
            SynthConfig(n_identities=6, images_per_identity=5, dimension=32,
                        within_noise_sigma=0.0, rng_seed=1)
        )
        samples = curate_detailed(store, CurationConfig(d_in=3, rng_seed=0)).samples
        for s in samples:
            if s.label == 1:
                assert s.ranks == (2, 3, 4)
                assert s.rank_one_identity == s.probe_identity

    def test_matches_protocol_oracle(self, small_store):
        cfg = CurationConfig(d_in=3, rng_seed=21, condition="orig")
        for store in (small_store, tie_heavy_store()):
            result = curate_detailed(store, cfg)
            expected, skipped = oracle_curate(
                store, d_in=3, rng_seed=21, group="", condition="orig"
            )
            assert [sample_tuple(s) for s in result.samples] == expected
            assert skipped == 0

    def test_matches_protocol_oracle_with_degradation(self, small_store):
        sigma = 0.15
        cfg = CurationConfig(d_in=3, rng_seed=4, condition="noisy")
        result = curate_detailed(small_store, cfg, sigma)
        expected, _ = oracle_curate(
            small_store, d_in=3, rng_seed=4, group="", condition="noisy",
            degrade_sigma=sigma,
        )
        assert [sample_tuple(s) for s in result.samples] == expected

    @pytest.mark.parametrize("sigma", [-0.1, float("nan"), float("inf")])
    def test_bad_probe_sigma_refused(self, small_store, sigma):
        message = f"probe_sigma must be finite and >= 0, got {sigma!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            curate_detailed(small_store, CurationConfig(d_in=3), sigma)

    def test_each_probe_yields_its_pair_in_selection_order(self, medium_store):
        """Samples alternate in-gallery, out-of-gallery for one probe
        identity, identities ascending, and at sigma 0 probe_vectors[j] is
        the store row select_probes picked for samples[2j]."""
        cfg = CurationConfig(d_in=3, rng_seed=0)
        result = curate_detailed(medium_store, cfg)
        selected = select_probes(medium_store, cfg)
        assert len(result.samples) == 2 * len(selected) == 2 * len(result.probe_vectors)
        inside, outside = result.samples[::2], result.samples[1::2]
        assert all(s.label == 1 for s in inside) and all(s.label == 0 for s in outside)
        identities = [s.probe_identity for s in inside]
        assert identities == [s.probe_identity for s in outside]
        assert identities == sorted(set(identities))
        for (row, _pool), identity_id, vector in zip(
            selected, identities, result.probe_vectors
        ):
            assert medium_store.identity_ids[row] == identity_id
            assert vector.tobytes() == medium_store.vectors[row].astype(np.float64).tobytes()

    def test_out_search_excludes_probe_identity(self, small_store):
        result = curate_detailed(small_store, CurationConfig(d_in=3, rng_seed=0))
        for s in result.samples:
            if s.label == 0:
                assert s.rank_one_identity != s.probe_identity

    def test_deterministic(self, small_store):
        cfg = CurationConfig(d_in=3, rng_seed=13)
        assert curate_detailed(small_store, cfg).samples == curate_detailed(small_store, cfg).samples

    def test_needs_two_identities(self):
        store = store_of(make_row("a", f"i{k}", capture=k, seed=k) for k in range(1, 6))
        with pytest.raises(ValueError, match="2 eligible"):
            curate_detailed(store, CurationConfig(d_in=3))

    def test_probe_never_enrolled(self, small_store):
        result = curate_detailed(small_store, CurationConfig(d_in=3, rng_seed=0))
        probes = {
            p for p, _ in select_probes(small_store, CurationConfig(d_in=3, rng_seed=0))
        }
        enrolled = set(result.gallery.tie_rank.tolist())
        assert len(probes) == 12 and len(enrolled) == 48
        assert probes.isdisjoint(enrolled)

    def test_golden_samples(self):
        """3200 samples hash as the full-sort search path curated them, on
        stores with exact duplicates (within sigma 0) and probe sigma 0 to 0.25."""
        samples = []
        for within, probe_sigma in ((0.0, 0.0), (0.0, 0.10), (0.10, 0.10), (0.25, 0.25)):
            store = generate(SynthConfig(n_identities=400, images_per_identity=6,
                                         dimension=32, within_noise_sigma=within,
                                         rng_seed=5))
            cfg = CurationConfig(d_in=3, rng_seed=9, condition=f"p{probe_sigma}")
            samples += curate_detailed(store, cfg, probe_sigma).samples
        assert len(samples) == 3200
        assert sample_digest(samples) == (
            "4a385c1a275a643a141d2eca0265dfb58a272bdec46097895fe546bf7d67be89"
        )

    def test_near_ties_decided_by_refinement(self, monkeypatch):
        """Samples equal the oracle's when every screened score is off by up
        to 0.9 of the bound, so only the exact rescoring can order near ties."""
        store = near_tie_store()
        cfg = CurationConfig(d_in=3, rng_seed=3)
        expected, skipped = oracle_curate(
            store, d_in=3, rng_seed=3, group="", condition="original"
        )
        rng = np.random.default_rng(0)

        def shaken(gallery, probes):
            rows = gallery.vectors.astype(np.float64)
            exact = np.stack([similarities(rows, p) for p in probes])
            bound = screen_tolerance(gallery, probes)
            return exact + 0.9 * rng.uniform(-1.0, 1.0, exact.shape) * bound[:, None]

        digests = set()
        for screen_fn in (screen, shaken):
            monkeypatch.setattr(curation, "screen", screen_fn)
            result = curate_detailed(store, cfg)
            assert [sample_tuple(s) for s in result.samples] == expected
            assert skipped == 0
            digests.add(sample_digest(result.samples))
        assert len(digests) == 1


class TestStratifiedSplit:
    def make_samples(self, n_in, n_out):
        out = []
        rng = np.random.default_rng(0)
        for i in range(n_in + n_out):
            ranks = tuple(sorted(rng.choice(np.arange(2, 99), size=3, replace=False)))
            out.append(sample(ranks, label=1 if i < n_in else 0, ident=f"p{i}"))
        return out

    def test_exact_arithmetic_100(self):
        split = stratified_split(self.make_samples(50, 50), 0.2, rng_seed=1)
        test_in = sum(1 for s in split.test if s.label == 1)
        test_out = sum(1 for s in split.test if s.label == 0)
        assert test_in == 10 and test_out == 10

    def test_rounding_within_one_101(self):
        split = stratified_split(self.make_samples(51, 50), 0.2, rng_seed=1)
        test_in = sum(1 for s in split.test if s.label == 1)
        test_out = sum(1 for s in split.test if s.label == 0)
        assert abs(test_in - 51 * 0.2) <= 1
        assert abs(test_out - 50 * 0.2) <= 1

    def test_disjoint_and_covering(self):
        samples = self.make_samples(30, 25)
        split = stratified_split(samples, 0.2, rng_seed=3)
        ids = lambda part: {s.probe_identity for s in part}  # noqa: E731
        assert ids(split.train).isdisjoint(ids(split.test))
        assert len(split.train) + len(split.test) == len(samples)
        assert sorted(ids(split.train) | ids(split.test)) == sorted(ids(samples))

    def test_deterministic(self):
        samples = self.make_samples(500, 500)
        a = stratified_split(samples, 0.2, rng_seed=9)
        b = stratified_split(samples, 0.2, rng_seed=9)
        assert a == b

    def test_seed_changes_split(self):
        samples = self.make_samples(50, 50)
        a = stratified_split(samples, 0.2, rng_seed=0)
        b = stratified_split(samples, 0.2, rng_seed=1)
        assert a != b

    def test_tiny_class_rejected(self):
        samples = self.make_samples(10, 1)
        with pytest.raises(ValueError, match="at least 2"):
            stratified_split(samples, 0.2)

    def test_bad_fraction_rejected(self):
        with pytest.raises(ValueError, match="test_fraction"):
            stratified_split(self.make_samples(5, 5), 1.5)

    @pytest.mark.parametrize("fraction, n_test", [(0.01, 0), (0.99, 20)])
    def test_fraction_leaving_a_part_empty_rejected(self, fraction, n_test):
        """A fraction that gives a label no test sample, or no training
        sample, is refused, naming the label, its count and the fraction."""
        message = f"^label 0 has 20 samples and test_fraction {fraction} sends {n_test} to test"
        with pytest.raises(ValueError, match=message):
            stratified_split(self.make_samples(30, 20), fraction)
        split = stratified_split(self.make_samples(30, 20), 0.05)
        assert sum(s.label == 0 for s in split.test) == 1

    @given(
        n_in=st.integers(min_value=5, max_value=60),
        n_out=st.integers(min_value=5, max_value=60),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=50, deadline=None)
    def test_class_proportions_property(self, n_in, n_out, seed):
        samples = self.make_samples(n_in, n_out)
        split = stratified_split(samples, 0.2, rng_seed=seed)
        for label, total in ((1, n_in), (0, n_out)):
            got = sum(1 for s in split.test if s.label == label)
            assert abs(got - total * 0.2) <= 0.5 + 1e-9


class TestPermuteAugment:
    def test_multiset_and_label_preserved(self):
        src = sample((2, 7, 40), label=1)
        out = permute_augment([src], copies_per_sample=1, rng_seed=0)
        assert len(out) == 2
        assert out[0] == src
        variant = out[1]
        assert sorted(variant.ranks) == [2, 7, 40]
        assert variant.label == 1
        assert variant.ranks != src.ranks

    def test_d_in_two_gives_swap(self):
        src = sample((3, 9), label=0)
        out = permute_augment([src], copies_per_sample=1, rng_seed=5)
        assert out[1].ranks == (9, 3)

    def test_output_size_500_by_2(self):
        rng = np.random.default_rng(1)
        src = [
            sample(tuple(sorted(rng.choice(np.arange(2, 99), 3, replace=False))),
                   label=int(rng.integers(0, 2)), ident=f"p{i}")
            for i in range(500)
        ]
        out = permute_augment(src, copies_per_sample=2, rng_seed=0)
        assert len(out) == 1500
        for i, s in enumerate(src):
            block = out[3 * i : 3 * i + 3]
            assert block[0] == s
            for variant in block[1:]:
                assert sorted(variant.ranks) == sorted(s.ranks)
                assert variant.label == s.label
                assert variant.probe_identity == s.probe_identity

    def test_single_rank_copies_identically(self):
        src = sample((4,), label=1)
        out = permute_augment([src], copies_per_sample=2, rng_seed=0)
        assert len(out) == 3
        assert all(s.ranks == (4,) for s in out)

    def test_zero_copies_is_identity(self):
        src = [sample((2, 3), label=1)]
        assert permute_augment(src, 0) == src

    def test_deterministic(self):
        src = [sample((2, 5, 9), label=1), sample((3, 4, 8), label=0, ident="q")]
        a = permute_augment(src, 3, rng_seed=7)
        b = permute_augment(src, 3, rng_seed=7)
        assert a == b

    @given(seed=st.integers(min_value=0, max_value=2**31), copies=st.integers(1, 3))
    @settings(max_examples=40, deadline=None)
    def test_multiset_property(self, seed, copies):
        rng = np.random.default_rng(seed)
        src = [
            sample(tuple(sorted(rng.choice(np.arange(2, 50), 4, replace=False))),
                   label=int(rng.integers(0, 2)), ident=f"p{i}")
            for i in range(5)
        ]
        out = permute_augment(src, copies, rng_seed=seed)
        assert len(out) == len(src) * (1 + copies)
        for i, s in enumerate(src):
            for variant in out[i * (1 + copies) : (i + 1) * (1 + copies)]:
                assert sorted(variant.ranks) == sorted(s.ranks)
                assert variant.label == s.label


class TestRankDistribution:
    def test_fully_separated(self):
        samples = [sample((2, 3, 4), 1, ident=f"a{i}", gallery_size=200) for i in range(5)]
        samples += [sample((60, 70, 80), 0, ident=f"b{i}", gallery_size=200) for i in range(5)]
        rows = rank_distribution_report(samples, max_rank=50)
        by_rank = {r.rank: r for r in rows}
        assert by_rank[4].p_in_given_rank_at_most == 1.0
        assert by_rank[50].p_in_given_rank_at_most == 1.0

    def test_symmetric_counts_give_half(self):
        samples = []
        for i in range(4):
            samples.append(sample((2, 3, 4), 1, ident=f"a{i}"))
            samples.append(sample((2, 3, 4), 0, ident=f"b{i}"))
        rows = rank_distribution_report(samples, max_rank=10)
        for row in rows:
            if row.p_in_given_rank_at_most is not None:
                assert row.p_in_given_rank_at_most == 0.5

    def test_empty_prefix_reports_none(self):
        samples = [sample((10, 11), 1)]
        rows = rank_distribution_report(samples, max_rank=12)
        for row in rows:
            if row.rank < 10:
                assert row.p_in_given_rank_at_most is None
            else:
                assert row.p_in_given_rank_at_most == 1.0

    def test_monotone_under_dominance(self):
        """In-gallery ranks all below out-of-gallery ranks: P never rises."""
        rng = np.random.default_rng(0)
        samples = []
        for i in range(30):
            lo = tuple(sorted(rng.choice(np.arange(2, 20), 3, replace=False)))
            hi = tuple(sorted(rng.choice(np.arange(20, 90), 3, replace=False)))
            samples.append(sample(lo, 1, ident=f"a{i}"))
            samples.append(sample(hi, 0, ident=f"b{i}"))
        rows = rank_distribution_report(samples, max_rank=90)
        probs = [r.p_in_given_rank_at_most for r in rows if r.p_in_given_rank_at_most is not None]
        assert all(b <= a + 1e-12 for a, b in zip(probs, probs[1:]))

    def test_counts_add_up(self):
        samples = [sample((2, 5), 1), sample((2, 9), 0, ident="q")]
        rows = rank_distribution_report(samples, max_rank=9)
        last = rows[-1]
        assert last.cum_in == 2 and last.cum_out == 2
        assert sum(r.count_in for r in rows) == 2

    def test_csv_export(self, tmp_path):
        rows = rank_distribution_report([sample((2, 3), 1)], max_rank=4)
        path = tmp_path / "dist.csv"
        write_rank_distribution_csv(rows, path)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("rank,count_in")
        assert len(lines) == 4


class TestSampleSerialization:
    def make(self):
        return [
            RankSample((2, 5, 9), 1, "p1", "grp", "orig", 120, "p1", 0.91),
            RankSample((11, 30, 44), 0, "p1", "grp", "orig", 115, "p2", 0.44),
            RankSample((3, 4, 6), 1, "p2", "grp", "orig", 120, "p2", 0.88),
        ]

    def test_csv_round_trip(self, tmp_path):
        samples = self.make()
        path = tmp_path / "samples.csv"
        write_samples_csv(samples, path)
        loaded = load_samples_csv(path)
        assert [(s.ranks, s.label, s.probe_identity, s.group, s.condition, s.gallery_size) for s in loaded] == [
            (s.ranks, s.label, s.probe_identity, s.group, s.condition, s.gallery_size) for s in samples
        ]

    def test_csv_header_exact(self, tmp_path):
        path = tmp_path / "samples.csv"
        write_samples_csv(self.make(), path)
        header = path.read_text().splitlines()[0]
        assert header == "probe_identity,group,condition,label,gallery_size,r1,r2,r3"

    def test_csv_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n")
        with pytest.raises(ValueError, match="header"):
            load_samples_csv(path)

    def test_csv_row_errors_name_their_line(self, tmp_path):
        header = "probe_identity,group,condition,label,gallery_size,r1,r2\n"
        good = "p1,g,c,1,120,2,3\n"
        path = tmp_path / "bad.csv"
        for bad, message in (
            ("p2,g,c,1,120,1,3\n", "line 3: rank 1 outside [2, gallery_size=120]"),
            ("p2,g,c,x,120,2,3\n", "line 3: invalid literal for int()"),
            ("p2,g,c,2,120,2,3\n", "line 3: label must be 0 or 1"),
        ):
            path.write_text(header + good + bad)
            with pytest.raises(ValueError) as info:
                load_samples_csv(path)
            assert str(info.value).startswith(message), info.value

    def test_mixed_widths_rejected(self):
        samples = [sample((2, 3), 1), sample((2, 3, 4), 0, ident="q")]
        with pytest.raises(ValueError, match="widths"):
            d_in_of(samples)
