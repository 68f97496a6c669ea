import numpy as np
import pytest

from oracles import oracle_rank_vector, oracle_search_order
from rankgate.search import (
    build_gallery,
    check_probe,
    extract_rank_vector,
    screen,
    search,
    similarities,
)
from rankgate.store import unit_f32

from conftest import make_record


def ranked_keys(result):
    return [
        (result.records[p].identity_id, result.records[p].image_id)
        for p in result.positions
    ]


def counted(gallery, probe, d_in, left_out=()):
    """extract_rank_vector on the probe's screened row, ``left_out`` rows at -inf."""
    screened = screen(gallery, probe[None])[0]
    screened[list(left_out)] = -np.inf
    return extract_rank_vector(gallery, probe, screened, d_in)


def random_gallery(rng, n_records, dim, n_identities=None, duplicate_every=0):
    """Random unit-vector gallery; optionally duplicate vectors to force ties."""
    if n_identities is None:
        n_identities = max(2, n_records // 4)
    records = []
    vectors = []
    for i in range(n_records):
        if duplicate_every and vectors and i % duplicate_every == 0:
            vec = vectors[rng.integers(0, len(vectors))].copy()
        else:
            vec = unit_f32(rng.standard_normal(dim))
        vectors.append(vec)
        records.append(
            make_record(
                f"id{rng.integers(0, n_identities):04d}",
                f"im{i:05d}",
                dim=dim,
                vector=vec.astype(np.float64),
            )
        )
    # drop accidental duplicate keys
    seen = set()
    unique = []
    for r in records:
        if r.key() not in seen:
            seen.add(r.key())
            unique.append(r)
    return unique


class TestGalleryIndex:
    def test_identity_map_positions(self):
        records = [
            make_record("a", "i1"),
            make_record("a", "i2"),
            make_record("b", "i1"),
            make_record("b", "i2"),
        ]
        gallery = build_gallery(records)
        assert set(gallery.identity_map) == {"a", "b"}
        assert all(len(v) == 2 for v in gallery.identity_map.values())

    def test_single_record(self):
        gallery = build_gallery([make_record("a", "i1")])
        assert gallery.size == 1

    def test_position_count_oracle(self):
        rng = np.random.default_rng(0)
        records = random_gallery(rng, 200, 16)
        gallery = build_gallery(records)
        total = sum(len(v) for v in gallery.identity_map.values())
        assert total == len(records)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="zero records"):
            build_gallery([])

    def test_duplicate_key_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            build_gallery([make_record("a", "i1", seed=1), make_record("a", "i1", seed=2)])

    def test_mixed_dimension_rejected(self):
        with pytest.raises(ValueError, match="dimension"):
            build_gallery([make_record("a", "i1", dim=8), make_record("b", "i1", dim=16)])

    def test_non_unit_rejected(self):
        bad = make_record("a", "i1")
        object.__setattr__(bad, "vector", bad.vector * 2)
        with pytest.raises(ValueError, match="unit norm"):
            build_gallery([bad])

    def test_non_finite_rejected(self):
        """A NaN norm fails no ``> tol`` test; it must still be refused."""
        bad = make_record("a", "i1")
        object.__setattr__(bad, "vector", np.full_like(bad.vector, np.nan))
        with pytest.raises(ValueError, match="finite and unit norm"):
            build_gallery([make_record("b", "i1"), bad])


class TestSearch:
    def test_self_match_is_rank_one(self):
        records = [make_record("a", "i1", seed=1), make_record("b", "i1", seed=2)]
        gallery = build_gallery(records)
        result = search(gallery, records[1].vector.astype(np.float64))
        assert result.records[result.positions[0]].identity_id == "b"
        assert result.similarities[0] == pytest.approx(1.0, abs=1e-6)

    def test_orthogonal_pair(self):
        e1 = np.array([1.0, 0.0])
        e2 = np.array([0.0, 1.0])
        gallery = build_gallery(
            [
                make_record("a", "i1", vector=e1, dim=2),
                make_record("b", "i1", vector=e2, dim=2),
            ]
        )
        result = search(gallery, e1)
        assert ranked_keys(result) == [("a", "i1"), ("b", "i1")]
        np.testing.assert_allclose(result.similarities, [1.0, 0.0], atol=1e-7)

    @pytest.mark.parametrize("dim", [8, 64])
    def test_matches_full_sort_oracle(self, dim):
        rng = np.random.default_rng(dim)
        for _ in range(10):
            records = random_gallery(rng, int(rng.integers(5, 120)), dim)
            gallery = build_gallery(records)
            probe = unit_f32(rng.standard_normal(dim)).astype(np.float64)
            result = search(gallery, probe)
            assert ranked_keys(result) == oracle_search_order(records, probe)

    def test_tie_order_matches_oracle(self):
        """Bit-identical vectors under several identities force exact ties."""
        rng = np.random.default_rng(99)
        for _ in range(10):
            records = random_gallery(rng, 60, 8, duplicate_every=3)
            gallery = build_gallery(records)
            probe = unit_f32(rng.standard_normal(8)).astype(np.float64)
            result = search(gallery, probe)
            assert ranked_keys(result) == oracle_search_order(records, probe)

    def test_input_order_invariance(self):
        rng = np.random.default_rng(17)
        records = random_gallery(rng, 50, 16, duplicate_every=4)
        probe = unit_f32(rng.standard_normal(16)).astype(np.float64)
        baseline = ranked_keys(search(build_gallery(records), probe))
        for _ in range(5):
            shuffled = [records[i] for i in rng.permutation(len(records))]
            assert ranked_keys(search(build_gallery(shuffled), probe)) == baseline

    def test_similarity_bounds(self):
        rng = np.random.default_rng(23)
        records = random_gallery(rng, 100, 8)
        gallery = build_gallery(records)
        for _ in range(10):
            result = search(gallery, unit_f32(rng.standard_normal(8)).astype(np.float64))
            assert np.all(result.similarities <= 1 + 1e-6)
            assert np.all(result.similarities >= -1 - 1e-6)

    def test_similarities_sorted_descending(self):
        rng = np.random.default_rng(31)
        gallery = build_gallery(random_gallery(rng, 80, 16))
        result = search(gallery, unit_f32(rng.standard_normal(16)).astype(np.float64))
        assert np.all(np.diff(result.similarities) <= 0)

    def test_probe_dimension_checked(self):
        gallery = build_gallery([make_record("a", "i1", dim=8)])
        with pytest.raises(ValueError, match="shape"):
            search(gallery, np.ones(4) / 2.0)

    def test_probe_norm_checked(self):
        gallery = build_gallery([make_record("a", "i1", dim=4)])
        with pytest.raises(ValueError, match="unit norm"):
            search(gallery, np.ones(4))

    def test_non_finite_probe_rejected(self):
        gallery = build_gallery([make_record("a", "i1", dim=4)])
        probe = np.array([1.0, 0.0, 0.0, np.nan])
        with pytest.raises(ValueError, match="finite and unit norm, got squared norm nan"):
            check_probe(gallery, probe)
        with pytest.raises(ValueError, match="finite and unit norm"):
            search(gallery, np.full(4, np.nan))


def controlled_gallery(identity_ranks, total, dim=None):
    """Gallery where the given identity lands exactly at the given ranks.

    Record at rank r gets similarity to the probe e1 of cos spaced
    decreasing in r, by construction on the plane span(e1, e_{r+1}).
    """
    if dim is None:
        dim = total + 2
    probe = np.zeros(dim)
    probe[0] = 1.0
    records = []
    want = set(identity_ranks)
    for r in range(1, total + 1):
        c = np.cos(0.1 + 1.2 * r / total)
        vec = np.zeros(dim)
        vec[0] = c
        vec[r] = np.sqrt(1 - c * c)
        ident = "target" if r in want else f"other{r:03d}"
        records.append(make_record(ident, f"im{r:03d}", dim=dim, vector=vec))
    return records, probe


class TestSimilarities:
    def test_row_subset_matches_full_matrix_bit_for_bit(self):
        """Refinement rescores row subsets and relies on this equality."""
        rng = np.random.default_rng(5)
        for _ in range(300):
            dim = int(rng.choice([1, 3, 7, 8, 9, 16, 33, 64, 129, 512]))
            n = int(rng.integers(1, 200))
            matrix = rng.standard_normal((n, dim)).astype(np.float32).astype(np.float64)
            probe = rng.standard_normal(dim)
            full = similarities(matrix, probe)
            rows = np.sort(rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False))
            assert similarities(matrix[rows], probe).tobytes() == full[rows].tobytes()
            one = int(rng.integers(0, n))
            assert similarities(matrix[[one]], probe).tobytes() == full[[one]].tobytes()


class TestExtractRankVector:
    def test_contiguous_block(self):
        records, probe = controlled_gallery({1, 2, 3, 4}, 12)
        gallery = build_gallery(records)
        ranks, winner, _top = counted(gallery, probe, 3)
        assert ranks == (2, 3, 4)
        assert winner == "target"

    def test_smallest_three_rule(self):
        records, probe = controlled_gallery({1, 5, 9, 40, 77}, 90)
        gallery = build_gallery(records)
        assert counted(gallery, probe, 3)[0] == (5, 9, 40)

    def test_matches_filter_and_sort_oracle(self):
        """Counted ranks and top score equal a full sort, with and without
        one identity's rows left out, on galleries with duplicated vectors."""
        rng = np.random.default_rng(7)
        for case in range(40):
            records = random_gallery(
                rng, 50, 16, n_identities=8, duplicate_every=3 if case % 2 else 0
            )
            gallery = build_gallery(records)
            probe = unit_f32(rng.standard_normal(16)).astype(np.float64)
            identities = sorted(gallery.identity_map)
            for drop in (None, identities[int(rng.integers(0, len(identities)))]):
                kept = [r for r in records if r.identity_id != drop]
                left_out = gallery.identity_map[drop] if drop else ()
                order = oracle_search_order(kept, probe)
                top = order[0][0]
                extra = len(gallery.identity_map[top]) - 1
                if extra < 1:
                    continue
                d_in = min(3, extra)
                ranks, winner, top_similarity = counted(gallery, probe, d_in, left_out)
                assert (winner, ranks) == oracle_rank_vector(order, d_in)
                full = search(build_gallery(kept), probe)
                assert top_similarity.hex() == float(full.similarities[0]).hex()

    def test_insufficient_images_error(self):
        records, probe = controlled_gallery({1, 3}, 10)
        gallery = build_gallery(records)
        with pytest.raises(ValueError, match="additional images"):
            counted(gallery, probe, 3)

    def test_d_in_validated(self):
        records, probe = controlled_gallery({1, 2}, 5)
        gallery = build_gallery(records)
        with pytest.raises(ValueError, match="d_in"):
            counted(gallery, probe, 0)
