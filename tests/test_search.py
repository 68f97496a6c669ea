import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import oracle_rank_vector, oracle_search_order
from rankgate.baselines import fuse_gallery
from rankgate.search import (
    build_gallery,
    check_probe,
    extract_rank_vector,
    screen,
    screen_tolerance,
    search,
    similarities,
)
from rankgate.store import l2_normalize, unit_f32
from rankgate.synth import degrade_probe

from conftest import gallery_of, make_row, pairs, store_of


def ranked_keys(store, gallery, result):
    rows = gallery.tie_rank[result.positions]
    return [(store.identity_ids[r], store.image_ids[r]) for r in rows]


def counted(gallery, probe, d_in, left_out=()):
    """extract_rank_vector on a block of one probe, ``left_out`` rows at -inf."""
    screened = screen(gallery, probe[None])
    screened[0, list(left_out)] = -np.inf
    [found] = extract_rank_vector(gallery, probe[None], screened, d_in)
    return found


def random_gallery(rng, n_records, dim, n_identities=None, duplicate_every=0):
    """Rows of a random unit-vector gallery; optionally duplicate vectors to
    force ties."""
    if n_identities is None:
        n_identities = max(2, n_records // 4)
    rows = []
    vectors = []
    for i in range(n_records):
        if duplicate_every and vectors and i % duplicate_every == 0:
            vec = vectors[rng.integers(0, len(vectors))].copy()
        else:
            vec = unit_f32(rng.standard_normal(dim))
        vectors.append(vec)
        rows.append(
            make_row(
                f"id{rng.integers(0, n_identities):04d}",
                f"im{i:05d}",
                dim=dim,
                vector=vec.astype(np.float64),
            )
        )
    # drop accidental duplicate keys
    seen = set()
    unique = []
    for r in rows:
        if r[:2] not in seen:
            seen.add(r[:2])
            unique.append(r)
    return unique


class TestGalleryIndex:
    def test_identity_map_positions(self):
        rows = [
            make_row("a", "i1"),
            make_row("a", "i2"),
            make_row("b", "i1"),
            make_row("b", "i2"),
        ]
        _store, gallery = gallery_of(rows)
        assert set(gallery.identity_map) == {"a", "b"}
        assert all(len(v) == 2 for v in gallery.identity_map.values())

    def test_single_record(self):
        _store, gallery = gallery_of([make_row("a", "i1")])
        assert gallery.size == 1

    def test_position_count_oracle(self):
        rng = np.random.default_rng(0)
        rows = random_gallery(rng, 200, 16)
        _store, gallery = gallery_of(rows)
        total = sum(len(v) for v in gallery.identity_map.values())
        assert total == len(rows)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="zero rows"):
            build_gallery(store_of([make_row("a", "i1")]), [])

    def test_duplicate_key_rejected(self):
        """A gallery lists store rows: the store refuses a repeated key and
        the gallery a repeated row."""
        with pytest.raises(ValueError, match="duplicate"):
            store_of([make_row("a", "i1", seed=1), make_row("a", "i1", seed=2)])
        store = store_of([make_row("a", "i1"), make_row("b", "i1")])
        with pytest.raises(ValueError, match="duplicate"):
            build_gallery(store, [1, 0, 1])

    def test_rows_outside_store_rejected(self):
        store = store_of([make_row("a", "i1"), make_row("b", "i1")])
        for rows in ([0, 2], [-1, 0]):
            with pytest.raises(ValueError, match=r"must lie in \[0, 2\)"):
                build_gallery(store, rows)

    def test_tie_rank_is_store_row(self):
        """Positions keep the order the rows were listed in; the tie order
        is the store's sorted row order."""
        rows = [make_row("b", "i1"), make_row("a", "i2"), make_row("a", "i1")]
        store, gallery = gallery_of(rows)
        assert gallery.tie_rank.tolist() == [2, 1, 0]
        assert gallery.identities == ("b", "a", "a")
        assert gallery.identity_map["a"].tolist() == [1, 2]
        for pos, row in enumerate(gallery.tie_rank):
            assert gallery.vectors[pos].tobytes() == store.vectors[row].tobytes()


class TestSearch:
    def test_self_match_is_rank_one(self):
        rows = [make_row("a", "i1", seed=1), make_row("b", "i1", seed=2)]
        _store, gallery = gallery_of(rows)
        result = search(gallery, rows[1][4].astype(np.float64))
        assert gallery.identities[result.positions[0]] == "b"
        assert result.similarities[0] == pytest.approx(1.0, abs=1e-6)

    def test_orthogonal_pair(self):
        e1 = np.array([1.0, 0.0])
        e2 = np.array([0.0, 1.0])
        store, gallery = gallery_of(
            [
                make_row("a", "i1", vector=e1, dim=2),
                make_row("b", "i1", vector=e2, dim=2),
            ]
        )
        result = search(gallery, e1)
        assert ranked_keys(store, gallery, result) == [("a", "i1"), ("b", "i1")]
        np.testing.assert_allclose(result.similarities, [1.0, 0.0], atol=1e-7)

    @pytest.mark.parametrize("dim", [8, 64])
    def test_matches_full_sort_oracle(self, dim):
        rng = np.random.default_rng(dim)
        for _ in range(10):
            rows = random_gallery(rng, int(rng.integers(5, 120)), dim)
            store, gallery = gallery_of(rows)
            probe = unit_f32(rng.standard_normal(dim)).astype(np.float64)
            result = search(gallery, probe)
            assert ranked_keys(store, gallery, result) == oracle_search_order(
                pairs(rows), probe
            )

    def test_tie_order_matches_oracle(self):
        """Bit-identical vectors under several identities force exact ties."""
        rng = np.random.default_rng(99)
        for _ in range(10):
            rows = random_gallery(rng, 60, 8, duplicate_every=3)
            store, gallery = gallery_of(rows)
            probe = unit_f32(rng.standard_normal(8)).astype(np.float64)
            result = search(gallery, probe)
            assert ranked_keys(store, gallery, result) == oracle_search_order(
                pairs(rows), probe
            )

    def test_input_order_invariance(self):
        """Neither the order the store is built from nor the order the
        gallery lists its rows in changes a ranking."""
        rng = np.random.default_rng(17)
        rows = random_gallery(rng, 50, 16, duplicate_every=4)
        probe = unit_f32(rng.standard_normal(16)).astype(np.float64)
        store, gallery = gallery_of(rows)
        baseline = ranked_keys(store, gallery, search(gallery, probe))
        for _ in range(5):
            shuffled = [rows[i] for i in rng.permutation(len(rows))]
            store, gallery = gallery_of(shuffled)
            assert ranked_keys(store, gallery, search(gallery, probe)) == baseline

    def test_ids_differing_by_trailing_nul_tie_in_python_order(self):
        """Exact ties between identities ``"a"`` and ``"a\\x00"`` (a binary
        store can hold both) break in Python ``(identity_id, image_id)``
        order, whichever order the store was built from."""
        vec = unit_f32(np.array([3.0, 4.0, 0.0, 0.0]))
        rows = [
            make_row(ident, image, vector=vec)
            for ident in ("a", "a\x00")
            for image in ("i1", "i2")
        ]
        want = [("a", "i1"), ("a", "i2"), ("a\x00", "i1"), ("a\x00", "i2")]
        probe = vec.astype(np.float64)
        for ordered in (rows, rows[::-1]):
            store, gallery = gallery_of(ordered)
            assert ranked_keys(store, gallery, search(gallery, probe)) == want
            assert counted(gallery, probe, 1)[:2] == ((2,), "a")

    def test_similarity_bounds(self):
        rng = np.random.default_rng(23)
        rows = random_gallery(rng, 100, 8)
        _store, gallery = gallery_of(rows)
        for _ in range(10):
            result = search(gallery, unit_f32(rng.standard_normal(8)).astype(np.float64))
            assert np.all(result.similarities <= 1 + 1e-6)
            assert np.all(result.similarities >= -1 - 1e-6)

    def test_similarities_sorted_descending(self):
        rng = np.random.default_rng(31)
        _store, gallery = gallery_of(random_gallery(rng, 80, 16))
        result = search(gallery, unit_f32(rng.standard_normal(16)).astype(np.float64))
        assert np.all(np.diff(result.similarities) <= 0)

    def test_probe_dimension_checked(self):
        _store, gallery = gallery_of([make_row("a", "i1", dim=8)])
        with pytest.raises(ValueError, match="shape"):
            search(gallery, np.ones(4) / 2.0)

    def test_probe_norm_checked(self):
        _store, gallery = gallery_of([make_row("a", "i1", dim=4)])
        with pytest.raises(ValueError, match="unit norm"):
            search(gallery, np.ones(4))

    def test_non_finite_probe_rejected(self):
        _store, gallery = gallery_of([make_row("a", "i1", dim=4)])
        probe = np.array([1.0, 0.0, 0.0, np.nan])
        with pytest.raises(ValueError, match="finite and unit norm, got squared norm nan"):
            check_probe(gallery, probe)
        with pytest.raises(ValueError, match="finite and unit norm"):
            search(gallery, np.full(4, np.nan))


def controlled_gallery(identity_ranks, total, dim=None):
    """Rows of a gallery where the given identity lands exactly at the given ranks.

    Record at rank r gets similarity to the probe e1 of cos spaced
    decreasing in r, by construction on the plane span(e1, e_{r+1}).
    """
    if dim is None:
        dim = total + 2
    probe = np.zeros(dim)
    probe[0] = 1.0
    rows = []
    want = set(identity_ranks)
    for r in range(1, total + 1):
        c = np.cos(0.1 + 1.2 * r / total)
        vec = np.zeros(dim)
        vec[0] = c
        vec[r] = np.sqrt(1 - c * c)
        ident = "target" if r in want else f"other{r:03d}"
        rows.append(make_row(ident, f"im{r:03d}", dim=dim, vector=vec))
    return rows, probe


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


class TestScreen:
    @settings(max_examples=80, deadline=None)
    @given(
        dim=st.integers(1, 512),
        n_rows=st.integers(1, 30),
        sigma=st.sampled_from([0.0, 0.05, 0.3, 2.0]),
        tiny=st.booleans(),
        flat=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_within_tolerance_row_by_row(self, dim, n_rows, sigma, tiny, flat, seed):
        """``|screen − similarities| <= screen_tolerance`` on every row, for
        a gallery's float32 rows and a fused gallery's float64 centroids, with
        degraded, re-normalized float64 probes. With ``tiny``, components of
        rows and probes lie below the float32 normal range; with ``flat``,
        rows are nearly constant, so every product has the same sign and
        the float32 rounding errors pile up instead of cancelling."""
        rng = np.random.default_rng(seed)

        def shrink(v):
            v = v.copy()
            mask = rng.random(v.shape) < 0.3
            v[mask] = 1e-40 * rng.choice([-1.0, 1.0], size=int(mask.sum()))
            return v

        raw = rng.standard_normal((n_rows, dim))
        if flat:
            raw = 1.0 + 0.01 * raw
        if tiny:
            raw = shrink(raw)
        store, gallery = gallery_of(
            [make_row(f"id{i % 4}", f"im{i}", vector=raw[i]) for i in range(n_rows)]
        )
        probes = []
        for row in rng.integers(0, n_rows, int(rng.integers(1, 6))):
            probe = degrade_probe(store.vectors[row], sigma, rng)
            probes.append(l2_normalize(shrink(probe)) if tiny else probe)
        probes = np.stack(probes)
        fused = fuse_gallery(gallery)
        for index, matrix in ((gallery, gallery.vectors.astype(np.float64)),
                              (fused, fused.matrix)):
            screened = screen(index, probes).astype(np.float64)
            bound = screen_tolerance(index, probes)
            for probe, row, delta in zip(probes, screened, bound):
                assert (np.abs(row - similarities(matrix, probe)) <= delta).all()


class TestExtractRankVector:
    def test_block_equals_blocks_of_one(self):
        """On tie-heavy galleries, with an identity left out of some probes'
        searches and a probe mid-block whose winner is skipped, a block gives
        what its probes give one at a time, ``top_similarity`` bits included."""
        rng = np.random.default_rng(41)
        for _ in range(20):
            rows = random_gallery(rng, 60, 8, n_identities=8, duplicate_every=3)
            solo = unit_f32(rng.standard_normal(8)).astype(np.float64)
            rows.append(make_row("solo", "im0", vector=solo))
            _store, gallery = gallery_of(rows)
            b = int(rng.integers(2, 12))
            probes = np.stack([unit_f32(rng.standard_normal(8)) for _ in range(b)])
            probes = probes.astype(np.float64)
            probes[b // 2] = solo
            others = sorted(set(gallery.identity_map) - {"solo"})
            screened = screen(gallery, probes)
            left_out = []
            for j in range(b):
                drop = others[int(rng.integers(len(others)))] if rng.random() < 0.5 else None
                left_out.append(gallery.identity_map[drop] if drop else [])
                screened[j, left_out[-1]] = -np.inf
            block = extract_rank_vector(gallery, probes, screened, 2)
            assert len(block) == b and block[b // 2] is None
            for probe, found, out in zip(probes, block, left_out):
                one = counted(gallery, probe, 2, out)
                assert found == one
                if found is not None:
                    assert found[2].hex() == one[2].hex()


    def test_contiguous_block(self):
        rows, probe = controlled_gallery({1, 2, 3, 4}, 12)
        _store, gallery = gallery_of(rows)
        ranks, winner, _top = counted(gallery, probe, 3)
        assert ranks == (2, 3, 4)
        assert winner == "target"

    def test_smallest_three_rule(self):
        rows, probe = controlled_gallery({1, 5, 9, 40, 77}, 90)
        _store, gallery = gallery_of(rows)
        assert counted(gallery, probe, 3)[0] == (5, 9, 40)

    def test_matches_filter_and_sort_oracle(self):
        """Counted ranks and top score equal a full sort, with and without
        one identity's rows left out, on galleries with duplicated vectors."""
        rng = np.random.default_rng(7)
        for case in range(40):
            rows = random_gallery(
                rng, 50, 16, n_identities=8, duplicate_every=3 if case % 2 else 0
            )
            _store, gallery = gallery_of(rows)
            probe = unit_f32(rng.standard_normal(16)).astype(np.float64)
            identities = sorted(gallery.identity_map)
            for drop in (None, identities[int(rng.integers(0, len(identities)))]):
                kept = [r for r in rows if r[0] != drop]
                left_out = gallery.identity_map[drop] if drop else ()
                order = oracle_search_order(pairs(kept), probe)
                top = order[0][0]
                extra = len(gallery.identity_map[top]) - 1
                if extra < 1:
                    continue
                d_in = min(3, extra)
                ranks, winner, top_similarity = counted(gallery, probe, d_in, left_out)
                assert (winner, ranks) == oracle_rank_vector(order, d_in)
                full = search(gallery_of(kept)[1], probe)
                assert top_similarity.hex() == float(full.similarities[0]).hex()

    def test_insufficient_images_error(self):
        """A winner without d_in more images gives None, which curation
        counts as a skipped sample."""
        rows, probe = controlled_gallery({1, 3}, 10)
        _store, gallery = gallery_of(rows)
        assert counted(gallery, probe, 3) is None
        assert counted(gallery, probe, 1)[:2] == ((3,), "target")

    def test_d_in_validated(self):
        rows, probe = controlled_gallery({1, 2}, 5)
        _store, gallery = gallery_of(rows)
        with pytest.raises(ValueError, match="d_in"):
            counted(gallery, probe, 0)
