import json
import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    oracle_centroid,
    oracle_fuse_gallery,
    oracle_fused_scores,
    oracle_threshold,
)
from rankgate.codec import StoreFormatError
from rankgate.baselines import (
    CentroidModel,
    ThresholdModel,
    calibrate_threshold,
    centroid_classify,
    centroid_from_json,
    centroid_to_json,
    classify_score,
    fit_centroid,
    fuse_gallery,
    fused_scores,
    threshold_from_json,
    threshold_to_json,
)
from rankgate.curation import RankSample
from rankgate.search import similarities
from rankgate.store import unit_rows

from conftest import gallery_of, make_row, pairs


def sample(ranks, label, ident="p", gallery_size=10000):
    return RankSample(tuple(int(r) for r in ranks), label, ident, "g", "c", gallery_size)


class TestCalibrateThreshold:
    def test_decile_scores_at_one_fifth(self):
        scores = [round(0.1 * i, 1) for i in range(1, 11)]
        model = calibrate_threshold(scores, target_fpir=0.2)
        assert model.threshold == np.nextafter(0.8, np.inf)
        accepted = [s for s in scores if s >= model.threshold]
        assert accepted == [0.9, 1.0]
        # one candidate lower already accepts three of ten
        too_low = [s for s in scores if s >= 0.8]
        assert len(too_low) / len(scores) > 0.2

    def test_constant_scores(self):
        model = calibrate_threshold([0.5] * 20, target_fpir=0.05)
        assert model.threshold == np.nextafter(0.5, np.inf)
        assert classify_score(model, 0.5) == 0

    def test_target_one_accepts_everything(self):
        model = calibrate_threshold([0.3, 0.7], target_fpir=1.0)
        assert model.threshold == float("-inf")
        assert classify_score(model, -1e308) == 1

    def test_records_calibration_population(self):
        model = calibrate_threshold([0.1, 0.2, 0.3], target_fpir=0.5)
        assert model.n_nonmated == 3
        assert model.target_fpir == 0.5

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            calibrate_threshold([], target_fpir=0.1)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            calibrate_threshold([0.5, float("nan")], target_fpir=0.1)

    def test_bad_target_rejected(self):
        for bad in (0.0, -0.1, 1.5):
            with pytest.raises(ValueError, match="target_fpir"):
                calibrate_threshold([0.5], target_fpir=bad)

    def test_matches_brute_force_scan(self):
        """Duplicate-heavy random score sets against the candidate scan."""
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = int(rng.integers(5, 200))
            grid = rng.integers(-5, 6, size=n) / 10.0
            jitter = rng.normal(0, 1e-3, size=n) * (rng.random(size=n) < 0.3)
            scores = (grid + jitter).tolist()
            target = float(rng.uniform(0.01, 0.9))
            model = calibrate_threshold(scores, target_fpir=target)
            assert model.threshold == oracle_threshold(scores, target)

    def test_sound_and_minimal(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            n = int(rng.integers(10, 100))
            scores = rng.uniform(-1, 1, size=n).tolist()
            target = float(rng.uniform(0.02, 0.5))
            alpha = calibrate_threshold(scores, target_fpir=target).threshold
            fpir = sum(1 for s in scores if s >= alpha) / n
            assert fpir <= target
            lower = [c for c in {np.nextafter(s, np.inf) for s in scores} if c < alpha]
            for cand in lower:
                assert sum(1 for s in scores if s >= cand) / n > target

    @given(
        st.lists(
            st.floats(min_value=-100, max_value=100, allow_nan=False),
            min_size=1,
            max_size=60,
        ),
        st.floats(min_value=0.01, max_value=1.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_fpir_never_exceeds_target(self, scores, target):
        model = calibrate_threshold(scores, target_fpir=target)
        fpir = sum(1 for s in scores if s >= model.threshold) / len(scores)
        assert fpir <= target


class TestClassifyScore:
    def test_boundary_just_above_point_nine(self):
        model = ThresholdModel(np.nextafter(0.9, np.inf), 0.1, 100)
        assert classify_score(model, 0.95) == 1
        assert classify_score(model, 0.9) == 0

    def test_threshold_itself_accepts(self):
        model = ThresholdModel(0.75, 0.1, 100)
        assert classify_score(model, 0.75) == 1


class TestThresholdModel:
    @pytest.mark.parametrize(
        "threshold, target_fpir, n_nonmated, message",
        [
            (float("nan"), 0.1, 10, "threshold must not be NaN"),
            (0.5, 0.0, 10, "target_fpir must be in (0, 1], got 0.0"),
            (0.5, float("nan"), 10, "target_fpir must be in (0, 1], got nan"),
            (0.5, 0.1, 0, "n_nonmated must be >= 1, got 0"),
        ],
    )
    def test_bad_model_refused(self, threshold, target_fpir, n_nonmated, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            ThresholdModel(threshold, target_fpir, n_nonmated)


class TestThresholdJson:
    def test_round_trip_is_bit_exact(self, tmp_path):
        for value in (np.nextafter(0.8, np.inf), -0.25, float("-inf")):
            model = ThresholdModel(float(value), 1e-4, 12345)
            path = tmp_path / "threshold.json"
            threshold_to_json(model, path)
            loaded = threshold_from_json(path)
            assert struct.pack("<d", loaded.threshold) == struct.pack("<d", model.threshold)
            assert loaded.target_fpir == model.target_fpir
            assert loaded.n_nonmated == model.n_nonmated

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"n_nonmated": None}, "threshold: missing required field 'n_nonmated'"),
            ({"extra": 1}, "threshold: unknown field 'extra'"),
            ({"n_nonmated": "12"}, "threshold: field n_nonmated must be int, got str"),
            ({"threshold_bits": "000000000000e03f00"}, "threshold_bits must be 16 hex digits"),
            ({"threshold_bits": "0000e03f"}, "threshold_bits must be 16 hex digits"),
            ({"threshold_bits": "zz00000000000000"}, "non-hexadecimal number found"),
            ({"threshold": "0.75"}, "threshold '0.75' disagrees with threshold_bits"),
            ({"threshold": "abc"}, "could not convert string to float: 'abc'"),
            ({"threshold": "nan", "threshold_bits": "000000000000f87f"}, "must not be NaN"),
            ({"target_fpir": "2.0"}, "target_fpir must be in (0, 1], got 2.0"),
            ({"target_fpir": "nan"}, "target_fpir must be in (0, 1], got nan"),
            ({"n_nonmated": 0}, "n_nonmated must be >= 1, got 0"),
        ],
    )
    def test_malformed_file_refused(self, tmp_path, change, message):
        """Each fault raises a StoreFormatError that names the file; the
        written threshold is 0.5, whose bits are 000000000000e03f."""
        path = tmp_path / "threshold.json"
        threshold_to_json(ThresholdModel(0.5, 1e-4, 100), path)
        payload = {**json.loads(path.read_text()), **change}
        path.write_text(json.dumps({k: v for k, v in payload.items() if v is not None}))
        with pytest.raises(StoreFormatError, match=f"^{re.escape(str(path))}: .*{re.escape(message)}"):
            threshold_from_json(path)

    def test_not_an_object_refused(self, tmp_path):
        path = tmp_path / "threshold.json"
        path.write_text("[0.5]")
        message = f"^{re.escape(str(path))}: threshold: expected a JSON object, got list$"
        with pytest.raises(StoreFormatError, match=message):
            threshold_from_json(path)


class TestFitCentroid:
    def test_mean_center(self):
        samples = [
            sample((2, 3, 4), 1, "a"),
            sample((4, 5, 6), 1, "b"),
            sample((500, 600, 700), 0, "c"),
        ]
        model = fit_centroid(samples, "mean")
        np.testing.assert_array_equal(model.center_in, [3.0, 4.0, 5.0])
        np.testing.assert_array_equal(model.center_out, [500.0, 600.0, 700.0])

    def test_median_shrugs_off_outlier(self):
        samples = [
            sample((10, 20, 30), 0, "a"),
            sample((10, 20, 30), 0, "b"),
            sample((1000, 2000, 3000), 0, "c"),
            sample((2, 3, 4), 1, "d"),
        ]
        model = fit_centroid(samples, "median")
        np.testing.assert_array_equal(model.center_out, [10.0, 20.0, 30.0])
        mean_model = fit_centroid(samples, "mean")
        assert mean_model.center_out[0] > 300

    def test_even_count_median_averages_middles(self):
        samples = [
            sample((2,), 0, "a"),
            sample((4,), 0, "b"),
            sample((3,), 1, "c"),
        ]
        model = fit_centroid(samples, "median")
        assert model.center_out[0] == 3.0

    def test_centers_use_raw_ranks_not_scaled(self):
        samples = [
            sample((100, 200, 300), 1, "a", gallery_size=1000),
            sample((100, 200, 300), 1, "b", gallery_size=400),
            sample((2, 3, 4), 0, "c"),
        ]
        model = fit_centroid(samples, "mean")
        np.testing.assert_array_equal(model.center_in, [100.0, 200.0, 300.0])

    def test_missing_class_rejected(self):
        with pytest.raises(ValueError, match="label 0"):
            fit_centroid([sample((2, 3, 4), 1)], "mean")
        with pytest.raises(ValueError, match="label 1"):
            fit_centroid([sample((2, 3, 4), 0)], "median")

    def test_unknown_statistic_rejected(self):
        with pytest.raises(ValueError, match="statistic"):
            fit_centroid([sample((2, 3), 0), sample((4, 5), 1)], "mode")

    def test_matches_sorting_oracle(self):
        rng = np.random.default_rng(4)
        for statistic in ("mean", "median"):
            for _ in range(20):
                d = int(rng.integers(1, 5))
                rows_in = [
                    tuple(int(v) for v in rng.choice(np.arange(2, 500), d, replace=False))
                    for _ in range(int(rng.integers(1, 12)))
                ]
                rows_out = [
                    tuple(int(v) for v in rng.choice(np.arange(2, 500), d, replace=False))
                    for _ in range(int(rng.integers(1, 12)))
                ]
                samples = [sample(r, 1, f"i{k}") for k, r in enumerate(rows_in)]
                samples += [sample(r, 0, f"o{k}") for k, r in enumerate(rows_out)]
                model = fit_centroid(samples, statistic)
                np.testing.assert_allclose(
                    model.center_in, oracle_centroid(rows_in, statistic), atol=1e-9
                )
                np.testing.assert_allclose(
                    model.center_out, oracle_centroid(rows_out, statistic), atol=1e-9
                )


class TestCentroidClassify:
    def test_nearer_center_wins(self):
        model = CentroidModel(
            "mean", np.array([100.0, 100.0, 100.0]), np.array([3.0, 4.0, 5.0])
        )
        assert centroid_classify(model, (2, 3, 4)) == 1
        swapped = CentroidModel(
            "mean", np.array([3.0, 4.0, 5.0]), np.array([100.0, 100.0, 100.0])
        )
        assert centroid_classify(swapped, (2, 3, 4)) == 0

    def test_equidistant_rejects(self):
        model = CentroidModel("mean", np.array([4.0]), np.array([2.0]))
        assert centroid_classify(model, (3,)) == 0

    def test_translation_invariance(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            c_out = rng.uniform(2, 900, size=3)
            c_in = rng.uniform(2, 900, size=3)
            x = rng.uniform(2, 900, size=3)
            shift = rng.uniform(-50, 50, size=3)
            base = CentroidModel("mean", c_out, c_in)
            moved = CentroidModel("mean", c_out + shift, c_in + shift)
            assert centroid_classify(base, x) == centroid_classify(moved, x + shift)


class TestCentroidModel:
    @pytest.mark.parametrize(
        "statistic, center_out, center_in, message",
        [
            ("mode", [1.0], [2.0], "statistic must be 'mean' or 'median', got 'mode'"),
            ("mean", [1.0], [2.0, 3.0, 4.0], "centers must be non-empty vectors of one length"),
            ("mean", [], [], "centers must be non-empty vectors of one length"),
            ("mean", [[1.0]], [[2.0]], "centers must be non-empty vectors of one length"),
            ("median", [1.0, np.nan], [2.0, 3.0], "centers must be finite"),
        ],
    )
    def test_bad_model_refused(self, statistic, center_out, center_in, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            CentroidModel(statistic, np.array(center_out), np.array(center_in))

    def test_classify_refuses_other_width(self):
        """Unchecked, a width-1 center broadcast over a 3-rank vector."""
        model = CentroidModel("mean", np.array([4.0, 5.0, 6.0]), np.array([2.0, 3.0, 4.0]))
        message = "rank vectors must have the centers' 3 ranks, got an array of shape"
        for ranks in ((2, 3), (2, 3, 4, 5), ()):
            with pytest.raises(ValueError, match=message):
                centroid_classify(model, ranks)


class TestCentroidJson:
    def test_round_trip(self, tmp_path):
        model = fit_centroid(
            [sample((2, 3, 4), 1), sample((7, 9, 500), 0, "q")], "median"
        )
        path = tmp_path / "centroid.json"
        centroid_to_json(model, path)
        loaded = centroid_from_json(path)
        assert loaded.statistic == "median"
        np.testing.assert_array_equal(loaded.center_in, model.center_in)
        np.testing.assert_array_equal(loaded.center_out, model.center_out)
        assert loaded.center_in.dtype == np.float64

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"statistic": "mode"}, "statistic must be 'mean' or 'median', got 'mode'"),
            ({"center_out": ["1.0"]}, "centers must be non-empty vectors of one length"),
            ({"center_out": [], "center_in": []}, "centers must be non-empty vectors"),
            ({"center_in": ["2.0", "x", "4.0"]}, "could not convert string to float: 'x'"),
            ({"center_in": ["2.0", "inf", "4.0"]}, "centers must be finite"),
            ({"center_in": [2.0, 3.0, 4.0]}, "field center_in item 0 must be str, got float"),
            ({"center_in": None}, "centroid: missing required field 'center_in'"),
            ({"extra": 1}, "centroid: unknown field 'extra'"),
        ],
    )
    def test_malformed_file_refused(self, tmp_path, change, message):
        path = tmp_path / "centroid.json"
        model = CentroidModel("mean", np.array([9.0, 8.0, 7.0]), np.array([1.0, 2.0, 3.0]))
        centroid_to_json(model, path)
        payload = {**json.loads(path.read_text()), **change}
        path.write_text(json.dumps({k: v for k, v in payload.items() if v is not None}))
        with pytest.raises(StoreFormatError, match=f"^{re.escape(str(path))}: .*{re.escape(message)}"):
            centroid_from_json(path)

    def test_not_an_object_refused(self, tmp_path):
        path = tmp_path / "centroid.json"
        path.write_text('["mean"]')
        message = f"^{re.escape(str(path))}: centroid: expected a JSON object, got list$"
        with pytest.raises(StoreFormatError, match=message):
            centroid_from_json(path)


class TestFusion:
    def test_identical_enrollments_fuse_to_themselves(self):
        vec = unit_rows(np.array([1.0, 2.0, 3.0, 4.0])[None])[0]
        rows = [make_row("a", f"i{k}", vector=vec.copy()) for k in range(4)]
        rows.append(make_row("b", "i1", dim=4, seed=9))
        fused = fuse_gallery(gallery_of(rows)[1])
        row = fused.matrix[fused.identity_ids.index("a")]
        np.testing.assert_allclose(row, vec, atol=1e-12)

    def test_antipodal_pair_is_excluded(self):
        vec = unit_rows(np.array([0.5, -0.5, 0.5, 0.5])[None])[0]
        rows = [
            make_row("a", "i1", vector=vec.copy()),
            make_row("a", "i2", vector=-vec),
            make_row("b", "i1", dim=4, seed=3),
        ]
        fused = fuse_gallery(gallery_of(rows)[1])
        assert fused.excluded == ["a"]
        assert fused.identity_ids == ["b"]

    def test_all_identities_degenerate_rejected(self):
        vec = unit_rows(np.array([0.5, -0.5, 0.5, 0.5])[None])[0]
        rows = [
            make_row("a", "i1", vector=vec.copy()),
            make_row("a", "i2", vector=-vec),
        ]
        with pytest.raises(ValueError, match="zero vector"):
            fuse_gallery(gallery_of(rows)[1])

    def test_matrix_bits_match_per_identity_loop(self):
        """Centroid bits and exclusions equal the per-identity loop's. Each
        identity holds 1 to 12 rows at scattered gallery positions, ``anti``
        holds two antipodal rows and is excluded (at ``dim`` 1 others may
        cancel too), and components span
        magnitudes 2**-60 to 1, so the float64 sums round and any other
        summation order would change bits."""
        rng = np.random.default_rng(12)
        for dim in (1, 2, 3, 16):
            for _ in range(8):
                rows = []
                for i in range(10):
                    for j in range(int(rng.integers(1, 13))):
                        scale = 2.0 ** rng.integers(-60, 1, dim)
                        vector = rng.standard_normal(dim) * scale
                        rows.append(make_row(f"id{i}", f"im{j:02d}", vector=vector))
                anti = unit_rows(rng.standard_normal(dim)[None])[0]
                rows += [make_row("anti", "a", vector=anti), make_row("anti", "b", vector=-anti)]
                _store, gallery = gallery_of([rows[k] for k in rng.permutation(len(rows))])
                fused = fuse_gallery(gallery)
                ids, matrix, excluded = oracle_fuse_gallery(gallery)
                assert fused.identity_ids == ids
                assert fused.excluded == excluded and "anti" in excluded
                assert fused.matrix.tobytes() == matrix.tobytes()

    def test_sums_add_rows_in_position_order(self):
        """Column 0 sums ``1 + 2**-53 + 2**-53`` to 1 in position order, and
        to ``1 + 2**-52`` when the two small terms go first, as
        ``np.add.reduceat`` adds them; the centroid's bits tell the two apart."""
        small = 2.0**-53
        rows = [
            make_row("a", "i0", vector=[1.0, 0.0]),
            make_row("a", "i1", vector=[small, 1.0]),
            make_row("a", "i2", vector=[small, 1.0]),
        ]
        gallery = gallery_of(rows)[1]
        expected = np.array([1.0, 2.0]) / 3
        expected /= np.linalg.norm(expected)
        assert fuse_gallery(gallery).matrix.tobytes() == expected[None].tobytes()

    def test_matches_per_identity_oracle(self):
        rng = np.random.default_rng(6)
        rows = []
        for i in range(12):
            for j in range(int(rng.integers(1, 5))):
                rows.append(make_row(f"id{i:02d}", f"im{j}", dim=16, seed=int(rng.integers(1 << 30))))
        _store, gallery = gallery_of(rows)
        fused = fuse_gallery(gallery)
        identities = ["id00", "id05", "ghost"]
        probes = np.stack([unit_rows(rng.standard_normal(16)[None])[0] for _ in identities])
        inside, outside = fused_scores(fused, probes.astype(np.float64), identities)
        for probe, ident, got_in, got_out in zip(probes, identities, inside, outside):
            expected = oracle_fused_scores(pairs(rows), probe)
            assert set(fused.identity_ids) == {k for k, v in expected.items() if v is not None}
            scores = similarities(fused.matrix, probe.astype(np.float64))
            for centroid in fused.identity_ids:
                assert abs(scores[fused.position[centroid]] - expected[centroid]) < 1e-6
            assert abs(got_in - max(v for v in expected.values() if v is not None)) < 1e-6
            others = [v for k, v in expected.items() if v is not None and k != ident]
            assert abs(got_out - max(others)) < 1e-6

    def test_scores_come_from_the_search_kernel(self):
        """Both top scores of every probe of a block are the bits of the
        kernel's maxima, with and without the probe's own centroid, also
        where identical enrollments make centroids tie exactly."""
        rng = np.random.default_rng(8)
        # id{k} and id{k + 20} enroll the same vectors, so their centroids tie.
        enrolled = rng.standard_normal((20, 1, 32)) + 0.3 * rng.standard_normal((20, 3, 32))
        rows = [
            make_row(f"id{i:02d}", f"im{j}", vector=enrolled[i % 20, j])
            for i in range(40)
            for j in range(3)
        ]
        fused = fuse_gallery(gallery_of(rows)[1])
        for b in (1, 5, 32):
            probes = np.stack([unit_rows(rng.standard_normal(32)[None])[0] for _ in range(b)])
            probes[b // 2] = fused.vectors[7]  # a probe on a centroid: a near top
            probes = probes.astype(np.float64)
            probes /= np.linalg.norm(probes, axis=1)[:, None]
            identities = [fused.identity_ids[int(i)] for i in rng.integers(0, 40, b)]
            identities[-1] = "not-enrolled"
            inside, outside = fused_scores(fused, probes, identities)
            for probe, ident, got_in, got_out in zip(probes, identities, inside, outside):
                scores = similarities(fused.matrix, probe)
                assert got_in.hex() == scores.max().hex()
                if ident in fused.identity_ids:
                    scores[fused.identity_ids.index(ident)] = -np.inf
                assert got_out.hex() == scores.max().hex()

    def test_no_other_centroid_scores_minus_inf(self):
        vec = unit_rows(np.array([0.5, -0.5, 0.5, 0.5])[None])[0]
        rows = [
            make_row("a", "i1", vector=vec.copy()),
            make_row("a", "i2", vector=-vec),
            make_row("b", "i1", dim=4, seed=3),
        ]
        fused = fuse_gallery(gallery_of(rows)[1])
        probes = np.stack([vec, vec, vec]).astype(np.float64)
        inside, outside = fused_scores(fused, probes, ["b", "a", "b"])
        top = similarities(fused.matrix, probes[0]).max()
        assert [v.hex() for v in inside] == [top.hex()] * 3
        assert outside.tolist() == [-np.inf, float(top), -np.inf]

    def test_probe_shape_validated(self):
        rows = [make_row("a", "i1", dim=8, seed=1), make_row("b", "i1", dim=8, seed=2)]
        fused = fuse_gallery(gallery_of(rows)[1])
        for probes, identities in ((np.ones(5), ["a"]), (np.ones((1, 5)), ["a"]),
                                   (np.ones((2, 8)) / 8**0.5, ["a"])):
            with pytest.raises(ValueError, match="dimension"):
                fused_scores(fused, probes, identities)
