import json
import math

import numpy as np
import pytest

from oracles import naive_norm, oracle_l2_normalize, oracle_unit_f32
from rankgate.synth import (
    SynthConfig,
    config_from_json,
    config_to_json,
    degrade_probe,
    degrade_probes,
    generate,
)


class TestSynthConfig:
    def test_defaults_get_single_group(self):
        cfg = SynthConfig(n_identities=10)
        assert cfg.groups == (("synth", 10),)

    def test_group_counts_must_sum(self):
        with pytest.raises(ValueError, match="sum"):
            SynthConfig(n_identities=10, groups=(("a", 4), ("b", 4)))

    def test_group_labels_unique(self):
        with pytest.raises(ValueError, match="unique"):
            SynthConfig(n_identities=4, groups=(("a", 2), ("a", 2)))

    def test_degradation_sigmas_strictly_increasing(self):
        with pytest.raises(ValueError, match="increasing"):
            SynthConfig(
                n_identities=2,
                degradation_levels=(("b", 0.2), ("c", 0.1)),
            )

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError, match="within_noise_sigma"):
            SynthConfig(n_identities=2, within_noise_sigma=-0.1)

    def test_non_finite_sigmas_rejected(self):
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="within_noise_sigma must be finite and >= 0"):
                SynthConfig(n_identities=2, within_noise_sigma=bad)
        for levels in ((("mild", math.nan),), (("mild", 0.1), ("harsh", math.nan)),
                       (("mild", -0.1),), (("harsh", math.inf),)):
            with pytest.raises(ValueError, match="degradation sigma of .* must be finite"):
                SynthConfig(n_identities=2, degradation_levels=levels)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match=r"^rng_seed must be >= 0, got -1$"):
            SynthConfig(n_identities=2, rng_seed=-1)

    def test_accepts_mappings(self):
        cfg = SynthConfig(
            n_identities=10,
            groups={"a": 4, "b": 6},
            degradation_levels={"mild": 0.1, "harsh": 0.3},
        )
        assert cfg.groups == (("a", 4), ("b", 6))
        assert cfg.degradation_levels == (("mild", 0.1), ("harsh", 0.3))

    def test_json_round_trip(self, tmp_path):
        cfg = SynthConfig(
            n_identities=6,
            images_per_identity=4,
            dimension=32,
            within_noise_sigma=0.2,
            groups=(("x", 2), ("y", 4)),
            degradation_levels=(("mild", 0.1), ("harsh", 0.3)),
            rng_seed=5,
        )
        path = tmp_path / "cfg.json"
        config_to_json(cfg, path)
        assert config_from_json(path) == cfg


class TestGenerate:
    def test_store_shape(self):
        cfg = SynthConfig(n_identities=7, images_per_identity=4, dimension=16)
        store = generate(cfg)
        assert len(store) == 28
        assert store.dimension == 16
        assert len(set(store.identity_ids)) == 7
        assert store.capture_index.tolist() == [1, 2, 3, 4] * 7

    def test_group_structure(self):
        cfg = SynthConfig(n_identities=5, groups=(("ga", 2), ("gb", 3)), dimension=8)
        store = generate(cfg)
        assert set(store.groups) == {"ga", "gb"}
        assert len(set(store.filter_by_group("ga").identity_ids)) == 2
        assert len(set(store.filter_by_group("gb").identity_ids)) == 3

    def test_deterministic(self):
        cfg = SynthConfig(n_identities=6, images_per_identity=3, dimension=16, rng_seed=2)
        a = generate(cfg)
        b = generate(cfg)
        assert a.identity_ids == b.identity_ids and a.image_ids == b.image_ids
        assert a.vectors.tobytes() == b.vectors.tobytes()

    def test_rows_are_per_row_normalized_draws(self):
        """Block normalization keeps the draw order and each row's bits:
        265 rows cross a normalization block."""
        cfg = SynthConfig(
            n_identities=53, images_per_identity=5, dimension=8,
            within_noise_sigma=0.3, rng_seed=5,
        )
        rng = np.random.default_rng(5)
        expected = []
        for _ in range(53):
            mean = oracle_l2_normalize(rng.standard_normal(8))
            for _ in range(5):
                expected.append(oracle_unit_f32(mean + 0.3 * rng.standard_normal(8)))
        assert generate(cfg).vectors.tobytes() == np.array(expected).tobytes()

    @pytest.mark.parametrize(
        "groups, k",
        [
            ((("g", 300),), 1),  # 256 identities per block, then 44
            ((("g", 2),), 300),  # one identity per block, over BLOCK_ROWS rows
            ((("b", 7), ("a", 60)), 5),  # a group boundary inside a block
            ((("b", 51), ("a", 9)), 5),  # a group boundary on a block edge
        ],
        ids=["k1", "k300", "group-inside-block", "group-on-block-edge"],
    )
    def test_blocks_are_sequential_draws(self, groups, k):
        """Whole-identity blocks give the bits of drawing the mean and then
        each image, one vector at a time, through the per-row oracles."""
        cfg = SynthConfig(
            n_identities=sum(n for _, n in groups), images_per_identity=k,
            dimension=6, within_noise_sigma=0.2, groups=groups, rng_seed=3,
        )
        rng = np.random.default_rng(3)
        expected = {}
        for group, n in groups:
            for i in range(n):
                mean = oracle_l2_normalize(rng.standard_normal(6))
                for j in range(1, k + 1):
                    expected[f"{group}-{i:05d}", f"im{j:03d}"] = (
                        group, oracle_unit_f32(mean + 0.2 * rng.standard_normal(6))
                    )
        store = generate(cfg)
        assert len(store) == len(expected)
        for row, key in enumerate(zip(store.identity_ids, store.image_ids)):
            group, vector = expected[key]
            assert store.groups[row] == group
            assert store.vectors[row].tobytes() == vector.tobytes()

    def test_zero_noise_collapses_identity_images(self):
        cfg = SynthConfig(n_identities=3, images_per_identity=4, within_noise_sigma=0.0, dimension=16)
        store = generate(cfg)
        for k in range(3):
            first = store.vectors[4 * k]
            for row in range(4 * k + 1, 4 * k + 4):
                assert store.identity_ids[row] == store.identity_ids[4 * k]
                assert store.vectors[row].tobytes() == first.tobytes()

    def test_all_vectors_unit(self):
        store = generate(SynthConfig(n_identities=10, dimension=24, within_noise_sigma=0.3))
        for vector in store.vectors:
            assert abs(naive_norm(vector) - 1.0) < 1e-5

    def test_cross_identity_near_orthogonality(self):
        """Monte Carlo: dim-64 mean directions rarely come close to parallel."""
        rng = np.random.default_rng(123)
        close = 0
        for _ in range(1000):
            u = rng.standard_normal(64)
            v = rng.standard_normal(64)
            sim = float(np.dot(u, v) / (naive_norm(u) * naive_norm(v)))
            if abs(sim) >= 0.5:
                close += 1
        assert close <= 10  # 99% bound with slack

    def test_within_similarity_decreases_with_sigma(self):
        def mean_within(sigma, seed):
            store = generate(
                SynthConfig(
                    n_identities=30,
                    images_per_identity=4,
                    dimension=32,
                    within_noise_sigma=sigma,
                    rng_seed=seed,
                )
            )
            sims = []
            vectors = store.vectors.astype(np.float64)
            for k in range(30):
                rows = range(4 * k, 4 * k + 4)
                assert len({store.identity_ids[r] for r in rows}) == 1
                for i in rows:
                    for j in range(i + 1, rows.stop):
                        sims.append(float(np.dot(vectors[i], vectors[j])))
            return np.mean(sims)

        values = [mean_within(sigma, 77) for sigma in (0.05, 0.2, 0.6)]
        assert values[0] > values[1] > values[2]


class TestDegradeProbe:
    def test_sigma_zero_is_identity(self):
        rng = np.random.default_rng(0)
        v = np.zeros(8)
        v[0] = 1.0
        out = degrade_probe(v, 0.0, rng)
        assert out.tobytes() == v.tobytes()
        out[0] = 5.0  # returned copy must not alias the input
        assert v[0] == 1.0

    def test_output_unit_norm(self):
        rng = np.random.default_rng(1)
        v = np.zeros(16)
        v[0] = 1.0
        for sigma in (0.01, 0.5, 3.0):
            out = degrade_probe(v, sigma, rng)
            assert abs(naive_norm(out) - 1.0) < 1e-6

    def test_large_sigma_decorrelates(self):
        """At sigma 100 the noise swamps the signal; mean cosine ~ 0."""
        rng = np.random.default_rng(2)
        v = np.zeros(64)
        v[0] = 1.0
        sims = [float(np.dot(v, degrade_probe(v, 100.0, rng))) for _ in range(1000)]
        assert abs(np.mean(sims)) < 0.1

    def test_deterministic_given_rng_state(self):
        v = np.zeros(8)
        v[0] = 1.0
        a = degrade_probe(v, 0.3, np.random.default_rng(9))
        b = degrade_probe(v, 0.3, np.random.default_rng(9))
        assert a.tobytes() == b.tobytes()

    def test_overflowing_noise_rejected(self):
        v = np.zeros(8)
        v[0] = 1.0
        with pytest.raises(ValueError, match="^vector norm overflows float64$"):
            degrade_probe(v, 1e200, np.random.default_rng(0))

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError, match="sigma"):
            degrade_probe(np.array([1.0, 0.0]), -0.5, np.random.default_rng(0))


class TestDegradeProbes:
    @pytest.mark.parametrize("dimension", [1, 3, 64])
    def test_block_equals_row_by_row(self, dimension):
        """A row's bits do not depend on the block it is degraded in, and
        equal the per-row noise-then-normalize oracle."""
        vectors = generate(SynthConfig(n_identities=7, images_per_identity=1,
                                       dimension=dimension, rng_seed=4)).vectors
        block = degrade_probes(vectors, 0.2, [np.random.default_rng(k) for k in range(7)])
        rows = [degrade_probe(v, 0.2, np.random.default_rng(k)) for k, v in enumerate(vectors)]
        oracle = [
            oracle_l2_normalize(
                v.astype(np.float64) + 0.2 * np.random.default_rng(k).standard_normal(dimension)
            )
            for k, v in enumerate(vectors)
        ]
        assert block.dtype == np.float64
        assert block.tobytes() == np.stack(rows).tobytes() == np.stack(oracle).tobytes()

    @pytest.mark.parametrize("count", [0, 1, 2, 4])
    def test_generator_count_must_match_rows(self, count):
        """One generator's noise row would broadcast over the whole block."""
        vectors = np.eye(3)
        rngs = [np.random.default_rng(k) for k in range(count)]
        message = f"need one generator per row, got {count} for 3 rows"
        for sigma in (0.0, 0.1):
            with pytest.raises(ValueError, match=f"^{message}$"):
                degrade_probes(vectors, sigma, rngs)

    def test_block_must_be_2d(self):
        rngs = [np.random.default_rng(k) for k in range(2)]
        with pytest.raises(ValueError, match=r"^expected an \(n, dimension\) block, got shape \(2,\)$"):
            degrade_probes(np.array([1.0, 0.0]), 0.1, rngs)

    def test_one_probe_must_be_1d(self):
        with pytest.raises(ValueError, match=r"^expected a 1-d vector, got shape \(1, 2\)$"):
            degrade_probe(np.array([[1.0, 0.0]]), 0.1, np.random.default_rng(0))
