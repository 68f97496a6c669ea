import csv
import io
import re
import struct
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import naive_norm, oracle_l2_normalize, oracle_unit_f32
from rankgate import store as store_module
from rankgate.store import (
    BLOCK_ROWS,
    NORM_TOLERANCE,
    EmbeddingStore,
    RowError,
    StoreFormatError,
    ingest,
    l2_normalize,
    l2_normalize_rows,
    norm_window,
    unit_rows,
    write_store,
)
from rankgate.synth import SynthConfig, generate

from conftest import make_row, store_of


def keys(store):
    return list(zip(store.identity_ids, store.image_ids))


def assert_reingests_byte_equal(store, tmp):
    """binary -> binary and binary -> CSV -> binary give the first binary
    file's bytes, and CSV -> CSV the first CSV file's."""
    write_store(store, tmp / "a.bin")
    write_store(ingest(tmp / "a.bin"), tmp / "b.bin")
    write_store(ingest(tmp / "a.bin"), tmp / "a.csv", "csv")
    write_store(ingest(tmp / "a.csv", "csv"), tmp / "c.bin")
    write_store(ingest(tmp / "a.csv", "csv"), tmp / "b.csv", "csv")
    first = (tmp / "a.bin").read_bytes()
    assert (tmp / "b.bin").read_bytes() == first
    assert (tmp / "c.bin").read_bytes() == first
    assert (tmp / "b.csv").read_bytes() == (tmp / "a.csv").read_bytes()


class TestL2Normalize:
    def test_three_four_five_triangle(self):
        result = l2_normalize([3.0, 4.0])
        assert list(result) == [0.6, 0.8]

    def test_unit_vector_unchanged(self):
        u = np.array([1.0, 0.0, 0.0, 0.0])
        np.testing.assert_allclose(l2_normalize(u), u, atol=1e-7)

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError, match="zero"):
            l2_normalize(np.zeros(4))

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            l2_normalize([1.0, np.nan])
        with pytest.raises(ValueError, match="finite"):
            l2_normalize([1.0, np.inf])

    def test_non_1d_rejected(self):
        with pytest.raises(ValueError, match="1-d"):
            l2_normalize(np.ones((2, 2)))

    def test_fifty_random_vectors_unit_norm_by_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            v = rng.standard_normal(rng.integers(2, 40))
            assert abs(naive_norm(l2_normalize(v)) - 1.0) < 1e-6

    @given(
        st.lists(
            st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
            min_size=2,
            max_size=32,
        ).filter(lambda xs: any(abs(x) > 1e-6 for x in xs))
    )
    @settings(max_examples=200, deadline=None)
    def test_norm_one_property(self, xs):
        assert abs(naive_norm(l2_normalize(xs)) - 1.0) < 1e-6

    def test_tiny_vector_scaled_before_its_norm(self):
        """The float64 squares of 1e-160 lose bits to underflow, and those of
        1e-170 underflow to 0; the row is scaled by 2**600 first."""
        for tiny in (1e-160, 1e-170):
            assert l2_normalize([tiny, 0.0]).tolist() == [1.0, 0.0]

    def test_overflowing_norm_rejected(self):
        with pytest.raises(ValueError, match="^vector norm overflows float64$"):
            l2_normalize([1e200, 1e200])


class TestL2NormalizeRows:
    """The float64 step that ``l2_normalize``, ``unit_rows``, ``synth`` and
    curation share."""

    @pytest.mark.parametrize("dimension", [1, 2, 3, 8, 64, 65])
    def test_each_row_is_the_per_row_oracle(self, dimension):
        rng = np.random.default_rng(dimension)
        scale = rng.choice([1e-3, 1.0, 1e5], size=(300, 1))
        rows = rng.standard_normal((300, dimension)) * scale
        expected = np.array([oracle_l2_normalize(r) for r in rows])
        assert l2_normalize_rows(rows).tobytes() == expected.tobytes()
        assert l2_normalize_rows(np.asfortranarray(rows)).tobytes() == expected.tobytes()
        assert l2_normalize_rows(rows.astype(np.float32)).dtype == np.float64

    def test_tiny_rows_scaled_input_untouched(self):
        rows = np.array([[3.0, 4.0], [1e-170, 0.0], [0.0, -3e-200]])
        before = rows.copy()
        assert l2_normalize_rows(rows).tolist() == [[0.6, 0.8], [1.0, 0.0], [0.0, -1.0]]
        assert rows.tobytes() == before.tobytes()

    def test_empty(self):
        assert l2_normalize_rows(np.empty((0, 3))).shape == (0, 3)

    def test_first_bad_row_is_reported(self):
        rows = np.ones((6, 3))
        rows[4] = 0.0
        for row, value, reason in ((4, 0.0, "^cannot normalize a zero vector$"),
                                   (3, np.nan, "^vector has non-finite components$"),
                                   (2, -np.inf, "^vector has non-finite components$"),
                                   (1, 1e300, "^vector norm overflows float64$")):
            rows[row, 1] = value
            with pytest.raises(RowError, match=reason) as info:
                l2_normalize_rows(rows)
            assert info.value.row == row


class TestUnitF32:
    """``unit_rows(v[None])[0]``, the one-row call that replaced ``unit_f32``."""

    def test_fixed_point_of_renormalization(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            v = unit_rows(rng.standard_normal(16)[None])[0]
            again = unit_rows(v.astype(np.float64)[None])[0]
            assert v.tobytes() == again.tobytes()

    def test_dtype(self):
        assert unit_rows(np.array([[3.0, 4.0]]))[0].dtype == np.float32


def oracle_matrix(rows, dimension):
    """The per-row oracle over every row, as one float32 matrix."""
    return np.array([oracle_unit_f32(r) for r in rows], dtype=np.float32).reshape(
        -1, dimension
    )


def moves_twice(row) -> bool:
    """True when the oracle's fixed point needs two or more iterations."""
    first = oracle_l2_normalize(row).astype(np.float32)
    again = oracle_l2_normalize(first.astype(np.float64)).astype(np.float32)
    return first.tobytes() != again.tobytes()


class TestUnitRows:
    """``unit_rows`` gives every row the bits of the per-row oracle."""

    @pytest.mark.parametrize("dimension", [1, 2, 3, 8, 64, 65, 512])
    def test_bit_equal_to_oracle(self, dimension):
        rng = np.random.default_rng(dimension)
        for scale in (1e-3, 1.0, 1e5):
            rows = rng.standard_normal((BLOCK_ROWS + 44, dimension)) * scale
            expected = oracle_matrix(rows, dimension)
            assert unit_rows(rows).tobytes() == expected.tobytes()
            narrow = rows.astype(np.float32)
            expected = oracle_matrix(narrow.astype(np.float64), dimension)
            assert unit_rows(narrow).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("n", [0, 1, 255, 256, 257, 2500])
    def test_block_edges(self, n):
        rng = np.random.default_rng(n)
        scales = rng.choice([1e-3, 1.0, 1e5], size=(n, 1))
        rows = rng.standard_normal((n, 64)) * scales
        got = unit_rows(rows)
        assert got.shape == (n, 64) and got.dtype == np.float32
        assert got.tobytes() == oracle_matrix(rows, 64).tobytes()
        assert unit_rows(np.asfortranarray(rows)).tobytes() == got.tobytes()

    def test_rows_that_moved_twice_reingest_bit_equal(self, tmp_path):
        """The D = 8 rows whose normalization moved again on a second step,
        in one block with rows that settled at once: one call gives the
        oracle's bits, and a second call, a binary round trip and a CSV
        round trip keep them."""
        rng = np.random.default_rng(17)
        rows = rng.standard_normal((3000, 8))
        slow = np.array([moves_twice(r) for r in rows])
        assert slow.sum() >= 10 and (~slow).sum() >= 10
        mixed = np.concatenate([rows[slow][:150], rows[~slow][:150]])
        rng.shuffle(mixed)
        once = unit_rows(mixed)
        assert once.tobytes() == oracle_matrix(mixed, 8).tobytes()
        assert unit_rows(once).tobytes() == once.tobytes()
        store = store_of([make_row(f"r{i:03d}", "x", vector=v) for i, v in enumerate(once)])
        assert store.vectors.tobytes() == once.tobytes()
        assert_reingests_byte_equal(store, tmp_path)

    @pytest.mark.parametrize("dimension", [1, 2, 3, 7, 8, 16, 31, 64, 65, 128, 512])
    def test_stacked_product_is_dot(self, dimension):
        """The block norm is ``np.dot(w, w)`` bit for bit on every row."""
        rng = np.random.default_rng(dimension)
        rows = rng.standard_normal((300, dimension)) * rng.choice([1e-3, 1.0, 1e5], (300, 1))
        expected = np.array([np.dot(w, w) for w in rows])
        got = store_module._row_dots(rows)
        assert got.view(np.uint64).tolist() == expected.view(np.uint64).tolist()

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_idempotent_on_own_output(self, data):
        """A second call keeps every row of the first, bit for bit, and each
        row has the oracle's bits and a float64 norm within the window: on
        float32 and float64 rows with subnormal components, ±0.0, values
        past float32's range, tiny rows and D = 1."""
        dim = data.draw(st.integers(1, 12), label="dim")
        n = data.draw(st.integers(1, 5), label="n")
        wide = data.draw(st.booleans(), label="float64")
        component = st.one_of(
            st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.75, 2.0**-149, 2.0**-126, 2.0**-1074]),
            st.floats(-1.0, 1.0, width=32),
            st.floats(width=32, allow_nan=False, allow_infinity=False),
            st.integers(-(2**23) + 1, 2**23 - 1).map(lambda k: k * 2.0**-149),
            st.integers(-(2**52) + 1, 2**52 - 1).map(lambda k: k * 2.0**-1074),
            st.floats(-1e150, 1e150) if wide else st.nothing(),
        )
        rows = np.array(
            data.draw(st.lists(st.lists(component, min_size=dim, max_size=dim),
                               min_size=n, max_size=n)),
            dtype=np.float64 if wide else np.float32,
        )
        assume((rows != 0).any(axis=1).all())
        once = unit_rows(rows)
        assert once.dtype == np.float32 and once.shape == rows.shape
        assert unit_rows(once).tobytes() == once.tobytes()
        assert once.tobytes() == oracle_matrix(rows.astype(np.float64), dim).tobytes()
        norms = np.sqrt([np.dot(w, w) for w in once.astype(np.float64)])
        assert (np.abs(norms - 1.0) <= norm_window(dim)).all()

    def test_norm_window(self):
        """The window grows with D and stays far inside the store's norm
        tolerance for every dimension the binary format can hold."""
        assert norm_window(1) == pytest.approx(1.01 * 2.0**-24)
        assert norm_window(64) == pytest.approx(6.02e-8, rel=1e-3)
        widest = norm_window(2**32 - 1)
        assert norm_window(2**20) < widest < 5.5e-7 < NORM_TOLERANCE / 18

    def test_unit_f32_is_one_row_call(self):
        """A one-row call gives the oracle's bits and the bits that row gets
        in a stacked call; a 1-d vector must be passed as ``v[None]``."""
        rng = np.random.default_rng(23)
        rows = rng.standard_normal((50, 16)) * 1e3
        stacked = unit_rows(rows)
        for v, w in zip(rows, stacked):
            assert unit_rows(v[None])[0].tobytes() == oracle_unit_f32(v).tobytes()
            assert unit_rows(v[None])[0].tobytes() == w.tobytes()
        with pytest.raises(ValueError, match="matrix"):
            unit_rows(rows[0])

    def test_first_bad_row_is_reported(self):
        rows = np.ones((2 * BLOCK_ROWS, 4))
        rows[300] = 0.0
        rows[400, 2] = np.nan
        with pytest.raises(RowError, match="zero") as info:
            unit_rows(rows)
        assert info.value.row == 300
        rows[20, 1] = np.inf
        with pytest.raises(RowError, match="non-finite") as info:
            unit_rows(rows)
        assert info.value.row == 20
        rows[5] = 1e300
        with pytest.raises(RowError, match="overflows") as info:
            unit_rows(rows)
        assert info.value.row == 5

    def test_not_a_matrix_rejected(self):
        with pytest.raises(ValueError, match="matrix"):
            unit_rows(np.ones(4))


class TestEmbeddingStore:
    def test_records_sorted_regardless_of_input_order(self):
        rows = [make_row("b", "i1"), make_row("a", "i2"), make_row("a", "i1")]
        store = store_of(rows)
        assert keys(store) == [("a", "i1"), ("a", "i2"), ("b", "i1")]
        for row in rows:
            r = keys(store).index(row[:2])
            assert store.vectors[r].tobytes() == row[4].tobytes()

    def test_columns(self):
        """One C-contiguous read-only float32 matrix, an int64 capture
        column and Python str ids; no per-row objects."""
        store = store_of([make_row("a", "i1", capture=7), make_row("b", "i1")])
        assert store.vectors.dtype == np.float32 and store.vectors.shape == (2, 8)
        assert store.vectors.flags.c_contiguous
        assert not store.vectors.flags.writeable
        assert store.capture_index.dtype == np.int64
        assert store.capture_index.tolist() == [7, 1]
        assert not store.capture_index.flags.writeable
        assert store.identity_ids == ("a", "b") and store.groups == ("g", "g")

    def test_duplicate_key_rejected(self):
        rows = [make_row("a", "i1", seed=0), make_row("a", "i1", seed=1)]
        with pytest.raises(ValueError, match="duplicate"):
            store_of(rows)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="dimension"):
            EmbeddingStore(["a"], ["i1"], ["g"], [1], unit_rows(np.ones((1, 4)))[0])
        with pytest.raises(ValueError, match="dimension"):
            EmbeddingStore([], [], [], [], np.zeros((0, 0)))

    def test_mixed_dimension_rejected(self):
        with pytest.raises(ValueError, match="dimension"):
            EmbeddingStore(
                ["a", "b"], ["i1", "i1"], ["g", "g"], [1, 1],
                [unit_rows(np.ones((1, 8)))[0], unit_rows(np.ones((1, 16)))[0]],
            )

    def test_column_lengths_must_agree(self):
        with pytest.raises(ValueError, match="differ in length"):
            EmbeddingStore(["a", "b"], ["i1"], ["g"], [1], unit_rows(np.ones((1, 4))))

    def test_norm_validated(self):
        bad = np.full(4, 0.5, dtype=np.float32) * 1.1
        with pytest.raises(ValueError, match="norm"):
            EmbeddingStore(["a"], ["i1"], ["g"], [1], bad[None])

    def test_non_unit_rejected(self):
        row = make_row("a", "i1")
        with pytest.raises(ValueError, match="norm"):
            store_of([make_row("b", "i1"), row[:4] + (row[4] * 2,)])

    def test_non_finite_rejected(self):
        """A NaN norm fails no ``> tol`` test; it must still be refused."""
        row = make_row("a", "i1")
        with pytest.raises(ValueError, match="non-finite"):
            store_of([make_row("b", "i1"), row[:4] + (np.full_like(row[4], np.nan),)])

    def test_negative_capture_index_rejected(self):
        with pytest.raises(ValueError, match="capture_index"):
            store_of([make_row("a", "i1", capture=-1, dim=4)])

    def test_unwritable_values_rejected(self):
        """What the binary format cannot hold never gets into a store."""
        for capture in (-1, 2**32, 2**64):
            message = rf"row \('a', 'i1'\) has capture_index {capture}, outside"
            with pytest.raises(ValueError, match=message):
                store_of([make_row("a", "i1", capture=capture)])
        store_of([make_row("a", "i1", capture=2**32 - 1)])
        long_id = "é" * 32768  # 65536 UTF-8 bytes
        for row in (
            make_row(long_id, "i1"),
            make_row("a", long_id),
            make_row("a", "i1", group=long_id),
        ):
            with pytest.raises(ValueError, match="65536 UTF-8 bytes is over 65535"):
                store_of([row])
        store_of([make_row("a" * 65535, "i1")])

    def test_filter_by_group_partitions_store(self):
        rows = [
            make_row("a", "i1", group="A"),
            make_row("a", "i2", group="A"),
            make_row("b", "i1", group="B"),
        ]
        store = store_of(rows)
        part_a = store.filter_by_group("A")
        part_b = store.filter_by_group("B")
        assert len(part_a) == 2 and len(part_b) == 1
        assert set(part_a.groups) == {"A"}
        assert len(part_a) + len(part_b) == len(store)
        assert part_b.vectors.tobytes() == store.vectors[2].tobytes()
        assert part_b.vectors.flags.c_contiguous

    def test_filter_only_group_is_identity(self):
        store = store_of([make_row("a", "i1"), make_row("b", "i1")])
        same = store.filter_by_group("g")
        assert keys(same) == keys(store)
        assert same.vectors.tobytes() == store.vectors.tobytes()

    def test_filter_returns_store_itself_only_when_one_group(self):
        one = store_of([make_row("a", "i1"), make_row("b", "i1")])
        assert one.filter_by_group("g") is one
        two = store_of([make_row("a", "i1"), make_row("b", "i1", group="h")])
        part = two.filter_by_group("g")
        assert part is not two and keys(part) == [("a", "i1")]

    def test_filter_unknown_group_error_lists_known(self):
        store = store_of([make_row("a", "i1", group="A")])
        with pytest.raises(ValueError, match="unknown group 'C'.*A"):
            store.filter_by_group("C")

    def test_by_identity_groups_and_orders(self):
        """Each identity is one run of rows, identities and images ascending."""
        rows = [
            make_row("b", "i1"),
            make_row("a", "i2"),
            make_row("c", "i1"),
            make_row("a", "i1"),
        ]
        store = store_of(rows)
        assert store.identity_ids == ("a", "a", "b", "c")
        assert store.image_ids == ("i1", "i2", "i1", "i1")


class TestFormats:
    @pytest.fixture
    def store(self):
        rng = np.random.default_rng(5)
        rows = [
            make_row(f"id{i:02d}", f"im{j}", dim=16, vector=rng.standard_normal(16))
            for i in range(4)
            for j in range(3)
        ]
        return store_of(rows)

    def test_binary_round_trip_bit_exact(self, store, tmp_path):
        path = tmp_path / "store.bin"
        write_store(store, path, "binary")
        loaded = ingest(path, "binary")
        assert len(loaded) == len(store)
        assert keys(loaded) == keys(store)
        assert loaded.groups == store.groups
        assert loaded.capture_index.tolist() == store.capture_index.tolist()
        assert loaded.vectors.tobytes() == store.vectors.tobytes()

    def test_binary_round_trip_file_level(self, store, tmp_path):
        """Writing what was ingested reproduces the file byte for byte."""
        first = tmp_path / "a.bin"
        second = tmp_path / "b.bin"
        write_store(store, first, "binary")
        write_store(ingest(first), second, "binary")
        assert first.read_bytes() == second.read_bytes()

    def test_csv_round_trip(self, store, tmp_path):
        path = tmp_path / "store.csv"
        write_store(store, path, "csv")
        loaded = ingest(path, "csv")
        assert keys(loaded) == keys(store)
        assert loaded.vectors.tobytes() == store.vectors.tobytes()

    def test_csv_ingest_normalizes(self, tmp_path):
        path = tmp_path / "raw.csv"
        path.write_text(
            "identity_id,image_id,group,capture_index,v0,v1,v2,v3\n"
            "p1,a,g,1,3.0,4.0,0.0,0.0\n"
            "p1,b,g,2,1.0,1.0,1.0,1.0\n"
            "p2,a,g,1,0.0,0.0,0.0,2.5\n"
        )
        store = ingest(path, "csv")
        assert len(store) == 3
        for vector in store.vectors:
            assert abs(naive_norm(vector) - 1.0) < 1e-5

    def test_binary_ingest_normalizes_random_rows(self, tmp_path):
        """Norms of every ingested row check out against the naive oracle."""
        rng = np.random.default_rng(9)
        rows = [
            make_row(f"r{i}", "x", dim=16, vector=rng.standard_normal(16) * 3)
            for i in range(10)
        ]
        path = tmp_path / "s.bin"
        write_store(store_of(rows), path)
        for vector in ingest(path).vectors:
            assert abs(naive_norm(vector) - 1.0) < 1e-5

    def test_csv_duplicate_row_rejected(self, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text(
            "identity_id,image_id,group,capture_index,v0,v1\n"
            "p1,a,g,1,1.0,0.0\n"
            "p1,a,g,2,0.0,1.0\n"
        )
        with pytest.raises(ValueError, match="duplicate"):
            ingest(path, "csv")

    def test_empty_store_round_trip(self, tmp_path):
        path = tmp_path / "empty.bin"
        path.write_bytes(b"OGEM" + struct.pack("<IIQ", 1, 5, 0))
        store = ingest(path)
        assert len(store) == 0 and store.dimension == 5
        write_store(store, tmp_path / "again.bin")
        assert (tmp_path / "again.bin").read_bytes() == path.read_bytes()

    def test_round_trip_2500_rows_byte_identical(self, tmp_path):
        """binary -> CSV -> binary over several normalization blocks."""
        store = generate(
            SynthConfig(n_identities=500, images_per_identity=5, dimension=64, rng_seed=4)
        )
        write_store(store, tmp_path / "a.bin")
        write_store(ingest(tmp_path / "a.bin"), tmp_path / "a.csv", "csv")
        write_store(ingest(tmp_path / "a.csv", "csv"), tmp_path / "b.bin")
        assert (tmp_path / "a.bin").read_bytes() == (tmp_path / "b.bin").read_bytes()

    def test_csv_is_csv_writer_over_nine_digits(self, tmp_path):
        """The file is ``csv.writer`` over the four leading fields and each
        component as ``'%.9g' % x``, byte for byte, with ids that need
        quoting: a comma, a double quote, embedded newlines, a leading space."""
        rng = np.random.default_rng(5)
        names = ["plain", "a,b", 'say "hi"', "two\nlines", "cr\r\nlf", " lead", ""]
        rows = [
            make_row(ident, image, dim=16, vector=rng.standard_normal(16), group=group)
            for ident, image, group in zip(names, reversed(names), ["g", "x,y", *names[2:]])
        ]
        store = store_of(rows)
        path = tmp_path / "store.csv"
        write_store(store, path, "csv")
        expected = io.StringIO(newline="")
        writer = csv.writer(expected)
        writer.writerow(
            ["identity_id", "image_id", "group", "capture_index", *(f"v{i}" for i in range(16))]
        )
        for i in range(len(store)):
            writer.writerow(
                [store.identity_ids[i], store.image_ids[i], store.groups[i],
                 int(store.capture_index[i]), *("%.9g" % x for x in store.vectors[i].tolist())]
            )
        assert path.read_bytes() == expected.getvalue().encode()
        loaded = ingest(path, "csv")
        assert keys(loaded) == keys(store) and loaded.groups == store.groups
        assert loaded.vectors.tobytes() == store.vectors.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_round_trip_adversarial_float32(self, tmp_path_factory, data):
        """binary -> CSV -> binary and binary -> binary -> binary give the
        first file's bytes on unit rows built from float32 subnormals, -0.0
        and neighbours of powers of two, D = 1 too: the CSV hands
        ``unit_rows`` the bits the binary file does, and ``unit_rows`` keeps
        every row it returned."""
        dim = data.draw(st.integers(1, 9), label="dim")
        n = data.draw(st.integers(1, 6), label="n")
        powers = [2.0**k for k in range(-126, 2)]
        special = st.sampled_from(
            [0.0, -0.0, 2.0**-149, 2.0**-126, 1.0, float(np.nextafter(np.float32(1), 0))]
            + [float(np.nextafter(np.float32(p), np.float32(t))) for p in powers for t in (0, 4)]
            + powers
        )
        component = st.one_of(
            special,
            special.map(lambda x: -x),
            st.floats(-1.0, 1.0, width=32),
            st.integers(1, 2**23 - 1).map(lambda k: k * 2.0**-149),  # subnormals
        )
        raw = np.array(
            data.draw(st.lists(st.lists(component, min_size=dim, max_size=dim),
                               min_size=n, max_size=n)),
            dtype=np.float32,
        )
        # A dominant component keeps every row normalizable.
        raw[np.arange(n), data.draw(st.integers(0, dim - 1), label="lead")] = data.draw(
            st.sampled_from([1.0, float(np.nextafter(np.float32(1), 0)), 0.75]), label="big"
        )
        rows = [make_row(f"id{i}", "x", vector=v) for i, v in enumerate(unit_rows(raw))]
        store = store_of(rows)
        tmp = tmp_path_factory.mktemp("rt")
        write_store(store, tmp / "a.bin")
        write_store(ingest(tmp / "a.bin"), tmp / "a.csv", "csv")
        write_store(ingest(tmp / "a.csv", "csv"), tmp / "b.bin")
        write_store(ingest(tmp / "a.bin"), tmp / "a2.bin")
        write_store(ingest(tmp / "a2.bin"), tmp / "c.bin")
        assert (tmp / "b.bin").read_bytes() == (tmp / "c.bin").read_bytes()
        assert (tmp / "b.bin").read_bytes() == (tmp / "a.bin").read_bytes()

    # Bits the 8-step fixed-point loop that unit_rows once ran stored for
    # rows it left moving: the normalized row [0.75, 2.3509886e-38,
    # 0.92240709], whose second component gained 9 ulps per call, and the
    # 10 of 10000 D = 3 synth rows (2000 x 5, sigma 0.08, seed 1) that moved
    # again on re-ingest.
    LEFT_MOVING = [
        [1059160214, 14112293, 1061593272],
        [1029933206, 1059275872, 3208948370], [3143776865, 1059402759, 3208875768],
        [1062157654, 1006387103, 3205908353], [1012763698, 1060133038, 1060735704],
        [1058660877, 1029252584, 1061954309], [920289414, 3207634619, 3208204400],
        [3208621013, 3178534140, 3207135904], [3209125622, 1059049898, 1031438384],
        [1014897518, 1061520866, 1059245475], [997470495, 1059586627, 3208718129],
    ]

    def test_rows_left_moving_reingest_byte_equal(self, tmp_path):
        """The rows the fixed-point loop left moving, and the one-step
        normalization of the creeping row, are kept bit for bit by
        ``unit_rows`` and by both round trips."""
        creeping = unit_rows(np.float32([[0.75, 2.3509886e-38, 0.92240709]]))
        moving = np.array(self.LEFT_MOVING, dtype=np.uint32).view(np.float32)
        rows = np.concatenate([creeping, moving])
        assert unit_rows(rows).tobytes() == rows.tobytes()
        store = store_of([make_row(f"r{i:02d}", "x", vector=v) for i, v in enumerate(rows)])
        assert store.vectors.tobytes() == rows.tobytes()
        assert_reingests_byte_equal(store, tmp_path)

    @pytest.mark.parametrize("dimension", [1, 2, 3, 8])
    def test_synth_store_reingests_byte_equal(self, dimension, tmp_path):
        """write -> ingest -> write keeps the bytes in both formats, at the
        small dimensions where the fixed-point loop left rows moving."""
        store = generate(
            SynthConfig(n_identities=2000, images_per_identity=5, dimension=dimension,
                        within_noise_sigma=0.08, rng_seed=1)
        )
        assert_reingests_byte_equal(store, tmp_path)

    def test_csv_parse_rounds_each_float_to_float32(self, tmp_path):
        """A row of 17-digit components is stored as ``unit_rows`` of each
        ``float(field)`` rounded to float32."""
        rng = np.random.default_rng(17)
        lines = [[repr(float(x)) for x in rng.standard_normal(24) * 1e-3] for _ in range(3)]
        lines[1][0] = repr(1 + 2.0**-24 + 2.0**-40)  # rounds up to 1 + 2**-23
        path = tmp_path / "long.csv"
        path.write_text(
            "identity_id,image_id,group,capture_index,"
            + ",".join(f"v{i}" for i in range(24)) + "\n"
            + "".join(f"p{i},a,g,1," + ",".join(f) + "\n" for i, f in enumerate(lines))
        )
        store = ingest(path, "csv")
        for vector, fields in zip(store.vectors, lines):
            expected = unit_rows(np.float32([float(s) for s in fields])[None])[0]
            assert vector.tobytes() == expected.tobytes()

    def test_csv_component_past_float32_range_rejected(self, tmp_path):
        """A finite value that rounds to float32 infinity is refused, naming
        its line and column, with no warning; an inf literal stays a
        non-finite component."""
        path = tmp_path / "big.csv"
        header = "identity_id,image_id,group,capture_index,v0,v1\n"
        for value, message in (("3.5e38", "v1 = 3.5e+38 is outside the float32 range"),
                               ("-1e300", "v1 = -1e+300 is outside the float32 range"),
                               ("inf", "vector has non-finite components")):
            path.write_text(header + "p,a,g,1,1.0,0.5\n" + f"q,a,g,1,1.0,{value}\n")
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match=f"^line 3: {re.escape(message)}$"):
                    ingest(path, "csv")

    def test_csv_components_below_float32_subnormals_round_to_zero(self, tmp_path):
        """Magnitudes under half the smallest subnormal become 0; a row of
        them is a zero vector. The smallest subnormal itself survives."""
        path = tmp_path / "tiny.csv"
        header = "identity_id,image_id,group,capture_index,v0,v1\n"
        path.write_text(header + "p,a,g,1,1e-46,-1e-50\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^line 2: cannot normalize a zero vector$"):
                ingest(path, "csv")
        path.write_text(header + "p,a,g,1,1e-45,0\n")
        assert ingest(path, "csv").vectors.tolist() == [[1.0, 0.0]]

    def test_csv_bad_vector_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        header = "identity_id,image_id,group,capture_index,v0,v1\n"
        good = "".join(f"p{i},a,g,1,1.0,{i}.0\n" for i in range(BLOCK_ROWS + 5))
        for vector, message in (("0.0,0.0", "cannot normalize a zero vector"),
                                ("nan,1.0", "vector has non-finite components")):
            # A blank line before the bad one: line numbers count it.
            path.write_text(header + good + "\n" + f"q,a,g,1,{vector}\n" + good)
            with pytest.raises(ValueError, match=f"^line {BLOCK_ROWS + 8}: {message}$"):
                ingest(path, "csv")
        # A quoted id spanning two lines: lines count the file's lines, not
        # its records, with or without a blank line after it.
        split = '"p\n1",a,g,1,1.0,0.0\n'
        for gap, line in (("", 4), ("\n", 5)):
            path.write_text(header + split + gap + "q,a,g,1,0.0,0.0\n")
            with pytest.raises(ValueError, match=f"^line {line}: cannot normalize a zero vector$"):
                ingest(path, "csv")
            # A record with the wrong field count names the line it starts on.
            path.write_text(header + split + gap + '"q\n2",a,g,1,0.0\n')
            with pytest.raises(StoreFormatError, match=f"^line {line}: expected 6 fields, got 5$"):
                ingest(path, "csv")

    def test_binary_bad_vector_names_record(self, tmp_path):
        def record(i, vector):
            fields = b"".join(
                struct.pack("<H", len(text)) + text.encode()
                for text in ("p", f"{i:03d}", "g")
            )
            return fields + struct.pack("<I2f", 1, *vector)

        path = tmp_path / "bad.bin"
        row = BLOCK_ROWS + 2
        for vector, message in (((0.0, 0.0), "cannot normalize a zero vector"),
                                ((np.inf, 1.0), "vector has non-finite components")):
            records = [record(i, (1.0, float(i))) for i in range(BLOCK_ROWS + 5)]
            records[row] = record(row, vector)
            header = b"OGEM" + struct.pack("<IIQ", 1, 2, len(records))
            path.write_bytes(header + b"".join(records))
            with pytest.raises(
                ValueError, match=rf"^record {row} \('p', '{row:03d}'\): {message}$"
            ):
                ingest(path)

    def test_declared_count_beyond_file_rejected(self, tmp_path):
        """A header that promises more records than the bytes left can hold
        fails before any buffer is sized from its count."""
        path = tmp_path / "huge.bin"
        path.write_bytes((b"OGEM" + struct.pack("<IIQ", 1, 4, 2**40)).ljust(100, b"\0"))
        with pytest.raises(StoreFormatError, match="declares 1099511627776 records"):
            ingest(path)

    @staticmethod
    def three_records(fields=None):
        """A 2-dimensional binary store of three records; ``fields`` replaces
        the raw (identity_id, image_id, group) bytes of the middle record."""
        rows = [("alpha", "image1", "g"), ("b\u00e9ta", "image2", "g"), ("gamma", "image3", "grp")]
        out = b"OGEM" + struct.pack("<IIQ", 1, 2, len(rows))
        for k, row in enumerate(rows):
            raw = fields if fields is not None and k == 1 else [t.encode() for t in row]
            out += b"".join(struct.pack("<H", len(r)) + r for r in raw)
            out += struct.pack("<I2f", k, 0.6, 0.8)
        return out

    def test_truncated_at_every_byte_rejected(self, tmp_path):
        path = tmp_path / "cut.bin"
        data = self.three_records()
        path.write_bytes(data)
        assert len(ingest(path)) == 3
        for cut in range(len(data)):
            path.write_bytes(data[:cut])
            with pytest.raises(StoreFormatError):
                ingest(path)

    @pytest.mark.parametrize("field", range(3))
    def test_invalid_utf8_in_each_string_field_rejected(self, field, tmp_path):
        raw = [b"beta", b"image2", b"g"]
        raw[field] = b"x\xff"
        path = tmp_path / "utf8.bin"
        path.write_bytes(self.three_records(raw))
        with pytest.raises(StoreFormatError, match="invalid UTF-8 in string field"):
            ingest(path)

    def test_declared_count_past_the_records_rejected(self, tmp_path):
        """One record more than the file holds: its bytes pass the header's
        size check, and the walk runs out of them."""
        data = bytearray(self.three_records())
        data[12:20] = struct.pack("<Q", 4)
        path = tmp_path / "four.bin"
        path.write_bytes(bytes(data))
        with pytest.raises(StoreFormatError, match="^unexpected end of file$"):
            ingest(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(StoreFormatError, match="magic"):
            ingest(path)

    def test_truncated_file(self, store, tmp_path):
        path = tmp_path / "trunc.bin"
        write_store(store, path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(StoreFormatError, match="end of file"):
            ingest(path)

    def test_trailing_bytes(self, store, tmp_path):
        path = tmp_path / "trail.bin"
        write_store(store, path)
        path.write_bytes(path.read_bytes() + b"xx")
        with pytest.raises(StoreFormatError, match="trailing"):
            ingest(path)

    def test_bad_version(self, store, tmp_path):
        path = tmp_path / "ver.bin"
        write_store(store, path)
        data = bytearray(path.read_bytes())
        data[4] = 99
        path.write_bytes(bytes(data))
        with pytest.raises(StoreFormatError, match="version"):
            ingest(path)

    def test_csv_bad_header(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("who,what,where\n")
        with pytest.raises(StoreFormatError, match="header"):
            ingest(path, "csv")

    def test_csv_bad_value(self, tmp_path):
        path = tmp_path / "v.csv"
        path.write_text(
            "identity_id,image_id,group,capture_index,v0,v1\np1,a,g,1,oops,0.0\n"
        )
        with pytest.raises(StoreFormatError, match="line 2"):
            ingest(path, "csv")

    def test_unknown_format(self, store, tmp_path):
        with pytest.raises(ValueError, match="unknown store format"):
            write_store(store, tmp_path / "x", "parquet")
        with pytest.raises(ValueError, match="unknown store format"):
            ingest(tmp_path / "x", "parquet")
