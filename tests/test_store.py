import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import naive_norm
from rankgate.store import (
    EmbeddingStore,
    StoreFormatError,
    ingest,
    l2_normalize,
    unit_f32,
    write_store,
)

from conftest import make_row, store_of


def keys(store):
    return list(zip(store.identity_ids, store.image_ids))


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


class TestUnitF32:
    def test_fixed_point_of_renormalization(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            v = unit_f32(rng.standard_normal(16))
            again = unit_f32(v.astype(np.float64))
            assert v.tobytes() == again.tobytes()

    def test_dtype(self):
        assert unit_f32([3.0, 4.0]).dtype == np.float32


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
            EmbeddingStore(["a"], ["i1"], ["g"], [1], unit_f32(np.ones(4)))
        with pytest.raises(ValueError, match="dimension"):
            EmbeddingStore([], [], [], [], np.zeros((0, 0)))

    def test_mixed_dimension_rejected(self):
        with pytest.raises(ValueError, match="dimension"):
            EmbeddingStore(
                ["a", "b"], ["i1", "i1"], ["g", "g"], [1, 1],
                [unit_f32(np.ones(8)), unit_f32(np.ones(16))],
            )

    def test_column_lengths_must_agree(self):
        with pytest.raises(ValueError, match="differ in length"):
            EmbeddingStore(["a", "b"], ["i1"], ["g"], [1], unit_f32(np.ones(4))[None])

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
