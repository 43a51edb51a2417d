"""Tests for the TransactionDatabase substrate."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets import transactions
from repro.datasets.transactions import TransactionDatabase
from repro.util.bitset import Universe


def _reference_columns(rows, n_items):
    """Column ``i`` with bit ``t`` set when row ``t`` holds item ``i``,
    built one OR per item occurrence."""
    columns = [0] * n_items
    for t, row in enumerate(rows):
        for item in range(n_items):
            if row >> item & 1:
                columns[item] |= 1 << t
    return columns


def _as_ints(database):
    return [
        column if isinstance(column, int) else column.to_int()
        for column in database.tidsets_view()
    ]


class TestConstruction:
    def test_from_transactions_infers_universe(self):
        database = TransactionDatabase.from_transactions(
            [{"milk", "bread"}, {"milk"}]
        )
        assert database.universe.items == ("bread", "milk")
        assert database.n_transactions == 2

    def test_explicit_universe(self):
        universe = Universe("ABCD")
        database = TransactionDatabase.from_transactions([{"B"}], universe)
        assert database.n_items == 4

    def test_out_of_universe_mask_rejected(self):
        with pytest.raises(ValueError):
            TransactionDatabase(Universe("AB"), [0b100])

    def test_duplicate_rows_kept(self):
        database = TransactionDatabase(Universe("AB"), [0b11, 0b11])
        assert database.n_transactions == 2
        assert database.support_count(0b11) == 2

    def test_empty_database(self):
        database = TransactionDatabase(Universe("AB"), [])
        assert database.n_transactions == 0
        assert database.support_count(0b01) == 0
        assert database.frequency(0b01) == 0.0


class TestSupportCounting:
    @pytest.fixture
    def database(self):
        return TransactionDatabase.from_transactions(
            [{"A", "B", "C"}, {"A", "B"}, {"B", "C"}, {"C"}]
        )

    def test_empty_itemset_support_is_row_count(self, database):
        assert database.support_count(0) == 4

    def test_singleton_support(self, database):
        assert database.support_count(database.universe.to_mask({"B"})) == 3

    def test_pair_support(self, database):
        assert (
            database.support_count(database.universe.to_mask({"A", "B"})) == 2
        )

    def test_unsupported_set(self, database):
        mask = database.universe.to_mask({"A", "C"})
        assert database.support_count(mask) == 1

    def test_frequency(self, database):
        assert database.frequency(database.universe.to_mask({"B"})) == 0.75

    def test_is_frequent(self, database):
        mask = database.universe.to_mask({"B"})
        assert database.is_frequent(mask, 3)
        assert not database.is_frequent(mask, 4)

    def test_item_support_counts(self, database):
        assert database.item_support_counts() == [2, 3, 3]

    @settings(max_examples=80)
    @given(
        st.integers(min_value=1, max_value=7),
        st.lists(st.integers(min_value=0, max_value=127), max_size=15),
        st.integers(min_value=0, max_value=127),
    )
    def test_vertical_counting_matches_row_scan(self, n_items, rows, probe):
        universe = Universe(range(n_items))
        mask_limit = universe.full_mask
        rows = [row & mask_limit for row in rows]
        probe &= mask_limit
        database = TransactionDatabase(universe, rows)
        expected = sum(1 for row in rows if probe & row == probe)
        assert database.support_count(probe) == expected


class TestAbsoluteSupport:
    def test_ceiling_semantics(self):
        database = TransactionDatabase(Universe("A"), [0b1] * 10)
        assert database.absolute_support(0.25) == 3
        assert database.absolute_support(0.0) == 0
        assert database.absolute_support(1.0) == 10

    def test_tiny_positive_threshold_needs_one_row(self):
        database = TransactionDatabase(Universe("A"), [0b1] * 10)
        assert database.absolute_support(1e-9) == 1

    def test_out_of_range_rejected(self):
        database = TransactionDatabase(Universe("A"), [0b1])
        with pytest.raises(ValueError):
            database.absolute_support(1.5)


class TestProjection:
    def test_project_keeps_row_count(self):
        database = TransactionDatabase.from_transactions(
            [{"A", "B"}, {"C"}], Universe("ABC")
        )
        projected = database.project(database.universe.to_mask({"A", "B"}))
        assert projected.n_transactions == 2
        assert projected.n_items == 2

    def test_projected_supports(self):
        database = TransactionDatabase.from_transactions(
            [{"A", "B"}, {"A"}, {"B"}], Universe("AB")
        )
        projected = database.project(database.universe.to_mask({"A"}))
        assert projected.support_count(projected.universe.to_mask({"A"})) == 2


class TestDunders:
    def test_len_iter_repr(self):
        database = TransactionDatabase(Universe("AB"), [0b01, 0b10])
        assert len(database) == 2
        assert list(database) == [0b01, 0b10]
        assert "2 transactions" in repr(database)

    def test_transactions_as_sets(self):
        database = TransactionDatabase(Universe("AB"), [0b01])
        assert database.transactions_as_sets() == [frozenset({"A"})]

    def test_transaction_masks_is_copy(self):
        database = TransactionDatabase(Universe("AB"), [0b01])
        masks = database.transaction_masks
        masks.append(0b10)
        assert database.n_transactions == 1


class TestVerticalBackends:
    """The tidset surface and the two counting kernels."""

    @pytest.fixture
    def database(self):
        return TransactionDatabase(
            Universe(range(5)), [0b10111, 0b00111, 0b11010, 0b01010, 0b10001]
        )

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=0, max_value=12),
        st.lists(st.integers(min_value=0, max_value=63), max_size=12),
        st.randoms(use_true_random=False),
    )
    def test_backends_agree_on_support_counts(
        self, n_items, n_rows, masks, rng
    ):
        universe = Universe(range(n_items))
        rows = [rng.randrange(1 << n_items) for _ in range(n_rows)]
        masks = [mask & ((1 << n_items) - 1) for mask in masks]
        reference = [
            TransactionDatabase(universe, rows).support_count(mask)
            for mask in masks
        ]
        for backend in ("auto", "roaring"):
            database = TransactionDatabase(universe, rows, backend=backend)
            assert database.support_counts(masks) == reference, backend

    @pytest.mark.skipif(
        not transactions._HAS_VECTOR_POPCOUNT,
        reason="the numpy kernel needs np.bitwise_count (numpy 2)",
    )
    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from([5, 64, 65, 130]),
        st.integers(min_value=1, max_value=40),
        st.integers(min_value=1, max_value=150),
        st.randoms(use_true_random=False),
    )
    def test_numpy_kernel_matches_scalar(self, n_items, n_rows, n_masks, rng):
        """The vectorized kernel against the scalar reference, on 1-chunk
        (≤ 64 items) and multi-chunk universes, below the auto cutoffs."""
        universe = Universe(range(n_items))
        rows = [rng.getrandbits(n_items) for _ in range(n_rows)]
        masks = [0] + [
            rng.getrandbits(n_items) & rng.getrandbits(n_items)
            for _ in range(n_masks)
        ]
        database = TransactionDatabase(universe, rows)
        assert database._support_counts_numpy(masks) == [
            database.support_count(mask) for mask in masks
        ]

    def test_full_tidset_covers_every_row(self, database):
        assert database.full_tidset == 0b11111

    def test_tidsets_view_holds_singleton_columns(self, database):
        columns = database.tidsets_view()
        assert len(columns) == database.n_items
        for item_index, column in enumerate(columns):
            assert column == sum(
                1 << t
                for t, row in enumerate(database.transaction_masks)
                if row >> item_index & 1
            )

    def test_unknown_backend_rejected(self):
        for backend in ("columnar", "int", "numpy", "tidset", "diffset"):
            with pytest.raises(ValueError, match="unknown backend"):
                TransactionDatabase(Universe("A"), [1], backend=backend)
            with pytest.raises(ValueError, match="unknown backend"):
                TransactionDatabase.from_columnar(
                    Universe("A"), [[0]], 1, backend=backend
                )

    def test_backend_property_reports_choice(self):
        database = TransactionDatabase(Universe("A"), [1], backend="roaring")
        assert database.backend == "roaring"
        assert database.shards(2)[0].backend == "roaring"


class TestRoaringBackend:
    """The compressed-column backend against the big-int reference.

    ``tidsets_view()`` holds :class:`RoaringBitmap` columns here;
    equality with the reference is checked through ``to_int()``, which
    maps a column back onto the exact big-int bitmask the other
    backends carry.
    """

    @staticmethod
    def _pair(rows, n_items=5):
        universe = Universe(range(n_items))
        return (
            TransactionDatabase(universe, rows),
            TransactionDatabase(universe, rows, backend="roaring"),
        )

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=0, max_value=20),
        st.randoms(use_true_random=False),
    )
    def test_vertical_surface_matches_int_backend(
        self, n_items, n_rows, rng
    ):
        rows = [rng.randrange(1 << n_items) for _ in range(n_rows)]
        reference, roaring = self._pair(rows, n_items)
        assert roaring.full_tidset.to_int() == reference.full_tidset
        assert [column.to_int() for column in roaring.tidsets_view()] == (
            reference.tidsets_view()
        )
        for mask in range(1 << n_items):
            assert roaring.support_count(mask) == (
                reference.support_count(mask)
            )

    def test_columns_are_roaring_bitmaps(self):
        from repro.util.roaring import RoaringBitmap

        _, roaring = self._pair([0b101, 0b011, 0b110])
        for column in roaring.tidsets_view():
            assert isinstance(column, RoaringBitmap)

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(min_value=1, max_value=20),
        st.integers(min_value=1, max_value=5),
        st.randoms(use_true_random=False),
    )
    def test_shards_slice_compressed_columns(self, n_rows, n_shards, rng):
        rows = [rng.randrange(1 << 5) for _ in range(n_rows)]
        reference, roaring = self._pair(rows)
        ref_shards = reference.shards(n_shards)
        roaring_shards = roaring.shards(n_shards)
        assert len(ref_shards) == len(roaring_shards)
        for ref_shard, roaring_shard in zip(ref_shards, roaring_shards):
            assert roaring_shard.backend == "roaring"
            assert roaring_shard.n_transactions == ref_shard.n_transactions
            assert roaring_shard.transaction_masks == (
                ref_shard.transaction_masks
            )

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.sets(st.integers(min_value=0, max_value=7), max_size=5),
            max_size=15,
        )
    )
    def test_from_columnar_matches_horizontal(self, transactions):
        universe = Universe(range(8))
        rows = [universe.to_mask(basket) for basket in transactions]
        item_rows = [
            [t for t, basket in enumerate(transactions) if item in basket]
            for item in range(8)
        ]
        for backend in ("auto", "roaring"):
            built = TransactionDatabase.from_columnar(
                universe, item_rows, len(transactions), backend=backend
            )
            assert built._rows is None
            assert built.transaction_masks == rows

    def test_project_preserves_counts(self):
        reference, roaring = self._pair([0b10111, 0b00111, 0b11010])
        kept = 0b01011
        ref_projected = reference.project(kept)
        roaring_projected = roaring.project(kept)
        for mask in range(1 << ref_projected.n_items):
            assert roaring_projected.support_count(mask) == (
                ref_projected.support_count(mask)
            )


class TestColumnFirstTranspose:
    """A column-first database answers every horizontal view exactly
    as the row-first build does, without a per-occurrence transpose."""

    @pytest.mark.timeout(8)
    def test_large_views_match_horizontal_build(self):
        n_rows, n_items = 100_000, 200
        member = np.random.default_rng(12).random((n_items, n_rows)) < 0.05
        item_rows = [np.flatnonzero(column) for column in member]
        rows = [0] * n_rows
        for item, indices in enumerate(item_rows):
            bit = 1 << item
            for row in indices.tolist():
                rows[row] |= bit
        universe = Universe(range(n_items))
        horizontal = TransactionDatabase(universe, rows)
        database = TransactionDatabase.from_columnar(
            universe, item_rows, n_rows
        )
        shards = database.shards(3)
        assert database._rows is None
        assert [shard.transaction_masks for shard in shards] == [
            shard.transaction_masks for shard in horizontal.shards(3)
        ]
        kept = sum(1 << item for item in range(0, n_items, 7))
        assert database.project(kept).transaction_masks == (
            horizontal.project(kept).transaction_masks
        )
        assert database.transaction_masks == rows

    @pytest.mark.timeout(20)
    def test_wide_roaring_rows_slice_whole_chunks(self, monkeypatch):
        """100K rows × 2000 items: row blocks are far below a 65536-row
        chunk, yet the roaring row view slices each column only at chunk
        bounds (the container-sharing path) instead of once per block."""
        n_rows, n_items = 100_000, 2000
        rng = np.random.default_rng(8)
        item_rows = [
            np.flatnonzero(rng.random(n_rows) < 0.002)
            for _ in range(n_items)
        ]
        database = TransactionDatabase.from_columnar(
            Universe(range(n_items)), item_rows, n_rows, backend="roaring"
        )
        assert transactions._block_rows(n_items) < transactions.CHUNK
        starts = []
        sliced = transactions.RoaringBitmap.sliced

        def spy(bitmap, start, stop=None):
            starts.append(start)
            return sliced(bitmap, start, stop)

        monkeypatch.setattr(transactions.RoaringBitmap, "sliced", spy)
        rows = database.transaction_masks
        assert set(starts) == {0, transactions.CHUNK}
        for item in (0, 999, 1999):
            expected = item_rows[item].tolist()
            assert [r for r in expected if rows[r] >> item & 1] == expected
        assert sum(row.bit_count() for row in rows) == sum(
            map(len, item_rows)
        )

    @pytest.mark.parametrize("backend", ["auto", "roaring"])
    def test_views_cross_transpose_blocks(self, backend, monkeypatch):
        """Row counts around a 65536-row transpose block boundary (also
        the first roaring chunk boundary)."""
        monkeypatch.setattr(transactions, "_TRANSPOSE_BYTES", 3 << 16)
        assert transactions._block_rows(3) == 1 << 16
        n_rows = (1 << 16) + 3
        item_rows = [
            [0, 65535, 65536, n_rows - 1], [], list(range(1, n_rows, 9))
        ]
        rows = [0] * n_rows
        for item, indices in enumerate(item_rows):
            for row in indices:
                rows[row] |= 1 << item
        database = TransactionDatabase.from_columnar(
            Universe("abc"), item_rows, n_rows, backend=backend
        )
        assert database.transaction_masks == rows
        assert [shard.transaction_masks for shard in database.shards(2)] == [
            rows[: n_rows // 2 + 1], rows[n_rows // 2 + 1 :]
        ]

    @pytest.mark.parametrize("backend", ["auto", "roaring"])
    @pytest.mark.parametrize("bad_row", [-1, 4, 2**70])
    def test_rows_outside_the_database_rejected(self, backend, bad_row):
        with pytest.raises(ValueError, match="row"):
            TransactionDatabase.from_columnar(
                Universe("ab"), [[0, bad_row], [1]], 4, backend=backend
            )

    @pytest.mark.parametrize("backend", ["auto", "roaring"])
    def test_wide_universe_crosses_byte_bounded_blocks(
        self, backend, monkeypatch
    ):
        """1100 items under a budget of 8 rows per block: both transposes
        cross block boundaries and agree with the reference columns."""
        n_items, n_rows = 1100, 37
        monkeypatch.setattr(transactions, "_TRANSPOSE_BYTES", 8 * n_items)
        assert transactions._block_rows(n_items) == 8
        member = np.random.default_rng(5).random((n_rows, n_items)) < 0.1
        rows = [
            sum(1 << int(item) for item in np.flatnonzero(row))
            for row in member
        ]
        item_rows = [np.flatnonzero(column) for column in member.T]
        universe = Universe(range(n_items))
        horizontal = TransactionDatabase(universe, rows, backend=backend)
        columnar = TransactionDatabase.from_columnar(
            universe, item_rows, n_rows, backend=backend
        )
        assert horizontal.tidsets_view() == columnar.tidsets_view()
        assert _as_ints(horizontal) == _reference_columns(rows, n_items)
        assert columnar.transaction_masks == rows

    @settings(max_examples=80, deadline=None)
    @given(
        st.sampled_from([0, 1, 7, 64, 65]),
        st.one_of(st.sampled_from([0, 63, 64, 65]), st.integers(0, 40)),
        st.floats(min_value=0.0, max_value=1.0),
        st.randoms(use_true_random=False),
    )
    def test_horizontal_build_matches_from_columnar(
        self, n_items, n_rows, empty_share, rng
    ):
        """The row-to-column transpose yields the columns of the
        column-first constructor, and the reference OR-per-occurrence
        columns, on both representations — empty rows, an empty
        universe and the 64-row word edge included."""
        rows = [
            0 if rng.random() < empty_share else rng.getrandbits(n_items)
            for _ in range(n_rows)
        ]
        item_rows = [
            [t for t, row in enumerate(rows) if row >> item & 1]
            for item in range(n_items)
        ]
        universe = Universe(range(n_items))
        for backend in ("auto", "roaring"):
            horizontal = TransactionDatabase(universe, rows, backend=backend)
            columnar = TransactionDatabase.from_columnar(
                universe, item_rows, n_rows, backend=backend
            )
            assert horizontal.tidsets_view() == columnar.tidsets_view()
            assert _as_ints(horizontal) == _reference_columns(rows, n_items)

    def test_empty_universe_keeps_rows(self):
        database = TransactionDatabase.from_columnar(Universe([]), [], 3)
        assert database.transaction_masks == [0, 0, 0]
        assert [s.n_transactions for s in database.shards(2)] == [2, 1]
