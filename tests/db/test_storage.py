"""Tests for the row/column storage engines."""

import numpy as np
import pytest

from repro.config import ExecutionStats
from repro.db.buffer import BufferPool
from repro.db.storage import ColumnStore, RowStore, make_store
from repro.exceptions import SchemaError, StorageError


class TestScans:
    def test_scan_returns_correct_slices(self, tiny_table):
        store = make_store("col", tiny_table)
        out = store.scan(["price"], 1, 4)
        assert out["price"].tolist() == [20.0, 30.0, 40.0]

    def test_row_store_charges_more_bytes_for_narrow_scans(self, tiny_table):
        row_stats, col_stats = ExecutionStats(), ExecutionStats()
        RowStore(tiny_table, BufferPool()).scan(["price"], stats=row_stats)
        ColumnStore(tiny_table, BufferPool()).scan(["price"], stats=col_stats)
        assert row_stats.bytes_scanned_miss > col_stats.bytes_scanned_miss

    def test_full_width_scan_costs_equal(self, tiny_table):
        cols = list(tiny_table.column_names)
        row_stats, col_stats = ExecutionStats(), ExecutionStats()
        RowStore(tiny_table, BufferPool()).scan(cols, stats=row_stats)
        ColumnStore(tiny_table, BufferPool()).scan(cols, stats=col_stats)
        assert row_stats.bytes_scanned_miss == col_stats.bytes_scanned_miss

    def test_repeat_scan_hits_buffer_pool(self, tiny_table):
        store = make_store("col", tiny_table)
        first, second = ExecutionStats(), ExecutionStats()
        store.scan(["price"], stats=first)
        store.scan(["price"], stats=second)
        assert first.pages_missed > 0
        assert second.pages_missed == 0
        assert second.pages_hit > 0

    def test_bad_range_raises(self, tiny_table):
        store = make_store("row", tiny_table)
        with pytest.raises(StorageError):
            store.scan(["price"], 0, 100)
        with pytest.raises(StorageError):
            store.scan(["price"], -1, 2)
        with pytest.raises(StorageError):
            store.scan(["price"], 4, 2)

    def test_unknown_column_raises(self, tiny_table):
        with pytest.raises(SchemaError):
            make_store("row", tiny_table).scan(["nope"])

    def test_rows_scanned_accounting(self, tiny_table):
        store = make_store("col", tiny_table)
        stats = ExecutionStats()
        store.scan(["price"], 0, 5, stats)
        assert stats.rows_scanned == 5


class TestDictionaryScan:
    def test_codes_align_with_values(self, tiny_table):
        store = make_store("col", tiny_table)
        codes, categories = store.dictionary_slice("color", 2, 6)
        np.testing.assert_array_equal(
            categories[codes], tiny_table.column("color")[2:6]
        )


class TestFactory:
    def test_make_store_kinds(self, tiny_table):
        assert isinstance(make_store("row", tiny_table), RowStore)
        assert isinstance(make_store("col", tiny_table), ColumnStore)

    def test_unknown_kind(self, tiny_table):
        with pytest.raises(StorageError):
            make_store("graph", tiny_table)  # type: ignore[arg-type]

    def test_scan_bytes_estimate_matches_charges(self, tiny_table):
        store = make_store("col", tiny_table)
        estimate = store.scan_bytes(["price"])
        stats = ExecutionStats()
        store.scan(["price"], stats=stats)
        assert estimate == stats.bytes_scanned_miss
