"""phase_ranges edge cases, including the chunk-aligned mode."""

from __future__ import annotations

import pytest

from repro.core.phases import phase_ranges
from repro.exceptions import QueryError


def _is_partition(ranges, n_rows):
    assert ranges[0][0] == 0
    assert ranges[-1][1] == n_rows
    for (_, stop), (next_start, next_stop) in zip(ranges, ranges[1:]):
        assert stop == next_start
        assert next_start <= next_stop


class TestPhaseRanges:
    def test_even_split(self):
        ranges = phase_ranges(100, 10)
        assert len(ranges) == 10
        assert all(stop - start == 10 for start, stop in ranges)
        _is_partition(ranges, 100)

    def test_more_phases_than_rows_collapses(self):
        ranges = phase_ranges(3, 10)
        assert ranges == [(0, 1), (1, 2), (2, 3)]

    def test_zero_rows(self):
        assert phase_ranges(0, 10) == [(0, 0)]
        assert phase_ranges(0, 10, align=7) == [(0, 0)]

    def test_single_row_single_phase(self):
        assert phase_ranges(1, 1) == [(0, 1)]

    def test_invalid_arguments(self):
        with pytest.raises(QueryError):
            phase_ranges(10, 0)
        with pytest.raises(QueryError):
            phase_ranges(-1, 2)
        with pytest.raises(QueryError):
            phase_ranges(10, 2, align=0)


class TestChunkAlignedMode:
    def test_boundaries_land_on_chunk_grid(self):
        ranges = phase_ranges(1000, 7, align=64)
        _is_partition(ranges, 1000)
        for _, stop in ranges[:-1]:
            assert stop % 64 == 0
        # Near-equal phases survive the snapping (|width - ideal| < align).
        for start, stop in ranges:
            assert abs((stop - start) - 1000 / 7) < 64

    def test_align_one_is_identity(self):
        assert phase_ranges(103, 10, align=1) == phase_ranges(103, 10)

    def test_align_at_least_table_is_identity(self):
        # A single-chunk table has nothing to align to.
        assert phase_ranges(100, 4, align=100) == phase_ranges(100, 4)
        assert phase_ranges(100, 4, align=1000) == phase_ranges(100, 4)

    def test_huge_align_creates_empty_phases_monotonically(self):
        ranges = phase_ranges(100, 4, align=60)
        _is_partition(ranges, 100)
        # Snapping to a 60-row grid cannot give four non-empty phases;
        # empty ones are tolerated, never overlapping or reordered.
        assert len(ranges) == 4
        assert sum(stop - start for start, stop in ranges) == 100

    def test_remainder_rows_stay_in_final_phase(self):
        ranges = phase_ranges(130, 4, align=32)
        _is_partition(ranges, 130)
        assert ranges[-1][1] == 130

    def test_engine_uses_alignment(self):
        """chunk_aligned_phases snaps COMB phase boundaries to the grid."""
        import numpy as np

        from repro.config import EngineConfig
        from repro.core.engine import ExecutionEngine
        from repro.core.view import ViewSpace
        from repro.db import expressions as E
        from repro.db.catalog import TableMeta
        from repro.db.storage import make_store
        from repro.db.table import Table
        from repro.db.types import ColumnRole

        rng = np.random.default_rng(0)
        n = 400
        table = Table(
            "t",
            {
                "d": rng.choice(["a", "b"], n),
                "m": rng.gamma(2.0, 10.0, n),
                "part": rng.choice(["t", "r"], n),
            },
            roles={
                "d": ColumnRole.DIMENSION,
                "m": ColumnRole.MEASURE,
                "part": ColumnRole.OTHER,
            },
            chunk_rows=64,
        )
        config = EngineConfig(
            store="col", n_phases=5, chunk_aligned_phases=True
        )
        views = list(ViewSpace.enumerate(TableMeta.of(table)))
        with ExecutionEngine(
            make_store("col", table), config
        ) as engine:
            run = engine.run(
                views, E.eq("part", "t"), k=1, strategy="comb", pruner="none"
            )
        assert run.phases_executed == 5
        # Alignment shows up in the per-phase row counts: with 64-row
        # chunks and 400 rows, every interior boundary is a multiple of 64.
        assert run.selected
