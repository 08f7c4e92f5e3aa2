"""Tests for configuration objects and stat accounting."""

import dataclasses
import re
from pathlib import Path

import pytest

from repro.config import CostModelConfig, EngineConfig, ExecutionStats


class TestCostModelConfig:
    def test_effective_parallelism_linear_below_cores(self):
        config = CostModelConfig(n_cores=16)
        assert config.effective_parallelism(1) == 1
        assert config.effective_parallelism(8) == 8
        assert config.effective_parallelism(16) == 16

    def test_contention_degrades_beyond_cores(self):
        config = CostModelConfig(n_cores=16)
        assert config.effective_parallelism(32) < 16
        assert config.effective_parallelism(64) < config.effective_parallelism(32)

    def test_optimum_at_core_count(self):
        config = CostModelConfig(n_cores=16)
        values = {p: config.effective_parallelism(p) for p in (1, 4, 8, 16, 24, 48)}
        assert max(values, key=values.get) == 16

    def test_rejects_nonpositive_parallelism(self):
        with pytest.raises(ValueError):
            CostModelConfig().effective_parallelism(0)

    def test_row_cpu_rate_exceeds_col(self):
        config = CostModelConfig()
        assert config.row_seconds_per_agg_row > config.col_seconds_per_agg_row


class TestEngineConfig:
    def test_group_budget_follows_store(self):
        assert EngineConfig(store="row").group_budget() == 10_000
        assert EngineConfig(store="col").group_budget() == 100

    def test_with_returns_modified_copy(self):
        base = EngineConfig()
        changed = base.with_(n_phases=5)
        assert changed.n_phases == 5
        assert base.n_phases == 10
        assert changed is not base

    def test_defaults_match_paper_setup(self):
        config = EngineConfig()
        assert config.n_phases == 10
        assert config.n_parallel_queries == 16
        assert config.ci_delta == 0.05

    def test_docs_knob_table_lists_every_field(self):
        text = (Path(__file__).parents[1] / "docs" / "api.md").read_text()
        section = text.split("## `EngineConfig` knobs", 1)[1].split("\n#", 1)[0]
        documented = {
            name
            for row in re.findall(r"^\| (`.*?) \|", section, re.M)
            # Defaults sit in parentheses, some of them backticked too.
            for name in re.findall(r"`([^`]+)`", re.sub(r"\([^)]*\)", "", row))
        }
        assert documented == {f.name for f in dataclasses.fields(EngineConfig)}


class TestExecutionStats:
    def test_merge_accumulates_every_counter(self):
        a = ExecutionStats(queries_issued=1, bytes_scanned_miss=100, rows_scanned=10)
        b = ExecutionStats(queries_issued=2, bytes_scanned_miss=50, rows_scanned=5)
        b.batch_costs.append([0.1])
        a.merge(b)
        assert a.queries_issued == 3
        assert a.bytes_scanned_miss == 150
        assert a.rows_scanned == 15
        assert a.batch_costs == [[0.1]]

    def test_fresh_stats_are_zero(self):
        stats = ExecutionStats()
        assert stats.queries_issued == 0
        assert stats.bytes_scanned_miss == 0
        assert stats.batch_costs == []
