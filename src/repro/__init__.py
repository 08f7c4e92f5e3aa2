"""SeeDB reproduction: data-driven visualization recommendations.

Reproduces *SeeDB: Efficient Data-Driven Visualization Recommendations to
Support Visual Analytics* (Vartak et al., PVLDB 8(13), 2015): a deviation-
based visualization recommender with sharing and pruning optimizations over
a pluggable DBMS substrate.

Quickstart::

    from repro import SeeDB
    from repro.data import build_info

    table, spec = build_info("census")
    seedb = SeeDB.over_table(table)
    result = seedb.recommend(target=spec.target_predicate(), k=5)
    print(result.describe())
"""

from repro.config import CostModelConfig, EngineConfig, ExecutionStats
from repro.core.cache import CacheStats, ViewResultCache
from repro.core.engine import EngineRun, ExecutionEngine
from repro.core.recommender import SeeDB, tuned_config
from repro.core.result import (
    Recommendation,
    RecommendationSet,
    accuracy,
    utility_distance,
)
from repro.core.view import AggregateView, ViewSpace
from repro.db.database import Database, DimensionJoin, SnowflakeJoin
from repro.db.query import AggregateFunction
from repro.db.table import Table
from repro.metrics import get_metric, list_metrics, register_metric

__version__ = "1.0.0"

__all__ = [
    "AggregateFunction",
    "AggregateView",
    "CacheStats",
    "CostModelConfig",
    "Database",
    "DimensionJoin",
    "EngineConfig",
    "EngineRun",
    "ExecutionEngine",
    "ExecutionStats",
    "Recommendation",
    "RecommendationSet",
    "SeeDB",
    "SnowflakeJoin",
    "Table",
    "ViewResultCache",
    "ViewSpace",
    "accuracy",
    "get_metric",
    "list_metrics",
    "register_metric",
    "tuned_config",
    "utility_distance",
    "__version__",
]
