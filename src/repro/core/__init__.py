"""Public API: the index facade, the builder registry, and measurement
helpers."""

from repro.core.builders import (
    BuiltGraph,
    available_builders,
    build,
    register_builder,
)
from repro.core.index import ProximityGraphIndex
from repro.core.interface import SearchableIndex
from repro.core.persistence import load_any
from repro.core.search import IdMap, SearchParams, SearchResult
from repro.core.sharded import ShardedIndex
from repro.core.stats import (
    QueryStats,
    compute_ground_truth,
    compute_ground_truth_k,
    measure_queries,
    storage_breakdown,
    timed,
)

__all__ = [
    "BuiltGraph",
    "IdMap",
    "ProximityGraphIndex",
    "QueryStats",
    "SearchParams",
    "SearchResult",
    "SearchableIndex",
    "ShardedIndex",
    "available_builders",
    "build",
    "compute_ground_truth",
    "compute_ground_truth_k",
    "load_any",
    "measure_queries",
    "register_builder",
    "storage_breakdown",
    "timed",
]
