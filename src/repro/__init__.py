"""repro — proximity graphs for similarity search.

A from-scratch reproduction of Lu & Tao, *"Proximity Graphs for
Similarity Search: Fast Construction, Lower Bounds, and Euclidean
Separation"* (PODS 2025, arXiv:2509.07732):

* **Theorem 1.1** — ``repro.graphs.build_gnet``: a (1+eps)-PG with
  ``O((1/eps)^lambda n log Delta)`` edges built from r-net hierarchies in
  near-linear time, for any metric of bounded doubling dimension;
* **Theorem 1.2** — ``repro.lowerbounds``: the two hard instances and
  executable adversaries showing the ``log Delta`` and ``(1/eps)^lambda``
  edge factors are necessary;
* **Theorem 1.3** — ``repro.graphs.build_merged_graph``: in Euclidean
  space, jackpot sampling + theta-graphs remove the ``log Delta`` factor
  entirely.

Start with :class:`repro.ProximityGraphIndex`; drop to the subpackages
(``metrics``, ``nets``, ``anns``, ``graphs``, ``baselines``,
``lowerbounds``, ``workloads``) for the substrates.
"""

from repro.core.builders import available_builders, build
from repro.core.index import ProximityGraphIndex
from repro.core.interface import SearchableIndex
from repro.core.persistence import load_any
from repro.core.search import IdMap, SearchParams, SearchResult
from repro.core.sharded import ShardedIndex
from repro.core.stats import (
    compute_ground_truth,
    compute_ground_truth_k,
    measure_queries,
    storage_breakdown,
)
from repro.graphs import (
    ProximityGraph,
    build_gnet,
    build_merged_graph,
    build_theta_graph,
    bulk_insert,
    greedy_batch,
)
from repro.metrics import Dataset, EuclideanMetric, MetricSpace
from repro.storage import FlatStore, SQ8Store, VectorStore, make_store

__version__ = "1.0.0"

__all__ = [
    "Dataset",
    "EuclideanMetric",
    "FlatStore",
    "IdMap",
    "MetricSpace",
    "ProximityGraph",
    "ProximityGraphIndex",
    "SQ8Store",
    "SearchParams",
    "SearchResult",
    "SearchableIndex",
    "ShardedIndex",
    "VectorStore",
    "available_builders",
    "build",
    "build_gnet",
    "build_merged_graph",
    "build_theta_graph",
    "bulk_insert",
    "compute_ground_truth",
    "compute_ground_truth_k",
    "greedy_batch",
    "load_any",
    "make_store",
    "measure_queries",
    "storage_breakdown",
    "__version__",
]
