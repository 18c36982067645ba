"""Proximity graphs: the container, the batch engines that run the
greedy routing procedure (``greedy_batch``) and its beam extension
(``beam_search_batch``), the navigability oracle (Fact 2.1), and the
paper's three constructions (G_net of Theorem 1.1, theta-graphs of
Section 5.1, and the merged Euclidean graph of Theorem 1.3)."""

from repro.graphs.base import ProximityGraph
from repro.graphs.cones import ConeFamily, build_cone_family
from repro.graphs.dynamic import DynamicGNet
from repro.graphs.engine import (
    beam_search_batch,
    bulk_insert,
    greedy_batch,
    snapshot_graph,
)
from repro.graphs.gnet import (
    GNetBuildResult,
    GNetParameters,
    build_gnet,
    gnet_parameters,
)
from repro.graphs.greedy import BeamBatch, GreedyResult
from repro.graphs.merged import MergedBuildResult, build_merged_graph, jackpot_rate
from repro.graphs.navigability import (
    NavigabilityViolation,
    assert_navigable,
    check_navigability_for_query,
    find_violations,
)
from repro.graphs.theta import ThetaBuildResult, build_theta_graph, theta_for_epsilon
from repro.graphs.validate import (
    GreedyFailure,
    corrupt_graph,
    exhaustive_greedy_check,
    validate_proximity_graph,
)

__all__ = [
    "BeamBatch",
    "ConeFamily",
    "DynamicGNet",
    "GNetBuildResult",
    "GNetParameters",
    "GreedyFailure",
    "GreedyResult",
    "MergedBuildResult",
    "NavigabilityViolation",
    "ProximityGraph",
    "ThetaBuildResult",
    "assert_navigable",
    "beam_search_batch",
    "build_cone_family",
    "bulk_insert",
    "snapshot_graph",
    "build_gnet",
    "build_merged_graph",
    "build_theta_graph",
    "check_navigability_for_query",
    "corrupt_graph",
    "exhaustive_greedy_check",
    "find_violations",
    "gnet_parameters",
    "greedy_batch",
    "jackpot_rate",
    "validate_proximity_graph",
    "theta_for_epsilon",
]
