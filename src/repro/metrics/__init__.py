"""Metric-space substrate: abstract metrics, concrete families, accounting,
normalization, and doubling-dimension tooling.

See :mod:`repro.metrics.base` for the core interfaces.
"""

from repro.metrics.adversarial import AdversaryNotCommittedError, BlockAdversarialMetric
from repro.metrics.arena import ArenaSpec, AttachedArena, SharedArena, attach
from repro.metrics.base import Dataset, ExplicitMatrixMetric, MetricSpace, ScaledMetric
from repro.metrics.counting import CountingMetric
from repro.metrics.doubling import (
    check_packing,
    estimate_doubling_constant,
    greedy_half_radius_cover,
    packing_bound,
)
from repro.metrics.euclidean import (
    ChebyshevMetric,
    EuclideanMetric,
    MinkowskiMetric,
    lp_decompose,
)
from repro.metrics.scaling import (
    SpreadEstimate,
    estimate_extremes,
    normalize_min_distance,
    spread_parameters,
)
from repro.metrics.specs import metric_from_spec, metric_to_spec
from repro.metrics.tree_metric import TreeMetric, lca_level

__all__ = [
    "AdversaryNotCommittedError",
    "ArenaSpec",
    "AttachedArena",
    "BlockAdversarialMetric",
    "SharedArena",
    "attach",
    "ChebyshevMetric",
    "CountingMetric",
    "Dataset",
    "EuclideanMetric",
    "ExplicitMatrixMetric",
    "MetricSpace",
    "MinkowskiMetric",
    "ScaledMetric",
    "SpreadEstimate",
    "TreeMetric",
    "check_packing",
    "estimate_doubling_constant",
    "estimate_extremes",
    "greedy_half_radius_cover",
    "lca_level",
    "lp_decompose",
    "metric_from_spec",
    "metric_to_spec",
    "normalize_min_distance",
    "packing_bound",
    "spread_parameters",
]
