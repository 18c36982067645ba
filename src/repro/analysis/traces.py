"""Greedy-trace introspection: turn a hop sequence into the quantities
the paper's analysis tracks.

For each hop vertex ``p`` of a greedy run the Section 2.3 argument
watches two numbers: ``D(p, q)`` (strictly decreasing by construction)
and ``ceil(log2 D(p, p*))`` (strictly decreasing while ``p`` is not yet
a (1+eps)-ANN — the log-drop of Lemma 2.2).  :func:`trace_report`
computes both per hop, flags where the ANN threshold was first crossed,
and renders a compact text view used by examples and debugging sessions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.graphs.base import ProximityGraph
from repro.graphs.engine import greedy_batch
from repro.metrics.base import Dataset

__all__ = ["HopRecord", "TraceReport", "trace_report"]


@dataclass(frozen=True)
class HopRecord:
    """One hop of a greedy run, annotated with the analysis quantities."""

    hop: int
    vertex: int
    distance_to_query: float
    distance_to_nn: float
    log_scale: float  # ceil(log2 D(p, p*)), -inf at p* itself
    is_ann: bool


@dataclass(frozen=True)
class TraceReport:
    """Annotated greedy run."""

    records: tuple[HopRecord, ...]
    epsilon: float
    nn_vertex: int
    nn_distance: float
    first_ann_hop: int | None
    distance_evals: int

    @property
    def hops(self) -> int:
        return len(self.records)

    def log_drops_strict(self) -> bool:
        """Lemma 2.2's guarantee, evaluated on this run: the log scale
        strictly decreases across consecutive *non-ANN* hops."""
        scales = [r.log_scale for r in self.records if not r.is_ann]
        return all(a > b for a, b in zip(scales, scales[1:]))

    def render(self, width: int = 40) -> str:
        """Compact text view: one line per hop, a bar for D(p, q)."""
        if not self.records:
            return "(empty trace)"
        top = self.records[0].distance_to_query or 1.0
        lines = [
            f"greedy trace: {self.hops} hops, {self.distance_evals} distance "
            f"evals, NN = vertex {self.nn_vertex} @ {self.nn_distance:.4g}"
        ]
        for r in self.records:
            bar = "#" * max(1, int(width * r.distance_to_query / top))
            mark = " <- (1+eps)-ANN" if r.hop == self.first_ann_hop else ""
            scale = "-inf" if r.log_scale == -math.inf else f"{r.log_scale:.0f}"
            lines.append(
                f"  hop {r.hop:3d}  v={r.vertex:5d}  D(p,q)={r.distance_to_query:10.4g}"
                f"  ceil(lg D(p,p*))={scale:>5s}  |{bar}{mark}"
            )
        return "\n".join(lines)


def trace_report(
    graph: ProximityGraph,
    dataset: Dataset,
    p_start: int,
    q: Any,
    epsilon: float,
    budget: int | None = None,
) -> TraceReport:
    """Run greedy and annotate every hop with the analysis quantities."""
    result = greedy_batch(graph, dataset, [p_start], [q], budget=budget)[0]
    dists = dataset.distances_to_query_all(q)
    nn_vertex = int(np.argmin(dists))
    nn_distance = float(dists[nn_vertex])
    threshold = (1.0 + epsilon) * nn_distance * (1.0 + 1e-12)

    records = []
    first_ann = None
    for k, p in enumerate(result.hops):
        d_q = float(dists[p])
        d_star = dataset.distance(p, nn_vertex)
        log_scale = math.ceil(math.log2(d_star)) if d_star > 0 else -math.inf
        is_ann = d_q <= threshold
        if is_ann and first_ann is None:
            first_ann = k
        records.append(
            HopRecord(
                hop=k,
                vertex=int(p),
                distance_to_query=d_q,
                distance_to_nn=d_star,
                log_scale=log_scale,
                is_ann=is_ann,
            )
        )
    return TraceReport(
        records=tuple(records),
        epsilon=epsilon,
        nn_vertex=nn_vertex,
        nn_distance=nn_distance,
        first_ann_hop=first_ann,
        distance_evals=result.distance_evals,
    )
