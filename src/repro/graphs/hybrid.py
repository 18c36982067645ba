"""EXPERIMENTAL: a probe at the paper's closing open question.

The paper ends Section 1.3 with: *"Our lower bounds, however, do not
rule out a (1+ε)-PG of O((1/ε)^λ·n + n log Δ) edges.  Finding a way to
meet this bound or arguing against its possibility would make an
interesting intellectual challenge."*

This module builds the natural candidate with exactly that edge budget —
a *net-tree navigation structure*:

* **spine** (the ``n log Δ`` part): every point links up and down to one
  covering net point per level above its own top level (≤ 2(h+1) edges
  per point);
* **own-scale laterals** (the ``(1/ε)^λ n`` part): every point links to
  all net points of *its own top level* within ``phi * 2^level`` —
  one full G_net level per point instead of all ``h`` of them.

The structure is NOT claimed to be a (1+ε)-PG — that is precisely the
open question.  :func:`probe_open_question` measures where greedy
navigability empirically breaks, giving the question quantitative
texture: how rare are the failures, and at which scales do they occur?
(Spoiler from bench A4: failures exist already on benign inputs, so this
*particular* candidate does not settle the question affirmatively.)
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.graphs.base import ProximityGraph
from repro.graphs.gnet import GNetParameters, gnet_parameters
from repro.graphs.navigability import find_violations
from repro.metrics.base import Dataset
from repro.nets.hierarchy import NetHierarchy

__all__ = ["HybridBuildResult", "build_hybrid_candidate", "probe_open_question"]


@dataclass
class HybridBuildResult:
    graph: ProximityGraph
    params: GNetParameters
    hierarchy: NetHierarchy
    top_level: np.ndarray  # each point's highest net level
    spine_edges: int
    lateral_edges: int


def build_hybrid_candidate(
    dataset: Dataset,
    epsilon: float,
    diameter: float | None = None,
) -> HybridBuildResult:
    """Build the spine + own-scale-laterals candidate structure; an
    explicit ``diameter`` fixes ``h`` before the net traversal, as in
    :func:`~repro.graphs.gnet.build_gnet`."""
    params = None if diameter is None else gnet_parameters(epsilon, diameter)
    hierarchy = NetHierarchy(dataset, height=None if params is None else params.height)
    if params is None:
        params = gnet_parameters(epsilon, 2.0 * hierarchy.max_insertion_distance)
    top = hierarchy.top_level

    out: list[set[int]] = [set() for _ in range(dataset.n)]
    spine = 0
    for p in range(dataset.n):
        for i in range(int(top[p]) + 1, params.height + 1):
            level_ids = hierarchy.level(i)
            d = dataset.distances_from_index(p, level_ids)
            anchor = int(level_ids[int(np.argmin(d))])
            if anchor != p and anchor not in out[p]:
                out[p].add(anchor)
                spine += 1
            if p != anchor and p not in out[anchor]:
                out[anchor].add(p)
                spine += 1

    lateral = 0
    for p in range(dataset.n):
        lvl = int(top[p])
        level_ids = hierarchy.level(lvl)
        radius = params.level_radius(lvl)
        d = dataset.distances_from_index(p, level_ids)
        for y in level_ids[d <= radius]:
            y = int(y)
            if y != p and y not in out[p]:
                out[p].add(y)
                lateral += 1

    return HybridBuildResult(
        graph=ProximityGraph(dataset.n, out),
        params=params,
        hierarchy=hierarchy,
        top_level=top,
        spine_edges=spine,
        lateral_edges=lateral,
    )


def probe_open_question(
    dataset: Dataset,
    epsilon: float,
    queries,
    gnet_edges: int | None = None,
) -> dict:
    """Build the candidate and report its budget and failure profile.

    Returns a dict with the candidate's edge split, the edge budget the
    open question allows (`(1/eps)^lambda n + n log Delta` with lambda
    instantiated as the coordinate dimension when available), and the
    number of navigability violations on the query sample.
    """
    result = build_hybrid_candidate(dataset, epsilon)
    violations = find_violations(
        result.graph, dataset, queries, epsilon, stop_at=None
    )
    n = dataset.n
    h = result.params.height
    points = np.asarray(dataset.points)
    lam = points.shape[1] if points.ndim == 2 else 2.0
    budget = (1.0 / epsilon) ** lam * n + n * max(h - 1, 1)
    out = {
        "n": n,
        "h": h,
        "edges": result.graph.num_edges,
        "spine_edges": result.spine_edges,
        "lateral_edges": result.lateral_edges,
        "open_question_budget": math.ceil(budget),
        "within_budget": result.graph.num_edges
        <= 64 * budget,  # generous constant, as O(.) allows
        "violations": len(violations),
        "queries": len(queries),
    }
    if gnet_edges is not None:
        out["gnet_edges"] = gnet_edges
        out["vs_gnet"] = round(result.graph.num_edges / gnet_edges, 3)
    return out
