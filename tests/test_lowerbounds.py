"""Tests for the Theorem 1.2 hard instances and executable adversaries."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import build_complete_graph
from repro.graphs import build_gnet, find_violations
from repro.lowerbounds import (
    attack_block_graph,
    attack_tree_graph,
    build_block_instance,
    build_tree_instance,
)



def _without_edge(g, u, v):
    """``g`` less its edge ``(u, v)``."""
    sources = np.repeat(np.arange(g.n), g.out_degrees())
    return g.without_edges((sources == u) & (g.csr()[1] == v))

class TestTreeInstanceConstruction:
    def test_paper_preconditions_enforced(self):
        with pytest.raises(ValueError, match="powers of two"):
            build_tree_instance(10, 128)
        with pytest.raises(ValueError, match="n\\^2"):
            build_tree_instance(64, 8)  # 2*Delta < n^2

    def test_relaxed_mode(self):
        inst = build_tree_instance(8, 32, strict=False)
        assert inst.dataset.n == 8 + len(inst.p2)

    def test_sizes_and_disjointness(self):
        inst = build_tree_instance(16, 128)
        assert len(inst.p1) == 16
        assert len(inst.p2) == inst.height - inst.height // 2
        p1_leaves = set(inst.dataset.points[inst.p1].tolist())
        p2_leaves = set(inst.dataset.points[inst.p2].tolist())
        assert not (p1_leaves & p2_leaves)
        # |P| between n and 3n/2 (paper's accounting).
        assert 16 <= inst.dataset.n <= 24

    def test_aspect_ratio_is_delta(self):
        inst = build_tree_instance(16, 128)
        assert inst.dataset.diameter() == 2 * 128  # diam = 2^h = 2 Delta
        assert inst.dataset.min_interpoint_distance() == 2.0
        assert inst.dataset.aspect_ratio() == 128

    def test_required_edge_count_formula(self):
        inst = build_tree_instance(16, 128)
        assert inst.required_edge_count == len(inst.p1) * len(inst.p2)
        assert inst.required_edge_count == len(list(inst.required_edges()))


class TestTreeLowerBound:
    def test_gnet_contains_all_required_edges(self):
        """Consistency: G_net at eps=1 is a 2-PG, so it must carry every
        P1 x P2 edge — the lower bound is tight against our own builder."""
        inst = build_tree_instance(16, 128)
        res = build_gnet(inst.dataset, epsilon=1.0)
        assert inst.missing_required_edges(res.graph) == []
        assert res.graph.num_edges >= inst.required_edge_count

    def test_gnet_exhaustively_navigable_on_all_of_m(self):
        """The query universe M (all 2*Delta leaves) is finite: check
        Fact 2.1 on every single query point."""
        inst = build_tree_instance(4, 16, strict=False)
        res = build_gnet(inst.dataset, epsilon=1.0)
        violations = find_violations(
            res.graph, inst.dataset, list(inst.all_metric_points()), 1.0,
            stop_at=None,
        )
        assert violations == []

    def test_complete_graph_survives_attack(self):
        inst = build_tree_instance(8, 64, strict=False)
        g = build_complete_graph(inst.dataset)
        assert attack_tree_graph(g, inst) is None

    def test_attack_defeats_any_single_missing_edge(self):
        """Remove each required edge in turn: the adversary must produce a
        valid certificate every time (the Section 3 case analysis)."""
        inst = build_tree_instance(4, 16, strict=False)
        base = build_complete_graph(inst.dataset)
        for v1, v2 in list(inst.required_edges())[:12]:
            g = _without_edge(base, v1, v2)
            cert = attack_tree_graph(g, inst)
            assert cert is not None, f"adversary failed on missing edge {(v1, v2)}"
            assert cert.is_valid()
            assert cert.missing_edge == (v1, v2)
            assert cert.returned_distance > 0  # stuck away from the NN

    def test_certificate_reports_greedy_stuck_at_start(self):
        inst = build_tree_instance(4, 16, strict=False)
        v1, v2 = next(inst.required_edges())
        g = _without_edge(build_complete_graph(inst.dataset), v1, v2)
        cert = attack_tree_graph(g, inst)
        # The Section 3 analysis: no out-neighbor improves, so greedy
        # cannot leave v1.
        assert cert.returned_point == v1

    def test_edge_count_grows_like_n_log_delta(self):
        """The bound n * floor(h/2) grows linearly in log Delta at fixed n."""
        counts = [
            build_tree_instance(8, delta, strict=False).required_edge_count
            for delta in [32, 128, 512]
        ]
        diffs = np.diff(counts)
        assert (diffs > 0).all()
        assert abs(diffs[1] - diffs[0]) <= 8  # linear in log2(Delta): equal steps


class TestBlockInstanceConstruction:
    def test_sizes(self):
        inst = build_block_instance(side=3, copies=2, dim=2)
        assert inst.n == 9 * 2
        assert inst.epsilon == pytest.approx(1 / 6)
        assert inst.required_edge_count == 9 * 8 * 2

    def test_normalized_dataset_min_distance(self):
        inst = build_block_instance(side=3, copies=2, dim=2)
        norm = inst.normalized_dataset()
        assert norm.min_interpoint_distance() == pytest.approx(2.0)

    def test_aspect_ratio_linear_in_n(self):
        inst = build_block_instance(side=2, copies=5, dim=1)
        assert inst.dataset.aspect_ratio() < 2 * inst.side * inst.copies


class TestBlockLowerBound:
    def test_gnet_contains_all_intra_block_edges(self):
        """G_net at eps = 1/(2s) must survive Alice — so it carries every
        intra-block edge."""
        inst = build_block_instance(side=2, copies=2, dim=2)
        res = build_gnet(inst.normalized_dataset(), epsilon=inst.epsilon)
        assert inst.missing_required_edges(res.graph) == []
        assert res.graph.num_edges >= inst.required_edge_count

    def test_complete_graph_survives(self):
        inst = build_block_instance(side=2, copies=2, dim=1)
        g = build_complete_graph(inst.dataset)
        assert attack_block_graph(g, inst) is None

    def test_attack_defeats_each_missing_intra_block_edge(self):
        inst = build_block_instance(side=2, copies=2, dim=1)
        base = build_complete_graph(inst.dataset)
        for p1, p2 in list(inst.required_edges())[:8]:
            g = _without_edge(base, p1, p2)
            cert = attack_block_graph(g, inst)
            assert cert is not None and cert.is_valid()
            assert cert.missing_edge == (p1, p2)

    def test_attack_certificate_distances(self):
        inst = build_block_instance(side=3, copies=2, dim=2)
        base = build_complete_graph(inst.dataset)
        p1, p2 = next(inst.required_edges())
        g = _without_edge(base, p1, p2)
        cert = attack_block_graph(g, inst)
        assert cert.nn_distance == inst.side - 1
        assert cert.returned_distance >= inst.side

    def test_cross_block_edges_unnecessary(self):
        """The bound is about *intra*-block pairs only: a graph with all
        intra-block cliques plus a block-path survives the adversary."""
        inst = build_block_instance(side=2, copies=3, dim=1)
        edges = list(inst.required_edges())
        # chain the blocks so greedy can travel between them
        for b in range(inst.copies - 1):
            edges.append((int(inst.metric.block_members(b)[0]),
                          int(inst.metric.block_members(b + 1)[0])))
            edges.append((int(inst.metric.block_members(b + 1)[0]),
                          int(inst.metric.block_members(b)[0])))
        from repro.graphs import ProximityGraph

        g = ProximityGraph.from_edge_list(inst.n, edges)
        assert attack_block_graph(g, inst) is None

    def test_committed_navigability_exhaustive(self):
        """For every choice of p*, the complete graph is (1+eps)-navigable
        under D_{p*} on the full finite universe P + {q}."""
        inst = build_block_instance(side=2, copies=1, dim=2)
        g = build_complete_graph(inst.dataset)
        for p_star in range(inst.n):
            ds, qid = inst.committed_dataset(p_star)
            queries = list(range(inst.n)) + [qid]
            assert find_violations(g, ds, queries, inst.epsilon, stop_at=None) == []

    def test_required_edges_scale(self):
        """Omega(s^d * n): growing s at fixed n-scale grows edges/point."""
        per_point = []
        for s in [2, 3, 4]:
            inst = build_block_instance(side=s, copies=2, dim=2)
            per_point.append(inst.required_edge_count / inst.n)
        assert per_point == sorted(per_point)
