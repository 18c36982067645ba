"""Tests for the ProximityGraph container."""

from __future__ import annotations

import numpy as np
import pytest

from repro.graphs import ProximityGraph
from tests.conftest import saved_graphs


class TestConstruction:
    def test_empty(self):
        g = ProximityGraph(5)
        assert g.num_edges == 0
        assert all(len(g.out_neighbors(u)) == 0 for u in range(5))

    def test_self_loops_dropped(self):
        g = ProximityGraph(3, [np.array([0, 1]), np.array([1]), np.array([2, 0])])
        assert not g.has_edge(0, 0)
        assert not g.has_edge(1, 1)
        assert g.has_edge(0, 1)
        assert g.has_edge(2, 0)
        assert g.num_edges == 2

    def test_parallel_edges_collapsed(self):
        g = ProximityGraph.from_edge_list(3, [(0, 1), (0, 1), (0, 2)])
        assert g.num_edges == 2

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            ProximityGraph(2, [np.array([5]), np.array([])])

    def test_from_sets(self):
        g = ProximityGraph.from_sets(3, [{1, 2}, {0}, set()])
        assert g.num_edges == 3
        assert set(map(int, g.out_neighbors(0))) == {1, 2}


class TestMutation:
    def test_add_edges_dedups(self):
        g = ProximityGraph(4)
        g.add_edges(0, [1, 2])
        g.add_edges(0, [2, 3, 0])
        assert set(map(int, g.out_neighbors(0))) == {1, 2, 3}

    def test_set_out_neighbors(self):
        g = ProximityGraph(3)
        g.set_out_neighbors(1, [0, 2])
        g.set_out_neighbors(1, [2])
        assert list(g.out_neighbors(1)) == [2]


class TestStats:
    def test_degrees(self):
        g = ProximityGraph.from_edge_list(4, [(0, 1), (0, 2), (1, 3)])
        assert g.max_out_degree() == 2
        assert g.min_out_degree() == 0
        assert g.mean_out_degree() == pytest.approx(0.75)

    def test_degree_histogram(self):
        g = ProximityGraph.from_edge_list(4, [(0, 1), (0, 2), (1, 3)])
        assert g.degree_histogram() == {0: 2, 1: 1, 2: 1}

    def test_summary(self):
        g = ProximityGraph.from_edge_list(3, [(0, 1)])
        s = g.summary()
        assert s["n"] == 3 and s["edges"] == 1


class TestCombinators:
    def test_merge_unions_out_edges(self):
        a = ProximityGraph.from_edge_list(3, [(0, 1)])
        b = ProximityGraph.from_edge_list(3, [(0, 2), (1, 0)])
        m = a.merge(b)
        assert set(map(int, m.out_neighbors(0))) == {1, 2}
        assert m.has_edge(1, 0)
        assert a.num_edges == 1  # originals untouched

    def test_merge_size_mismatch(self):
        with pytest.raises(ValueError):
            ProximityGraph(2).merge(ProximityGraph(3))

    def test_subgraph_of_sources(self):
        g = ProximityGraph.from_edge_list(3, [(0, 1), (1, 2), (2, 0)])
        sub = g.subgraph_of_sources(np.array([1]))
        assert sub.num_edges == 1
        assert sub.has_edge(1, 2)
        assert not sub.has_edge(0, 1)
        assert sub.n == 3  # vertices retained (Section 5: only edges drop)

    def test_copy_independent(self):
        g = ProximityGraph.from_edge_list(2, [(0, 1)])
        c = g.copy()
        c.set_out_neighbors(0, [])
        assert g.has_edge(0, 1)

    def test_equality(self):
        a = ProximityGraph.from_edge_list(3, [(0, 1), (2, 1)])
        b = ProximityGraph.from_edge_list(3, [(2, 1), (0, 1)])
        assert a == b
        b.add_edges(1, [0])
        assert a != b


class TestFreezeThaw:
    def test_freeze_is_idempotent_and_preserves_adjacency(self):
        g = ProximityGraph.from_edge_list(4, [(0, 1), (0, 2), (2, 3)])
        rows = [list(map(int, g.out_neighbors(u))) for u in range(4)]
        assert not g.frozen
        assert g.freeze() is g and g.frozen
        g.freeze()  # no-op
        assert [list(map(int, g.out_neighbors(u))) for u in range(4)] == rows
        assert g.num_edges == 3

    def test_csr_layout(self):
        g = ProximityGraph.from_edge_list(4, [(0, 2), (0, 1), (2, 3)])
        offsets, targets = g.csr()
        assert g.frozen  # csr() freezes in place
        assert offsets.tolist() == [0, 2, 2, 3, 3]
        assert targets.tolist() == [1, 2, 3]

    def test_mutation_thaws_transparently(self):
        g = ProximityGraph.from_edge_list(3, [(0, 1)]).freeze()
        g.add_edges(0, [2])
        assert not g.frozen
        assert set(map(int, g.out_neighbors(0))) == {1, 2}
        g.freeze()
        g.set_out_neighbors(0, [2])
        assert list(map(int, g.out_neighbors(0))) == [2]

    def test_frozen_queries_and_stats(self):
        g = ProximityGraph.from_edge_list(4, [(0, 1), (0, 2), (1, 3)]).freeze()
        assert g.has_edge(0, 2) and not g.has_edge(0, 3)
        assert g.out_degrees().tolist() == [2, 1, 0, 0]
        assert g.degree_histogram() == {0: 2, 1: 1, 2: 1}
        assert sorted(g.edges()) == [(0, 1), (0, 2), (1, 3)]

    def test_copy_preserves_state(self):
        g = ProximityGraph.from_edge_list(3, [(0, 1)])
        assert not g.copy().frozen
        f = g.freeze().copy()
        assert f.frozen and f == g
        f.add_edges(1, [2])  # thaws the copy only
        assert g.frozen and not g.has_edge(1, 2)

    def test_equality_across_states(self):
        a = ProximityGraph.from_edge_list(3, [(0, 1), (2, 0)])
        b = a.copy().freeze()
        assert a == b and b == a

    def test_merge_accepts_frozen_inputs(self):
        a = ProximityGraph.from_edge_list(3, [(0, 1)]).freeze()
        b = ProximityGraph.from_edge_list(3, [(0, 2), (1, 0)]).freeze()
        m = a.merge(b)
        assert set(map(int, m.out_neighbors(0))) == {1, 2}
        assert a.frozen and b.frozen  # inputs untouched

    def test_from_csr_validates(self):
        with pytest.raises(ValueError):
            ProximityGraph.from_csr(
                2, np.array([0, 1, 1]), np.array([5])
            )  # id out of range
        with pytest.raises(ValueError):
            ProximityGraph.from_csr(
                2, np.array([0, 1, 1]), np.array([0])
            )  # self-loop


class TestPersistence:
    """The container through a saved index (v4 and v5), the one place a
    graph persists."""

    def test_roundtrip(self, tmp_path, rng):
        n = 20
        edges = [(int(rng.integers(n)), int(rng.integers(n))) for _ in range(100)]
        g = ProximityGraph.from_edge_list(n, edges)
        for loaded in saved_graphs(g, tmp_path):
            assert loaded == g

    def test_roundtrip_empty(self, tmp_path):
        g = ProximityGraph(4)
        for loaded in saved_graphs(g, tmp_path):
            assert loaded == g and loaded.num_edges == 0

    def test_edges_iterator(self):
        g = ProximityGraph.from_edge_list(3, [(0, 2), (1, 0)])
        assert sorted(g.edges()) == [(0, 2), (1, 0)]
