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
        g = ProximityGraph(3, [{1, 2}, {0}, set()])
        assert g.num_edges == 3
        assert set(map(int, g.out_neighbors(0))) == {1, 2}

    def test_row_count_must_equal_n(self):
        with pytest.raises(ValueError, match="length must equal n"):
            ProximityGraph(3, [[1], [0]])

    @pytest.mark.parametrize("seed", range(6))
    def test_equals_per_row_unique_cleaning(self, seed):
        """One vectorised pass gives exactly the rows that cleaning each
        row on its own does: ``np.unique``, then the self-loop dropped.
        The rows mix duplicates, self-loops and empty rows, and come as
        lists, sets and arrays."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 40))
        rows = []
        for u in range(n):
            row = rng.integers(0, n, size=int(rng.integers(0, 12)))
            if rng.random() < 0.3:
                row = np.append(row, [u, u])
            rows.append([row.tolist(), set(row.tolist()), row][u % 3])
        g = ProximityGraph(n, rows)
        for u, row in enumerate(rows):
            want = np.unique(np.fromiter(row, dtype=np.intp))
            got = g.out_neighbors(u)
            assert got.dtype == np.int32
            assert np.array_equal(got, want[want != u])
        assert g == ProximityGraph.from_csr(n, *g.csr())  # the CSR invariant holds


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
        assert c == g
        assert not np.shares_memory(c.csr()[1], g.csr()[1])

    def test_equality(self):
        a = ProximityGraph.from_edge_list(3, [(0, 1), (2, 1)])
        b = ProximityGraph.from_edge_list(3, [(2, 1), (0, 1)])
        assert a == b
        assert a != ProximityGraph.from_edge_list(3, [(2, 1), (0, 1), (1, 0)])
        assert a != ProximityGraph.from_edge_list(4, [(2, 1), (0, 1)])


class TestWithoutEdges:
    def test_drops_the_masked_edges_only(self):
        g = ProximityGraph.from_edge_list(4, [(0, 1), (0, 2), (1, 3), (2, 0), (3, 1)])
        drop = np.array([False, True, False, True, False])  # (0, 2) and (2, 0)
        h = g.without_edges(drop)
        assert sorted(h.edges()) == [(0, 1), (1, 3), (3, 1)]
        assert h.n == 4 and h.out_degrees().tolist() == [1, 1, 0, 1]
        assert g.num_edges == 5  # the original is untouched

    def test_nothing_and_everything(self):
        g = ProximityGraph.from_edge_list(3, [(0, 1), (1, 2), (2, 0)])
        assert g.without_edges(np.zeros(3, dtype=bool)) == g
        assert g.without_edges(np.ones(3, dtype=bool)) == ProximityGraph(3)

    def test_mask_must_cover_every_edge(self):
        g = ProximityGraph.from_edge_list(3, [(0, 1), (1, 2)])
        with pytest.raises(ValueError, match="one entry per edge"):
            g.without_edges(np.zeros(3, dtype=bool))


class TestCSR:
    def test_csr_layout(self):
        g = ProximityGraph.from_edge_list(4, [(0, 2), (0, 1), (2, 3)])
        offsets, targets = g.csr()
        assert offsets.tolist() == [0, 2, 2, 3, 3]
        assert targets.tolist() == [1, 2, 3]

    @pytest.mark.parametrize(
        "build",
        [
            lambda: ProximityGraph(3, [[1, 2], [0], []]),
            lambda: ProximityGraph.from_edge_list(3, [(0, 1), (0, 2), (1, 0)]),
            lambda: ProximityGraph.from_csr(3, np.array([0, 2, 3, 3]), np.array([1, 2, 0])),
            lambda: ProximityGraph(3, [[1], [0], []]).merge(ProximityGraph(3, [[2], [], []])),
        ],
        ids=["rows", "edge_list", "from_csr", "merge"],
    )
    def test_views_are_read_only(self, build):
        """No caller can edit a graph in place: writing through ``csr()``
        or ``out_neighbors`` raises, and the graph stays as it was."""
        g = build()
        offsets, targets = g.csr()
        with pytest.raises(ValueError, match="read-only"):
            targets[0] = 2
        with pytest.raises(ValueError, match="read-only"):
            offsets[1] = 0
        with pytest.raises(ValueError, match="read-only"):
            g.out_neighbors(0)[:] = 0
        assert sorted(g.edges()) == [(0, 1), (0, 2), (1, 0)]

    def test_from_csr_leaves_the_callers_arrays_writable(self):
        offsets, targets = np.array([0, 1, 1]), np.array([1])
        ProximityGraph.from_csr(2, offsets, targets)
        targets[0] = 1  # still the caller's own array to write

    def test_queries_and_stats(self):
        g = ProximityGraph.from_edge_list(4, [(0, 1), (0, 2), (1, 3)])
        assert g.has_edge(0, 2) and not g.has_edge(0, 3)
        assert g.out_degrees().tolist() == [2, 1, 0, 0]
        assert g.degree_histogram() == {0: 2, 1: 1, 2: 1}
        assert sorted(g.edges()) == [(0, 1), (0, 2), (1, 3)]

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
