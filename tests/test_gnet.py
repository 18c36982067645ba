"""Tests for the Theorem 1.1 construction (G_net)."""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest

from repro import ProximityGraphIndex, accel
from repro.accel import cbackend, dispatch
from repro.anns import BruteForceANN
from repro.graphs import build_gnet, find_violations, gnet_parameters, greedy_batch
from repro.graphs.gnet import GNetParameters
from repro.graphs.hybrid import build_hybrid_candidate
from repro.metrics import (
    ChebyshevMetric,
    CountingMetric,
    Dataset,
    EuclideanMetric,
    MetricSpace,
    MinkowskiMetric,
    TreeMetric,
)
from repro.metrics.scaling import normalize_min_distance
from tests.conftest import mixed_queries
from tests.reference import build_gnet_vectorized


def planted_pair_cube(rng, n: int, d: int, delta: float) -> np.ndarray:
    """Uniform points in the unit cube whose closest pair is points 0 and
    1 at distance exactly ``delta`` (every other pair is farther apart),
    so the aspect ratio — hence the G-net's height — does not depend on
    ``n`` or the seed.  The shape of the benchmark's ``build_gnet`` input."""
    direction = rng.normal(size=d)
    kept = [np.full(d, 0.5)]
    kept.append(kept[0] + delta * direction / np.linalg.norm(direction))
    while len(kept) < n:
        p = rng.uniform(size=d)
        if (np.linalg.norm(np.array(kept) - p, axis=1) >= 1.02 * delta).all():
            kept.append(p)
    return np.array(kept)


def assert_same_build(got, want) -> None:
    """Equal as *arrays* (CSR offsets and targets) and in the per-level
    bookkeeping, not merely as edge sets."""
    got_offsets, got_targets = got.graph.csr()
    want_offsets, want_targets = want.graph.csr()
    assert np.array_equal(got_offsets, want_offsets)
    assert np.array_equal(got_targets, want_targets)
    assert got.level_edge_counts == want.level_edge_counts
    assert got.level_sizes == want.level_sizes


class StretchedFirstAxis(MetricSpace):
    """A non-L_p metric over float rows: its balls are not inside L_inf
    boxes (the first coordinate counts a fifth, so a ball reaches five
    radii along it)."""

    def distance(self, a, b):
        return float(self.distances(a, np.asarray(b)[None, :])[0])

    def distances(self, a, batch):
        diff = np.abs(np.asarray(batch) - np.asarray(a)[None, :])
        return 0.2 * diff[:, 0] + diff[:, 1]


def definition_edges(dataset, res) -> set[tuple[int, int]]:
    """Section 2.1 read literally: (p, y) for every level i, every y in
    Y_i with D(p, y) <= phi * 2^i, y != p."""
    want: set[tuple[int, int]] = set()
    for i in range(res.params.height + 1):
        level = res.hierarchy.level(i)
        radius = res.params.level_radius(i)
        for p in range(dataset.n):
            d = dataset.distances_from_index(p, level)
            want.update((p, int(y)) for y in level[d <= radius] if int(y) != p)
    return want


class TestParameters:
    def test_formulas(self):
        # eps = 1: eta = ceil(log2 3) = 2, phi = 1 + 2^3 = 9.
        p = gnet_parameters(1.0, diameter=100.0)
        assert p.eta == 2
        assert p.phi == 9.0
        assert p.height == 7

    def test_eta_grows_with_shrinking_epsilon(self):
        etas = [gnet_parameters(eps, 16.0).eta for eps in [1.0, 0.5, 0.25, 0.125]]
        assert etas == sorted(etas)
        # eps = 1/2: eta = ceil(log2 5) = 3, phi = 17.
        assert gnet_parameters(0.5, 16.0).phi == 17.0

    def test_phi_at_least_nine(self):
        # The paper notes eta >= 2 and 9 <= phi = Theta(1/eps).
        for eps in [1.0, 0.7, 0.3, 0.1, 0.01]:
            p = gnet_parameters(eps, 64.0)
            assert p.eta >= 2
            assert p.phi >= 9.0
            assert p.phi <= 1 + 8 * (1 + 2 / eps)  # Theta(1/eps) upper ballpark

    def test_validation(self):
        with pytest.raises(ValueError):
            gnet_parameters(0.0, 10.0)
        with pytest.raises(ValueError):
            gnet_parameters(2.0, 10.0)
        with pytest.raises(ValueError):
            gnet_parameters(0.5, 1.0)

    def test_level_radius(self):
        p = GNetParameters(epsilon=1.0, height=5, eta=2, phi=9.0)
        assert p.level_radius(0) == 9.0
        assert p.level_radius(3) == 72.0

    def test_query_budget_positive(self):
        p = gnet_parameters(0.5, 256.0)
        assert p.query_budget(doubling_dimension=2.0) > 0


class TestEdgeSetDefinition:
    def test_edges_match_definition(self, uniform2d):
        """Every edge (p, y) must be witnessed by some level i with
        y in Y_i and D(p, y) <= phi * 2^i, and conversely."""
        res = build_gnet_vectorized(uniform2d, 1.0)
        assert set(res.graph.edges()) == definition_edges(uniform2d, res)

    def test_methods_agree_vectorized_grid(self, uniform2d):
        a = build_gnet_vectorized(uniform2d, 1.0)
        assert_same_build(build_gnet(uniform2d, epsilon=1.0), a)

    def test_methods_agree_vectorized_paper_cover_tree(self, clustered2d):
        a = build_gnet_vectorized(clustered2d, 1.0)
        b = build_gnet(clustered2d, epsilon=1.0, method="paper")
        assert a.graph == b.graph

    def test_methods_agree_paper_bruteforce(self, clustered2d):
        a = build_gnet_vectorized(clustered2d, 1.0)
        b = build_gnet(
            clustered2d,
            epsilon=1.0,
            method="paper",
            ann_factory=lambda ds, ids: BruteForceANN(ds, point_ids=ids),
        )
        assert a.graph == b.graph

    def test_auto_dispatch(self, uniform2d):
        res = build_gnet(uniform2d, epsilon=1.0, method="auto")
        ref = build_gnet_vectorized(uniform2d, 1.0)
        assert res.graph == ref.graph

    def test_auto_dispatches_on_the_metric_not_the_dtype(self, rng):
        """The default path serves any metric: on a non-L_p metric over
        float rows it still builds the definition's edge set, array for
        array the reference's."""
        pts = rng.uniform(0, 300, size=(70, 2))
        ds = Dataset(StretchedFirstAxis(), pts)
        res = build_gnet(ds, epsilon=1.0, method="auto")
        assert set(res.graph.edges()) == definition_edges(ds, res)
        assert_same_build(res, build_gnet_vectorized(ds, 1.0))

    def test_unknown_method(self, uniform2d):
        with pytest.raises(
            ValueError,
            match="unknown build method 'grid'; expected one of 'auto', 'paper'$",
        ):
            build_gnet(uniform2d, epsilon=1.0, method="grid")


class TestProposition21:
    def test_min_out_degree_at_least_one(self, uniform2d, clustered2d):
        for ds in (uniform2d, clustered2d):
            res = build_gnet(ds, epsilon=0.5)
            assert res.graph.min_out_degree() >= 1

    def test_no_self_loops(self, uniform2d):
        res = build_gnet(uniform2d, epsilon=1.0)
        for u in range(uniform2d.n):
            assert u not in set(map(int, res.graph.out_neighbors(u)))


class TestNavigability:
    @pytest.mark.parametrize("epsilon", [1.0, 0.5, 0.25])
    def test_no_violations_on_mixed_queries(self, uniform2d, rng, epsilon):
        res = build_gnet(uniform2d, epsilon=epsilon)
        queries = mixed_queries(uniform2d, rng, m=40)
        assert find_violations(
            res.graph, uniform2d, queries, epsilon, stop_at=None
        ) == []

    def test_no_violations_clustered(self, clustered2d, rng):
        res = build_gnet(clustered2d, epsilon=0.5)
        queries = mixed_queries(clustered2d, rng, m=40)
        assert find_violations(
            res.graph, clustered2d, queries, 0.5, stop_at=None
        ) == []

    def test_no_violations_3d(self, uniform3d, rng):
        res = build_gnet(uniform3d, epsilon=1.0)
        queries = [rng.uniform(-5, 30, size=3) for _ in range(25)]
        assert find_violations(
            res.graph, uniform3d, queries, 1.0, stop_at=None
        ) == []

    def test_on_tree_metric(self, rng):
        metric = TreeMetric(height=9)
        leaves = np.sort(rng.choice(metric.num_leaves, size=60, replace=False))
        ds = Dataset(metric, leaves.astype(np.int64))
        res = build_gnet_vectorized(ds, 1.0)
        queries = rng.integers(0, metric.num_leaves, size=60).tolist()
        assert find_violations(res.graph, ds, queries, 1.0, stop_at=None) == []


class TestQueryTimeTheory:
    def test_greedy_hits_ann_within_h_hops(self, uniform2d, rng):
        """Lemma 2.2's log-drop: within h non-ANN hops greedy reaches a
        (1+eps)-ANN (then keeps improving)."""
        eps = 0.5
        res = build_gnet(uniform2d, epsilon=eps)
        h = res.params.height
        for _ in range(20):
            q = rng.uniform(-5, 30, size=2)
            nn_dist = uniform2d.distances_to_query_all(q).min()
            start = int(rng.integers(uniform2d.n))
            result = greedy_batch(res.graph, uniform2d, [start], [q])[0]
            ann_positions = [
                k
                for k, p in enumerate(result.hops)
                if uniform2d.distance_to_query(q, p) <= (1 + eps) * nn_dist + 1e-12
            ]
            assert ann_positions, "greedy never reached a (1+eps)-ANN"
            assert ann_positions[0] <= h + 1

    def test_log_drop_property_along_trace(self, uniform2d, rng):
        """Inequality (12): between consecutive non-ANN hop vertices the
        value ceil(log2 D(p, p*)) strictly decreases."""
        eps = 0.5
        res = build_gnet(uniform2d, epsilon=eps)
        for _ in range(15):
            q = rng.uniform(-5, 30, size=2)
            dists = uniform2d.distances_to_query_all(q)
            p_star = int(np.argmin(dists))
            nn_dist = float(dists[p_star])
            start = int(rng.integers(uniform2d.n))
            trace = greedy_batch(res.graph, uniform2d, [start], [q])[0].hops
            logs = []
            for p in trace:
                if uniform2d.distance_to_query(q, p) > (1 + eps) * nn_dist + 1e-12:
                    d = uniform2d.distance(p, p_star)
                    logs.append(math.ceil(math.log2(d)) if d > 0 else -math.inf)
            assert all(a > b for a, b in zip(logs, logs[1:]))

    def test_max_degree_within_packing_bound(self, uniform2d):
        """Fact 2.3 degree analysis: out-degree <= (h+1) * (16 phi)^lambda
        with lambda ~ 2 for planar data (loose, but must hold)."""
        res = build_gnet(uniform2d, epsilon=1.0)
        bound = res.params.out_degree_bound(doubling_dimension=2.0)
        assert res.graph.max_out_degree() <= bound


class TestDiameterEstimates:
    def test_explicit_diameter_accepted(self, uniform2d):
        exact = uniform2d.diameter()
        res = build_gnet(uniform2d, epsilon=1.0, diameter=exact)
        assert res.params.height == math.ceil(math.log2(exact))

    def test_default_estimate_at_least_true_height(self, uniform2d):
        res = build_gnet(uniform2d, epsilon=1.0)
        assert res.params.height >= math.ceil(math.log2(uniform2d.diameter()))

    def test_level_bookkeeping(self, uniform2d):
        res = build_gnet(uniform2d, epsilon=1.0)
        assert len(res.level_sizes) == res.params.height + 1
        assert len(res.level_edge_counts) == res.params.height + 1
        assert sum(res.level_edge_counts) == res.graph.num_edges
        assert res.level_sizes[0] == uniform2d.n
        assert res.level_sizes[-1] >= 1


_METRICS = {
    "l2": EuclideanMetric,
    "linf": ChebyshevMetric,
    "l3": lambda: MinkowskiMetric(3.0),
}


class TestGridJoin:
    """The default build — G_net's edges recorded by the farthest-point
    traversal itself — against the level-by-level reference, array for
    array, on L_p coordinate data and on other metrics."""

    @pytest.mark.parametrize("dim", [2, 3, 5])
    @pytest.mark.parametrize("normalized", [True, False])
    @pytest.mark.parametrize("metric", sorted(_METRICS))
    def test_csr_and_bookkeeping_equal_reference(self, rng, metric, normalized, dim):
        pts = rng.uniform(0, 40, size=(130, dim))
        # Raw: a pair closer than 2^0, so Y_0 is a strict subset of P and
        # the point left out of it must receive no in-edge.
        pts[1] = pts[0] + 0.3
        ds = Dataset(_METRICS[metric](), pts)
        if normalized:
            ds, _ = normalize_min_distance(ds)
        got = build_gnet(ds, epsilon=1.0)
        assert_same_build(got, build_gnet_vectorized(ds, 1.0))
        if not normalized:
            assert got.level_sizes[0] < ds.n

    def test_tree_metric(self, rng):
        metric = TreeMetric(height=9)
        leaves = np.sort(rng.choice(metric.num_leaves, size=80, replace=False))
        ds = Dataset(metric, leaves.astype(np.int64))
        want = build_gnet_vectorized(ds, 0.5)
        assert_same_build(build_gnet(ds, epsilon=0.5), want)

    def test_stretched_axis_metric(self, rng):
        ds = Dataset(StretchedFirstAxis(), rng.uniform(0, 300, size=(90, 2)))
        want = build_gnet_vectorized(ds, 0.5)
        assert_same_build(build_gnet(ds, epsilon=0.5), want)

    @pytest.mark.parametrize("levels_off", [-2, 2])
    def test_explicit_diameter(self, uniform3d, levels_off):
        """A diameter above the derived height adds singleton top levels;
        one below it leaves several points in the top net, whose in-edges
        are capped at the top radius."""
        derived = build_gnet(uniform3d, epsilon=1.0).params.height
        diameter = 2.0 ** (derived + levels_off)
        got = build_gnet(uniform3d, epsilon=1.0, diameter=diameter)
        assert got.params.height == derived + levels_off
        assert got.hierarchy.height == got.params.height
        want = build_gnet_vectorized(uniform3d, 1.0, diameter=diameter)
        assert_same_build(got, want)
        if levels_off < 0:
            assert got.level_sizes[-1] > 1

    def test_benchmark_shaped_default_build(self, rng):
        """n = 1000, d = 3, planted closest pair, through the front door
        (normalization paid, method "auto")."""
        pts = planted_pair_cube(rng, 1000, 3, 0.02)
        index = ProximityGraphIndex.build(pts, epsilon=1.0, method="gnet")
        want = build_gnet_vectorized(index.dataset, 1.0)
        offsets, targets = index.graph.csr()
        want_offsets, want_targets = want.graph.csr()
        assert np.array_equal(offsets, want_offsets)
        assert np.array_equal(targets, want_targets)
        assert index.built.meta["level_edge_counts"] == want.level_edge_counts

    def test_default_build_evaluates_n_squared_distances(self, rng):
        """One row per point, nothing more: the traversal's n rows are
        the whole build, and the count repeats exactly."""
        pts = planted_pair_cube(rng, 600, 2, 0.004)
        ds, _ = normalize_min_distance(Dataset(EuclideanMetric(), pts))
        counting = CountingMetric(ds.metric)
        ds = Dataset(counting, pts)
        build_gnet(ds, epsilon=1.0)
        assert counting.reset() == ds.n * ds.n
        build_gnet(ds, epsilon=1.0)
        assert counting.count == ds.n * ds.n


needs_cffi = pytest.mark.skipif(
    "cffi" not in accel.available_backends(),
    reason="the compiled traversal needs cffi and a C compiler",
)


def on_numpy_loop(monkeypatch, build):
    """``build()`` with no compiled traversal or CSR tail: the reference."""
    with monkeypatch.context() as patch:
        patch.setattr(dispatch, "_traverse_ready", lambda: False)
        return build()


def assert_same_hierarchy(got, want) -> None:
    assert got.height == want.height
    assert np.array_equal(got.order, want.order)
    assert np.array_equal(got.insertion_distances, want.insertion_distances)
    assert np.array_equal(got.top_level, want.top_level)


@needs_cffi
class TestCompiledTraversal:
    """The compiled traversal and counting-sort CSR against the numpy
    loop, array for array: the hierarchy (order, insertion distances, top
    levels) and the build (CSR, level sizes, per-level edge counts)."""

    def check(self, monkeypatch, ds, **kw):
        got = build_gnet(ds, **kw)
        want = on_numpy_loop(monkeypatch, lambda: build_gnet(ds, **kw))
        assert_same_build(got, want)
        assert_same_hierarchy(got.hierarchy, want.hierarchy)
        return got

    @pytest.mark.parametrize("n", [250, 500, 1000])
    @pytest.mark.parametrize("seed", [7, 23])
    def test_benchmark_shaped_inputs(self, monkeypatch, seed, n):
        pts = planted_pair_cube(np.random.default_rng(seed), n, 3, 0.02)
        index = ProximityGraphIndex.build(pts, epsilon=1.0, method="gnet")
        want = on_numpy_loop(
            monkeypatch,
            lambda: ProximityGraphIndex.build(pts, epsilon=1.0, method="gnet"),
        )
        assert index.scale == want.scale
        for got_arr, want_arr in zip(index.graph.csr(), want.graph.csr()):
            assert np.array_equal(got_arr, want_arr)
        for key in ("params", "level_sizes", "level_edge_counts"):
            assert index.built.meta[key] == want.built.meta[key]
        assert_same_hierarchy(index.built.meta["hierarchy"], want.built.meta["hierarchy"])
        self.check(monkeypatch, index.dataset, epsilon=1.0)

    @pytest.mark.parametrize("dim", [2, 3, 5])
    @pytest.mark.parametrize("normalized", [True, False])
    @pytest.mark.parametrize("metric", ["l2", "linf"])
    def test_grid_join_inputs(self, monkeypatch, rng, metric, normalized, dim):
        pts = rng.uniform(0, 40, size=(130, dim))
        pts[1] = pts[0] + 0.3
        ds = Dataset(_METRICS[metric](), pts)
        if normalized:
            ds, _ = normalize_min_distance(ds)
        self.check(monkeypatch, ds, epsilon=1.0)

    @pytest.mark.parametrize("dim", [1, 2, 5, 16])
    @pytest.mark.parametrize("metric", ["l2", "linf"])
    def test_integer_grids(self, monkeypatch, rng, metric, dim):
        """Exact distances, so ties everywhere: the smaller-id tie-break
        and every threshold compare decide alike."""
        pts = np.unique(rng.integers(0, 12 if dim == 1 else 4, size=(150, dim)), axis=0)
        ds, _ = normalize_min_distance(Dataset(_METRICS[metric](), pts.astype(float)))
        for epsilon in (1.0, 0.3):
            self.check(monkeypatch, ds, epsilon=epsilon)

    @pytest.mark.parametrize("levels_off", [-2, 2])
    def test_explicit_diameter(self, monkeypatch, uniform3d, levels_off):
        derived = build_gnet(uniform3d, epsilon=1.0).params.height
        got = self.check(
            monkeypatch, uniform3d, epsilon=1.0, diameter=2.0 ** (derived + levels_off)
        )
        assert got.params.height == derived + levels_off

    def test_without_edges(self, monkeypatch, uniform2d):
        """No ``phi``: the order alone, for the reference builds and the
        hybrid candidate."""
        got = build_gnet_vectorized(uniform2d, 0.5)
        want = on_numpy_loop(monkeypatch, lambda: build_gnet_vectorized(uniform2d, 0.5))
        assert_same_build(got, want)
        assert_same_hierarchy(got.hierarchy, want.hierarchy)
        got = build_hybrid_candidate(uniform2d, 1.0)
        want = on_numpy_loop(monkeypatch, lambda: build_hybrid_candidate(uniform2d, 1.0))
        assert_same_hierarchy(got.hierarchy, want.hierarchy)
        for got_arr, want_arr in zip(got.graph.csr(), want.graph.csr()):
            assert np.array_equal(got_arr, want_arr)
        assert (got.spine_edges, got.lateral_edges) == (want.spine_edges, want.lateral_edges)

    def test_counting_wrapper_keeps_the_numpy_loop(self, monkeypatch, uniform2d):
        counting = CountingMetric(uniform2d.metric)
        got = self.check(monkeypatch, Dataset(counting, uniform2d.points), epsilon=1.0)
        assert_same_build(got, build_gnet(uniform2d, epsilon=1.0))

    def test_record_grows_by_resuming(self, monkeypatch, uniform3d):
        """A record of one edge per point overflows after the first row,
        is doubled again and again, and the traversal picks up where it
        stopped."""
        want = build_gnet(uniform3d, epsilon=1.0)
        monkeypatch.setattr(dispatch, "_TRAVERSE_EDGES_PER_POINT", 1)
        got = build_gnet(uniform3d, epsilon=1.0)
        assert_same_build(got, want)
        assert_same_hierarchy(got.hierarchy, want.hierarchy)

    def test_normalized_l2_build_computes_no_numpy_rows(self, monkeypatch, rng):
        def numpy_row(self, i):
            raise AssertionError("the numpy traversal ran")

        monkeypatch.setattr(Dataset, "distances_from_index_to_all", numpy_row)
        index = ProximityGraphIndex.build(
            rng.uniform(size=(300, 3)), epsilon=1.0, method="gnet"
        )
        assert index.graph.num_edges > 0

    def test_installs_nothing_for_auto_searches(self, uniform2d):
        accel.reset()
        try:
            build_gnet(uniform2d, epsilon=1.0)
            assert "cffi" in dispatch._CHECKED
            assert accel.get_backend() == "numpy"
            assert accel.warm("cffi")["compile_seconds"] == (
                dispatch._CHECKED["cffi"]["compile_seconds"]
            )  # checked once a process
        finally:
            accel.reset()

    def test_self_check_refuses_a_wrong_csr(self, monkeypatch):
        """A miscompiled tail (here: one target written to the wrong
        slot) is refused at warm time, before it builds anything."""
        real = cbackend.call

        def miswritten(name, *args):
            done = real(name, *args)
            if name == "repro_in_edge_csr":
                args[-1][[0, -1]] = args[-1][[-1, 0]]
            return done

        accel.reset()
        monkeypatch.setattr(cbackend, "call", miswritten)
        try:
            with pytest.raises(accel.AccelError, match="self-check"):
                accel.warm("cffi")
        finally:
            accel.reset()

    def test_a_refused_backend_leaves_the_numpy_loop(self, monkeypatch, uniform2d, caplog):
        def refuse():
            raise accel.AccelError("miscompiled")

        accel.reset()
        monkeypatch.setattr(dispatch, "_self_check", refuse)
        try:
            want = on_numpy_loop(monkeypatch, lambda: build_gnet(uniform2d, epsilon=1.0))
            with caplog.at_level("WARNING", logger="repro.accel"):
                assert_same_build(build_gnet(uniform2d, epsilon=1.0), want)
            assert "miscompiled" in caplog.text
            monkeypatch.setattr(dispatch, "_checked", None)  # never tried again
            assert_same_build(build_gnet(uniform2d, epsilon=1.0), want)
        finally:
            accel.reset()


def test_numpy_loop_without_cffi_is_silent(monkeypatch, uniform2d):
    """Where cffi is missing nothing was requested: no warning, no import."""
    accel.reset()
    monkeypatch.setattr(dispatch, "available_backends", lambda: [])
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            build_gnet(uniform2d, epsilon=1.0)
        assert not dispatch._CHECKED
    finally:
        accel.reset()
