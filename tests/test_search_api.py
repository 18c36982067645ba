"""The unified ``search()`` front door (ISSUE 3).

Contract under test:

* ``search()`` accepts one query or a batch and returns dense ``(m, k)``
  arrays of external ids and original-unit distances;
* ``search()`` returns bit-identical results to the raw engines
  (checked across three seeds);
* ``search()`` never emits a ``DeprecationWarning``;
* empty batches are handled cleanly everywhere (``m = 0``);
* repeated identical calls are reproducible by default — no shared-rng
  call-order dependence — and ``SearchParams(seed=..., starts=...)``
  override the draw;
* ``SearchParams(budget=...)`` caps distance evaluations in *both*
  engine modes (the beam path historically ignored it);
* ``allowed_ids`` filtering restricts results (never routing) and meets
  a recall floor against the masked brute-force ground truth.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro import ProximityGraphIndex, SearchParams
from repro.core.search import IdMap
from repro.graphs.engine import beam_search_batch, greedy_batch
from repro.metrics import Dataset, EuclideanMetric
from repro.workloads import uniform_cube


@pytest.fixture(scope="module")
def index():
    pts = uniform_cube(250, 2, np.random.default_rng(11))
    return ProximityGraphIndex.build(pts, epsilon=1.0, method="vamana", seed=4)


@pytest.fixture(scope="module")
def queries():
    return np.random.default_rng(23).uniform(size=(20, 2))


class TestShapes:
    def test_single_query_returns_1_by_k(self, index, queries):
        r = index.search(queries[0], k=3)
        assert r.single and r.ids.shape == (1, 3) and r.distances.shape == (1, 3)
        assert r.top1()[0] == int(r.ids[0, 0])

    def test_batch_returns_m_by_k(self, index, queries):
        r = index.search(queries, k=5)
        assert not r.single
        assert r.ids.shape == (20, 5)
        assert (np.diff(r.distances, axis=1) >= 0).all()  # ascending rows
        assert r.evals.shape == (20,)

    def test_greedy_mode_reports_hops(self, index, queries):
        r = index.search(queries, params=SearchParams(mode="greedy"))
        assert r.hops is not None and (r.hops >= 1).all()
        rb = index.search(queries, k=3)
        assert rb.hops is None

    def test_empty_batch(self, index):
        for empty in ([], np.empty((0, 2))):
            r = index.search(empty, k=4)
            assert r.ids.shape == (0, 4) and len(r) == 0
        stats = index.measure([])
        assert stats.num_queries == 0 and stats.max_distance_evals == 0

    def test_k_below_one_rejected(self, index, queries):
        with pytest.raises(ValueError, match="k must be"):
            index.search(queries, k=0)

    def test_greedy_with_k_above_one_rejected(self, index, queries):
        with pytest.raises(ValueError, match="greedy"):
            index.search(queries, k=2, params=SearchParams(mode="greedy"))

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown search mode"):
            SearchParams(mode="dfs")

    def test_distances_in_original_units(self, index, queries):
        pts = np.asarray(index.dataset.points)
        r = index.search(queries, k=1, params=SearchParams(mode="greedy"))
        for i in range(len(queries)):
            pid = int(r.ids[i, 0])
            assert r.distances[i, 0] == pytest.approx(
                float(np.linalg.norm(pts[pid] - queries[i])), rel=1e-9
            )


class TestLegacyShimEquivalence:
    """``search()`` stays bit-identical to the raw engines the removed
    legacy query methods used to call, across three seeds."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_greedy_paths_bit_identical(self, seed):
        rng = np.random.default_rng(seed)
        pts = uniform_cube(150, 2, rng)
        index = ProximityGraphIndex.build(pts, epsilon=1.0, method="gnet", seed=seed)
        queries = rng.uniform(size=(15, 2))
        starts = rng.integers(index.n, size=15)

        raw = greedy_batch(index.graph, index.dataset, starts, queries)
        expect = [(r.point, r.distance / index.scale) for r in raw]

        via_search = index.search(
            queries, k=1, params=SearchParams(mode="greedy", starts=starts)
        )
        got_search = [
            (int(via_search.ids[i, 0]), float(via_search.distances[i, 0]))
            for i in range(15)
        ]
        assert got_search == expect

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_beam_paths_bit_identical(self, seed):
        rng = np.random.default_rng(seed)
        pts = uniform_cube(150, 2, rng)
        index = ProximityGraphIndex.build(pts, epsilon=1.0, method="vamana", seed=seed)
        queries = rng.uniform(size=(12, 2))
        starts = rng.integers(index.n, size=12)
        k, width = 4, 16

        raw = beam_search_batch(
            index.graph, index.dataset, starts, queries, beam_width=width, k=k
        )
        expect = [
            [(v, d / index.scale) for v, d in zip(ids.tolist(), dists.tolist()) if v >= 0]
            for ids, dists in zip(raw.ids, raw.dists)
        ]

        via_search = index.search(
            queries,
            k=k,
            params=SearchParams(mode="beam", beam_width=width, starts=starts),
        )
        assert [via_search.pairs(i) for i in range(12)] == expect


class TestDeprecationWarnings:
    def test_search_never_warns(self, index, queries):
        with warnings.catch_warnings(record=True) as w:
            warnings.simplefilter("always")
            index.search(queries, k=3)
        assert [x for x in w if issubclass(x.category, DeprecationWarning)] == []


class TestReproducibility:
    def test_identical_calls_identical_results(self, index, queries):
        a = index.search(queries, k=3)
        # interleave unrelated work that used to perturb shared rng state
        index.search(queries[:5], k=2)
        index.measure(queries[:5])
        b = index.search(queries, k=3)
        assert np.array_equal(a.ids, b.ids)
        assert np.array_equal(a.distances, b.distances)

    def test_measure_is_reproducible(self, index, queries):
        a = index.measure(queries)
        index.measure(queries[:3])  # would have advanced the old shared rng
        b = index.measure(queries)
        assert a.mean_distance_evals == b.mean_distance_evals
        assert a.recall_at_1 == b.recall_at_1

    def test_seed_changes_the_draw(self, index, queries):
        base = index.search(queries, params=SearchParams(mode="greedy"))
        seeded = index.search(queries, params=SearchParams(mode="greedy", seed=123))
        # distinct seeds draw distinct starts; evals will differ somewhere
        assert not np.array_equal(base.evals, seeded.evals)

    def test_explicit_starts_override_seed(self, index, queries):
        starts = np.zeros(len(queries), dtype=np.intp)
        a = index.search(queries, params=SearchParams(starts=starts, seed=5))
        b = index.search(queries, params=SearchParams(starts=starts, seed=99))
        assert np.array_equal(a.ids, b.ids)


class TestBudgetParity:
    def test_beam_budget_caps_evals(self, index, queries):
        capped = index.search(
            queries, k=5, params=SearchParams(mode="beam", budget=40)
        )
        assert (capped.evals <= 40).all()
        free = index.search(queries, k=5, params=SearchParams(mode="beam"))
        assert free.evals.max() > 40  # the cap actually bound something

    def test_greedy_budget_caps_evals(self, index, queries):
        capped = index.search(
            queries, params=SearchParams(mode="greedy", budget=10)
        )
        assert (capped.evals <= 10).all()

    def test_query_k_budget_now_honored(self, index, queries):
        """A single beam query from an explicit start honours the budget."""
        free = index.search(
            queries[0], k=3, params=SearchParams(mode="beam", starts=[0])
        )
        r = index.search(
            queries[0],
            k=3,
            params=SearchParams(mode="beam", budget=25, starts=[0]),
        )
        assert r.pairs(0)  # still returns something
        assert int(r.evals[0]) <= 25 < int(free.evals[0])


class TestFilteredSearch:
    def test_filter_restricts_results(self, index, queries):
        allowed = np.arange(0, index.n, 2)  # even external ids only
        r = index.search(
            queries, k=8, params=SearchParams(allowed_ids=allowed, beam_width=48)
        )
        found = r.ids[r.ids >= 0]
        assert len(found) and (found % 2 == 0).all()

    def test_unknown_filter_ids_ignored(self, index, queries):
        r = index.search(
            queries[:3],
            k=2,
            params=SearchParams(allowed_ids=[0, 1, 10**9], beam_width=8),
        )
        assert set(r.ids[r.ids >= 0].tolist()) <= {0, 1}

    def test_empty_filter_returns_padding(self, index, queries):
        r = index.search(queries[:4], k=3, params=SearchParams(allowed_ids=[]))
        assert (r.ids == -1).all() and np.isinf(r.distances).all()

    @pytest.mark.parametrize("selectivity", [0.5, 0.1])
    def test_filter_recall_floor_vs_masked_brute_force(self, selectivity):
        """Filtered beam search must reach what brute force finds on the
        allowed subset (recall@10 floor on the pinned workload), also
        when only a tenth of the points are allowed."""
        rng = np.random.default_rng(2025)
        pts = uniform_cube(1000, 2, rng)
        index = ProximityGraphIndex.build(pts, epsilon=1.0, method="vamana", seed=42)
        queries = rng.uniform(size=(100, 2))
        allowed = np.flatnonzero(rng.uniform(size=1000) < selectivity)

        ds = Dataset(EuclideanMetric(), pts[allowed])
        hits, total = 0, 0
        r = index.search(
            queries,
            k=10,
            params=SearchParams(allowed_ids=allowed, beam_width=64, seed=7),
        )
        for i, q in enumerate(queries):
            dists = ds.distances_to_query_all(q)
            gt = set(allowed[np.argsort(dists, kind="stable")[:10]].tolist())
            got = set(r.ids[i][r.ids[i] >= 0].tolist())
            assert got <= set(allowed.tolist())
            hits += len(got & gt)
            total += 10
        assert hits / total >= 0.95, f"filtered recall@10 {hits / total:.3f}"

    def test_greedy_filter_returns_best_allowed_seen(self, index):
        """Greedy mode with a filter reports the closest allowed vertex
        the walk evaluated — never a disallowed one."""
        pts = np.asarray(index.dataset.points)
        allowed = np.arange(1, index.n, 2)  # odd ids
        qs = pts[:10]
        r = index.search(
            qs, params=SearchParams(mode="greedy", allowed_ids=allowed, starts=[0] * 10)
        )
        found = r.ids[r.ids >= 0]
        assert (found % 2 == 1).all()


class TestIdMapUnit:
    def test_identity_and_custom(self):
        m = IdMap.identity(4)
        assert m.is_identity() and len(m) == 4
        custom = IdMap([10, 20, 30])
        assert not custom.is_identity()
        assert custom.to_internal([20, 10]).tolist() == [1, 0]
        assert custom.to_external([2, -1, 0]).tolist() == [30, -1, 10]

    def test_duplicate_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            IdMap([1, 1])

    def test_unknown_raises_and_known_filter_drops(self):
        m = IdMap([5, 6])
        with pytest.raises(KeyError, match="unknown external id"):
            m.to_internal([7])
        assert m.to_internal_known([5, 7, 6]).tolist() == [0, 1]

    def test_assign_fresh_never_recycles(self):
        m = IdMap([0, 1, 2])
        assert m.assign(2).tolist() == [3, 4]
        compacted = m.compact(np.array([0, 1, 3]))  # drop ids 2 and 4
        assert compacted.externals.tolist() == [0, 1, 3]
        assert compacted.assign(1).tolist() == [5]  # not a recycled 2 or 4

    def test_assign_keeps_the_reverse_map_lazy_and_in_step(self):
        lazy = IdMap.identity(3)
        lazy.assign(2)
        assert lazy._reverse is None  # fresh ids need no lookup: no O(n) dict
        assert lazy.to_internal([4, 0]).tolist() == [4, 0]
        built = IdMap.identity(3)
        assert 2 in built  # forces the reverse map
        built.assign(2, [40, 30])
        assert built.to_internal([30, 40, 2]).tolist() == [4, 3, 2]

    def test_assign_explicit_clash_rejected(self):
        m = IdMap([0, 1])
        with pytest.raises(ValueError, match="already in use"):
            m.assign(1, [1])
        with pytest.raises(ValueError, match="unique"):
            m.assign(2, [7, 7])
