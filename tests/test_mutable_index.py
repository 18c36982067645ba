"""Mutation of a built index: add / delete / compact with stable ids.

Contract under test (ISSUE 3):

* ``add()`` grows the collection; new points are findable, old external
  ids keep their meaning, and a rejected batch leaves the index
  untouched (dynamic mode pre-validates);
* the ``gnet`` dynamic path maintains Theorem 1.1's invariants — the
  index stays ``guaranteed`` and navigability-clean after insertions —
  while the generic repair path honestly drops the guarantee flag;
* ``delete()`` tombstones by external id: deleted points never appear
  in results but still route; ``compact()`` rebuilds over the survivors
  with equivalent answers (tombstone-then-compact equivalence);
* persistence v2 round-trips the id map and tombstone mask, and v1
  files (written before mutability) still load.
"""

from __future__ import annotations


import numpy as np
import pytest

from repro import ProximityGraphIndex, SearchParams
from repro.metrics import Dataset, EuclideanMetric
from repro.workloads import uniform_cube


def brute_force_knn(pts: np.ndarray, q: np.ndarray, k: int) -> list[int]:
    d = np.linalg.norm(pts - q, axis=1)
    return np.argsort(d, kind="stable")[:k].tolist()


@pytest.fixture()
def vamana_index():
    pts = uniform_cube(200, 2, np.random.default_rng(8))
    return ProximityGraphIndex.build(pts, epsilon=1.0, method="vamana", seed=5)


class TestAddRepair:
    def test_added_points_are_findable(self, vamana_index):
        idx = vamana_index
        rng = np.random.default_rng(1)
        new = rng.uniform(size=(40, 2))
        ids = idx.add(new)
        assert ids.tolist() == list(range(200, 240))
        assert idx.n == 240 and idx.active_count == 240
        # an exact query of each added point finds it top-1
        r = idx.search(new, k=1, params=SearchParams(beam_width=48, mode="beam"))
        assert (r.ids[:, 0] == ids).sum() >= 38  # allow rare exact ties
        assert (r.distances[:, 0][r.ids[:, 0] == ids] == 0.0).all()

    def test_add_single_point(self, vamana_index):
        ids = vamana_index.add(np.array([0.5, 0.5]))
        assert len(ids) == 1
        assert vamana_index.search(np.array([0.5, 0.5])).top1()[0] == int(ids[0])

    def test_add_empty_is_noop(self, vamana_index):
        assert vamana_index.add(np.empty((0, 2))).tolist() == []
        assert vamana_index.n == 200

    def test_custom_external_ids(self):
        pts = uniform_cube(100, 2, np.random.default_rng(0))
        idx = ProximityGraphIndex.build(
            pts, epsilon=1.0, method="nsw", seed=1,
            ids=np.arange(1000, 1100),
        )
        q = pts[17]
        assert idx.search(q).top1()[0] == 1017
        new_ids = idx.add(np.array([[0.25, 0.25]]), ids=[7])
        assert new_ids.tolist() == [7]
        with pytest.raises(ValueError, match="already in use"):
            idx.add(np.array([[0.75, 0.75]]), ids=[1050])

    def test_id_clash_leaves_index_untouched(self, vamana_index, tmp_path):
        """Ids are validated before anything grows: a clash must not
        leave graph/dataset/id-map at inconsistent sizes."""
        idx = vamana_index
        with pytest.raises(ValueError, match="already in use"):
            idx.add(np.array([[0.5, 0.5]]), ids=[0])
        assert idx.n == 200 and len(idx.id_map) == 200
        assert idx.graph.n == 200
        # the index is still fully serviceable
        idx.save(tmp_path / "ok.npz")
        loaded = ProximityGraphIndex.load(tmp_path / "ok.npz")
        assert loaded.n == 200

    def test_negative_ids_rejected(self):
        pts = uniform_cube(20, 2, np.random.default_rng(0))
        with pytest.raises(ValueError, match="non-negative"):
            ProximityGraphIndex.build(
                pts, epsilon=1.0, method="complete", ids=np.arange(-5, 15)
            )
        idx = ProximityGraphIndex.build(pts, epsilon=1.0, method="complete")
        with pytest.raises(ValueError, match="non-negative"):
            idx.add(np.array([[0.5, 0.5]]), ids=[-3])
        assert idx.n == 20

    def test_repair_drops_guarantee_flag(self):
        pts = uniform_cube(120, 2, np.random.default_rng(2))
        idx = ProximityGraphIndex.build(pts, epsilon=1.0, method="theta", seed=0)
        assert idx.built.guaranteed
        idx.add(np.random.default_rng(3).uniform(size=(10, 2)), mode="repair")
        assert not idx.built.guaranteed
        assert idx.built.meta["repaired_inserts"] == 10

    @pytest.mark.parametrize(
        ("method", "opts"),
        [("vamana", {}), ("hnsw", {"m": 8, "ef_construction": 64})],
        ids=["vamana", "hnsw"],
    )
    def test_recall_after_add_matches_fresh_build(self, method, opts):
        """An index grown by 25% stays within a small recall@10 margin of
        building over the full set from scratch."""
        rng = np.random.default_rng(13)
        pts = uniform_cube(500, 2, rng)
        queries = rng.uniform(size=(80, 2))
        grown = ProximityGraphIndex.build(
            pts[:400], epsilon=1.0, method=method, seed=6, **opts
        )
        grown.add(pts[400:], batch_size=50)
        fresh = ProximityGraphIndex.build(
            pts, epsilon=1.0, method=method, seed=6, **opts
        )

        def recall(index):
            r = index.search(
                queries, k=10, params=SearchParams(beam_width=48, seed=0)
            )
            hits = 0
            for i, q in enumerate(queries):
                gt = set(brute_force_knn(pts, q, 10))
                hits += len(gt & set(r.ids[i].tolist()))
            return hits / (len(queries) * 10)

        r_grown, r_fresh = recall(grown), recall(fresh)
        assert r_grown >= r_fresh - 0.02, (r_grown, r_fresh)


class TestAddDynamic:
    @pytest.fixture()
    def spaced(self):
        # A jittered grid: generous inter-point spacing so the dynamic
        # net's min-distance precondition holds for the added half too.
        rng = np.random.default_rng(4)
        grid = np.stack(np.meshgrid(np.arange(12), np.arange(12)), -1)
        pts = grid.reshape(-1, 2).astype(float)
        pts += rng.uniform(-0.25, 0.25, size=pts.shape)
        return pts

    def test_guarantee_survives_dynamic_add(self, spaced):
        idx = ProximityGraphIndex.build(spaced[:100], epsilon=1.0, method="gnet")
        assert idx.built.guaranteed
        ids = idx.add(spaced[100:])  # auto resolves to dynamic for gnet
        assert idx.built.guaranteed and idx.built.meta.get("dynamic")
        assert idx.n == 144 and len(ids) == 44
        # Theorem 1.1 invariants hold on the grown structure ...
        idx._dynamic.check_net_invariants()
        # ... and the (1+eps) promise is still navigable end-to-end.
        rng = np.random.default_rng(9)
        queries = [rng.uniform(0, 11, size=2) for _ in range(40)]
        assert idx.validate(queries, stop_at=None) == []

    def test_added_points_found_exactly(self, spaced):
        idx = ProximityGraphIndex.build(spaced[:100], epsilon=1.0, method="gnet")
        idx.add(spaced[100:110])
        for i in range(100, 110):
            got, dist = idx.search(spaced[i]).top1()
            assert got == i and dist == pytest.approx(0.0, abs=1e-12)

    def test_rejected_batch_is_atomic(self, spaced):
        idx = ProximityGraphIndex.build(spaced[:100], epsilon=1.0, method="gnet")
        before = idx.n
        good, bad = spaced[100], spaced[50] + 1e-4  # bad: on top of point 50
        with pytest.raises(ValueError, match="minimum inter-point"):
            idx.add(np.stack([good, bad]), mode="dynamic")
        assert idx.n == before
        # the good point alone still inserts fine afterwards
        idx.add(good[None], mode="dynamic")
        assert idx.n == before + 1

    def test_too_close_within_batch_rejected(self, spaced):
        idx = ProximityGraphIndex.build(spaced[:100], epsilon=1.0, method="gnet")
        p = spaced[120]
        with pytest.raises(ValueError, match="within the added batch"):
            idx.add(np.stack([p, p + 1e-4]), mode="dynamic")
        assert idx.n == 100

    def test_auto_falls_back_to_repair_on_rejection(self, spaced):
        """mode='auto' must absorb a batch the dynamic path rejects —
        the add succeeds via repair and the guarantee flag records it."""
        idx = ProximityGraphIndex.build(spaced[:100], epsilon=1.0, method="gnet")
        too_close = spaced[50] + 1e-3
        ids = idx.add(too_close[None])  # auto: dynamic rejects, repair absorbs
        assert ids.tolist() == [100]
        assert idx.n == 101 and idx.graph.n == 101
        assert not idx.built.guaranteed
        got, _dist = idx.search(
            too_close, params=SearchParams(mode="beam", beam_width=32)
        ).top1()
        assert got == 100

    def test_mixing_dynamic_and_repair_stays_consistent(self, spaced):
        """A repair add invalidates the dynamic net; a later dynamic add
        re-upgrades from the full collection — graph and dataset must
        never disagree on n."""
        idx = ProximityGraphIndex.build(spaced[:100], epsilon=1.0, method="gnet")
        idx.add(spaced[100:105], mode="dynamic")
        idx.add(spaced[105:110], mode="repair")
        assert idx._dynamic is None
        idx.add(spaced[110:115], mode="dynamic")
        assert idx.n == 115 and idx.graph.n == 115
        assert len(idx._dynamic) == 115
        # the re-upgrade re-validated every point into a proper net, so
        # the guarantee lapsed by the repair add is restored
        assert idx.built.guaranteed
        assert idx.validate([spaced[60], spaced[107]], stop_at=None) == []
        for i in (102, 107, 112):  # one point from each add
            assert idx.search(spaced[i]).top1()[0] == i

    def test_dynamic_mode_rejected_for_other_builders(self, vamana_index):
        with pytest.raises(ValueError, match="mode='dynamic' requires"):
            vamana_index.add(np.array([[0.5, 0.5]]), mode="dynamic")


class TestDeleteAndCompact:
    def test_deleted_ids_never_returned(self, vamana_index):
        idx = vamana_index
        pts = np.asarray(idx.dataset.points)
        victim = brute_force_knn(pts, np.array([0.5, 0.5]), 1)[0]
        assert idx.delete([victim]) == 1
        assert idx.delete([victim]) == 0  # double delete is a no-op
        assert idx.tombstone_count == 1 and idx.active_count == 199
        r = idx.search(
            np.array([0.5, 0.5]), k=10, params=SearchParams(beam_width=64)
        )
        assert victim not in r.ids[0].tolist()

    def test_unknown_delete_raises(self, vamana_index):
        with pytest.raises(KeyError, match="unknown external id"):
            vamana_index.delete([10**9])
        assert vamana_index.tombstone_count == 0

    def test_tombstone_then_compact_equivalence(self):
        """Tombstoned and compacted indexes answer equivalently: both
        return the exact brute-force NN among survivors (wide beam),
        under the same external ids."""
        rng = np.random.default_rng(21)
        pts = uniform_cube(150, 2, rng)
        idx = ProximityGraphIndex.build(pts, epsilon=0.5, method="gnet", seed=2)
        doomed = rng.choice(150, size=30, replace=False)
        idx.delete(doomed)
        survivors = np.setdiff1d(np.arange(150), doomed)

        queries = rng.uniform(size=(30, 2))
        wide = SearchParams(beam_width=150, seed=3)
        before = idx.search(queries, k=5, params=wide)

        idx.compact()
        assert idx.n == 120 and idx.tombstone_count == 0
        after = idx.search(queries, k=5, params=wide)

        sub = Dataset(EuclideanMetric(), pts[survivors])
        for i, q in enumerate(queries):
            nn = survivors[int(np.argmin(sub.distances_to_query_all(q)))]
            assert before.ids[i, 0] == nn
            assert after.ids[i, 0] == nn
        # distances agree to float precision between the two regimes
        assert np.allclose(before.distances[:, 0], after.distances[:, 0])

    def test_compact_without_tombstones_is_noop(self, vamana_index):
        graph_before = vamana_index.graph
        assert vamana_index.compact() is vamana_index
        assert vamana_index.graph is graph_before

    def test_compact_keeps_external_ids_stable(self, vamana_index):
        idx = vamana_index
        pts = np.asarray(idx.dataset.points)
        idx.delete([0, 1, 2])
        idx.compact()
        assert 0 not in idx.id_map and 3 in idx.id_map
        got, dist = idx.search(pts[50]).top1()
        assert got == 50 and dist == pytest.approx(0.0, abs=1e-12)

    def test_compact_to_fewer_than_two_points_rejected(self):
        pts = uniform_cube(5, 2, np.random.default_rng(0))
        idx = ProximityGraphIndex.build(pts, epsilon=1.0, method="complete")
        idx.delete([0, 1, 2, 3])
        with pytest.raises(ValueError, match="fewer than 2"):
            idx.compact()

    def test_all_deleted_searches_empty(self):
        pts = uniform_cube(20, 2, np.random.default_rng(0))
        idx = ProximityGraphIndex.build(pts, epsilon=1.0, method="complete")
        idx.delete(np.arange(20))
        r = idx.search(pts[:3], k=2)
        assert (r.ids == -1).all()


class TestMutationPersistence:
    def test_v2_round_trips_ids_and_tombstones(self, tmp_path):
        pts = uniform_cube(100, 2, np.random.default_rng(7))
        idx = ProximityGraphIndex.build(
            pts, epsilon=1.0, method="vamana", seed=3,
            ids=np.arange(500, 600),
        )
        idx.add(np.random.default_rng(8).uniform(size=(10, 2)))
        idx.delete([510, 511, 600])
        path = idx.save(tmp_path / "mut.npz")
        loaded = ProximityGraphIndex.load(path)

        assert loaded.id_map.externals.tolist() == idx.id_map.externals.tolist()
        assert loaded.tombstone_count == 3 and loaded.active_count == 107
        queries = np.random.default_rng(9).uniform(size=(15, 2))
        p = SearchParams(beam_width=32, seed=1)
        a, b = idx.search(queries, k=5, params=p), loaded.search(queries, k=5, params=p)
        assert np.array_equal(a.ids, b.ids)
        assert np.array_equal(a.distances, b.distances)
        # compact() works after reload: builder options were persisted
        loaded.compact()
        assert loaded.n == 107 and 510 not in loaded.id_map

    def test_save_after_dynamic_add_round_trips(self, tmp_path):
        # A pure grid keeps every pairwise distance at or above the
        # normalized minimum, so the added half can never be rejected.
        grid = np.stack(np.meshgrid(np.arange(10), np.arange(10)), -1)
        pts = grid.reshape(-1, 2).astype(float)
        idx = ProximityGraphIndex.build(pts[:80], epsilon=1.0, method="gnet")
        idx.add(pts[80:])
        path = idx.save(tmp_path / "dyn.npz")
        loaded = ProximityGraphIndex.load(path)
        assert loaded.n == 100 and loaded.built.guaranteed
        q = pts[90]
        assert loaded.search(q).top1() == idx.search(q).top1()
