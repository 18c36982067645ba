"""ShardedIndex: partitioning, fan-out search, mutation routing, pools.

The load-bearing contract is **flat equivalence**: a sharded index with
``shards=1, workers=1`` must return bit-identical ids and distances to
the flat :class:`ProximityGraphIndex` built with the same arguments
(pinned on 3 seeds), and the pooled build/search paths must answer
identically to the in-process ones.  The spawn start method is
exercised explicitly (``REPRO_MP_START_METHOD``) so a pickling
regression in the worker task surfaces here, not in production.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    ProximityGraphIndex,
    SearchableIndex,
    SearchParams,
    ShardedIndex,
)
from repro.core.search import resolve_mode
from repro.core.sharded import partition_points, rehydrate_shard, shard_payload
from repro.core.stats import compute_ground_truth_k, recall_at_k
from repro.metrics import Dataset, EuclideanMetric


def _points(seed: int, n: int = 240, d: int = 3) -> np.ndarray:
    return np.random.default_rng(seed).uniform(size=(n, d))


def _queries(seed: int, m: int = 20, d: int = 3) -> np.ndarray:
    return np.random.default_rng(seed + 1000).uniform(size=(m, d))


class TestPartitioning:
    def test_random_balanced_and_sorted(self):
        pts = _points(0, n=103)
        members = partition_points(pts, 4, "random", np.random.default_rng(0))
        sizes = sorted(len(m) for m in members)
        assert sum(sizes) == 103
        assert sizes[-1] - sizes[0] <= 1
        joined = np.concatenate(members)
        assert sorted(joined.tolist()) == list(range(103))
        for m in members:
            assert np.array_equal(m, np.sort(m))

    def test_single_shard_is_identity(self):
        pts = _points(0, n=50)
        (members,) = partition_points(pts, 1, "random", np.random.default_rng(3))
        assert np.array_equal(members, np.arange(50))

    def test_kmeans_covers_and_respects_min_size(self):
        pts = _points(1, n=40, d=2)
        members = partition_points(pts, 5, "kmeans", np.random.default_rng(0))
        assert sorted(np.concatenate(members).tolist()) == list(range(40))
        assert min(len(m) for m in members) >= 2

    def test_kmeans_small_n_rebalances(self):
        # n barely above 2*shards — the regime where capacity-greedy
        # k-means can strand a cluster below the 2-point floor.
        pts = _points(2, n=11, d=2)
        members = partition_points(pts, 5, "kmeans", np.random.default_rng(1))
        assert min(len(m) for m in members) >= 2

    def test_too_many_shards_rejected(self):
        with pytest.raises(ValueError, match="fewer than 2 points"):
            partition_points(_points(0, n=10), 6, "random", np.random.default_rng(0))

    def test_unknown_assignment_rejected(self):
        with pytest.raises(ValueError, match="unknown assignment"):
            partition_points(_points(0), 2, "spectral", np.random.default_rng(0))


class TestFlatEquivalence:
    """shards=1, workers=1 must be bit-identical to the flat index."""

    @pytest.mark.parametrize("seed", [0, 7, 42])
    def test_bit_identical_on_three_seeds(self, seed):
        pts = _points(seed)
        queries = _queries(seed)
        flat = ProximityGraphIndex.build(pts, method="vamana", seed=seed)
        sharded = ShardedIndex.build(
            pts, method="vamana", shards=1, workers=1, seed=seed
        )
        for k, params in [
            (1, None),                                   # greedy path
            (10, None),                                  # beam path
            (5, SearchParams(beam_width=24, seed=3)),
            (3, SearchParams(budget=60)),
        ]:
            rf = flat.search(queries, k=k, params=params)
            rs = sharded.search(queries, k=k, params=params)
            assert np.array_equal(rf.ids, rs.ids)
            assert np.array_equal(rf.distances, rs.distances)
            assert np.array_equal(rf.evals, rs.evals)
            if rf.hops is not None:
                assert np.array_equal(rf.hops, rs.hops)

    def test_single_query_conveniences_match(self):
        pts = _points(3)
        q = _queries(3)[0]
        flat = ProximityGraphIndex.build(pts, method="vamana", seed=3)
        sharded = ShardedIndex.build(pts, method="vamana", shards=1, seed=3)
        assert flat.search(q).top1() == sharded.search(q).top1()
        assert sharded.search(q).single

    def test_shard_evals_breakdown_sums(self):
        pts = _points(4)
        sharded = ShardedIndex.build(pts, method="vamana", shards=3, seed=4)
        r = sharded.search(_queries(4), k=5)
        assert r.shard_evals.shape == (20, 3)
        assert np.array_equal(r.shard_evals.sum(axis=1), r.evals)


class TestFanOut:
    def test_recall_close_to_flat(self):
        pts = _points(5, n=400)
        queries = _queries(5, m=40)
        dataset = Dataset(EuclideanMetric(), pts)
        gt, _ = compute_ground_truth_k(dataset, queries, k=10)
        flat = ProximityGraphIndex.build(pts, method="vamana", seed=5)
        sharded = ShardedIndex.build(pts, method="vamana", shards=4, seed=5)
        assert (
            recall_at_k(sharded, queries, gt, 10)
            >= recall_at_k(flat, queries, gt, 10) - 0.02
        )

    def test_merged_rows_sorted_and_deduplicated(self):
        pts = _points(6)
        sharded = ShardedIndex.build(pts, method="vamana", shards=3, seed=6)
        r = sharded.search(_queries(6), k=8)
        for i in range(r.m):
            row_d = r.distances[i][r.ids[i] >= 0]
            assert np.all(np.diff(row_d) >= 0)
            row_ids = r.ids[i][r.ids[i] >= 0]
            assert len(set(row_ids.tolist())) == len(row_ids)

    def test_greedy_fan_out_reports_winner_hops(self):
        pts = _points(7)
        sharded = ShardedIndex.build(pts, method="vamana", shards=3, seed=7)
        r = sharded.search(_queries(7), k=1)
        assert r.hops is not None and r.hops.shape == (20,)
        assert (r.hops >= 1).all()

    def test_filter_applies_across_shards(self):
        pts = _points(8)
        sharded = ShardedIndex.build(pts, method="vamana", shards=3, seed=8)
        allowed = list(range(0, 240, 7))
        r = sharded.search(
            _queries(8), k=5, params=SearchParams(allowed_ids=allowed)
        )
        returned = set(r.ids[r.ids >= 0].tolist())
        assert returned <= set(allowed)

    def test_explicit_starts_rejected_with_multiple_shards(self):
        pts = _points(9)
        sharded = ShardedIndex.build(pts, method="vamana", shards=2, seed=9)
        with pytest.raises(ValueError, match="shard-local"):
            sharded.search(
                _queries(9), params=SearchParams(starts=np.zeros(20, dtype=int))
            )

    def test_chunked_execution_identical(self):
        pts = _points(10)
        queries = _queries(10, m=30)
        a = ShardedIndex.build(pts, method="vamana", shards=3, seed=10)
        b = ShardedIndex.build(
            pts, method="vamana", shards=3, seed=10, search_chunk=7
        )
        ra, rb = a.search(queries, k=5), b.search(queries, k=5)
        assert np.array_equal(ra.ids, rb.ids)
        assert np.array_equal(ra.distances, rb.distances)
        assert np.array_equal(ra.evals, rb.evals)


class TestEmptyAndTombstoned:
    """The never-raise satellite: empty batches, exhausted filters, and
    fully tombstoned collections return padded arrays on both kinds."""

    @pytest.fixture(params=["flat", "sharded"])
    def index(self, request) -> SearchableIndex:
        pts = _points(11, n=60)
        if request.param == "flat":
            return ProximityGraphIndex.build(pts, method="vamana", seed=11)
        return ShardedIndex.build(pts, method="vamana", shards=3, seed=11)

    def test_empty_batch(self, index):
        r = index.search(np.empty((0, 3)), k=4)
        assert r.ids.shape == (0, 4) and r.evals.shape == (0,)

    def test_fully_tombstoned_beam_and_greedy(self, index):
        index.delete(list(range(60)))
        r = index.search(_queries(11, m=3), k=4)
        assert (r.ids == -1).all() and np.isinf(r.distances).all()
        g = index.search(_queries(11, m=3), k=1, params=SearchParams(mode="greedy"))
        assert (g.ids == -1).all()

    def test_empty_filter(self, index):
        r = index.search(_queries(11, m=3), k=4, params=SearchParams(allowed_ids=[]))
        assert (r.ids == -1).all()

    def test_unknown_only_filter(self, index):
        r = index.search(
            _queries(11, m=3), k=4, params=SearchParams(allowed_ids=[10_000])
        )
        assert (r.ids == -1).all()

    def test_partial_tombstones_mixed_shards(self):
        """Regression: mode='auto' must resolve once for the whole
        fan-out.  With tombstones in only one shard, a per-shard auto
        would mix greedy (hops) and beam (no hops) results, which
        cannot merge."""
        pts = _points(29)
        sharded = ShardedIndex.build(pts, method="vamana", shards=3, seed=29)
        victim = int(np.asarray(sharded.shards[1].id_map.externals)[0])
        sharded.delete([victim])
        r = sharded.search(_queries(29, m=4), k=1)  # auto -> beam everywhere
        assert r.hops is None
        assert victim not in set(r.ids.ravel().tolist())
        assert (r.ids >= 0).all()
        g = sharded.search(
            _queries(29, m=4), k=1, params=SearchParams(mode="greedy")
        )
        assert g.hops is not None and g.hops.shape == (4,)
        assert victim not in set(g.ids.ravel().tolist())

    @pytest.mark.parametrize("storage", ["flat", "sq8"])
    @pytest.mark.parametrize("tombstone", [False, True])
    def test_auto_picks_the_flat_index_engine(self, storage, tombstone):
        """One ``mode="auto"`` rule: a sharded index and the flat index
        over the same points, with the same tombstone, run the same
        engine (hops are reported by greedy only) for the same params."""
        pts = _points(31)
        flat = ProximityGraphIndex.build(pts, method="vamana", seed=31, storage=storage)
        sharded = ShardedIndex.build(
            pts, method="vamana", shards=2, seed=31, storage=storage
        )
        if tombstone:
            flat.delete([7])
            sharded.delete([7])
        cases = [
            (1, SearchParams()),
            (1, SearchParams(beam_width=8)),
            (3, SearchParams()),
            (1, SearchParams(allowed_ids=list(range(100)))),
            (1, SearchParams(mode="greedy")),
            (1, SearchParams(mode="beam")),
        ]
        for k, params in cases:
            want = resolve_mode(
                params, k, masked=tombstone or params.allowed_ids is not None,
                quantized=storage == "sq8",
            )
            for index in (flat, sharded):
                got = index.search(_queries(31, m=3), k=k, params=params)
                assert (got.hops is not None) == (want == "greedy"), (k, params)


class TestMutationRouting:
    def test_add_routes_to_least_loaded(self):
        pts = _points(12)
        sharded = ShardedIndex.build(pts, method="vamana", shards=3, seed=12)
        sharded.delete(np.asarray(sharded.shards[1].id_map.externals)[:30].tolist())
        before = [s.active_count for s in sharded.shards]
        assert min(before) == before[1]
        ids = sharded.add(_points(13, n=5))
        assert [s.active_count for s in sharded.shards][1] == before[1] + 5
        assert all(sharded._owner[int(e)] == 1 for e in ids)

    def test_ids_stay_global_and_fresh(self):
        pts = _points(14)
        sharded = ShardedIndex.build(pts, method="vamana", shards=2, seed=14)
        a = sharded.add(_points(15, n=3))
        b = sharded.add(_points(16, n=3))
        assert len(set(a.tolist()) | set(b.tolist())) == 6
        assert a.min() >= 240
        with pytest.raises(ValueError, match="already in use"):
            sharded.add(_points(17, n=1), ids=[int(a[0])])

    def test_added_points_searchable(self):
        pts = _points(18)
        sharded = ShardedIndex.build(pts, method="vamana", shards=2, seed=18)
        new_pt = np.full(3, 2.5)  # far outside the unit cube
        (new_id,) = sharded.add(new_pt[None]).tolist()
        got, _ = sharded.search(new_pt, k=1).top1()
        assert got == new_id

    def test_delete_routes_to_owner_and_unknown_raises(self):
        pts = _points(19)
        sharded = ShardedIndex.build(pts, method="vamana", shards=3, seed=19)
        assert sharded.delete([3, 5, 7]) == 3
        assert sharded.delete([3]) == 0  # double delete is a no-op
        with pytest.raises(KeyError, match="unknown external id"):
            sharded.delete([99999])
        r = sharded.search(_queries(19), k=5)
        assert not ({3, 5, 7} & set(r.ids[r.ids >= 0].tolist()))

    def test_compact_drops_tombstones_keeps_ids(self):
        pts = _points(20)
        sharded = ShardedIndex.build(pts, method="vamana", shards=3, seed=20)
        sharded.delete(list(range(0, 60)))
        sharded.compact()
        assert sharded.tombstone_count == 0
        assert sharded.n == 180
        r = sharded.search(_queries(20), k=5)
        assert r.ids[r.ids >= 0].min() >= 60


class TestProtocol:
    def test_both_kinds_implement_searchable_index(self):
        pts = _points(21, n=60)
        flat = ProximityGraphIndex.build(pts, method="vamana", seed=21)
        sharded = ShardedIndex.build(pts, method="vamana", shards=2, seed=21)
        assert isinstance(flat, SearchableIndex)
        assert isinstance(sharded, SearchableIndex)

    def test_stats_shape(self):
        pts = _points(22, n=60)
        sharded = ShardedIndex.build(pts, method="vamana", shards=2, seed=22)
        s = sharded.stats()
        assert s["kind"] == "sharded" and s["shards"] == 2
        assert len(s["per_shard"]) == 2
        assert s["n"] == 60


class TestProcessPools:
    """workers > 1: pooled build and pooled fan-out search."""

    def test_pooled_build_matches_in_process(self):
        pts = _points(23)
        a = ShardedIndex.build(pts, method="vamana", shards=3, workers=1, seed=23)
        b = ShardedIndex.build(pts, method="vamana", shards=3, workers=2, seed=23)
        try:
            for sa, sb in zip(a.shards, b.shards):
                oa, ta = sa.graph.csr()
                ob, tb = sb.graph.csr()
                assert np.array_equal(oa, ob) and np.array_equal(ta, tb)
                assert sa.scale == sb.scale
        finally:
            a.close()
            b.close()

    def test_pooled_search_matches_in_process(self):
        pts = _points(24)
        queries = _queries(24)
        a = ShardedIndex.build(pts, method="vamana", shards=3, workers=1, seed=24)
        b = ShardedIndex.build(pts, method="vamana", shards=3, workers=2, seed=24)
        try:
            ra = a.search(queries, k=5)
            rb = b.search(queries, k=5)
            assert np.array_equal(ra.ids, rb.ids)
            assert np.array_equal(ra.distances, rb.distances)
            assert np.array_equal(ra.evals, rb.evals)
        finally:
            a.close()
            b.close()

    def test_pooled_search_after_mutation(self):
        # A mutation invalidates the arena backing for the touched
        # shard; the fan-out must transparently inline its points.
        pts = _points(25)
        b = ShardedIndex.build(pts, method="vamana", shards=2, workers=2, seed=25)
        try:
            new_pt = np.full(3, 3.0)
            (new_id,) = b.add(new_pt[None]).tolist()
            got, _ = b.search(new_pt, k=1).top1()
            assert got == new_id
        finally:
            b.close()

    def test_spawn_start_method(self, monkeypatch):
        # The CI spawn job runs the whole module this way; this test
        # pins it locally too so a non-picklable task dict fails fast.
        monkeypatch.setenv("REPRO_MP_START_METHOD", "spawn")
        pts = _points(26, n=120)
        b = ShardedIndex.build(pts, method="vamana", shards=2, workers=2, seed=26)
        try:
            r = b.search(_queries(26, m=5), k=3)
            assert r.ids.shape == (5, 3)
        finally:
            b.close()

    def test_payload_round_trip(self):
        pts = _points(27, n=80)
        sharded = ShardedIndex.build(pts, method="vamana", shards=2, seed=27)
        shard = sharded.shards[0]
        rebuilt, attachment = rehydrate_shard(shard_payload(shard))
        assert attachment is None
        q = _queries(27, m=4)
        ra = shard.search(q, k=3)
        rb = rebuilt.search(q, k=3)
        assert np.array_equal(ra.ids, rb.ids)
        assert np.array_equal(ra.distances, rb.distances)

    def test_closed_index_refuses_search(self):
        pts = _points(28, n=60)
        sharded = ShardedIndex.build(pts, method="vamana", shards=2, seed=28)
        sharded.close()
        with pytest.raises(RuntimeError, match="closed"):
            sharded.search(_queries(28, m=2))


class TestLinterDrivenRegressions:
    """Pins for the true positives `repro lint` flagged in this tree."""

    def test_worker_cache_token_is_deterministic(self):
        # The worker-cache token was uuid.uuid4() — entropy in library
        # code (determinism rule).  It only needs per-process
        # uniqueness, so it is now a counter; same-process instances
        # must still get distinct tokens.
        import re

        pts = _points(30, n=60)
        a = ShardedIndex.build(pts, method="vamana", shards=2, seed=30)
        b = ShardedIndex.build(pts, method="vamana", shards=2, seed=30)
        try:
            assert re.fullmatch(r"sharded-\d+", a._token)
            assert re.fullmatch(r"sharded-\d+", b._token)
            assert a._token != b._token
        finally:
            a.close()
            b.close()

    def test_arena_create_releases_shm_on_failure(self, monkeypatch):
        # SharedArena.create leaked the segment if anything failed
        # between SharedMemory() and the return (arena-hygiene rule).
        # Force a failure mid-create and verify the segment is gone.
        from multiprocessing import shared_memory as real_shared_memory

        from repro.metrics import arena as arena_mod

        created: list[str] = []
        real_cls = real_shared_memory.SharedMemory

        class Recording(real_cls):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                created.append(self.name)

        monkeypatch.setattr(
            arena_mod.shared_memory, "SharedMemory", Recording
        )

        def boom(*args, **kwargs):
            raise RuntimeError("injected failure after segment creation")

        monkeypatch.setattr(arena_mod, "ArenaSpec", boom)

        with pytest.raises(RuntimeError, match="injected failure"):
            arena_mod.SharedArena.create(_points(31, n=8))

        assert created, "the recording wrapper never saw a segment"
        for name in created:
            with pytest.raises(FileNotFoundError):
                real_cls(name=name)
