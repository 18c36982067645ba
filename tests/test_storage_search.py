"""Search-path edge cases across both stores, for both index kinds.

Every (storage, kind) combination keeps the never-raising front-door
semantics — empty ``allowed_ids``, a fully tombstoned collection, ``k``
larger than the live point count — and ``rerank_factor=1`` pins down
the two-stage pipeline's no-over-fetch behavior.  Two acceptance pins
close the file: with flat storage, ``search()`` reproduces the raw
pre-storage-layer engine calls bit for bit across 3 seeds; and SQ8
keeps recall@10 within 0.02 of flat at equal beam width while its
traversal bytes are 8x smaller.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import ProximityGraphIndex, SearchParams, ShardedIndex
from repro.core.stats import compute_ground_truth_k, recall_at_k, storage_breakdown
from repro.graphs.engine import beam_search_batch, greedy_batch
from repro.metrics import Dataset, EuclideanMetric
from repro.workloads import gaussian_clusters, uniform_cube, uniform_queries

KINDS = ["flat", "sharded"]
STORAGES = ["flat", "sq8"]


def _build(kind: str, storage: str, n: int = 90, seed: int = 1):
    pts = uniform_cube(n, 3, np.random.default_rng(seed))
    if kind == "flat":
        return ProximityGraphIndex.build(
            pts, epsilon=1.0, method="vamana", seed=seed, storage=storage
        )
    return ShardedIndex.build(
        pts, epsilon=1.0, method="vamana", seed=seed, shards=3, storage=storage
    )


@pytest.fixture(scope="module")
def queries() -> np.ndarray:
    return np.random.default_rng(6).uniform(size=(8, 3))


@pytest.mark.parametrize("storage", STORAGES)
@pytest.mark.parametrize("kind", KINDS)
class TestEdgeCases:
    def test_empty_allowed_ids_returns_padding(self, kind, storage, queries):
        index = _build(kind, storage)
        r = index.search(queries, k=3, params=SearchParams(allowed_ids=[]))
        assert r.ids.shape == (len(queries), 3)
        assert np.all(r.ids == -1) and np.all(np.isinf(r.distances))

    def test_fully_tombstoned_never_raises(self, kind, storage, queries):
        index = _build(kind, storage)
        index.delete(np.arange(index.n))
        r = index.search(queries, k=2)
        assert np.all(r.ids == -1) and np.all(np.isinf(r.distances))

    def test_k_larger_than_live_points_pads(self, kind, storage, queries):
        index = _build(kind, storage)
        keep = 4
        index.delete(np.arange(keep, index.n))
        r = index.search(
            queries, k=10, params=SearchParams(beam_width=64, seed=0)
        )
        assert r.ids.shape == (len(queries), 10)
        # every live point found, the rest padded
        for i in range(len(queries)):
            found = r.ids[i][r.ids[i] >= 0]
            assert set(found.tolist()) == set(range(keep))
            assert np.all(r.ids[i, keep:] == -1)
            assert np.all(np.isinf(r.distances[i, keep:]))

    def test_empty_batch_never_raises(self, kind, storage):
        index = _build(kind, storage)
        r = index.search([], k=3)
        assert r.ids.shape == (0, 3)

    def test_rerank_factor_one(self, kind, storage, queries):
        """rerank_factor=1 means *no over-fetch*: flat storage answers
        bit-identically to the default search, quantized storage keeps
        the plain traversal's candidate ids and only replaces their
        approximate distances with exact ones."""
        index = _build(kind, storage)
        p1 = SearchParams(beam_width=32, seed=0, rerank_factor=1)
        r1 = index.search(queries, k=5, params=p1)
        if storage == "flat":
            r0 = index.search(
                queries, k=5, params=SearchParams(beam_width=32, seed=0)
            )
            assert np.array_equal(r0.ids, r1.ids)
            assert np.array_equal(r0.distances, r1.distances)
            return
        if kind == "sharded":
            # The fan-out must agree with merging the per-shard answers.
            parts = [
                s.search(queries, k=5, params=p1) for s in index.shards
            ]
            for i in range(len(queries)):
                merged = sorted(
                    (float(d), int(v))
                    for part in parts
                    for v, d in zip(part.ids[i], part.distances[i])
                    if v >= 0
                )[:5]
                assert [v for _, v in merged] == r1.ids[i].tolist()
            return
        # Flat kind, quantized storage: ids equal the raw compressed
        # traversal's top-5; distances are the exact metric's.
        gen = np.random.default_rng(index.seed)
        starts = gen.integers(index.n, size=len(queries))
        found = beam_search_batch(
            index.graph, index.dataset, starts, queries,
            beam_width=32, k=5, store=index.store,
        )
        for i, row in enumerate(found.ids):
            approx_ids = row[row >= 0].tolist()
            exact = index.dataset.distances_to_query(
                queries[i], np.asarray(approx_ids, dtype=np.intp)
            )
            order = np.lexsort((approx_ids, exact))
            assert [approx_ids[j] for j in order] == r1.ids[i].tolist()
            assert np.allclose(np.sort(exact) / index.scale,
                               r1.distances[i])

    def test_reported_distances_are_exact(self, kind, storage, queries):
        """Quantized or not, returned distances equal the true metric
        distance to the returned id — rerank guarantees exactness."""
        index = _build(kind, storage)
        r = index.search(queries, k=3, params=SearchParams(beam_width=32, seed=0))
        pts = (
            np.asarray(index.dataset.points)
            if kind == "flat"
            else np.concatenate(
                [np.asarray(s.dataset.points) for s in index.shards]
            )
        )
        ids_all = (
            np.asarray(index.id_map.externals)
            if kind == "flat"
            else np.concatenate(
                [np.asarray(s.id_map.externals) for s in index.shards]
            )
        )
        lookup = {int(e): pts[i] for i, e in enumerate(ids_all)}
        for i in range(len(queries)):
            for v, d in zip(r.ids[i], r.distances[i]):
                if v < 0:
                    continue
                true = float(np.linalg.norm(queries[i] - lookup[int(v)]))
                assert d == pytest.approx(true, rel=1e-9)


@pytest.mark.parametrize("storage", ["sq8"])
def test_quantized_greedy_mode_reports_exact_distance(storage, queries):
    index = _build("flat", storage)
    r = index.search(queries, k=1, params=SearchParams(mode="greedy", seed=0))
    assert r.hops is not None
    pts = np.asarray(index.dataset.points)
    for i in range(len(queries)):
        v = int(r.ids[i, 0])
        assert r.distances[i, 0] == pytest.approx(
            float(np.linalg.norm(queries[i] - pts[v])), rel=1e-9
        )


class TestFlatStoreBitIdentity:
    """Acceptance pin: flat-storage search() == the raw engine calls the
    facade made before the storage layer existed, across 3 seeds."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_beam_path(self, seed):
        pts = uniform_cube(150, 3, np.random.default_rng(seed))
        index = ProximityGraphIndex.build(
            pts, epsilon=1.0, method="vamana", seed=seed
        )
        queries = np.random.default_rng(seed + 10).uniform(size=(20, 3))
        gen = np.random.default_rng(index.seed)
        starts = gen.integers(index.n, size=len(queries))
        r = index.search(queries, k=5, params=SearchParams(beam_width=24))
        found = beam_search_batch(
            index.graph, index.dataset, starts, queries, beam_width=24, k=5
        )
        for i, row in enumerate(found.ids):
            hit = row >= 0
            assert r.evals[i] == found.evals[i]
            assert r.ids[i].tolist() == row[hit].tolist()
            assert np.array_equal(r.distances[i], found.dists[i][hit] / index.scale)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_beam_path_narrower_than_k(self, seed):
        """An explicit beam_width < k must behave exactly as before the
        storage layer: the pool stays at width, results pad past it."""
        pts = uniform_cube(150, 3, np.random.default_rng(seed))
        index = ProximityGraphIndex.build(
            pts, epsilon=1.0, method="vamana", seed=seed
        )
        queries = np.random.default_rng(seed + 30).uniform(size=(12, 3))
        starts = np.random.default_rng(index.seed).integers(
            index.n, size=len(queries)
        )
        r = index.search(queries, k=10, params=SearchParams(beam_width=4))
        found = beam_search_batch(
            index.graph, index.dataset, starts, queries, beam_width=4, k=10
        )
        for i, row in enumerate(found.ids):
            assert r.evals[i] == found.evals[i]
            take = int((row >= 0).sum())
            assert r.ids[i, :take].tolist() == row[:take].tolist()
            assert np.all(r.ids[i, take:] == -1)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_greedy_path(self, seed):
        pts = uniform_cube(150, 3, np.random.default_rng(seed))
        index = ProximityGraphIndex.build(
            pts, epsilon=1.0, method="vamana", seed=seed
        )
        queries = np.random.default_rng(seed + 20).uniform(size=(20, 3))
        gen = np.random.default_rng(index.seed)
        starts = gen.integers(index.n, size=len(queries))
        r = index.search(queries)
        results = greedy_batch(index.graph, index.dataset, starts, queries)
        assert r.ids[:, 0].tolist() == [g.point for g in results]
        assert np.array_equal(
            r.distances[:, 0],
            np.array([g.distance for g in results]) / index.scale,
        )
        assert r.evals.tolist() == [g.distance_evals for g in results]


def test_sq8_recall_tracks_flat_at_an_eighth_of_the_bytes():
    """One vamana graph, its store swapped: at equal beam width SQ8's
    compressed traversal plus exact rerank keeps recall@10 within 0.02
    of flat, and its traversal rows are 8x smaller than float64.  The
    beam is narrow enough (recall ~0.96) that a worse store shows."""
    pts = gaussian_clusters(2000, 4, np.random.default_rng(11), clusters=20)
    queries = uniform_queries(200, pts, np.random.default_rng(2025))
    gt, _ = compute_ground_truth_k(Dataset(EuclideanMetric(), pts), queries, k=10)
    index = ProximityGraphIndex.build(
        pts, epsilon=1.0, method="vamana", seed=42, batch_size=250
    )
    params = SearchParams(beam_width=16, seed=7)
    flat = recall_at_k(index, queries, gt, 10, params=params)
    index.set_storage("sq8")
    sq8 = recall_at_k(index, queries, gt, 10, params=params)
    assert sq8 >= flat - 0.02, (flat, sq8)
    assert storage_breakdown(index)["compression"] == 8.0
