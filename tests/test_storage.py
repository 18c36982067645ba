"""The storage layer: encoders, degenerate-data guards, views, and the
v4 persistence of codes + scales + training stats."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro import ProximityGraphIndex, SearchParams, ShardedIndex
from repro.core.persistence import DISK_HEADER_NAME
from repro.metrics.base import Dataset, ScaledMetric
from repro.metrics.euclidean import ChebyshevMetric, EuclideanMetric, MinkowskiMetric
from repro.storage import (
    FlatStore,
    StorageConfigError,
    make_store,
    store_from_arrays,
)
from repro.storage.disk import DiskTierStore
from repro.storage.sq8 import decode_sq8, encode_sq8, train_sq8
from repro.workloads import uniform_cube


@pytest.fixture(scope="module")
def points() -> np.ndarray:
    return np.random.default_rng(7).normal(size=(400, 8))


@pytest.mark.parametrize("d", [3, 16, 17])
def test_rerank_l2_sums_left_to_right(d):
    """The numpy rerank returns the compiled rerank's floats: each L2
    distance sums its squares column by column, left to right, then takes
    the root and the scale — one candidate (where ``np.add.reduce`` would
    sum pairwise) or many, in RAM and through the disk tier's gather."""
    rng = np.random.default_rng(d)
    points = rng.normal(size=(300, d)) * 10.0 ** rng.integers(-3, 4, size=(300, d))
    metric = ScaledMetric(EuclideanMetric(), 0.7)
    dataset = Dataset(metric, points)
    store = make_store("sq8", metric, points, seed=0)
    for r in (1, 2, 40):
        q = rng.normal(size=d)
        cand = rng.integers(len(points), size=r)
        sq = (points[cand] - q) ** 2
        acc = np.zeros(r)
        for column in sq.T:
            acc += column
        want = 0.7 * np.sqrt(acc)
        for s in (store, DiskTierStore(store, points)):
            assert s.rerank_distances(dataset, q, cand).tobytes() == want.tobytes(), (r, s)


# ----------------------------------------------------------------------
# SQ8 encoder
# ----------------------------------------------------------------------


class TestSQ8Encoder:
    def test_round_trip_error_is_bounded_by_step(self, points):
        params = train_sq8(points)
        decoded = decode_sq8(params, encode_sq8(params, points))
        # Rounding to the nearest of 256 levels: error <= half a step.
        assert np.all(np.abs(decoded - points) <= params.scale / 2 + 1e-12)

    def test_constant_dimension_is_exact_not_nan(self):
        """Satellite guard: a zero-range dimension must not divide by
        zero — it round-trips exactly through a zero scale."""
        pts = np.random.default_rng(0).normal(size=(50, 3))
        pts[:, 1] = 4.25
        params = train_sq8(pts)
        assert params.constant_dims == 1
        codes = encode_sq8(params, pts)
        decoded = decode_sq8(params, codes)
        assert np.all(np.isfinite(decoded))
        assert np.array_equal(decoded[:, 1], np.full(50, 4.25))

    def test_all_constant_points_reject_at_dataset_level(self):
        # Duplicate points are rejected upstream (d_min = 0); the store
        # itself still never divides by zero on a fully constant matrix.
        pts = np.full((10, 2), 3.0)
        codes = encode_sq8(train_sq8(pts), pts)
        assert np.array_equal(codes, np.zeros((10, 2), dtype=np.uint8))

    def test_out_of_range_later_points_clamp(self, points):
        params = train_sq8(points)
        wild = np.full((2, points.shape[1]), 1e9)
        codes = encode_sq8(params, wild)
        assert np.array_equal(codes, np.full_like(codes, 255))

    def test_rejects_non_coordinate_points(self):
        with pytest.raises(StorageConfigError, match=r"\(n, d\) coordinate"):
            train_sq8(np.arange(10))

    def test_rejects_options(self, points):
        with pytest.raises(TypeError, match="bogus"):
            make_store("sq8", EuclideanMetric(), points, bogus=1)


# ----------------------------------------------------------------------
# View correctness: approximate distances track the exact metric
# ----------------------------------------------------------------------


every_view_metric = pytest.mark.parametrize(
    "metric",
    [
        EuclideanMetric(),
        ChebyshevMetric(),
        MinkowskiMetric(3.0),
        ScaledMetric(EuclideanMetric(), 2.5),
    ],
    ids=["euclidean", "chebyshev", "minkowski3", "scaled-euclidean"],
)


@every_view_metric
@pytest.mark.parametrize("kind", ["sq8"])
def test_store_views_approximate_the_metric(points, kind, metric):
    store = make_store(kind, metric, points, seed=0)
    rng = np.random.default_rng(3)
    Q = rng.normal(size=(10, points.shape[1]))
    idx = rng.integers(len(points), size=50)
    lens = np.full(10, 5, dtype=np.int64)
    approx = store.bind(Q).segmented(np.arange(10), idx, lens)
    exact = metric.distances_many(Q, points[idx], lens)
    # 8-bit-per-dim scalar error is tiny.
    assert np.all(np.abs(approx - exact) <= 0.05 * (1.0 + exact))
    # scalar() agrees with segmented()
    assert store.bind(Q).scalar(0, int(idx[0])) == pytest.approx(approx[0])


def test_flat_store_is_exact(points):
    metric = EuclideanMetric()
    store = FlatStore(metric, points)
    Q = np.random.default_rng(4).normal(size=(4, points.shape[1]))
    idx = np.arange(12)
    lens = np.full(4, 3, dtype=np.int64)
    got = store.bind(Q).segmented(np.arange(4), idx, lens)
    want = metric.distances_many(Q, points[idx], lens)
    assert np.array_equal(got, want)


@every_view_metric
@pytest.mark.parametrize("mapped", [False, True], ids=["ram", "mmap"])
def test_flat_start_distances_are_scalar_row_by_row(points, metric, mapped, tmp_path):
    """One gather of the start rows, then ``scalar()``'s own call per
    row: every float equals ``scalar(i, starts[i])``, in RAM and off a
    memory-mapped matrix, one row or many, repeated starts included."""
    if mapped:
        np.save(tmp_path / "points.npy", points)
        points = np.load(tmp_path / "points.npy", mmap_mode="r")
    rng = np.random.default_rng(5)
    for m in (1, 64):
        Q = rng.normal(size=(m, points.shape[1]))
        starts = rng.integers(len(points), size=m)
        starts[-1] = starts[0]
        view = FlatStore(metric, points).bind(Q)
        got = view.start_distances(starts)
        want = [view.scalar(i, int(v)) for i, v in enumerate(starts)]
        assert got.dtype == np.float64 and got.tolist() == want


# ----------------------------------------------------------------------
# The search beam over a store
# ----------------------------------------------------------------------


def test_beam_search_batch_traverses_a_store(points):
    """The beam's ``store`` hook (search, and every build wave's
    location): traversal over SQ8 codes equals traversal over the
    dequantized points (the store view *is* the metric over decoded
    candidates), and a FlatStore equals the default exact path bit for
    bit."""
    from repro.graphs.engine import beam_search_batch
    from repro.metrics.base import Dataset

    metric = EuclideanMetric()
    dataset = Dataset(metric, points)
    index = ProximityGraphIndex.build(
        points, epsilon=1.0, method="vamana", seed=0, normalize=False
    )
    graph = index.graph
    rng = np.random.default_rng(8)
    Q = rng.normal(size=(6, points.shape[1]))
    starts = rng.integers(len(points), size=6)

    def beam(dataset, store=None):
        return beam_search_batch(
            graph, dataset, starts, Q, beam_width=12, k=12, store=store
        )

    assert beam(dataset) == beam(dataset, FlatStore(metric, points))
    store = make_store("sq8", metric, points)
    decoded = decode_sq8(store.params, store.codes)
    assert beam(dataset, store) == beam(Dataset(metric, decoded))


# ----------------------------------------------------------------------
# Store lifecycle through the index: add() drift, compact() retrain
# ----------------------------------------------------------------------


@pytest.mark.parametrize("kind", ["flat", "sq8"])
def test_add_encodes_through_frozen_store_and_counts_drift(kind):
    pts = uniform_cube(120, 3, np.random.default_rng(2))
    idx = ProximityGraphIndex.build(
        pts, epsilon=1.0, method="vamana", seed=1, storage=kind
    )
    before = idx.store.n
    new = idx.add(np.random.default_rng(3).uniform(size=(7, 3)))
    assert len(new) == 7
    assert idx.store.n == before + 7
    expected_drift = 0 if kind == "flat" else 7
    assert idx.store.drift == expected_drift
    assert idx.stats()["storage"]["drift"] == expected_drift
    # searches see the new points
    r = idx.search(np.asarray(idx.dataset.points)[-1], k=1,
                   params=SearchParams(beam_width=32))
    assert int(r.ids[0, 0]) == int(new[-1])


@pytest.mark.parametrize("kind", ["sq8"])
def test_compact_retrains_and_resets_drift(kind):
    pts = uniform_cube(120, 3, np.random.default_rng(2))
    idx = ProximityGraphIndex.build(
        pts, epsilon=1.0, method="vamana", seed=1, storage=kind
    )
    idx.add(np.random.default_rng(3).uniform(size=(5, 3)))
    idx.delete([0, 1])
    assert idx.store.drift == 5
    idx.compact()
    assert idx.store.drift == 0
    assert idx.store.n == 123
    assert idx.store.trained_on == 123


def test_set_storage_swaps_without_touching_the_graph():
    pts = uniform_cube(100, 3, np.random.default_rng(5))
    idx = ProximityGraphIndex.build(pts, epsilon=1.0, method="vamana", seed=1)
    edges_before = idx.graph.num_edges
    idx.set_storage("sq8")
    assert idx.store.kind == "sq8" and idx.store.params.dim == 3
    assert idx.graph.num_edges == edges_before
    idx.set_storage("flat")
    assert idx.store.kind == "flat"


# ----------------------------------------------------------------------
# Persistence v4: codes + scales + training stats round-trip
# ----------------------------------------------------------------------


@pytest.mark.parametrize("kind", ["flat", "sq8"])
def test_v4_round_trip_preserves_store_and_answers(kind, tmp_path):
    pts = uniform_cube(150, 3, np.random.default_rng(9))
    idx = ProximityGraphIndex.build(
        pts, epsilon=1.0, method="vamana", seed=2, storage=kind
    )
    idx.add(np.random.default_rng(1).uniform(size=(4, 3)))
    queries = np.random.default_rng(4).uniform(size=(15, 3))
    p = SearchParams(seed=0, beam_width=32)
    want = idx.search(queries, k=5, params=p)
    loaded = ProximityGraphIndex.load(idx.save(tmp_path / "idx.npz"))
    assert loaded.store.kind == kind
    assert loaded.store.drift == idx.store.drift
    if kind != "flat":
        assert np.array_equal(loaded.store.codes, idx.store.codes)
        assert loaded.store.trained_on == idx.store.trained_on
    got = loaded.search(queries, k=5, params=p)
    assert np.array_equal(want.ids, got.ids)
    assert np.array_equal(want.distances, got.distances)


@pytest.mark.parametrize("kind", ["sq8"])
def test_sharded_save_load_preserves_shared_storage(kind, tmp_path):
    pts = uniform_cube(160, 3, np.random.default_rng(11))
    sharded = ShardedIndex.build(
        pts, epsilon=1.0, method="vamana", seed=3, shards=3, storage=kind
    )
    queries = np.random.default_rng(5).uniform(size=(12, 3))
    p = SearchParams(seed=0, beam_width=32)
    want = sharded.search(queries, k=5, params=p)
    loaded = ShardedIndex.load(sharded.save(tmp_path / "idx"))
    assert all(s.store.kind == kind for s in loaded.shards)
    got = loaded.search(queries, k=5, params=p)
    assert np.array_equal(want.ids, got.ids)
    assert np.array_equal(want.distances, got.distances)
    sharded.close()
    loaded.close()


def test_store_from_arrays_rejects_unknown_kind(points):
    with pytest.raises(StorageConfigError, match="unknown storage"):
        store_from_arrays({"kind": "zstd"}, {}, EuclideanMetric(), points)
    with pytest.raises(StorageConfigError, match="unknown storage"):
        make_store("zstd", EuclideanMetric(), points)


# ----------------------------------------------------------------------
# One training state shared across shards
# ----------------------------------------------------------------------


def test_flat_rerank_overfetch_neither_recomputes_nor_recharges():
    """With exact (flat) storage an explicit rerank_factor > 1 must not
    re-evaluate the pool: the traversal distances are already exact, so
    evals match the plain search and the top-k is unchanged."""
    pts = uniform_cube(150, 3, np.random.default_rng(21))
    idx = ProximityGraphIndex.build(pts, epsilon=1.0, method="vamana", seed=2)
    queries = np.random.default_rng(22).uniform(size=(10, 3))
    plain = idx.search(queries, k=5, params=SearchParams(beam_width=32, seed=0))
    rerank = idx.search(
        queries, k=5,
        params=SearchParams(beam_width=32, seed=0, rerank_factor=2),
    )
    assert np.array_equal(plain.evals, rerank.evals)
    assert np.array_equal(plain.ids, rerank.ids)
    assert np.array_equal(plain.distances, rerank.distances)


def test_sharded_compact_restores_shared_codebooks():
    """Compaction must leave every shard on ONE training state, like the
    build — per-shard retraining would diverge the fan-out geometry."""
    pts = uniform_cube(200, 4, np.random.default_rng(23))
    sharded = ShardedIndex.build(
        pts, epsilon=1.0, method="vamana", seed=3, shards=2, storage="sq8",
    )
    try:
        sharded.delete([int(sharded.shards[0].id_map.externals[0])])
        sharded.compact()
        a, b = (s.store.params for s in sharded.shards)
        assert np.array_equal(a.minv, b.minv)
        assert np.array_equal(a.scale, b.scale)
        assert len({s.store.trained_on for s in sharded.shards}) == 1
        assert all(s.store.drift == 0 for s in sharded.shards)
    finally:
        sharded.close()


def test_sharded_set_storage_flat_rejects_options():
    """Storage takes no options: ``set_storage`` refuses a keyword on
    both index kinds, and an unknown kind names the known ones."""
    pts = uniform_cube(100, 3, np.random.default_rng(24))
    sharded = ShardedIndex.build(pts, epsilon=1.0, method="vamana", seed=1,
                                 shards=2)
    try:
        with pytest.raises(TypeError, match="dtype"):
            sharded.set_storage("flat", dtype="float32")
        with pytest.raises(TypeError, match="dtype"):
            sharded.shards[0].set_storage("flat", dtype="float32")
        with pytest.raises(StorageConfigError, match="'flat', 'sq8'"):
            sharded.set_storage("flat32")
    finally:
        sharded.close()


def test_both_front_doors_reject_flat_storage_options():
    """``storage_options=`` is gone from both ``build`` front doors: it is
    an unknown build option, refused by name before anything is built,
    never silently dropped."""
    pts = uniform_cube(100, 3, np.random.default_rng(25))
    with pytest.raises(ValueError, match="unknown build option.*'storage_options'"):
        ProximityGraphIndex.build(
            pts, method="vamana", storage="flat",
            storage_options={"dtype": "float32"},
        )
    with pytest.raises(ValueError, match="unknown build option.*'storage_options'"):
        ShardedIndex.build(
            pts, method="vamana", shards=2, storage="flat",
            storage_options={"dtype": "float32"},
        )


def test_sharded_build_fails_fast_on_bad_quantizer_config():
    """An unknown storage kind must raise BEFORE the (expensive, possibly
    multi-process) graph build runs, not after."""
    pts = uniform_cube(100, 4, np.random.default_rng(26))
    import repro.core.sharded as sharded_module

    def boom(*a, **k):  # the build must never be reached
        raise AssertionError("graph build ran before config validation")

    orig = sharded_module.partition_points
    sharded_module.partition_points = boom
    try:
        for kind in ("sq4", "pq"):
            with pytest.raises(StorageConfigError, match="unknown storage kind"):
                ShardedIndex.build(
                    pts, method="vamana", shards=2, workers=2, storage=kind
                )
    finally:
        sharded_module.partition_points = orig


def test_flat_build_fails_fast_on_bad_quantizer_config():
    """Same fail-fast contract for the flat front door."""
    pts = uniform_cube(100, 4, np.random.default_rng(27))
    import repro.core.index as index_module

    orig = index_module.build

    def boom(*a, **k):  # the graph build must never be reached
        raise AssertionError("graph build ran before config validation")

    index_module.build = boom
    try:
        for kind in ("sq4", "pq"):
            with pytest.raises(StorageConfigError, match="unknown storage kind"):
                ProximityGraphIndex.build(pts, method="vamana", storage=kind)
    finally:
        index_module.build = orig


def test_sharded_quantized_fanout_workers_match_in_process():
    """The pooled fan-out (codes shipped inline in the initializer
    payload, the SQ8 view rebuilt in each worker) answers exactly like
    the in-process fan-out over the same shards."""
    pts = uniform_cube(240, 4, np.random.default_rng(17))
    queries = np.random.default_rng(18).uniform(size=(9, 4))
    p = SearchParams(beam_width=32, seed=0)
    pooled = ShardedIndex.build(
        pts, epsilon=1.0, method="vamana", seed=3, shards=2, workers=2,
        storage="sq8",
    )
    try:
        want = pooled.search(queries, k=5, params=p)
        pooled.workers = 1
        got = pooled.search(queries, k=5, params=p)
        assert np.array_equal(want.ids, got.ids)
        assert np.array_equal(want.distances, got.distances)
    finally:
        pooled.close()


def test_sharded_build_trains_codebooks_once():
    pts = uniform_cube(200, 4, np.random.default_rng(13))
    sharded = ShardedIndex.build(
        pts, epsilon=1.0, method="vamana", seed=3, shards=4, storage="sq8",
    )
    params = [s.store.params for s in sharded.shards]
    for other in params[1:]:
        assert np.array_equal(params[0].minv, other.minv)
        assert np.array_equal(params[0].scale, other.scale)
    # trained over the whole collection, not the shard
    assert all(s.store.trained_on == 200 for s in sharded.shards)
    sharded.close()


# ----------------------------------------------------------------------
# Indexes saved while storage still took options
# ----------------------------------------------------------------------


def _edit_npz_header(path, edit) -> None:
    """Rewrite a v4 ``.npz`` in place with ``edit(header)`` applied."""
    with np.load(path) as data:
        payload = {k: data[k] for k in data.files}
    header = json.loads(bytes(payload["header"].tobytes()).decode())
    edit(header)
    payload["header"] = np.frombuffer(json.dumps(header).encode(), dtype=np.uint8)
    np.savez(path, **payload)


def _edit_disk_header(path, edit) -> None:
    """Rewrite a v5 directory's ``header.json`` with ``edit(header)`` applied."""
    header_path = path / DISK_HEADER_NAME
    header = json.loads(header_path.read_text())
    edit(header)
    header_path.write_text(json.dumps(header))


#: What the two kinds' specs looked like when flat storage could hold a
#: float32 traversal copy and every sq8 spec carried an options dict.
OLD_SPECS = {
    "flat": lambda spec: spec.update(dtype="float32"),
    "sq8": lambda spec: spec.update(options={}),
}


class TestOldStorageSpecsStillOpen:
    """A saved ``{"kind": "flat", "dtype": "float32"}`` opens as the
    exact flat store, and an sq8 spec's ``"options"`` key is read past;
    both through a v4 ``.npz``, a v5 directory and a v3 manifest shard.
    Answers are the plain index's, evals included."""

    @pytest.fixture(scope="class")
    def setup(self):
        pts = uniform_cube(300, 4, np.random.default_rng(41))
        queries = np.random.default_rng(42).uniform(size=(9, 4))
        return pts, queries, SearchParams(beam_width=24, seed=0)

    @staticmethod
    def _assert_answers(got, want) -> None:
        for field in ("ids", "distances", "evals"):
            assert np.array_equal(getattr(got, field), getattr(want, field)), field

    @pytest.mark.parametrize("kind", list(OLD_SPECS))
    @pytest.mark.parametrize("layout", ["v4", "v5"])
    def test_flat_index(self, setup, tmp_path, kind, layout):
        pts, queries, p = setup
        index = ProximityGraphIndex.build(
            pts, epsilon=1.0, method="vamana", seed=3, storage=kind
        )
        want = index.search(queries, k=5, params=p)

        def edit(header):
            OLD_SPECS[kind](header["storage"])

        if layout == "v4":
            path = index.save(tmp_path / "idx.npz")
            _edit_npz_header(path, edit)
        else:
            path = index.save(tmp_path / "idx", format="disk")
            _edit_disk_header(path, edit)
        loaded = ProximityGraphIndex.load(path)
        assert loaded.store.kind == kind
        assert loaded.store.spec() == index.store.spec()
        self._assert_answers(loaded.search(queries, k=5, params=p), want)

    @pytest.mark.parametrize("kind", list(OLD_SPECS))
    def test_v3_manifest_shard(self, setup, tmp_path, kind):
        pts, queries, p = setup
        sharded = ShardedIndex.build(
            pts, epsilon=1.0, method="vamana", seed=3, shards=2, storage=kind
        )
        try:
            want = sharded.search(queries, k=5, params=p)
            path = sharded.save(tmp_path / "sharded")
        finally:
            sharded.close()
        for shard_file in sorted(path.glob("shard-*.npz")):
            _edit_npz_header(
                shard_file, lambda header: OLD_SPECS[kind](header["storage"])
            )
        loaded = ShardedIndex.load(path)
        try:
            assert all(s.store.kind == kind for s in loaded.shards)
            assert all("dtype" not in s.store.spec() for s in loaded.shards)
            assert all("options" not in s.store.spec() for s in loaded.shards)
            self._assert_answers(loaded.search(queries, k=5, params=p), want)
        finally:
            loaded.close()
