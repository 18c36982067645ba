"""Compiled construction vs the numpy wave engine.

The accel build path (``repro.accel.run_beam`` locating each wave,
``run_robust_prune`` / ``run_commit_wave`` committing it, behind the
``backend=`` seam of the insertion builders) must produce graphs *bit-identical* to the
numpy wave engine — same adjacency, same order — on every workload it
accepts, and must follow the same selection semantics as search: an
explicitly requested backend that cannot run raises, ``"auto"`` falls
back silently.

Coverage:

* 3-seed bit-identity of every available compiled backend vs numpy
  across the three builders that take a backend (hnsw / nsw / vamana)
  and across both storage kinds (construction always runs over the
  raw float64 points, so storage must not perturb the graph);
* ``batch_size=1`` equivalence: the compiled singleton-wave schedule
  replays the sequential reference insertions exactly;
* unavailable-backend error vs silent ``"auto"`` fallback (unwarmed
  auto builds run numpy and never warn), and the explicit-backend
  ``UnsupportedWorkloadError`` on a metric without a kernel route;
* one inserter: ``add()``'s repair and a Vamana pass are the same
  class over the same row store (``include_own`` off / on), array-equal
  across numpy and every available backend on waves that mix vertices
  holding out-edges with edgeless ones;
* sharded pooled-build identity: worker processes (spawn) build each
  shard with the shipped concrete backend, bit-identical to the
  in-process numpy build.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro import accel
from repro.accel import cbackend
from repro.baselines import VamanaIndex
from repro.core.index import ProximityGraphIndex
from repro.core.sharded import ShardedIndex
from repro.graphs.engine import RepairInserter, bulk_insert
from repro.metrics import Dataset, EuclideanMetric
from repro.metrics.euclidean import MinkowskiMetric

BACKENDS = accel.available_backends()
SEEDS = (0, 1, 2)
BUILDERS = {
    "hnsw": {"m": 6, "ef_construction": 32},
    "nsw": {"m": 6},
    "vamana": {"max_degree": 12, "beam_width": 24},
}
N, DIM, BATCH = 220, 4, 48


@pytest.fixture(scope="module")
def points() -> np.ndarray:
    return np.random.default_rng(42).standard_normal((N, DIM))


@pytest.fixture(autouse=True)
def _reset_accel():
    yield
    accel.reset()


def _csr(index: ProximityGraphIndex):
    offsets, targets = index.graph.csr()
    return np.asarray(offsets), np.asarray(targets)


_REF_CACHE: dict[tuple, tuple] = {}


def _reference(points, method, seed, **kw):
    """The numpy wave build, cached per (method, seed, options)."""
    key = (method, seed, tuple(sorted(kw.items())))
    if key not in _REF_CACHE:
        idx = ProximityGraphIndex.build(
            points, method=method, seed=seed, batch_size=BATCH,
            **BUILDERS[method], **kw,
        )
        _REF_CACHE[key] = (_csr(idx), idx)
    return _REF_CACHE[key]


def _assert_same_graph(got: ProximityGraphIndex, want_csr, label) -> None:
    go, gt_ = _csr(got)
    wo, wt = want_csr
    assert np.array_equal(go, wo) and np.array_equal(gt_, wt), (
        f"compiled build diverged from the numpy wave build: {label}"
    )


class TestBuilderBitIdentity:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("method", sorted(BUILDERS))
    @pytest.mark.parametrize("seed", SEEDS)
    def test_three_seed_equivalence(self, points, backend, method, seed):
        want_csr, _ = _reference(points, method, seed)
        got = ProximityGraphIndex.build(
            points, method=method, seed=seed, batch_size=BATCH,
            backend=backend, **BUILDERS[method],
        )
        _assert_same_graph(got, want_csr, (backend, method, seed))

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("storage", ["flat", "sq8"])
    @pytest.mark.parametrize("seed", SEEDS)
    def test_storage_kinds_do_not_perturb_construction(
        self, points, backend, storage, seed
    ):
        """Construction always measures the raw float64 points — the
        traversal storage of the finished index must not change the
        graph the compiled path builds."""
        want_csr, _ = _reference(points, "vamana", seed)
        got = ProximityGraphIndex.build(
            points, method="vamana", seed=seed, batch_size=BATCH,
            backend=backend, storage=storage, **BUILDERS["vamana"],
        )
        _assert_same_graph(got, want_csr, (backend, storage, seed))
        assert got.store.kind == storage

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_batch_size_one_replays_sequential(self, points, backend):
        """Singleton waves route through the sequential insertion path;
        a compiled ``batch_size=1`` build must equal the numpy
        sequential (``batch_size=None``) reference exactly."""
        seq = ProximityGraphIndex.build(
            points, method="vamana", seed=3, **BUILDERS["vamana"],
        )
        got = ProximityGraphIndex.build(
            points, method="vamana", seed=3, batch_size=1,
            backend=backend, **BUILDERS["vamana"],
        )
        _assert_same_graph(got, _csr(seq), (backend, "batch_size=1"))


class TestOneInserter:
    @pytest.mark.parametrize("include_own", [False, True])
    def test_repair_and_vamana_pass_share_the_wave_protocol(
        self, points, include_own
    ):
        """``add()`` repairs with ``RepairInserter`` as is; a Vamana pass
        is the same ``locate_wave`` / ``commit`` / ``commit_wave`` with
        ``include_own`` set.  Both stay array-equal — rows in store
        order — on numpy and on every backend, over waves holding
        vertices that already have out-edges next to new, edgeless ones."""
        for name in ("locate_wave", "commit", "commit_wave", "graph"):
            assert getattr(VamanaIndex, name) is getattr(RepairInserter, name)
        assert (RepairInserter.include_own, VamanaIndex.include_own) == (False, True)

        n0 = N - 60
        base = VamanaIndex(
            Dataset(EuclideanMetric(), points[:n0]), np.random.default_rng(0),
            **BUILDERS["vamana"],
        ).graph()
        dataset = Dataset(EuclideanMetric(), points)
        # Old and new ids alternate, so every wave (and the trailing
        # singleton, which goes through ``insert_one``) mixes the two.
        order = np.stack([np.arange(0, 3 * 60, 3), np.arange(n0, N)], axis=1)
        order = order.ravel().tolist() + [1]
        assert base.out_degrees()[order[0]] > 0 and order[1] >= n0

        def run(backend, own=include_own):
            inserter = RepairInserter(
                dataset, base, 0, backend=backend, **BUILDERS["vamana"]
            )
            inserter.include_own = own
            bulk_insert(inserter, order, BATCH, ramp=False)
            return inserter._rows.snapshot(), inserter.graph()

        want = run(None)
        for backend in BACKENDS:
            for got, expected in zip(run(backend), want):
                for g, w in zip(got.csr(), expected.csr()):
                    assert np.array_equal(g, w), (backend, include_own)
        # ``include_own`` is not a no-op on this input.
        assert run(None, own=not include_own)[1] != want[1]


class TestBackendSelection:
    def test_unavailable_backend_raises_clear_error(self, points, monkeypatch):
        monkeypatch.setattr(cbackend, "_find_compiler", lambda: None)
        with pytest.raises(accel.AccelUnavailableError, match="cffi"):
            ProximityGraphIndex.build(
                points, method="vamana", seed=0, batch_size=BATCH,
                backend="cffi", **BUILDERS["vamana"],
            )

    def test_unknown_backend_name_rejected(self, points):
        for name in ("fortran", "numba", "python"):
            with pytest.raises(ValueError, match="unknown accel backend"):
                ProximityGraphIndex.build(
                    points, method="vamana", seed=0, batch_size=BATCH,
                    backend=name, **BUILDERS["vamana"],
                )

    def test_auto_unwarmed_builds_numpy_silently(self, points):
        """``backend="auto"`` before any warm() runs the numpy engines
        — bit-identical to the default build, and never a warning."""
        want_csr, _ = _reference(points, "vamana", 0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = ProximityGraphIndex.build(
                points, method="vamana", seed=0, batch_size=BATCH,
                backend="auto", **BUILDERS["vamana"],
            )
        _assert_same_graph(got, want_csr, "auto-unwarmed")

    @pytest.mark.skipif(not BACKENDS, reason="no warmable backend here")
    def test_auto_serves_warmed_backend_identically(self, points):
        accel.warm(BACKENDS[0])
        want_csr, _ = _reference(points, "vamana", 1)
        got = ProximityGraphIndex.build(
            points, method="vamana", seed=1, batch_size=BATCH,
            backend="auto", **BUILDERS["vamana"],
        )
        _assert_same_graph(got, want_csr, ("auto-warmed", BACKENDS[0]))

    @pytest.mark.skipif(not BACKENDS, reason="no warmable backend here")
    def test_unsupported_metric_explicit_raises_auto_falls_back(self, points):
        """No kernel route exists for Minkowski p=3: an explicit backend
        must raise the workload error, ``auto`` silently runs numpy."""
        metric = MinkowskiMetric(3.0)
        with pytest.raises(accel.UnsupportedWorkloadError):
            ProximityGraphIndex.build(
                points, method="vamana", seed=0, batch_size=BATCH,
                metric=metric, backend=BACKENDS[0], **BUILDERS["vamana"],
            )
        accel.warm(BACKENDS[0])
        want = ProximityGraphIndex.build(
            points, method="vamana", seed=0, batch_size=BATCH,
            metric=metric, **BUILDERS["vamana"],
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = ProximityGraphIndex.build(
                points, method="vamana", seed=0, batch_size=BATCH,
                metric=metric, backend="auto", **BUILDERS["vamana"],
            )
        _assert_same_graph(got, _csr(want), "auto-unsupported-metric")


class TestShardedPooledBuild:
    @pytest.mark.parametrize("backend", [*BACKENDS, "auto"])
    def test_pooled_build_identity_under_spawn(self, points, backend):
        """Worker processes receive the concrete backend name (``"auto"``
        resolved in the parent), warm it from the on-disk kernel cache,
        and build each shard bit-identically to the in-process numpy
        build."""
        ref = ShardedIndex.build(
            points, method="vamana", seed=5, shards=2, workers=1,
            batch_size=BATCH, **BUILDERS["vamana"],
        )
        if backend == "auto" and BACKENDS:
            accel.warm(BACKENDS[0])  # so the parent resolves "auto" to it
        acc = ShardedIndex.build(
            points, method="vamana", seed=5, shards=2, workers=2,
            batch_size=BATCH, backend=backend, **BUILDERS["vamana"],
        )
        try:
            for j, (a, b) in enumerate(zip(ref.shards, acc.shards)):
                ao, at = a.graph.csr()
                bo, bt = b.graph.csr()
                assert np.array_equal(np.asarray(ao), np.asarray(bo)), (backend, j)
                assert np.array_equal(np.asarray(at), np.asarray(bt)), (backend, j)
        finally:
            ref.close()
            acc.close()
