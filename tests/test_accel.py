"""Compiled traversal kernels (ISSUE 6).

Contract under test:

* the cffi C backend (where cffi and a compiler are present) returns
  **bit-identical** results to the pinned numpy engines — ids,
  distances, eval counts, hop counts — across
  3 seeds, both engine modes, and both storages (flat/SQ8);
* edge semantics survive compilation exactly: ``k > beam_width``,
  allowed masks (subset, empty, fully-masked), and budget truncation;
* the C kernels expand a vertex in 32-target blocks: on rows longer than
  one block and than two, every distance kind, budgets around the block
  and row ends, the compiled results equal the numpy engines' — once
  more under UBSan — and the C source compiles warning-free;
* every store kind in ``STORAGE_KINDS`` under both coordinate metrics
  has its own planner mode, each construction entry point runs compiled
  under both coordinate metrics and refuses Minkowski, and the C builds
  with ``-ffp-contract=off``;
* the two-stage search over sq8 is one kernel call — start distance,
  beam, exact rerank and top-k — that calls no store's
  ``rerank_distances``, in RAM and off a mapped index, and agrees with
  the numpy engine's rerank exactly under L2 and L_inf, tombstones, a
  filter, a budget, a k past the pool and a row split;
* the C beam's sorted array makes the engines' two-heap decisions on
  seeded integer grids full of distance ties, under masks and budgets,
  and the C sums an SQ8-L2 row's squares left to right where that order
  decides between two candidates;
* an explicitly requested backend that cannot run here raises
  :class:`AccelUnavailableError` with an actionable message, while
  ``backend="auto"`` silently serves numpy (one
  :class:`AccelFallbackWarning` per process from ``warm()``, none from
  searches);
* backends are inert until warmed: ``get_backend()`` is ``"numpy"`` in
  a fresh process, flips after :func:`repro.accel.warm`, and
  ``index.stats()["accel"]`` reports the live status;
* the sharded fan-out resolves ``backend="auto"`` in the parent and
  ships a concrete backend name to its workers.
"""

from __future__ import annotations

import os
import stat
import subprocess
import tempfile
import warnings

import numpy as np
import pytest

from repro import ProximityGraphIndex, SearchParams, accel
from repro.accel import cbackend, dispatch
from repro.core.persistence import load_any
from repro.core.sharded import ShardedIndex
from repro.graphs.base import ProximityGraph
from repro.graphs.engine import (
    CommitMirror,
    beam_search_batch,
    greedy_batch,
)
from repro.graphs.greedy import BeamBatch
from repro.metrics.base import Dataset
from repro.metrics.euclidean import ChebyshevMetric, EuclideanMetric, MinkowskiMetric
from repro.storage import STORAGE_KINDS, make_store
from repro.storage.base import VectorStore
from repro.storage.disk import DiskTierStore
from repro.storage.sq8 import decode_sq8
from repro.workloads import uniform_cube

#: Compiled backends this environment can run: ``["cffi"]``, or none.
BACKENDS = accel.available_backends()
SEEDS = (0, 1, 2)


@pytest.fixture(scope="module")
def points():
    return uniform_cube(300, 4, np.random.default_rng(11))


@pytest.fixture(scope="module", params=["flat", "sq8"])
def storage_index(request, points):
    index = ProximityGraphIndex.build(
        points, epsilon=1.0, method="vamana", seed=4
    )
    if request.param != "flat":
        index.set_storage(request.param)
    return index


@pytest.fixture(scope="module")
def index(points):
    return ProximityGraphIndex.build(
        points, epsilon=1.0, method="vamana", seed=4
    )


@pytest.fixture(scope="module")
def queries():
    return np.random.default_rng(23).uniform(size=(25, 4))


def _assert_equal(got, ref, ctx):
    __tracebackhide__ = True
    assert np.array_equal(got.ids, ref.ids), ctx
    assert np.array_equal(got.distances, ref.distances), ctx
    assert np.array_equal(got.evals, ref.evals), ctx
    if ref.hops is None:
        assert got.hops is None, ctx
    else:
        assert np.array_equal(got.hops, ref.hops), ctx


class TestBitIdentity:
    """Backends vs numpy through the ``search()`` front door."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("mode,k", [("beam", 10), ("greedy", 1)])
    def test_three_seed_equivalence(self, storage_index, queries, backend, mode, k):
        for seed in SEEDS:
            ref = storage_index.search(
                queries, k=k,
                params=SearchParams(mode=mode, seed=seed, backend="numpy"),
            )
            got = storage_index.search(
                queries, k=k,
                params=SearchParams(mode=mode, seed=seed, backend=backend),
            )
            _assert_equal(got, ref, (backend, mode, seed, storage_index.store.kind))

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_k_larger_than_beam_width(self, index, queries, backend):
        for params in (
            SearchParams(mode="beam", beam_width=4, seed=0),
            SearchParams(mode="beam", beam_width=1, seed=1),
        ):
            ref = index.search(queries, k=16, params=params)
            got = index.search(
                queries, k=16,
                params=SearchParams(**{**params.__dict__, "backend": backend}),
            )
            _assert_equal(got, ref, (backend, params.beam_width))

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_allowed_subset_mask(self, index, queries, backend):
        allowed = list(range(0, 300, 7))
        for seed in SEEDS:
            ref = index.search(
                queries, k=8,
                params=SearchParams(seed=seed, allowed_ids=allowed,
                                    backend="numpy"),
            )
            got = index.search(
                queries, k=8,
                params=SearchParams(seed=seed, allowed_ids=allowed,
                                    backend=backend),
            )
            _assert_equal(got, ref, (backend, seed))
            assert set(ref.ids[ref.ids >= 0].tolist()) <= set(allowed)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_single_member_mask(self, index, queries, backend):
        """A one-id filter: every query must return exactly that id."""
        ref = index.search(
            queries, k=3,
            params=SearchParams(seed=0, allowed_ids=[17], backend="numpy"),
        )
        got = index.search(
            queries, k=3,
            params=SearchParams(seed=0, allowed_ids=[17], backend=backend),
        )
        _assert_equal(got, ref, backend)
        assert (got.ids[:, 0] == 17).all()
        assert (got.ids[:, 1:] == -1).all()

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_empty_and_fully_masked_engine_level(self, index, queries, backend):
        """All-False masks reach the engines when called directly; the
        compiled path must agree (all padding, same eval counts)."""
        graph, dataset = index.graph, index.dataset
        starts = np.zeros(len(queries), dtype=np.int64)
        mask = np.zeros(graph.n, dtype=bool)
        ref = beam_search_batch(
            graph, dataset, starts, queries, beam_width=8, k=4,
            allowed=mask, backend=None,
        )
        got = beam_search_batch(
            graph, dataset, starts, queries, beam_width=8, k=4,
            allowed=mask, backend=backend,
        )
        assert got == ref
        assert (got.ids == -1).all()
        gref = greedy_batch(graph, dataset, starts, queries, allowed=mask)
        ggot = greedy_batch(
            graph, dataset, starts, queries, allowed=mask, backend=backend
        )
        assert ggot == gref
        assert all(r.point == -1 and r.distance == np.inf for r in ggot)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_budget_truncation(self, index, queries, backend):
        for budget in (1, 5, 37):
            for mode, k in (("beam", 4), ("greedy", 1)):
                params = dict(mode=mode, budget=budget, seed=0)
                ref = index.search(
                    queries, k=k, params=SearchParams(**params, backend="numpy")
                )
                got = index.search(
                    queries, k=k, params=SearchParams(**params, backend=backend)
                )
                _assert_equal(got, ref, (backend, mode, budget))
                assert (got.evals <= budget).all()


#: Every distance mode the kernels switch on: (metric, store kind), one
#: per store kind the engines accept times each coordinate metric.
KERNEL_KINDS = {
    f"{store_kind}-{name}": (metric, store_kind)
    for store_kind in STORAGE_KINDS
    for name, metric in (("l2", EuclideanMetric()), ("linf", ChebyshevMetric()))
}


def _long_row_workload(kind, with_store=True):
    """A graph whose rows hold 77-93 targets — three 32-target blocks —
    under one kernel distance mode; every query starts at vertex 0.
    ``with_store=False`` passes no store, as callers of the engines
    without an index do."""
    rng = np.random.default_rng(5)
    n, d, m = 300, 8, 6
    points = rng.standard_normal((n, d))
    graph = ProximityGraph(n, rng.integers(0, n, (n, 100)))
    metric, store_kind = KERNEL_KINDS[kind]
    store = make_store(store_kind, metric, points, seed=0) if with_store else None
    Q = rng.standard_normal((m, d))
    return graph, Dataset(metric, points), store, Q, np.zeros(m, dtype=np.int64)


def _check_long_rows(kind, backends, with_store=True):
    """``backends`` against the numpy engines over :func:`_long_row_workload`:
    beam (ids, distances, evals) and greedy."""
    graph, dataset, store, Q, starts = _long_row_workload(kind, with_store)
    n, row = graph.n, len(graph.out_neighbors(0))
    assert row > 2 * 32
    allowed = np.zeros(n, dtype=bool)
    allowed[::3] = True
    # The start is evaluation 1, its row's three blocks end at 33, 65 and
    # 1 + row: budgets before the first block, inside one, on a block end,
    # on the row end, and inside a later row.
    budgets = (None, 1, 20, 33, 50, 65, 1 + row, 150)
    for budget in budgets:
        for mask in (None, allowed):
            ctx = (kind, budget, mask is not None)
            for width, k in ((8, 4), (4, 16), (n + 50, 5)):
                ref = beam_search_batch(
                    graph, dataset, starts, Q, beam_width=width, k=k,
                    budget=budget, allowed=mask, store=store,
                )
                for backend in backends:
                    # BeamBatch equality: ids, distances and evals.
                    assert ref == beam_search_batch(
                        graph, dataset, starts, Q, beam_width=width, k=k,
                        budget=budget, allowed=mask, store=store, backend=backend,
                    ), (*ctx, width, backend)
            ref = greedy_batch(
                graph, dataset, starts, Q, budget=budget, allowed=mask, store=store
            )
            for backend in backends:
                assert ref == greedy_batch(
                    graph, dataset, starts, Q, budget=budget, allowed=mask,
                    store=store, backend=backend,
                ), (*ctx, backend)


class _LeftToRightL2(EuclideanMetric):
    """L2 that sums each row's squares left to right, as the C kernels
    do; ``einsum`` picks an order that depends on the machine's SIMD, and
    ``np.add.reduce`` sums a contiguous run of 8 or more pairwise."""

    def distances(self, a, batch):
        batch = np.atleast_2d(np.asarray(batch, dtype=np.float64))
        return self._norms(batch - np.asarray(a, dtype=np.float64))

    def distances_many(self, queries, batch, lens):
        batch = np.atleast_2d(np.asarray(batch, dtype=np.float64))
        queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
        return self._norms(batch - np.repeat(queries, np.asarray(lens), axis=0))

    @staticmethod
    def _norms(diff):
        sq = diff * diff
        acc = np.zeros(len(sq))
        for column in sq.T:
            acc += column
        return np.sqrt(acc)


def _check_grid_beams(seed, cases, backend="cffi"):
    """``backend``'s beam against the numpy engine's on ``cases`` seeded
    random workloads built for distance ties: integer points and queries
    in ``{0..3}^d`` (d = 1-5), each of :data:`KERNEL_KINDS` in turn, random
    graphs, ``allowed`` masks admitting 5-90 % of the vertices, budgets,
    beam widths 1-40 and ``k`` up to five past the width.  SQ8 under L2
    with d >= 3 is the one mode whose numpy sums can round a tie apart
    (``einsum`` picks the order); there both sides measure with
    :class:`_LeftToRightL2`, whose arithmetic is the C's."""
    rng = np.random.default_rng(seed)
    for case in range(cases):
        d, n = int(rng.integers(1, 6)), int(rng.integers(20, 90))
        points = rng.integers(0, 4, size=(n, d)).astype(np.float64)
        graph = ProximityGraph(n, rng.integers(0, n, size=(n, int(rng.integers(2, 9)))))
        metric, store_kind = list(KERNEL_KINDS.values())[case % len(KERNEL_KINDS)]
        if store_kind == "sq8" and isinstance(metric, EuclideanMetric) and d >= 3:
            metric = _LeftToRightL2()
        store = make_store(store_kind, metric, points, seed=0)
        Q = rng.integers(0, 4, size=(6, d)).astype(np.float64)
        starts = rng.integers(0, n, size=6)
        density = (None, 0.05, 0.2, 0.5, 0.9)[case % 5]
        allowed = None if density is None else rng.random(n) < density
        width = 1 + (seed * cases + case) % 40
        k = int(rng.integers(1, width + 6))
        # A quarter of the cases run unbudgeted, drawn apart from the kind
        # so that every kind meets both.
        unbudgeted = (case // len(KERNEL_KINDS)) % 4 == 0
        budget = None if unbudgeted else int(rng.integers(1, 3 * n))
        args = dict(beam_width=width, k=k, budget=budget, allowed=allowed, store=store)
        dataset = Dataset(metric, points)
        # BeamBatch equality: ids, distances and evals.
        assert beam_search_batch(
            graph, dataset, starts, Q, **args
        ) == beam_search_batch(
            graph, dataset, starts, Q, backend=backend, **args
        ), (seed, case, d, n, type(metric).__name__, density, width, k, budget)


def _summation_order_case(d=8, draws=100):
    """The first seeded draw where the order of an SQ8-L2 sum decides.

    A palindromic query ``q`` and a code row ``a`` on the grid ``c / 255``
    (which an SQ8 store trained on the zero and all-ones rows decodes
    exactly), with ``b`` its reverse: ``D(q, a) = D(q, b)`` in exact
    arithmetic, and the draw taken rounds them apart one way when each
    row's squares are summed left to right and the other way right to
    left.  Returns the points (zero, ones, a, b), the store, ``q`` and
    the row that left-to-right sums put first."""
    rng = np.random.default_rng(0)
    metric = _LeftToRightL2()
    for _ in range(draws):
        half = rng.uniform(size=d // 2)
        q = np.concatenate([half, half[::-1]])
        a = rng.integers(0, 256, size=d) / 255.0
        points = np.stack([np.zeros(d), np.ones(d), a, a[::-1]])
        store = make_store("sq8", metric, points, seed=0)
        rows = decode_sq8(store.params, store.codes[1:])
        fwd = metric.distances(q, rows)
        bwd = metric.distances(q[::-1], rows[:, ::-1])
        if (fwd[1] < fwd[2]) != (bwd[1] < bwd[2]) and fwd[0] > fwd[1:].max():
            return points, store, q, 2 + int(np.argmin(fwd[1:]))
    raise AssertionError(f"no draw of {draws} lets the summation order decide")


@pytest.mark.skipif("cffi" not in BACKENDS, reason="cffi is not installed")
class TestBeamArray:
    """Where the numpy engine keeps a candidate heap and a pool heap, the C
    beam keeps the vertices a mask admits in one array sorted by (d, v)
    and routes the rest through a min-heap; it must make every decision
    the two heaps make, through distance ties, masks and budgets."""

    @pytest.mark.parametrize("seed", range(8))
    def test_tied_grids_match_the_numpy_engine(self, seed):
        _check_grid_beams(seed, 25)

    def test_sq8_l2_rows_sum_left_to_right(self):
        """Reported distances are re-evaluated in numpy, so the C's
        summation order shows only where it decides between candidates:
        from a far start whose one row is ``{a, b}``, greedy and the beam
        go where left-to-right sums put the query nearer."""
        points, store, q, winner = _summation_order_case()
        graph = ProximityGraph(4, [[], [2, 3], [], []])
        dataset, Q, starts = Dataset(store.metric, points), q[None], [1]
        for width in (1, 2):
            args = dict(beam_width=width, k=width, store=store)
            ref = beam_search_batch(graph, dataset, starts, Q, **args)
            assert ref.ids[0, 0] == winner
            assert ref == beam_search_batch(
                graph, dataset, starts, Q, backend="cffi", **args
            ), width
        ref = greedy_batch(graph, dataset, starts, Q, store=store)
        assert ref[0].point == winner
        assert ref == greedy_batch(graph, dataset, starts, Q, store=store, backend="cffi")


def _sq8_index(metric, n=400):
    points = uniform_cube(n, 4, np.random.default_rng(13))
    return ProximityGraphIndex.build(
        points, epsilon=1.0, method="vamana", metric=metric, seed=4, storage="sq8"
    )


@pytest.mark.skipif("cffi" not in BACKENDS, reason="cffi is not installed")
class TestTwoStageInOneCall:
    """``repro_beam`` prices its own start, reranks its pool on the raw
    rows and writes the final top-k: the compiled two-stage search is one
    kernel call, with the numpy engine's rerank as its oracle."""

    def test_no_store_rerank_is_called(self, queries, tmp_path, monkeypatch):
        index = _sq8_index(EuclideanMetric())
        mapped = load_any(index.save(tmp_path / "idx", format="disk"))
        assert isinstance(mapped.store, DiskTierStore)
        cases = [(ix, Q) for ix in (index, mapped) for Q in (queries[0], queries)]
        want = [
            ix.search(Q, k=5, params=SearchParams(beam_width=16, seed=0, backend="numpy"))
            for ix, Q in cases
        ]
        accel.warm("cffi")  # its self-check runs the numpy rerank

        def refuse(self, dataset, q, cand):
            raise AssertionError("the compiled rerank runs inside the kernel")

        monkeypatch.setattr(VectorStore, "rerank_distances", refuse)
        monkeypatch.setattr(DiskTierStore, "rerank_distances", refuse)
        for (ix, Q), ref in zip(cases, want):
            got = ix.search(Q, k=5, params=SearchParams(beam_width=16, seed=0, backend="cffi"))
            _assert_equal(got, ref, type(ix.store).__name__)

    @pytest.mark.parametrize("metric", [EuclideanMetric(), ChebyshevMetric()], ids=["l2", "linf"])
    @pytest.mark.parametrize("m", [1, 64])
    def test_compiled_rerank_equals_numpy(self, metric, m, monkeypatch):
        # Two usable cores, so the 64-row calls are cut into chunks.
        monkeypatch.setattr(dispatch, "_usable_cores", lambda: 2)
        index = _sq8_index(metric)
        index.delete(list(range(0, index.n, 9)))
        Q = np.random.default_rng(m).uniform(size=(m, 4))
        allowed = list(range(1, index.n, 5))
        for k, extra in (
            (10, {}),
            (10, dict(budget=60)),
            (10, dict(allowed_ids=allowed)),
            (6, dict(allowed_ids=[1, 6, 11], beam_width=8)),  # k past the pool
            (3, dict(rerank_factor=5, budget=25, allowed_ids=allowed)),
        ):
            ref, got = (
                index.search(Q, k=k, params=SearchParams(seed=1, backend=name, **extra))
                for name in ("numpy", "cffi")
            )
            _assert_equal(got, ref, (k, extra))


class TestBlockExpansion:
    """Rows longer than the C kernels' 32-target block, every kind."""

    @pytest.mark.parametrize("kind", KERNEL_KINDS)
    def test_long_rows_every_kind(self, kind):
        _check_long_rows(kind, BACKENDS)

    @pytest.mark.parametrize("kind", ["flat-l2", "flat-linf"])
    def test_long_rows_without_a_store(self, kind):
        _check_long_rows(kind, BACKENDS, with_store=False)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_gnet_rows_through_the_front_door(self, backend):
        points = uniform_cube(200, 2, np.random.default_rng(3))
        index = ProximityGraphIndex.build(points, epsilon=0.5, method="gnet")
        offsets, _ = index.graph.csr()
        assert np.diff(offsets).max() > 2 * 32
        Q = np.random.default_rng(4).uniform(size=(8, 2))
        for budget in (None, 33, 40, 65, 200):
            for params in (
                dict(mode="beam", beam_width=8),
                dict(mode="beam", beam_width=10_000),  # wider than n
                dict(mode="beam", beam_width=8, allowed_ids=list(range(0, 200, 3))),
                dict(mode="greedy"),
            ):
                k = 1 if params["mode"] == "greedy" else 12  # k > beam_width
                ref = index.search(
                    Q, k=k, params=SearchParams(budget=budget, seed=0, **params)
                )
                got = index.search(
                    Q, k=k,
                    params=SearchParams(budget=budget, seed=0, backend=backend, **params),
                )
                _assert_equal(got, ref, (backend, budget, params))

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_beam_wider_than_any_pool_sizes_nothing_by_the_request(
        self, index, queries, backend
    ):
        """A pool never holds more than n entries: a 2**31 beam is the
        n-wide search on every engine, and allocates like it."""
        results = [
            index.search(
                queries, k=3,
                params=SearchParams(backend=name, beam_width=width, seed=0),
            )
            for name in ("numpy", backend)
            for width in (index.n, 2**31)
        ]
        for got in results[1:]:
            _assert_equal(got, results[0], backend)
        assert (results[0].evals == index.n).all()


def _entry_point_calls(metric):
    """Call each construction entry point once on a small workload under
    ``metric`` (a wave's location is ``run_beam``, which the search tests
    cover for every store kind).  Each one's result, or the
    UnsupportedWorkloadError it raised."""
    rng = np.random.default_rng(9)
    n, d = 40, 3
    points = rng.standard_normal((n, d))
    dataset = Dataset(metric, points)
    pool = (np.arange(1, 9), metric.distances(points[0], points[1:9]))
    pools = BeamBatch(pool[0][None], pool[1][None], np.ones(1, dtype=np.int64))
    calls = {
        "run_robust_prune": lambda: dispatch.run_robust_prune(
            dataset, 0, pool[0], pool[1], 1.2, 4
        ),
        "run_commit_wave": lambda: dispatch.run_commit_wave(
            dataset, [0], pools, 1.2, 4, True, CommitMirror(n, 0, 4)
        ),
        "run_traverse": lambda: dispatch.run_traverse(dataset, 0, None, None),
    }
    outcomes = {}
    for name, call in calls.items():
        try:
            outcomes[name] = call()
        except accel.UnsupportedWorkloadError as exc:
            outcomes[name] = exc
    return outcomes


class TestPlannerCoverage:
    """Every store kind the engines accept, under both coordinate metrics,
    has a compiled kernel of its own: a store kind added to
    ``STORAGE_KINDS`` without a planner branch, or a construction entry
    point that stops routing a coordinate metric, fails here."""

    def test_every_kind_has_its_own_plan(self):
        # The planner gives each (store kind, metric) its own kernel mode,
        # without any backend warmed; and the kernels are built without
        # fused multiply-adds, which would round their distances apart
        # from the numpy engines'.
        modes = {
            kind: dispatch._plan(*_long_row_workload(kind)[1:4]).kind
            for kind in KERNEL_KINDS
        }
        assert len(set(modes.values())) == len(KERNEL_KINDS), modes
        assert "-ffp-contract=off" in cbackend._CFLAGS

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_construction_entry_points_run_compiled(self, backend):
        # Every construction entry point runs compiled for both coordinate
        # metrics and every store kind, and refuses a metric it has no
        # kernel for.
        metrics = {type(metric).__name__: metric for metric, _ in KERNEL_KINDS.values()}
        accel.reset()
        try:
            accel.warm(backend)
            compiled = {
                name: _entry_point_calls(metric)
                for name, metric in metrics.items()
            }
            refused = _entry_point_calls(MinkowskiMetric(3.0))
        finally:
            accel.reset()
        for metric, outcomes in compiled.items():
            for name, got in outcomes.items():
                assert not isinstance(got, Exception), (metric, name, got)
            assert outcomes["run_traverse"] is not None, metric
        for name, got in refused.items():
            if name == "run_traverse":
                assert got is None
            else:
                assert isinstance(got, accel.UnsupportedWorkloadError), name


@pytest.mark.skipif(
    cbackend._find_compiler() is None, reason="no C compiler here"
)
class TestCSource:
    def test_compiles_without_a_warning(self, tmp_path):
        source = tmp_path / "kernels.c"
        source.write_text(cbackend._SOURCE)
        proc = subprocess.run(
            [cbackend._find_compiler(), "-Wall", "-Wextra", "-Werror",
             "-fsyntax-only", str(source)],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr

    @pytest.mark.skipif("cffi" not in BACKENDS, reason="cffi is not installed")
    def test_long_rows_under_ubsan(self, monkeypatch):
        """The same cases against a shared object built to abort on
        undefined behaviour (``bounds`` covers the fixed-size stack
        blocks).  The flags are part of the cache key, so it is a
        shared object of its own."""
        monkeypatch.setattr(
            cbackend, "_CFLAGS",
            cbackend._CFLAGS
            + ["-fsanitize=undefined", "-fno-sanitize-recover=undefined"],
        )
        monkeypatch.setattr(cbackend, "_lib", None)
        monkeypatch.setattr(cbackend, "_ffi", None)
        accel.reset()
        try:
            for kind in KERNEL_KINDS:
                _check_long_rows(kind, ["cffi"])
            _check_grid_beams(0, 25)
        finally:
            accel.reset()


class TestBackendSelection:
    def test_unavailable_backend_raises_clear_error(
        self, index, queries, monkeypatch
    ):
        accel.reset()
        monkeypatch.setattr(cbackend, "_find_compiler", lambda: None)
        with pytest.raises(accel.AccelUnavailableError, match="cffi"):
            index.search(
                queries, k=4, params=SearchParams(seed=0, backend="cffi")
            )

    def test_unknown_backend_name_rejected_early(self):
        # "numba" is a name like any other the library never heard of.
        for name in ("cuda", "numba", "python"):
            with pytest.raises(ValueError, match="unknown accel backend"):
                SearchParams(backend=name)

    def test_auto_is_inert_until_warmed(self, index, queries):
        accel.reset()
        try:
            assert accel.get_backend() == "numpy"
            ref = index.search(
                queries, k=4, params=SearchParams(seed=0, backend="numpy")
            )
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # auto must never warn
                got = index.search(
                    queries, k=4, params=SearchParams(seed=0, backend="auto")
                )
            _assert_equal(got, ref, "auto-unwarmed")
        finally:
            accel.reset()

    @pytest.mark.skipif("cffi" not in BACKENDS, reason="cffi is not installed")
    def test_auto_serves_warmed_backend(self, index, queries):
        accel.reset()
        try:
            rec = accel.warm(BACKENDS[0])
            assert rec["backend"] == BACKENDS[0]
            assert rec["compile_seconds"] >= 0.0
            assert accel.get_backend() == "cffi"
            ref = index.search(
                queries, k=4, params=SearchParams(seed=0, backend="numpy")
            )
            got = index.search(
                queries, k=4, params=SearchParams(seed=0, backend="auto")
            )
            _assert_equal(got, ref, "auto-warmed")
        finally:
            accel.reset()

    @pytest.mark.skipif("cffi" not in BACKENDS, reason="cffi is not installed")
    def test_warm_is_idempotent(self):
        accel.reset()
        try:
            first = accel.warm(BACKENDS[0])
            again = accel.warm(BACKENDS[0])
            assert again["backend"] == BACKENDS[0]
            assert again["compile_seconds"] == first["compile_seconds"]
        finally:
            accel.reset()

    def test_warm_auto_without_compiled_warns_once(self, monkeypatch):
        """No compiled backend anywhere: ``warm()`` falls back to numpy
        with exactly one AccelFallbackWarning per process."""
        accel.reset()
        monkeypatch.setattr(dispatch, "available_backends", lambda: [])
        try:
            with pytest.warns(accel.AccelFallbackWarning):
                rec = accel.warm()
            assert rec == {"backend": "numpy", "compile_seconds": 0.0}
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # second call: silent
                rec = accel.warm("auto")
            assert rec["backend"] == "numpy"
        finally:
            accel.reset()

    def test_cli_search_rejects_an_unknown_backend(self, capsys):
        from repro.cli import main

        for name in ("numba", "python"):
            with pytest.raises(SystemExit) as exc:
                main(["search", "unused.npz", "--q", "0.5", "--backend", name])
            assert exc.value.code == 2
            assert f"invalid choice: '{name}'" in capsys.readouterr().err


@pytest.mark.skipif(
    cbackend._find_compiler() is None, reason="no C compiler here"
)
class TestCompileCache:
    """``ensure_compiled`` loads what it finds in the cache, so the cache
    must be this user's own: a real directory and a regular file."""

    def test_refuses_a_symlinked_directory(self, tmp_path, monkeypatch):
        (tmp_path / "real").mkdir()
        link = tmp_path / "link"
        link.symlink_to(tmp_path / "real")
        monkeypatch.setenv("REPRO_ACCEL_CACHE", str(link))
        with pytest.raises(accel.AccelUnavailableError, match=str(link)):
            cbackend.ensure_compiled()

    def test_refuses_a_directory_of_another_uid(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_ACCEL_CACHE", str(tmp_path))
        monkeypatch.setattr(os, "getuid", lambda: tmp_path.stat().st_uid + 1)
        with pytest.raises(accel.AccelUnavailableError, match=str(tmp_path)):
            cbackend.ensure_compiled()
        assert not list(tmp_path.iterdir())  # nothing was written into it

    def test_accepts_its_own_group_writable_directory(
        self, tmp_path, monkeypatch
    ):
        cache = tmp_path / "cache"
        cache.mkdir()
        cache.chmod(0o775)
        monkeypatch.setenv("REPRO_ACCEL_CACHE", str(cache))
        so_path = cbackend.ensure_compiled()
        assert so_path.parent == cache and so_path.is_file()
        assert cbackend.ensure_compiled() == so_path  # reused, not rebuilt
        # The same name as a symlink to someone else's object: refused.
        elsewhere = tmp_path / "planted.so"
        so_path.rename(elsewhere)
        so_path.symlink_to(elsewhere)
        with pytest.raises(accel.AccelUnavailableError, match=so_path.name):
            cbackend.ensure_compiled()

    def test_default_directory_is_created_private(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_ACCEL_CACHE", raising=False)
        monkeypatch.setattr(tempfile, "gettempdir", lambda: str(tmp_path))
        cache = cbackend.ensure_compiled().parent
        assert cache.parent == tmp_path
        assert stat.S_IMODE(cache.stat().st_mode) == 0o700


@pytest.mark.skipif("cffi" not in BACKENDS, reason="cffi is not installed")
class TestStatusReporting:
    def test_stats_reports_backend_status(self, index):
        accel.reset()
        try:
            status = index.stats()["accel"]
            assert status["active"] == "numpy"
            assert status["backends"]["numpy"]["warm"] is True
            for name in BACKENDS:
                assert status["backends"][name]["available"] is True
                assert status["backends"][name]["warm"] is False
            accel.warm(BACKENDS[0])
            status = index.stats()["accel"]
            assert status["active"] == "cffi"
            assert set(status["backends"]) == {"numpy", "cffi"}
            assert status["backends"][BACKENDS[0]]["warm"] is True
            assert status["backends"][BACKENDS[0]]["compile_seconds"] >= 0.0
        finally:
            accel.reset()

    def test_status_reports_the_row_split(self, index, monkeypatch):
        """The thread count a large call is split over: the usable cores
        once cffi, whose kernels release the GIL, is active, else one."""
        monkeypatch.setattr(dispatch, "_usable_cores", lambda: 5)
        accel.reset()
        try:
            threads = index.stats()["accel"]["threads"]
            assert threads == {"split": 1, "releases_gil": False}
            accel.warm("cffi")
            threads = accel.backend_status()["threads"]
            assert threads == {"split": 5, "releases_gil": True}
        finally:
            accel.reset()

    def test_status_is_json_safe(self, index):
        import json

        json.dumps(accel.backend_status())


class TestSharded:
    @pytest.fixture(scope="class")
    def sharded(self, points):
        return ShardedIndex.build(
            points, epsilon=1.0, method="vamana", shards=2, seed=4
        )

    @pytest.mark.parametrize("backend", BACKENDS[:1])
    def test_fanout_bit_identity(self, sharded, queries, backend):
        ref = sharded.search(
            queries, k=8, params=SearchParams(seed=0, backend="numpy")
        )
        got = sharded.search(
            queries, k=8, params=SearchParams(seed=0, backend=backend)
        )
        _assert_equal(got, ref, backend)

    @pytest.mark.skipif("cffi" not in BACKENDS, reason="cffi is not installed")
    def test_auto_resolved_before_fanout(self, sharded, queries):
        """The parent pins ``"auto"`` to a concrete backend name so
        workers never re-resolve against their own (cold) warm state."""
        accel.reset()
        try:
            accel.warm(BACKENDS[0])
            ref = sharded.search(
                queries, k=8, params=SearchParams(seed=0, backend="numpy")
            )
            got = sharded.search(
                queries, k=8, params=SearchParams(seed=0, backend="auto")
            )
            _assert_equal(got, ref, "sharded-auto")
        finally:
            accel.reset()

    def test_sharded_stats_report_accel(self, sharded):
        assert sharded.stats()["accel"]["backends"]["numpy"]["warm"] is True
