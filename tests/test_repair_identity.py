"""``add()`` repair: the array-native path against a list-based reference.

Contract under test (ISSUE 15):

* the graph ``add(mode="repair")`` produces — CSR offsets, targets and
  their dtypes — together with the id map and the tombstone mask, is
  array-equal after every one of several add/delete rounds to
  :func:`reference_repair` below, the per-vertex-list repair the index
  used to run, kept here as the oracle.  Routes: L2 on the numpy
  engines, L2 on a compiled backend (skipped where none is warmable),
  L1 (no compiled kernel, so ``"auto"`` falls back to numpy), ``sq8``
  storage, a singleton add (``insert_one``) and a 150-point add (three
  waves at the default ``batch_size`` of 64);
* the interpreter work of one ``add`` does not grow with the
  collection: the cProfile call count at n = 16 000 is under twice the
  count at n = 2 000 on both routes (the list-based repair made calls
  in proportion to n).
"""

from __future__ import annotations

import cProfile
import math
import pstats

import numpy as np
import pytest

from repro import ProximityGraphIndex, accel
from repro.core.builders import BuiltGraph
from repro.graphs.base import ProximityGraph
from repro.graphs.engine import (
    beam_search_batch,
    prune_and_link,
    snapshot_graph,
)
from repro.metrics import Dataset, EuclideanMetric
from repro.metrics.euclidean import MinkowskiMetric

COMPILED = [b for b in ("cffi",) if b in accel.available_backends()]
needs_compiled = pytest.mark.skipif(
    not COMPILED, reason="no compiled accel backend is warmable here"
)
DIM = 5
# (points added, how many of them are deleted again) per round.
ROUNDS = ((8, 3), (1, 1), (150, 40), (8, 0), (3, 2))


@pytest.fixture(autouse=True)
def _reset_accel():
    yield
    accel.reset()


def reference_repair(
    index: ProximityGraphIndex, new_pts: np.ndarray, batch_size: int = 64
) -> ProximityGraph:
    """The graph ``index.add(new_pts, mode="repair")`` must produce:
    copy every row into a Python list, locate each wave against a list
    snapshot, commit member by member, then build the graph from the lists."""
    graph, n_old, count = index.graph, index.dataset.n, len(new_pts)
    points = np.concatenate([np.asarray(index.dataset.points), new_pts], axis=0)
    dataset = Dataset(index.dataset.metric, points)
    adj = [[int(v) for v in graph.out_neighbors(u)] for u in range(n_old)]
    adj += [[] for _ in range(count)]
    degree_cap = max(8, int(math.ceil(graph.mean_out_degree())))
    sample = np.random.default_rng(index.seed).choice(
        n_old, size=min(n_old, 256), replace=False
    )
    pair = dataset.metric.pairwise(dataset.points[sample])
    entry = int(sample[np.argmin(pair.sum(axis=1))])
    for lo in range(0, count, batch_size):
        wave = list(range(n_old + lo, n_old + min(lo + batch_size, count)))
        width = max(32, 2 * degree_cap)
        pools = beam_search_batch(
            snapshot_graph(len(adj), adj),
            dataset,
            [entry] * len(wave),
            dataset.points[wave],
            beam_width=width,
            k=width,
        )
        for pid, ids, dists in zip(wave, pools.ids, pools.dists):
            found = ids >= 0
            prune_and_link(
                dataset, adj, pid,
                np.asarray(ids[found], dtype=np.intp),
                np.asarray(dists[found], dtype=np.float64),
                1.2, degree_cap,
            )
    return ProximityGraph(len(adj), adj)


def assert_same_graph(got: ProximityGraph, want: ProximityGraph) -> None:
    assert got.n == want.n
    for g, w in zip(got.csr(), want.csr()):
        assert g.dtype == w.dtype
        assert np.array_equal(g, w)


def run_rounds(index: ProximityGraphIndex, backend: str | None) -> None:
    rng = np.random.default_rng(17)
    n0 = index.n
    deleted: list[int] = []
    total = 0
    for count, drop in ROUNDS:
        new = rng.standard_normal((count, DIM))
        want = reference_repair(index, index._normalize_queries(new)[0])
        ids = index.add(new, mode="repair", backend=backend)
        assert_same_graph(index.graph, want)
        assert ids.tolist() == list(range(n0 + total, n0 + total + count))
        total += count
        if drop:
            assert index.delete(ids[:drop]) == drop
            deleted += ids[:drop].tolist()
    assert np.array_equal(index.id_map.externals, np.arange(n0 + total))
    tombstones = np.zeros(n0 + total, dtype=bool)
    tombstones[deleted] = True
    assert np.array_equal(index._tombstones, tombstones)
    assert index.built.guaranteed is False
    assert index.built.meta["repaired_inserts"] == total
    assert index.store.n == index.n


def build(metric=None, **options) -> ProximityGraphIndex:
    pts = np.random.default_rng(3).standard_normal((400, DIM))
    return ProximityGraphIndex.build(
        pts, epsilon=1.0, method="vamana", metric=metric, seed=9, **options
    )


class TestRepairIdentity:
    def test_l2_numpy(self):
        run_rounds(build(), None)

    @needs_compiled
    def test_l2_compiled(self):
        assert accel.warm()["backend"] in COMPILED
        run_rounds(build(), "auto")

    @pytest.mark.parametrize("backend", [None, "auto"])
    def test_l1_falls_back_to_numpy(self, backend):
        accel.warm()  # "auto" has a compiled backend to decline, where one exists
        run_rounds(build(metric=MinkowskiMetric(1)), backend)

    def test_sq8_storage(self):
        run_rounds(build(storage="sq8"), None)

    @needs_compiled
    def test_sq8_storage_compiled(self):
        accel.warm()
        run_rounds(build(storage="sq8"), "auto")

    @pytest.mark.parametrize("backend", [None, "auto"])
    def test_rows_longer_than_the_degree_cap(self, backend):
        # One hub row far longer than the degree cap (the mean degree):
        # the padded store is sized by the longest row, and the hub is
        # cut down to the cap the first time a backlink overflows it.
        index = lattice_index(300, hub=True)
        assert index.graph.max_out_degree() > 20 * index.graph.mean_out_degree()
        accel.warm()
        run_rounds(index, backend)


def lattice_index(n: int, hub: bool = False) -> ProximityGraphIndex:
    """An index over a ring lattice with a few long jumps: built with
    array ops in milliseconds, every row 12 long (and, with ``hub``,
    vertex 0 pointing at everyone).  Repair only needs a frozen graph to
    search and relink, not a good one."""
    jumps = np.array([1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, n // 2])
    rows = np.sort((np.arange(n)[:, None] + jumps[None, :]) % n, axis=1)
    lens = np.full(n, len(jumps))
    targets = rows.ravel()
    if hub:
        lens[0] = n - 1
        targets = np.concatenate([np.arange(1, n), rows[1:].ravel()])
    graph = ProximityGraph.from_csr(
        n, np.concatenate([[0], np.cumsum(lens)]), targets
    )
    pts = np.random.default_rng(5).standard_normal((n, DIM))
    return ProximityGraphIndex(
        Dataset(EuclideanMetric(), pts),
        BuiltGraph("lattice", graph, 1.0, False),
        scale=1.0,
    )


def calls_of_one_add(n: int, backend: str | None) -> int:
    index = lattice_index(n)
    new = np.random.default_rng(6).standard_normal((8, DIM))
    profile = cProfile.Profile()
    profile.enable()
    index.add(new, mode="repair", backend=backend)
    profile.disable()
    return pstats.Stats(profile).total_calls


class TestRepairScaling:
    def test_numpy_route_calls_do_not_grow_with_n(self):
        small, large = calls_of_one_add(2_000, None), calls_of_one_add(16_000, None)
        assert large < 2 * small, (small, large)

    @needs_compiled
    def test_compiled_route_calls_do_not_grow_with_n(self):
        accel.warm()
        small, large = calls_of_one_add(2_000, "auto"), calls_of_one_add(16_000, "auto")
        assert large < 2 * small, (small, large)
        assert large < 2_000  # the whole wave is two kernel calls
