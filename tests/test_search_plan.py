"""The per-generation search plan and the array-native result path.

Contract under test (ISSUE 19):

* a batch is its rows: with ``SearchParams.starts`` pinned,
  ``search(q_i)`` one row at a time equals row ``i`` of ``search(Q)`` —
  ids, distances, evals, dtypes — for flat / sq8
  storage, in RAM and off a memory-mapped v5 directory, on the numpy
  engines, on ``"auto"`` and on an explicitly named compiled backend,
  for a plain search, ``k`` above the number of live points, an
  ``allowed_ids`` filter, a ``budget`` and a fully tombstoned index;
* a plan never outlives what it was built from: after ``add``,
  ``delete``, ``compact``, ``set_storage``, an in-place rewiring of the
  graph and a ``snapshot()``-then-mutate, an index that has already
  searched (so holds a plan) answers exactly like a freshly loaded copy
  of itself, and the old snapshot still answers as before;
* scratch is per thread: two threads searching one index object at a
  10 µs switch interval return exactly the serial answers;
* the interpreter work of one warmed single-query search is bounded and
  does not grow with the collection: its cProfile call count stays
  under :data:`CALL_CEILING` (the parent made 402 on cffi) and is the
  same at n = 2 000 and n = 16 000, with and without a tombstone; with
  one, it allocates the same number of bytes at both sizes (the live
  mask is per-generation state, not an O(n) pass a call);
* ``delete``, ``add`` and ``compact`` between two searches show in the
  very next one, for flat / sq8 x RAM / mmap x single / sharded indexes;
* a plan stays where it was built: sharded shards that hold plans still
  ship to pool workers (under ``spawn`` too — CI's spawn job runs this
  file), and a snapshot outlives the shared-memory arena its source's
  plans point into.

And of the row split (ISSUE 21), which ``M = 12`` rows never reach:

* a call cut into chunks and run on helper threads is still its rows: a
  70-row batch equals its rows searched one at a time for flat / sq8
  x RAM / mmap x plain / ``allowed_ids`` / ``budget`` with 1 to 4
  usable cores (more than this box has: uneven chunks, idle helpers) —
  a build wave's location is the same ``run_beam`` call;
* the helper threads are one pool for every caller: two threads issuing
  split batches on one index return the serial answers;
* a child process, forked or spawned after the parent's helper threads
  exist, starts its own and answers a split search.
"""

from __future__ import annotations

import cProfile
import functools
import multiprocessing
import pstats
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from repro import ProximityGraphIndex, SearchParams, ShardedIndex, accel
from repro.accel import dispatch
from repro.core.builders import BuiltGraph
from repro.core.persistence import load_any
from repro.graphs.base import ProximityGraph
from repro.metrics import Dataset, EuclideanMetric
from repro.workloads import uniform_cube

COMPILED = [b for b in ("cffi",) if b in accel.available_backends()]
needs_compiled = pytest.mark.skipif(
    not COMPILED, reason="no compiled accel backend is importable here"
)
#: ``"auto"`` runs after ``accel.warm()``, so it is the compiled backend
#: wherever one exists; ``"compiled"`` names that backend explicitly.
ROUTES = [
    "numpy",
    pytest.param("auto", marks=needs_compiled),
    pytest.param("compiled", marks=needs_compiled),
]
STORAGES = ["flat", "sq8"]
N, DIM, M = 400, 8, 12
CALL_CEILING = 132  # 120 calls with a tombstone, 110 without, + 10 %


@pytest.fixture(autouse=True)
def _reset_accel():
    yield
    accel.reset()


def _backend(route: str) -> str:
    if route == "numpy":
        return "numpy"
    accel.warm()
    return "auto" if route == "auto" else COMPILED[0]


@pytest.fixture(scope="module")
def queries():
    return np.random.default_rng(31).uniform(size=(M, DIM))


@pytest.fixture(scope="module")
def indexes(tmp_path_factory):
    """Every storage, built once, in RAM and reopened through mmap."""
    points = uniform_cube(N, DIM, np.random.default_rng(17))
    out = {}
    for name in STORAGES:
        ram = ProximityGraphIndex.build(
            points, epsilon=1.0, method="vamana", seed=3, storage=name
        )
        path = ram.save(tmp_path_factory.mktemp(name) / "v5", format="disk")
        out[name, "ram"] = ram
        out[name, "mmap"] = load_any(path)
    return out


def _assert_same(got, want, ctx):
    __tracebackhide__ = True
    for field in ("ids", "distances", "evals"):
        a, b = getattr(got, field), getattr(want, field)
        assert a.dtype == b.dtype, (ctx, field)
        assert np.array_equal(a, b), (ctx, field)


# ----------------------------------------------------------------------
# (1) a batch is its rows
# ----------------------------------------------------------------------


def _case(name: str, index: ProximityGraphIndex):
    """``(index, k, extra SearchParams fields)`` of one scenario; the
    mutating ones run on a snapshot."""
    ids = index.id_map.externals
    if name == "plain":
        return index, 10, {}
    if name == "k_over_live":
        snap = index.snapshot()
        snap.delete(ids[7:])
        return snap, 10, {}
    if name == "filter":
        allowed = np.random.default_rng(5).choice(ids, size=25, replace=False)
        return index, 10, {"allowed_ids": allowed.tolist()}
    if name == "budget":
        return index, 10, {"budget": 50}
    assert name == "all_tombstoned"
    snap = index.snapshot()
    snap.delete(ids)
    return snap, 10, {}


@pytest.mark.parametrize("route", ROUTES)
@pytest.mark.parametrize("residency", ["ram", "mmap"])
@pytest.mark.parametrize("storage", STORAGES)
@pytest.mark.parametrize(
    "case", ["plain", "k_over_live", "filter", "budget", "all_tombstoned"]
)
def test_each_row_alone_equals_its_row_of_the_batch(
    indexes, queries, storage, residency, route, case
):
    backend = _backend(route)
    index, k, extra = _case(case, indexes[storage, residency])
    starts = np.random.default_rng(9).integers(index.n, size=M)

    def search(Q, rows):
        params = SearchParams(
            beam_width=32, starts=starts[rows], backend=backend, **extra
        )
        return index.search(Q, k=k, params=params)

    batch = search(queries, slice(None))
    assert batch.ids.shape == batch.distances.shape == (M, k)
    for i in range(M):
        row = search(queries[i], slice(i, i + 1))
        assert row.ids.shape == (1, k)
        for field in ("ids", "distances", "evals"):
            a, b = getattr(row, field)[0], getattr(batch, field)[i]
            assert a.dtype == b.dtype and np.array_equal(a, b), (i, field)
    if case == "k_over_live":
        assert ((batch.ids >= 0).sum(axis=1) <= 7).all()
    if case == "all_tombstoned":
        assert (batch.ids == -1).all() and np.isinf(batch.distances).all()


# ----------------------------------------------------------------------
# (2) plan lifetime
# ----------------------------------------------------------------------


@pytest.mark.parametrize("route", ROUTES)
@pytest.mark.parametrize("storage", ["flat", "sq8"])
def test_a_mutated_index_answers_like_a_fresh_copy_of_itself(
    storage, route, queries, tmp_path
):
    backend = _backend(route)
    rng = np.random.default_rng(41)
    index = ProximityGraphIndex.build(
        uniform_cube(300, DIM, rng), epsilon=1.0, method="vamana", seed=2,
        storage=storage,
    )
    params = SearchParams(beam_width=24, seed=1, backend=backend)
    step = 0

    def check(ctx):
        nonlocal step
        step += 1
        fresh = load_any(index.save(tmp_path / f"step{step}", format="disk"))
        _assert_same(
            index.search(queries, k=5, params=params),
            fresh.search(queries, k=5, params=params),
            ctx,
        )

    check("built")  # the index now holds a plan; every mutation must shed it
    index.add(rng.uniform(size=(9, DIM)), mode="repair")
    check("add")
    index.delete(index.id_map.externals[:40])
    check("delete")
    index.compact()
    check("compact")
    index.set_storage("sq8" if storage == "flat" else "flat")
    check("set_storage")
    # A rewired graph is a new graph object, so it brings no plan along.
    graph = index.graph
    rank = np.arange(graph.num_edges) - np.repeat(graph.csr()[0][:-1], graph.out_degrees())
    sources = np.repeat(np.arange(graph.n), graph.out_degrees())
    index.built.graph = graph.without_edges((sources % 2 == 0) & (rank >= 1))
    check("graph rewired")

    old = index.snapshot()
    before = old.search(queries, k=5, params=params)
    index.add(rng.uniform(size=(5, DIM)), mode="repair")
    index.delete(index.id_map.externals[:3])
    check("snapshot, then mutate")
    _assert_same(old.search(queries, k=5, params=params), before, "old snapshot")


# ----------------------------------------------------------------------
# (3) two threads, one index object
# ----------------------------------------------------------------------


def _race(index, jobs, serial, rounds):
    """One thread per job, each repeating its ``(Q, params)`` searches on
    ``index`` at a 10 us switch interval and comparing with ``serial``."""
    errors: list[BaseException] = []

    def reader(job, want):
        try:
            for _ in range(rounds):
                for (Q, p), expected in zip(job, want):
                    _assert_same(index.search(Q, k=6, params=p), expected, "thread")
        except BaseException as exc:  # surfaced by the assert below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [
            threading.Thread(target=reader, args=(job, want))
            for job, want in zip(jobs, serial)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not errors and not any(t.is_alive() for t in threads)


@pytest.mark.parametrize("route", ["numpy", pytest.param("auto", marks=needs_compiled)])
def test_concurrent_searches_return_the_serial_answers(indexes, route):
    backend = _backend(route)
    index = indexes["sq8", "mmap"]
    rng = np.random.default_rng(53)
    # Different batch sizes, widths and seeds per thread: the scratch is
    # regrown for the wider beam and the start-draw memo is contended.
    jobs = [
        [
            (rng.uniform(size=(m, DIM)), SearchParams(beam_width=w, seed=s, backend=backend))
            for m, w, s in spec
        ]
        for spec in ([(1, 16, 0), (5, 48, 1)], [(3, 64, 2), (1, 24, 0)])
    ]
    serial = [[index.search(Q, k=6, params=p) for Q, p in job] for job in jobs]
    _race(index, jobs, serial, rounds=60)


# ----------------------------------------------------------------------
# (4) interpreter work of one call
# ----------------------------------------------------------------------


def lattice_index(n: int) -> ProximityGraphIndex:
    """A fixed-degree circulant graph over random points with sq8
    storage, without a builder's cost; search only needs a frozen graph."""
    jumps = np.array([1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, n // 2])
    rows = np.sort((np.arange(n)[:, None] + jumps[None, :]) % n, axis=1)
    graph = ProximityGraph.from_csr(
        n, np.arange(n + 1) * len(jumps), rows.ravel()
    )
    pts = np.random.default_rng(5).standard_normal((n, DIM))
    index = ProximityGraphIndex(
        Dataset(EuclideanMetric(), pts),
        BuiltGraph("lattice", graph, 1.0, False),
        scale=1.0,
    )
    return index.set_storage("sq8")


def warmed_search(n: int, tombstones: int):
    """One single-query search of a lattice index of ``n`` points, warmed
    by three before it."""
    index = lattice_index(n)
    index.delete(np.arange(tombstones) * 7)
    params = SearchParams(beam_width=64, backend="auto")
    q = np.random.default_rng(6).standard_normal(DIM)
    for _ in range(3):
        index.search(q, k=10, params=params)
    return functools.partial(index.search, q, k=10, params=params)


def calls_of_one_search(n: int, tombstones: int = 0) -> int:
    search = warmed_search(n, tombstones)
    profile = cProfile.Profile()
    profile.enable()
    search()
    profile.disable()
    return pstats.Stats(profile).total_calls


def bytes_of_one_search(n: int, tombstones: int) -> int:
    """Peak bytes traced while the search runs (numpy buffers included)."""
    search = warmed_search(n, tombstones)
    tracemalloc.start()
    try:
        search()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@needs_compiled
def test_one_search_makes_a_bounded_number_of_calls_whatever_n():
    accel.warm()
    for tombstones in (0, 1):
        small = calls_of_one_search(2_000, tombstones)
        large = calls_of_one_search(16_000, tombstones)
        assert small == large, (tombstones, small, large)
        assert large <= CALL_CEILING, tombstones


@needs_compiled
def test_one_search_with_a_tombstone_allocates_the_same_whatever_n():
    """The same up to which ids and floats the two lattices return (tens
    of bytes); one n-long mask a call would be 14 000 bytes more."""
    accel.warm()
    small, large = bytes_of_one_search(2_000, 1), bytes_of_one_search(16_000, 1)
    assert abs(large - small) < 1_000, (small, large)


# ----------------------------------------------------------------------
# (4b) the live mask is per-generation state
# ----------------------------------------------------------------------


@pytest.mark.parametrize("route", ["numpy", pytest.param("auto", marks=needs_compiled)])
@pytest.mark.parametrize("kind", ["single", "sharded"])
@pytest.mark.parametrize("residence", ["ram", "mmap"])
@pytest.mark.parametrize("storage", ["flat", "sq8"])
def test_a_mutation_between_two_searches_shows_in_the_next_one(
    storage, residence, kind, route, queries, tmp_path
):
    """``delete``, ``add`` and ``compact`` each install what searches read
    off the deletion mask; the very next search answers like a freshly
    loaded copy of the mutated index."""
    backend = _backend(route)
    rng = np.random.default_rng(43)
    build = (
        ProximityGraphIndex.build if kind == "single"
        else functools.partial(ShardedIndex.build, shards=2)
    )
    index = build(
        uniform_cube(300, DIM, rng), epsilon=1.0, method="vamana", seed=2,
        storage=storage,
    )
    if residence == "mmap":
        index = load_any(index.save(tmp_path / "built", format="disk"))
    params = SearchParams(beam_width=24, seed=1, backend=backend)
    steps = []

    def check(ctx):
        steps.append(ctx)
        got = index.search(queries, k=5, params=params)
        fresh = load_any(index.save(tmp_path / f"step{len(steps)}", format="disk"))
        _assert_same(got, fresh.search(queries, k=5, params=params), ctx)
        return got

    gone = np.unique(check("built").ids[:, 0])
    index.delete(gone)
    assert not np.isin(check("delete").ids, gone).any()
    assert index.active_count == 300 - len(gone)
    index.add(queries[:4], mode="repair")
    check("add")
    index.compact()
    assert index.tombstone_count == 0
    check("compact")


# ----------------------------------------------------------------------
# (5) a plan stays in the process, and on the arrays, it was built for
# ----------------------------------------------------------------------


@pytest.mark.parametrize("route", ["numpy", pytest.param("auto", marks=needs_compiled)])
def test_sharded_shards_that_hold_plans_still_ship_and_detach(route):
    """Shards searched in the parent hold plans (C pointers into the
    shared-memory arena, thread-local scratch).  The pooled fan-out must
    still pickle its shard payloads, and a snapshot taken before the
    arena is unlinked must answer from its own copy afterwards."""
    backend = _backend(route)
    pts = uniform_cube(240, DIM, np.random.default_rng(61))
    queries = np.random.default_rng(62).uniform(size=(6, DIM))
    params = SearchParams(beam_width=16, seed=4, backend=backend)
    with ShardedIndex.build(
        pts, epsilon=1.0, method="vamana", seed=6, shards=2, workers=2,
        storage="sq8",
    ) as sharded:
        in_parent = [s.search(queries, k=4, params=params) for s in sharded.shards]
        pooled = sharded.search(queries, k=4, params=params)
        assert pooled.evals.tolist() == sum(r.evals for r in in_parent).tolist()
        snap = sharded.snapshot()
        before = snap.search(queries, k=4, params=params)
        _assert_same(before, pooled, "snapshot")
    # The arena is unlinked now; a stale plan would read freed memory.
    _assert_same(snap.search(queries, k=4, params=params), before, "after close")
    snap.close()


# ----------------------------------------------------------------------
# (6) the row split
# ----------------------------------------------------------------------

#: The backend whose kernels release the GIL, the only one that is split.
needs_cffi = pytest.mark.skipif(
    "cffi" not in accel.available_backends(), reason="the cffi backend cannot run here"
)
#: Not a multiple of the chunk length: the last chunk is a short one.
ROWS = 70


@pytest.fixture
def cores(monkeypatch):
    """Set how many cores the split believes it may use; ``set.helpers``
    collects how many helper threads each split call then asked for."""
    accel.warm("cffi")  # its self-check makes split calls of its own

    def set_cores(count: int) -> None:
        monkeypatch.setattr(dispatch, "_usable_cores", lambda: count)

    helper_pool = dispatch._helper_pool
    set_cores.helpers = []

    def spy(count: int):
        set_cores.helpers.append(count)
        return helper_pool(count)

    monkeypatch.setattr(dispatch, "_helper_pool", spy)
    return set_cores


@needs_cffi
@pytest.mark.parametrize("usable", [1, 2, 3, 4])
@pytest.mark.parametrize("residency", ["ram", "mmap"])
@pytest.mark.parametrize("storage", ["flat", "sq8"])
@pytest.mark.parametrize("case", ["plain", "filter", "budget"])
def test_a_split_batch_equals_its_rows_searched_alone(
    indexes, cores, storage, residency, case, usable
):
    cores(usable)
    index, k, extra = _case(case, indexes[storage, residency])
    Q = np.random.default_rng(71).uniform(size=(ROWS, DIM))
    starts = np.random.default_rng(72).integers(index.n, size=ROWS)

    def search(Q, rows):
        params = SearchParams(beam_width=32, starts=starts[rows], backend="cffi", **extra)
        return index.search(Q, k=k, params=params)

    batch = search(Q, slice(None))
    for i in range(ROWS):
        row = search(Q[i], slice(i, i + 1))  # one row is never split
        for field in ("ids", "distances", "evals"):
            a, b = getattr(row, field)[0], getattr(batch, field)[i]
            assert a.dtype == b.dtype and np.array_equal(a, b), (i, field)
    # The batch was split over every core, a single row never is.
    assert cores.helpers == ([usable - 1] if usable > 1 else [])


@needs_cffi
def test_two_callers_share_the_helper_threads_and_get_the_serial_answers(indexes, cores):
    index = indexes["sq8", "mmap"]
    rng = np.random.default_rng(74)
    jobs = [
        [(rng.uniform(size=(m, DIM)), SearchParams(beam_width=w, seed=s, backend="cffi"))]
        for m, w, s in [(ROWS, 48, 1), (40, 64, 2)]
    ]
    cores(1)
    serial = [[index.search(Q, k=6, params=p) for Q, p in job] for job in jobs]
    cores(3)  # two callers and two helpers on this box's two cores
    _race(index, jobs, serial, rounds=40)
    assert set(cores.helpers) == {2}


def _split_search_in_a_child(source, Q, starts, conn):
    """Child-process entry: believe in three cores, search, and send the
    rows, what ``repro.accel`` logged and the helper threads alive here."""
    import logging

    logged: list[str] = []
    handler = logging.Handler()
    handler.emit = lambda record: logged.append(record.getMessage())
    logger = logging.getLogger("repro.accel")
    logger.addHandler(handler)
    logger.setLevel(logging.INFO)
    dispatch._usable_cores = lambda: 3
    index = source if isinstance(source, ProximityGraphIndex) else load_any(source)
    params = SearchParams(beam_width=32, starts=starts, backend="cffi")
    result = index.search(Q, k=10, params=params)
    helpers = [t.name for t in threading.enumerate() if t.name.startswith("repro-accel")]
    conn.send((result.ids, result.distances, result.evals, logged, helpers))
    conn.close()


@needs_cffi
@pytest.mark.parametrize("method", ["fork", "spawn"])
def test_a_child_process_starts_helper_threads_of_its_own(indexes, cores, tmp_path, method):
    """A forked child inherits the parent's executor object and none of
    its threads: work handed to it is never picked up.  The child drops
    it and starts its own on its first split call."""
    if method not in multiprocessing.get_all_start_methods():
        pytest.skip(f"no {method} start method on this platform")
    index = indexes["sq8", "ram"]
    Q = np.random.default_rng(75).uniform(size=(ROWS, DIM))
    starts = np.random.default_rng(76).integers(index.n, size=ROWS)
    cores(3)
    params = SearchParams(beam_width=32, starts=starts, backend="cffi")
    want = index.search(Q, k=10, params=params)  # the parent's helpers now exist
    assert cores.helpers == [2]
    # fork hands the child the very objects (plan and scratch included);
    # spawn pickles its arguments, and a plan stays in its process.
    source = index if method == "fork" else index.save(tmp_path / "v5", format="disk")
    ctx = multiprocessing.get_context(method)
    recv, send = ctx.Pipe(duplex=False)
    child = ctx.Process(target=_split_search_in_a_child, args=(source, Q, starts, send))
    child.start()
    send.close()
    try:
        assert recv.poll(30), "the child never answered its split search"
        ids, distances, evals, logged, helpers = recv.recv()
    finally:
        child.join(timeout=10)
        if child.is_alive():
            child.kill()
            child.join()
    assert child.exitcode == 0
    for got, field in ((ids, "ids"), (distances, "distances"), (evals, "evals")):
        assert np.array_equal(got, getattr(want, field)), field
    assert helpers  # the executor starts its threads as work arrives
    # The forked child found the parent's warm state and its dead pool;
    # the spawned one started from nothing (its warm-time self-check
    # splits too, so its pool started smaller and grew).
    pool_lines = [m.split(":")[0] for m in logged if "helper pool" in m]
    assert pool_lines[0] == "row-split helper pool " + (
        "rebuilt after fork" if method == "fork" else "started"
    )
    assert "rebuilt after fork" not in " ".join(pool_lines[1:])
    assert "2 helper thread(s)" in logged[-1]
