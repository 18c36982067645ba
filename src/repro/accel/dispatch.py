"""Backend registry, workload planning, and batch execution.

This module owns the three runtime questions the accel layer answers:

1. **Which backends can run here?**  ``"cffi"`` when the :mod:`cffi`
   package and a system C compiler are present, none otherwise;
   ``available_backends()`` reports it.  The numpy engines are always
   there: they are the fallback and the oracle every kernel is pinned
   against.

2. **Which backend serves a search?**  A backend must be *warmed*
   (compiled and self-checked against the numpy engines, via
   :func:`warm`) before :func:`get_backend` will return it — so nothing
   changes behavior until a caller opts in.  :func:`resolve_backend`
   maps a ``SearchParams.backend`` request to a concrete name:
   ``"auto"`` → cffi once warmed (else ``"numpy"``, never an error), an
   explicit name → warm-on-demand or :class:`AccelUnavailableError`.

3. **Can this workload run compiled?**  :func:`_plan` classifies the
   (dataset, store) combination into a kernel distance mode — flat or
   SQ8, Euclidean or Chebyshev — and raises
   :class:`UnsupportedWorkloadError` for everything else (object points,
   explicit distance matrices, Minkowski over raw coordinates, ...),
   which ``backend="auto"`` treats as a silent numpy fallback.

:func:`run_beam` / :func:`run_greedy` then execute a whole batch in one
kernel call.  What does not change between two searches of one index
generation — the classification, the contiguous CSR / vector / quantiser
exports, the C kernels bound to them (their pointers) and per-thread
scratch — is a :class:`_SearchPlan`, built by the first
search and kept on the graph object; :func:`_search_plan` uses it only
for the very graph arrays, dataset, store and code matrix it was built
from, so nothing has to invalidate it.  Per call: the numpy distance
view of the batch, the query / start / output arrays and their
pointers.

The rows of a batch are independent, so :func:`run_beam` — searches,
and the candidate location of every insertion-build wave — gives a
call with enough of them to :func:`_split_rows`: contiguous row chunks,
each run by the same bound kernel on the matching slices of the inputs
and outputs, claimed by the calling thread and by a process-wide pool
of helper threads — one per further usable core
(``os.sched_getaffinity``); cffi releases the GIL around every C call,
so they run at once.  A short call or one core is
the same function with the caller as its only worker.

Reported distances of a plain beam are **evaluated through the same
numpy distance view** the engines use (``FlatQueryView`` / SQ8
``segmented``), so a compiled search returns bit-identical floats
whenever it makes the same routing decisions — and the kernels replicate
the engines' decision arithmetic (see :mod:`repro.accel.cbackend`).
:func:`run_beam` leaves that evaluation to the first read of
``BeamBatch.dists``.  With ``rerank`` (the two-stage search over a
quantized store) the kernel reranks its own pool on the raw rows and
writes the final top-k: one call, no numpy pass after it, and floats the
numpy rerank reproduces (``storage.base.exact_distances``).

The G-net build asks for nothing: :func:`run_traverse` and
:func:`run_in_edge_csr` run on cffi wherever it is (checked once, as by
:func:`warm`, but installed for no search), else return ``None`` and the
numpy loop builds, silently.
"""

from __future__ import annotations

import importlib.util
import itertools
import logging
import os
import threading
import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable

import numpy as np

from repro.accel import cbackend as _C
from repro.graphs.engine import _check_budget, _check_rerank, _distance_view
from repro.graphs.greedy import BeamBatch, GreedyResult
from repro.metrics.euclidean import ChebyshevMetric, EuclideanMetric
from repro.storage.base import decompose_metric
from repro.storage.disk import DiskTierStore

__all__ = [
    "AccelError",
    "AccelUnavailableError",
    "UnsupportedWorkloadError",
    "AccelFallbackWarning",
    "BACKEND_CHOICES",
    "available_backends",
    "backend_status",
    "get_backend",
    "resolve_backend",
    "warm",
    "reset",
    "run_beam",
    "run_greedy",
    "run_robust_prune",
    "run_traverse",
    "run_in_edge_csr",
    "construction_supported",
]


class AccelError(RuntimeError):
    """Base class of accel-layer errors."""


class AccelUnavailableError(AccelError):
    """An explicitly requested backend cannot run in this environment."""


class UnsupportedWorkloadError(AccelError):
    """The workload (metric / point layout / store) has no compiled
    kernel; ``backend="auto"`` falls back to numpy, explicit backends
    surface this error."""


class AccelFallbackWarning(UserWarning):
    """Emitted once per process when acceleration was requested but no
    compiled backend is available, and the numpy engines serve instead."""


#: Every value a ``backend=`` takes; ``SearchParams``, the CLI and the
#: HTTP body validate against this one tuple.
BACKEND_CHOICES = ("auto", "numpy", "cffi")

# name -> {"compile_seconds": float}; a backend listed here has been
# compiled and has passed its self-check this process.
_CHECKED: dict[str, dict[str, Any]] = {}
# The checked backends warm() installed: "auto" searches may use these.
_WARM: dict[str, dict[str, Any]] = {}
_WARNED_NO_COMPILED = False
_TRAVERSE_REFUSED = False  # cffi failed to build or check: G-nets stay numpy


def available_backends() -> list[str]:
    """Compiled backends that *can* run here (warm or not)."""
    compiled = (
        importlib.util.find_spec("cffi") is not None
        and _C._find_compiler() is not None
    )
    return ["cffi"] if compiled else []


def get_backend() -> str:
    """The backend that serves ``backend="auto"`` searches right now:
    ``"cffi"`` once warmed, else ``"numpy"``.

    Never warms, warns, or raises — before any :func:`warm` call this
    is always ``"numpy"``, which is what keeps the accel layer inert
    until a caller opts in.
    """
    return "cffi" if "cffi" in _WARM else "numpy"


def backend_status() -> dict[str, Any]:
    """JSON-safe status for ``index.stats()`` / ``repro index info``."""
    rec = _WARM.get("cffi")
    active = get_backend()
    compiled = active == "cffi"  # cffi releases the GIL in every C call
    return {
        "active": active,
        "backends": {
            "numpy": {"available": True, "warm": True, "compile_seconds": 0.0},
            "cffi": {
                "available": bool(available_backends()),
                "warm": rec is not None,
                "compile_seconds": None if rec is None else rec["compile_seconds"],
            },
        },
        "threads": {
            "split": _usable_cores() if compiled else 1,
            "releases_gil": compiled,
        },
    }


def reset() -> None:
    """Forget warm state and the fallback-warning latch (test isolation).

    The row-split helper threads are not warm state: they belong to the
    process, not to a backend, and stay."""
    global _WARNED_NO_COMPILED, _TRAVERSE_REFUSED
    _CHECKED.clear()
    _WARM.clear()
    _WARNED_NO_COMPILED = False
    _TRAVERSE_REFUSED = False


def warm(backend: str | None = None) -> dict[str, Any]:
    """Compile and self-check cffi; returns its warm record.

    ``backend=None`` (or ``"auto"``) picks cffi; when it is not
    available it emits one :class:`AccelFallbackWarning` per process and
    records ``"numpy"`` — callers keep working on the pinned engines.
    ``"cffi"`` warms it or raises :class:`AccelUnavailableError`.

    Warming compiles-or-dlopens the cached shared object and runs a small
    beam + two-stage beam + greedy + prune + wave-commit + G-net traversal
    workload against the numpy engines, refusing to install kernels that
    do not reproduce them exactly.  The elapsed time is recorded as
    ``compile_seconds``; kernels a G-net build has already checked are
    not checked again.
    """
    global _WARNED_NO_COMPILED
    if backend is None or backend == "auto":
        if "cffi" not in available_backends():
            if not _WARNED_NO_COMPILED:
                warnings.warn(
                    "no compiled accel backend is available (no C "
                    "compiler/cffi was found); searches continue on the "
                    "pinned numpy engines. Install the 'accel' extra (pip "
                    "install repro-proximity-graphs[accel]) and a C "
                    "compiler for compiled kernels.",
                    AccelFallbackWarning,
                    stacklevel=2,
                )
                _WARNED_NO_COMPILED = True
            return {"backend": "numpy", "compile_seconds": 0.0}
        backend = "cffi"
    if backend == "numpy":
        return {"backend": "numpy", "compile_seconds": 0.0}
    if backend != "cffi":
        raise ValueError(
            f"unknown accel backend {backend!r}; choose from {BACKEND_CHOICES}"
        )
    if backend not in _WARM:
        if not available_backends():
            raise AccelUnavailableError(
                "backend='cffi' was requested but cffi and/or a system C "
                "compiler (cc/gcc/clang) is not available. Use backend='auto' "
                "to fall back gracefully."
            )
        _WARM[backend] = _checked()
    return dict(_WARM[backend], backend=backend)


def _checked() -> dict[str, Any]:
    """Compile and self-check cffi once per process; its record."""
    rec = _CHECKED.get("cffi")
    if rec is None:
        t0 = time.perf_counter()
        _self_check()  # the first kernel call compiles / loads
        rec = _CHECKED["cffi"] = {"compile_seconds": time.perf_counter() - t0}
    return rec


def resolve_backend(requested: str | None) -> str:
    """Map a ``SearchParams.backend`` request to a concrete engine name.

    ``None``/``"numpy"`` → ``"numpy"``; ``"auto"`` → :func:`get_backend`
    (warmed best, else numpy — never warms implicitly, never raises);
    an explicit backend name → that backend, warmed on demand, raising
    :class:`AccelUnavailableError` when it cannot run here.
    """
    if requested is None or requested == "numpy":
        return "numpy"
    if requested == "auto":
        return get_backend()
    if requested not in _WARM:
        warm(requested)  # raises for an unknown or unavailable name
    return requested


# ---------------------------------------------------------------------------
# the row split: the independent rows of one call, over the usable cores

#: Rows a thread must be given before a helper is worth waking.  Handing a
#: chunk to a parked helper costs 0.1-0.2 ms on the box this was sized on
#: (queue hand-off, then the GIL changes hands) against ~43 us for one
#: beam row (n = 20 000, d = 16, beam 64).  Re-measured at that row cost:
#: 16 rows take 0.68-0.86 ms split and 0.80-0.82 ms on one thread (64 rows:
#: 1.8-2.2 against 2.5-2.7), so 8 rows a thread is still the break-even.
_ROWS_PER_THREAD = 8

_log = logging.getLogger("repro.accel")

# The process-wide helper threads, (executor, thread count), started by the
# first call that is split.  One pool for every caller: a server's executor
# threads and the helpers are one budget, callers + cores - 1 kernel
# threads at most.  A forked child inherits the executor object but none
# of its threads, so it drops the pool and starts its own on first use.
_helpers: tuple[ThreadPoolExecutor, int] | None = None
_helpers_lock = threading.Lock()
_forked = False


def _drop_helpers_in_child() -> None:
    global _helpers, _helpers_lock, _forked
    _helpers = None
    _helpers_lock = threading.Lock()
    _forked = True


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_drop_helpers_in_child)


def _usable_cores() -> int:
    """Cores this process may run on: its affinity mask (``taskset``,
    cgroup cpusets), not the machine's core count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _helper_pool(count: int) -> ThreadPoolExecutor:
    """The process's helper threads, ``count`` of them or more."""
    global _helpers, _forked
    helpers = _helpers
    if helpers is not None and helpers[1] >= count:
        return helpers[0]
    with _helpers_lock:
        if _helpers is None or _helpers[1] < count:
            if _helpers is not None:
                # More cores than when it started (the affinity mask was
                # widened).  The old executor is let go, not shut down: a
                # caller may be about to hand it work, and its threads
                # exit once its last user has dropped it.
                what = "grown"
            else:
                what = "rebuilt after fork" if _forked else "started"
            _log.info(
                "row-split helper pool %s: %d helper thread(s) beside each "
                "calling thread", what, count,
            )
            _forked = False
            _helpers = (
                ThreadPoolExecutor(count, thread_name_prefix="repro-accel"),
                count,
            )
        return _helpers[0]


def _split_rows(
    m: int,
    arrays: tuple[np.ndarray, ...],
    run: Callable[..., None],
) -> None:
    """Run a kernel over the ``m`` rows of one call, cut into chunks.

    ``arrays`` are the call's row-aligned inputs and outputs (one that
    the workload does not use has no rows and stays empty when cut);
    ``run(*arrays)`` executes the kernel on them, with scratch of the
    thread it runs on.  A row never sees another row's state, so however
    the rows are cut and whichever thread runs a chunk, every row's
    result is the one-call result.  With enough rows and more than one
    usable core (cffi releases the GIL, so helpers run at once), ``run`` gets
    contiguous row ranges of every array, claimed by the caller and by
    helper threads as they come free; otherwise the caller is the only
    worker and runs all rows at once.
    """
    cores = threads = 1
    if m >= 2 * _ROWS_PER_THREAD:
        cores = _usable_cores()
        threads = min(cores, m // _ROWS_PER_THREAD)
    if threads == 1:
        run(*arrays)
        return
    # Rows differ in cost, so chunks are claimed, not dealt: ~8 a thread,
    # and the last one to finish is a small share of the call.
    chunk = max(_ROWS_PER_THREAD, m // (8 * threads))
    claims = itertools.count()

    def work() -> None:
        while True:
            lo = next(claims) * chunk
            if lo >= m:
                return
            run(*[a[lo : lo + chunk] for a in arrays])

    pool = _helper_pool(cores - 1)  # threads start as work arrives
    helping = [pool.submit(work) for _ in range(threads - 1)]
    try:
        work()
    finally:
        for future in helping:
            # A helper still queued behind another caller's chunks has
            # nothing left to claim; one that started is awaited.
            if not future.cancel():
                future.result()


# ---------------------------------------------------------------------------
# workload planning


class _Plan:
    """Kernel-consumable layout of one (dataset, store) workload: the
    distance mode and the exported arrays.  Nothing in it depends on the
    query batch, so a search plan keeps it for as long as it lives."""

    __slots__ = (
        "kind", "factor", "dim", "data", "codes", "minv", "scale", "exact_kind", "exact_factor",
    )


_EMPTY_F2 = np.empty((0, 0), dtype=np.float64)
_EMPTY_U2 = np.empty((0, 0), dtype=np.uint8)
_EMPTY_F1 = np.empty(0, dtype=np.float64)


def _coord_kind(metric: Any, l2_kind: int, linf_kind: int) -> tuple[int, float]:
    inner, factor = decompose_metric(metric)
    if isinstance(inner, EuclideanMetric):
        return l2_kind, factor
    if isinstance(inner, ChebyshevMetric):
        return linf_kind, factor
    raise UnsupportedWorkloadError(
        f"no compiled kernel for metric {type(inner).__name__} over raw "
        "coordinates (Euclidean and Chebyshev are supported); use "
        "backend='numpy'"
    )


def _coords_f64(arr: Any, who: str) -> np.ndarray:
    a = np.asarray(arr)
    if a.dtype != np.float64 or a.ndim != 2:
        raise UnsupportedWorkloadError(
            f"compiled kernels need (n, d) float64 {who}, got dtype "
            f"{a.dtype} with shape {getattr(a, 'shape', '?')}; use "
            "backend='numpy'"
        )
    return np.ascontiguousarray(a)


def _plan(dataset: Any, store: Any, Q: np.ndarray) -> _Plan:
    """Classify the workload and export kernel-ready arrays.

    ``Q`` only says what kind of rows the batch holds: a flat workload
    is classified through a view bound to none of them (``Q[:0]``),
    reading the fields the engines' own view reads.

    Memmap-backed arrays (a v5 disk-tier index's codes, points, and CSR
    mappings) pass through without copying: every export below goes via
    ``np.ascontiguousarray`` with the array's native dtype, which on an
    already C-contiguous mapping returns a zero-copy ndarray view — the
    kernels then read straight from the page cache, and the hot tier's
    lazy-attach property survives compiled traversal (pinned by
    ``tests/test_persistence_disk.py``).  A ``DiskTierStore`` delegates
    ``kind``/``codes``/``params``/``metric``/``bind`` to its inner store;
    only the raw rows an sq8 plan reranks on are its own, the mapped
    ``vectors``, so a mapped index's search never reads ``dataset.points``.
    """

    plan = _Plan()
    plan.data = _EMPTY_F2
    plan.codes = _EMPTY_U2
    plan.minv = _EMPTY_F1
    plan.scale = _EMPTY_F1

    kind = getattr(store, "kind", "flat") if store is not None else "flat"
    if kind == "flat":
        view = _distance_view(dataset, Q[:0], store)
        plan.data = _coords_f64(view.points, "points")
        plan.kind, plan.factor = _coord_kind(
            view.metric, _C.KIND_FLAT_L2, _C.KIND_FLAT_LINF
        )
        plan.exact_kind, plan.exact_factor = plan.kind, plan.factor
        plan.dim = plan.data.shape[1]
    elif kind == "sq8":
        plan.kind, plan.factor = _coord_kind(
            store.metric, _C.KIND_SQ8_L2, _C.KIND_SQ8_LINF
        )
        plan.codes = np.ascontiguousarray(store.codes)
        plan.minv = np.ascontiguousarray(store.params.minv, dtype=np.float64)
        plan.scale = np.ascontiguousarray(store.params.scale, dtype=np.float64)
        plan.dim = plan.codes.shape[1]
        raw = store.vectors if isinstance(store, DiskTierStore) else dataset.points
        plan.data = _coords_f64(raw, "points")
        if plan.data.shape != plan.codes.shape:
            raise UnsupportedWorkloadError(
                f"the raw rows {plan.data.shape} do not match the codes {plan.codes.shape}"
            )
        plan.exact_kind, plan.exact_factor = _coord_kind(
            dataset.metric, _C.KIND_FLAT_L2, _C.KIND_FLAT_LINF
        )
    else:
        raise UnsupportedWorkloadError(
            f"no compiled kernel for store kind {kind!r}; use backend='numpy'"
        )
    return plan


def _query_arrays(plan: _Plan, view: Any) -> np.ndarray:
    """The kernels' per-batch query matrix ``Q`` of a bound view."""
    # A quantized view holds its own float64 cast of the queries.
    Q = _coords_f64(view.Q, "queries")
    if Q.shape[1] != plan.dim:
        raise UnsupportedWorkloadError(
            f"query dimension {Q.shape[1]} does not match the stored "
            f"vectors' dimension {plan.dim}"
        )
    return Q


def _query_array(queries: Any) -> np.ndarray:
    arr = queries if isinstance(queries, np.ndarray) else np.asarray(queries)
    if arr.dtype == object:
        raise UnsupportedWorkloadError(
            "compiled kernels need a rectangular numeric query array; use "
            "backend='numpy'"
        )
    return arr


# ---------------------------------------------------------------------------
# the search plan: what one index generation's searches share

# Largest visited stamp an int32 array can hold.
_MAX_STAMP = 2**31 - 1


class _Scratch:
    """One thread's kernel buffers under one search plan.

    ``visited`` is never cleared between calls: every query stamps it
    with a generation number of its own, and :meth:`stamps` hands out
    numbers that continue where the previous call stopped (clearing only
    when int32 would overflow).
    """

    __slots__ = ("visited", "args", "_next")

    def __init__(self, plan: "_SearchPlan") -> None:
        n = plan.n
        self.visited = np.zeros(n, dtype=np.int32)
        self.args = plan.kernels.scratch(
            self.visited,
            # The beam's entries: each vertex enters at most once a query.
            np.empty(n + 1, dtype=np.float64),
            np.empty(n + 1, dtype=np.int64),
        )
        self._next = 0

    def stamps(self, m: int) -> int:
        """Reserve ``m`` generations; returns the kernel's ``gen0``."""
        if self._next + m > _MAX_STAMP:
            self.visited.fill(0)
            self._next = 0
        gen0 = self._next
        self._next += m
        return gen0


class _SearchPlan:
    """Everything the searches of one (graph, dataset, store) share.

    Built by the first compiled search and kept on the graph object, so
    it lives exactly as long as that index generation: ``add`` and
    ``compact`` install a new graph, and a plan is only ever used for
    the very objects it was built from (:func:`_search_plan` compares
    identities — a new store, or an old one whose code matrix was
    rebound, gets a new plan).  Holds the workload's :class:`_Plan`, the
    C kernels bound to the CSR and vector arrays' pointers, and
    per-thread scratch — two threads may search one index object at once.
    """

    __slots__ = ("key", "layout", "kernels", "n", "_local")

    def __init__(self, key: tuple, graph: Any, layout: _Plan) -> None:
        self.key = key
        self.layout = layout
        self.n = graph.n
        self.kernels = _C.SearchKernels(
            *graph.csr(), layout.kind, layout.factor,
            layout.data, layout.codes, layout.minv, layout.scale,
            layout.exact_kind, layout.exact_factor,
        )
        self._local = threading.local()

    def scratch(self) -> _Scratch:
        """This thread's buffers."""
        scratch = getattr(self._local, "scratch", None)
        if scratch is None:
            scratch = self._local.scratch = _Scratch(self)
        return scratch


def _search_plan(graph: Any, dataset: Any, store: Any, Q: np.ndarray) -> _SearchPlan:
    """The plan of this (graph, dataset, store), built on first use.

    It hangs on the graph, whose CSR never changes, so only the vector
    side is compared."""
    codes = None if store is None else store.codes
    plan = getattr(graph, "_accel_plan", None)
    if plan is not None:
        p_dataset, p_store, p_codes = plan.key
        if p_dataset is dataset and p_store is store and p_codes is codes:
            return plan
    plan = graph._accel_plan = _SearchPlan(
        (dataset, store, codes), graph, _plan(dataset, store, Q)
    )
    return plan


def _allowed_arg(allowed: np.ndarray | None) -> tuple[np.ndarray | None, int]:
    if allowed is None:
        return None, 0  # the kernels read no mask
    return np.ascontiguousarray(allowed).view(np.uint8), 1


def _reported_distances(view: Any, ids: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Distances of the reported ``(m, k)`` ids through the numpy view,
    ``inf`` where a row is padded — the floats the engines report: one
    ``segmented()`` call, and a start vertex keeps its ``scalar()``
    value, exactly as ``_BeamState`` seeds it."""
    found = ids >= 0
    counts = found.sum(axis=1)
    rows = np.flatnonzero(counts)
    dists = np.full(ids.shape, np.inf, dtype=np.float64)
    if len(rows):
        dists[found] = view.segmented(rows, ids[found], counts[rows])
    return np.where(ids == starts[:, None], view.start_distances(starts)[:, None], dists)


def run_beam(
    graph: Any,
    dataset: Any,
    starts: Any,
    queries: Any,
    beam_width: int,
    k: int = 1,
    budget: int | None = None,
    allowed: np.ndarray | None = None,
    store: Any = None,
    rerank: int | None = None,
) -> BeamBatch:
    """Whole-batch compiled beam search; the result equals
    ``engine.beam_search_batch``'s, ``rerank`` included.  A budget below 1
    raises the engines' ``ValueError`` here too; callers validate the
    other arguments first.

    Ids and eval counts come straight from the kernel, into arrays of this
    call, never the plan's scratch.  Without ``rerank`` the distances are
    evaluated through the numpy view when a caller first reads them — a
    flat search does, they are its answer.  With it the kernel reranks on
    the raw rows and writes the final ``(m, rerank)`` distances itself.
    """
    _check_budget(budget)
    _check_rerank(rerank, store)
    m = len(queries)
    k_eff = max(int(k), 1)
    width = k_eff if rerank is None else int(rerank)
    out_ids = np.empty((m, width), dtype=np.int64)
    out_d = _EMPTY_F2 if rerank is None else np.empty((m, width), dtype=np.float64)
    out_evals = np.empty(m, dtype=np.int64)
    if m == 0:
        return BeamBatch(out_ids, np.empty((0, width)), out_evals)
    Q = _query_array(queries)
    plan = _search_plan(graph, dataset, store, Q)
    view = _distance_view(dataset, Q, store)
    q_arr = _query_arrays(plan.layout, view)
    starts64 = np.ascontiguousarray(starts, dtype=np.int64)
    budget_i = -1 if budget is None else int(budget)
    allowed_u8, has_allowed = _allowed_arg(allowed)
    rerank_k = 0 if rerank is None else width

    def rows(q_arr, starts, out_ids, out_d, out_evals) -> None:
        scratch = plan.scratch()  # of the thread these rows run on
        plan.kernels.beam(
            q_arr, starts, int(beam_width), k_eff, rerank_k, budget_i,
            allowed_u8, has_allowed, out_ids, out_d, out_evals,
            scratch.stamps(len(starts)), *scratch.args,
        )

    _split_rows(m, (q_arr, starts64, out_ids, out_d, out_evals), rows)
    if rerank is not None:
        return BeamBatch(out_ids, out_d, out_evals)
    return BeamBatch(out_ids, lambda: _reported_distances(view, out_ids, starts64), out_evals)


def run_greedy(
    graph: Any,
    dataset: Any,
    starts: Any,
    queries: Any,
    budget: int | None = None,
    allowed: np.ndarray | None = None,
    store: Any = None,
) -> list[GreedyResult]:
    """Whole-batch compiled greedy routing; returns the engines'
    ``GreedyResult`` objects (full hop paths included).  A budget below 1
    raises like ``run_beam``."""
    _check_budget(budget)
    m = len(queries)
    if m == 0:
        return []
    Q = _query_array(queries)
    plan = _search_plan(graph, dataset, store, Q)
    view = _distance_view(dataset, Q, store)
    q_arr = _query_arrays(plan.layout, view)
    starts64 = np.ascontiguousarray(starts, dtype=np.int64)
    d0 = view.start_distances(starts64)
    allowed_u8, has_allowed = _allowed_arg(allowed)
    out_p = np.zeros(m, dtype=np.int64)
    out_d = np.zeros(m, dtype=np.float64)
    out_evals = np.zeros(m, dtype=np.int64)
    out_hops = np.zeros(m, dtype=np.int64)
    out_term = np.zeros(m, dtype=np.int64)
    out_best_p = np.zeros(m, dtype=np.int64)
    out_best_d = np.zeros(m, dtype=np.float64)
    budget_i = -1 if budget is None else int(budget)
    hops_cap = 64
    while True:
        hops_buf = np.zeros((m, hops_cap), dtype=np.int64)
        maxnh = plan.kernels.greedy(
            q_arr, starts64, d0, budget_i, allowed_u8, has_allowed,
            out_p, out_d, out_evals, out_hops, out_term,
            out_best_p, out_best_d, hops_buf, hops_cap,
        )
        if int(maxnh) <= hops_cap:
            break
        hops_cap = int(maxnh)  # rare: a walk outran the buffer; retry

    # Reported vertices: the walk end, or the best-allowed record when
    # filtering.  Re-evaluate their distances through the numpy view
    # (d0 for start vertices, segmented() otherwise) for bit-identity.
    rep_p = out_best_p if allowed is not None else out_p
    need = np.flatnonzero((rep_p >= 0) & (rep_p != starts64))
    exact = np.empty(m, dtype=np.float64)
    if len(need):
        exact[need] = view.segmented(
            need, rep_p[need], np.ones(len(need), dtype=np.int64)
        )
    results = []
    for qi in range(m):
        p = int(rep_p[qi])
        if p < 0:
            d = np.inf
        elif p == int(starts64[qi]):
            d = float(d0[qi])
        else:
            d = float(exact[qi])
        nh = int(out_hops[qi])
        results.append(
            GreedyResult(
                point=p,
                distance=d,
                hops=[int(h) for h in hops_buf[qi, :nh]],
                distance_evals=int(out_evals[qi]),
                self_terminated=bool(out_term[qi]),
            )
        )
    return results


def run_robust_prune(
    dataset: Any,
    pid: int,
    v_arr: Any,
    d_arr: Any,
    alpha: float,
    max_degree: int,
) -> list[int]:
    """Compiled RobustPrune; output matches ``engine.robust_prune``.

    Always operates on the raw float64 coordinates (the numpy prune
    uses exact points regardless of the traversal store), so only the
    dataset's metric and point layout gate kernel support.
    """
    pts = _coords_f64(dataset.points, "points")
    kind, factor = _coord_kind(
        dataset.metric, _C.KIND_FLAT_L2, _C.KIND_FLAT_LINF
    )
    v64 = np.ascontiguousarray(np.asarray(v_arr), dtype=np.int64)
    d64 = np.ascontiguousarray(np.asarray(d_arr), dtype=np.float64)
    P = len(v64)
    if P == 0:
        return []
    vs = np.empty(P, dtype=np.int64)
    ds = np.empty(P, dtype=np.float64)
    alive = np.empty(P, dtype=np.uint8)
    sq = np.empty(P, dtype=np.float64)
    out = np.empty(max(int(max_degree), 1), dtype=np.int64)
    kept = _C.robust_prune_kernel(
        pts, kind, factor, int(pid), v64, d64, float(alpha),
        int(max_degree), vs, ds, alive, sq, out,
    )
    return out[: int(kept)].tolist()


def run_commit_wave(
    dataset: Any,
    pids: Any,
    pools: BeamBatch,
    alpha: float,
    max_degree: int,
    include_own: bool,
    rows: Any,
) -> None:
    """Commit a whole construction wave in one compiled kernel call.

    ``pools`` is the batch the wave's beam located: row ``i`` of its
    ``ids`` / ``dists`` (``-1``-padded) is member ``i``'s pool, handed to
    the kernel flat by one mask.  ``rows`` is the caller's adjacency, a
    :class:`repro.graphs.engine.CommitMirror` — the padded int64 row
    store the kernel mutates in place.  The workload is validated (and
    :class:`UnsupportedWorkloadError` raised) *before* the store is
    touched, so after a failed dispatch the numpy fallback picks up on
    the same rows.  Like the per-call prune, this always operates on the
    raw float64 coordinates; own-edge and backlink candidate distances
    are computed in-kernel with the same sequential arithmetic stance as
    the traversal kernels.
    """
    pts = _coords_f64(dataset.points, "points")
    kind, factor = _coord_kind(
        dataset.metric, _C.KIND_FLAT_L2, _C.KIND_FLAT_LINF
    )
    w = len(pids)
    found = pools.ids >= 0
    lens = found.sum(axis=1)
    pool_off = np.zeros(w + 1, dtype=np.int64)
    np.cumsum(lens, out=pool_off[1:])
    pool_ids = np.ascontiguousarray(pools.ids[found], dtype=np.int64)
    pool_d = np.ascontiguousarray(pools.dists[found], dtype=np.float64)
    pids64 = np.ascontiguousarray(np.asarray(pids), dtype=np.int64)
    max_p = (int(lens.max()) if w else 0) + rows.cap
    md = max(int(max_degree), 1)
    sc = rows.scratch
    if sc.get("max_p", -1) < max_p or sc.get("md", -1) < md:
        sc["max_p"] = max_p
        sc["md"] = md
        sc["cand_v"] = np.empty(max_p, dtype=np.int64)
        sc["cand_d"] = np.empty(max_p, dtype=np.float64)
        sc["vs"] = np.empty(max_p, dtype=np.int64)
        sc["ds"] = np.empty(max_p, dtype=np.float64)
        sc["alive"] = np.empty(max_p, dtype=np.uint8)
        sc["sq"] = np.empty(max_p, dtype=np.float64)
        sc["out"] = np.empty(md, dtype=np.int64)
        sc["out2"] = np.empty(md, dtype=np.int64)
    _C.commit_wave_kernel(
        pts, kind, factor, pids64, pool_ids, pool_d, pool_off,
        1 if include_own else 0, float(alpha), int(max_degree),
        rows.arr, rows.deg,
        sc["cand_v"], sc["cand_d"], sc["vs"], sc["ds"],
        sc["alive"], sc["sq"], sc["out"], sc["out2"],
    )


#: Initial in-edge record of the traversal, entries per point; one that
#: may not hold another row is doubled and the traversal resumed.
_TRAVERSE_EDGES_PER_POINT = 512


def _traverse_ready() -> bool:
    """Does the G-net build run compiled here?  Where cffi is, it is
    compiled (or loaded) and self-checked once per process, as :func:`warm`
    would, but installed for no search; elsewhere the numpy loop builds,
    silently: nothing was requested."""
    global _TRAVERSE_REFUSED
    if "cffi" not in _CHECKED and not _TRAVERSE_REFUSED and available_backends():
        try:
            _checked()
        except AccelError as exc:
            _TRAVERSE_REFUSED = True
            _log.warning("G-net builds stay on the numpy traversal: %s", exc)
    return "cffi" in _CHECKED


def run_traverse(
    dataset: Any, start: int, height: int | None, phi: float | None
) -> tuple[np.ndarray, np.ndarray, tuple | None] | None:
    """:func:`repro.nets.hierarchy.farthest_point_order` compiled, one pass
    per point that also records ``NetHierarchy(phi=...)``'s in-edges:
    ``(order, insertion_distances, in_edges or None)``, or ``None`` when
    the numpy loop must run (not ``(n, d)`` float64 points under ``factor
    * L2`` / ``factor * L_inf``, or no cffi here).

    Floating-point contract: distances accumulate sequentially in float64,
    so the *decisions* (order, in-edges) agree with the numpy loop wherever
    its SIMD-dispatched ``einsum`` accumulation does not flip a comparison
    at 1-ulp scale — which the equivalence suites pin empirically — and the
    *reported* floats are numpy's: an unknown ``height`` comes from the
    start point's numpy row, each insertion distance from the metric,
    evaluated again from the centre that set it.
    """
    try:
        kind, factor = _coord_kind(dataset.metric, _C.KIND_FLAT_L2, _C.KIND_FLAT_LINF)
        points = _coords_f64(dataset.points, "points")
    except UnsupportedWorkloadError:
        return None
    if not _traverse_ready():
        return None
    return _traverse(dataset, points, kind, factor, int(start), height, phi)


def _traverse(dataset, points, kind, factor, start, height, phi) -> tuple:
    from repro.nets.hierarchy import _derived_height

    n = len(points)
    if phi is not None and height is None:
        row = dataset.metric.distances(dataset.points[start], dataset.points)
        height = _derived_height(float(np.delete(row, start).max()))
    cover, order, parent = np.full(n, np.inf), np.full(n, start), np.zeros(n, np.int64)
    state = np.zeros(2, dtype=np.int64)  # points placed, in-edges recorded
    cap = n if phi is None else _TRAVERSE_EDGES_PER_POINT * n
    record = [np.empty(cap, np.int64), np.empty(cap, np.int64), np.empty(cap)]
    while _C.call(
        "repro_traverse", points, n, points.shape[1], kind, factor, phi or 0.0,
        height or 0, cover, order, parent, state, *record, cap,
    ):
        cap *= 2
        m = state[1]
        record = [np.concatenate([a[:m], np.empty(cap - m, a.dtype)]) for a in record]
    insertion = np.full(n, np.inf)
    insertion[1:] = dataset.metric.distances_many(
        dataset.points[parent[order[1:]]], dataset.points[order[1:]], np.ones(n - 1, np.int64)
    )
    return order, insertion, None if phi is None else tuple(a[: state[1]] for a in record)


def run_in_edge_csr(
    n: int, sources: np.ndarray, targets: np.ndarray
) -> tuple[np.ndarray, np.ndarray] | None:
    """G_net's in-edges ``sources[j] -> targets[j]``, grouped by target as
    the traversal records them, as CSR ``(offsets, targets)`` by a counting
    sort; ``None`` where the build does not run compiled."""
    return _in_edge_csr(n, sources, targets) if _traverse_ready() else None


def _in_edge_csr(n: int, sources: np.ndarray, targets: np.ndarray) -> tuple:
    offsets, out = np.zeros(n + 1, np.int64), np.empty(len(sources), np.int32)
    _C.call(
        "repro_in_edge_csr", n, len(sources), np.ascontiguousarray(sources, np.int64),
        np.ascontiguousarray(targets, np.int64), np.full(n, -1, np.int64),
        np.empty(n, np.int64), offsets, out,
    )
    return offsets, out


def construction_supported(dataset: Any) -> bool:
    """Cheap data-free probe: can the construction kernels serve this
    dataset (flat float64 coordinates under Euclidean/Chebyshev)?

    The sharded parent uses it before shipping a concrete backend name
    to fresh worker processes (where nothing is warmed, so ``"auto"``
    would silently mean numpy) — an unsupported workload keeps the
    auto-path's silent numpy fallback instead of raising in a worker.
    """
    try:
        _coords_f64(dataset.points, "points")
        _coord_kind(dataset.metric, _C.KIND_FLAT_L2, _C.KIND_FLAT_LINF)
    except UnsupportedWorkloadError:
        return False
    return True


# ---------------------------------------------------------------------------
# warm-time self-check


def _self_check() -> None:
    """Refuse to warm cffi if it does not reproduce the numpy engines on a
    small smoke workload."""
    from repro.graphs import engine
    from repro.graphs.base import ProximityGraph
    from repro.metrics.base import Dataset
    from repro.storage.sq8 import SQ8Store

    rng = np.random.default_rng(12345)
    # Two threads' worth of rows in the beam batch: wherever there is a
    # second core the row split cuts it, so a kernel whose rows do not
    # survive being run in chunks on helper threads is refused here, not
    # found out in a result.
    n, d, mq = 48, 6, 2 * _ROWS_PER_THREAD
    points = rng.standard_normal((n, d))
    dataset = Dataset(EuclideanMetric(), points)
    # Four draws a vertex; duplicates and self-loops drop out, so the
    # degrees vary.
    graph = ProximityGraph(n, rng.integers(0, n, size=(n, 4)))
    Q = rng.standard_normal((mq, d))
    starts = rng.integers(0, n, size=mq)
    wave = [int(p) for p in rng.permutation(n)[:8]]

    want_beam = engine.beam_search_batch(graph, dataset, starts, Q, beam_width=6, k=4)
    got_beam = run_beam(graph, dataset, starts, Q, beam_width=6, k=4)
    # Integer points on a 3 x 3 grid tie distances everywhere; under a mask
    # and a budget, which tied entry a beam keeps, expands or reports
    # decides its ids and its eval count.
    tied = Dataset(EuclideanMetric(), rng.integers(0, 3, size=(n, 2)).astype(np.float64))
    Qt = rng.integers(0, 3, size=(mq, 2)).astype(np.float64)
    mask = rng.random(n) < 0.3
    tied_args = dict(beam_width=3, k=5, budget=40, allowed=mask)
    want_tied = engine.beam_search_batch(graph, tied, starts, Qt, **tied_args)
    got_tied = run_beam(graph, tied, starts, Qt, **tied_args)
    # The two-stage search: a beam over sq8 codes that reranks its pool on
    # the raw rows, on both data sets (on the grid, the rerank's ties too,
    # and a k past what the pool holds).
    two_stage = []
    for data, queries, args in ((dataset, Q, dict(beam_width=6, k=8)), (tied, Qt, tied_args)):
        args = dict(args, store=SQ8Store.train(data.metric, data.points), rerank=4)
        two_stage.append(
            engine.beam_search_batch(graph, data, starts, queries, **args)
            == run_beam(graph, data, starts, queries, **args)
        )
    want_greedy = engine.greedy_batch(graph, dataset, starts[:8], Q[:8])
    got_greedy = run_greedy(graph, dataset, starts[:8], Q[:8])
    v_arr = np.arange(n, dtype=np.intp)
    d_arr = dataset.distances_from_index(0, v_arr)
    want_p = engine.robust_prune(dataset, 0, v_arr, d_arr, 1.2, 6)
    got_p = run_robust_prune(dataset, 0, v_arr, d_arr, 1.2, 6)
    # One whole-wave commit onto the graph's rows (the commit is
    # order-dependent and never split), kernel vs the pinned per-member
    # prune-and-link loop, of pools the beam located for members of the
    # graph, as a build does.
    rows_want = engine.CommitMirror.from_csr(graph, 0, 4)
    rows_got = engine.CommitMirror.from_csr(graph, 0, 4)
    pools_w = engine.beam_search_batch(
        graph, dataset, starts[:8], points[wave], beam_width=6, k=6
    )
    engine.commit_wave_pools(dataset, rows_want, wave, pools_w, 1.2, 4)
    run_commit_wave(dataset, wave, pools_w, 1.2, 4, False, rows_got)
    if (
        want_beam != got_beam
        or want_tied != got_tied
        or not all(two_stage)
        or want_greedy != got_greedy
        or want_p != got_p
        or rows_want.snapshot() != rows_got.snapshot()
        or not _traverse_matches()
    ):
        raise AccelError(
            "accel backend 'cffi' failed its warm-time self-check "
            "against the numpy engines; refusing to enable it"
        )


def _traverse_matches() -> bool:
    """The compiled traversal and CSR against the numpy loop (a counting
    wrapper keeps the reference on it): an integer grid, ties everywhere,
    and a random cloud with pairs below ``2^0``, under L2 and L_inf."""
    from repro.metrics.base import Dataset, ScaledMetric
    from repro.metrics.counting import CountingMetric
    from repro.nets.hierarchy import NetHierarchy

    grid = np.stack(np.meshgrid(np.arange(5.0), np.arange(5.0)), axis=-1).reshape(-1, 2)
    points = np.concatenate([grid, np.random.default_rng(2024).uniform(0, 4, (15, 2))])
    n = len(points)
    for metric in (ScaledMetric(EuclideanMetric(), 2.0), ScaledMetric(ChebyshevMetric(), 2.0)):
        want = NetHierarchy(Dataset(CountingMetric(metric), points), phi=9.0)
        kind, factor = _coord_kind(metric, _C.KIND_FLAT_L2, _C.KIND_FLAT_LINF)
        got = _traverse(Dataset(metric, points), points, kind, factor, 0, None, 9.0)
        edges = want.take_in_edges()
        offsets, targets = _in_edge_csr(n, *edges[:2])
        pairs = np.repeat(np.arange(n), np.diff(offsets)) * n + targets
        same = map(
            np.array_equal,
            (got[0], got[1], *got[2], pairs),
            (want.order, want.insertion_distances, *edges, np.sort(edges[0] * n + edges[1])),
        )
        if not all(same):
            return False
    return True
