"""``repro.accel`` — opt-in compiled traversal kernels.

The lockstep engines of :mod:`repro.graphs.engine` removed the
per-query Python overhead of scalar search, but their per-round inner
loop is still interpreted: per-query ``heapq`` pools, per-neighbor
``float()``/``int()`` conversions, and one Python-level heap update per
evaluated candidate.  This package runs the *entire* traversal of a
query batch inside compiled code instead:

* CSR neighbor gather straight from ``graph.csr()`` arrays (int64 row
  pointers, int32 vertex ids, bound without a copy),
* one sorted beam array for the candidate queue and result pool,
* a generation-stamped visited array, per-thread scratch of the
  index's search plan whose stamps carry on from call to call,
* inline Euclidean / Chebyshev distance evaluation, flat or SQ8, against the
  contiguous point / code arrays,
* ``allowed``-mask and ``budget`` semantics replicated operation for
  operation from the numpy engines.

The kernels are C (:mod:`repro.accel.cbackend`, the ``cffi`` backend),
compiled on demand with the system C compiler under strict IEEE
semantics (``-ffp-contract=off``) and cached on disk.  They are
available wherever ``cffi`` (``pip install
repro-proximity-graphs[accel]``) and a C compiler are, and are pinned
against the numpy engines, which stay the fallback and the oracle.

Backend selection is runtime and graceful.  A backend only serves
searches after it has been **warmed** (compiled and self-checked) by
:func:`warm`; until then every search runs the pinned numpy engines, so
importing this package changes nothing.  ``SearchParams(backend=...)``
threads the choice through ``index.search()``, the sharded fan-out
(the resolved backend name travels in the pickled worker task and is
compiled once per worker process), and ``measure_queries``:

* ``"auto"`` (the default) — cffi once *warmed*, else the numpy
  engines (see :func:`get_backend`);
* ``"numpy"`` — always the pinned engines;
* ``"cffi"`` — the compiled kernels, warmed on demand; raises
  :class:`AccelUnavailableError` with a clear message when they cannot
  run here (e.g. no C compiler).

Reported distances are bit-identical to the numpy engines by
construction.  Kernels drive the traversal with their own deterministic
float64 arithmetic, start distance included.  A flat search's reported
candidates are re-evaluated by the dispatch layer through the same
per-batch distance view the numpy path uses.  The two-stage search over
a quantized store is one kernel call: it reranks its pool on the raw
rows and reports those floats, which the numpy rerank
(``storage.base.exact_distances``) sums in the same left-to-right
order.

Insertion builds run compiled the same way.  A wave's candidate
location *is* a search — :func:`run_beam` over the prefix graph with
``k`` equal to the beam width, HNSW's ``SEARCH-LAYER`` — and
:func:`run_robust_prune` runs the RobustPrune neighbor selection, both
behind a ``backend=`` seam on ``graphs.engine`` / the insertion
builders / ``ProximityGraphIndex.build(...)`` /
``ShardedIndex.build(...)`` with the same auto/explicit fallback
semantics as search.  :func:`run_commit_wave` goes one step further
and commits an entire insertion wave — every RobustPrune, backlink,
and overflow re-prune, with candidate distances computed in-kernel —
in a single kernel call on the caller's adjacency, the padded row
store ``graphs.engine.CommitMirror`` that builds and repairs hold from
their first insertion, which removes the per-commit dispatch overhead
that otherwise dominates a compiled build.
"""

from repro.accel.dispatch import (
    BACKEND_CHOICES,
    AccelError,
    AccelFallbackWarning,
    AccelUnavailableError,
    UnsupportedWorkloadError,
    available_backends,
    backend_status,
    construction_supported,
    get_backend,
    reset,
    resolve_backend,
    run_beam,
    run_commit_wave,
    run_greedy,
    run_robust_prune,
    warm,
)

__all__ = [
    "BACKEND_CHOICES",
    "AccelError",
    "AccelFallbackWarning",
    "AccelUnavailableError",
    "UnsupportedWorkloadError",
    "available_backends",
    "backend_status",
    "construction_supported",
    "get_backend",
    "reset",
    "resolve_backend",
    "run_beam",
    "run_commit_wave",
    "run_greedy",
    "run_robust_prune",
    "warm",
]
