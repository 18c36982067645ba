"""The traversal kernels — pinned reference source for every backend.

Each function below is written as flat loops over preallocated arrays
(no Python containers, no closures) and runs under the plain interpreter
— that is the ``"python"`` backend the equivalence suites pin the
compiled backend against, and the semantics contract the C backend
(:mod:`repro.accel.cbackend`) reproduces: the same results, not the same
structure (its beam keeps one sorted array where this one keeps two
heaps).

Semantics are replicated operation-for-operation from the numpy engines
in :mod:`repro.graphs.engine`:

* the candidate queue pops the lexicographic minimum of ``(distance,
  vertex)`` and the result pool evicts the lexicographic minimum of
  ``(-distance, vertex)`` — exactly the ``heapq`` tuple orders of
  ``_BeamState`` — so pop/evict sequences match the numpy path even
  through distance ties;
* neighbors are gathered, evaluated, and folded into the heaps in CSR
  slice order (ascending vertex id), reproducing the engines'
  first-index-of-minimum tie-breaks;
* ``budget`` is checked and truncates segments at the same points in the
  iteration as the numpy code, so ``distance_evals`` matches exactly;
* ``allowed`` masks gate pool membership (beam) and best-so-far
  bookkeeping (greedy) but never traversal, as in the engines;
* the visited structure is a generation-stamped ``int32`` array —
  reset by bumping the generation per query, never by clearing (the
  beam kernel's stamps continue from the caller's ``gen0``, so one
  array serves every call a thread makes).

Floating-point contract: distances accumulate sequentially in float64
(the documented arithmetic the compiled backend reproduces under strict
IEEE rules — C under ``-ffp-contract=off``).  Traversal *decisions*
therefore agree with the numpy engines wherever the numpy path's
SIMD-dispatched ``einsum`` accumulation does not flip a comparison at
1-ulp scale — which the 3-seed equivalence suites pin empirically — and
*reported* distances are recomputed through the numpy distance view by
the dispatch layer, so results are bit-identical whenever decisions
agree.

Kernels never allocate: every output and scratch array is provided by
:mod:`repro.accel.dispatch`.  Distance-mode selection is a runtime
``kind`` code (`KIND_*`), so one compiled signature serves flat and SQ8
traversals; unused model arrays are passed empty.
"""

import math

import numpy as np

__all__ = [
    "KIND_FLAT_L2",
    "KIND_FLAT_LINF",
    "KIND_SQ8_L2",
    "KIND_SQ8_LINF",
    "beam_kernel",
    "greedy_kernel",
    "construction_kernel",
    "robust_prune_kernel",
    "commit_wave_kernel",
    "SearchKernels",
]

KIND_FLAT_L2 = 0
KIND_FLAT_LINF = 1
KIND_SQ8_L2 = 2
KIND_SQ8_LINF = 3

_INF = np.inf


def _dist(kind, factor, Q, qi, data, codes, minv, scale, v):
    """Distance from query row ``qi`` to stored vector ``v``.

    Sequential float64 accumulation; ``factor`` is the unwrapped
    ``ScaledMetric`` normalization multiplied through at the end, as
    ``decompose_metric`` documents.
    """
    if kind == KIND_FLAT_L2:
        acc = 0.0
        for j in range(data.shape[1]):
            t = Q[qi, j] - data[v, j]
            acc += t * t
        return factor * math.sqrt(acc)
    if kind == KIND_FLAT_LINF:
        acc = 0.0
        for j in range(data.shape[1]):
            t = abs(Q[qi, j] - data[v, j])
            if t > acc:
                acc = t
        return factor * acc
    if kind == KIND_SQ8_L2:
        acc = 0.0
        for j in range(codes.shape[1]):
            t = Q[qi, j] - (codes[v, j] * scale[j] + minv[j])
            acc += t * t
        return factor * math.sqrt(acc)
    # KIND_SQ8_LINF
    acc = 0.0
    for j in range(codes.shape[1]):
        t = abs(Q[qi, j] - (codes[v, j] * scale[j] + minv[j]))
        if t > acc:
            acc = t
    return factor * acc


# -- array heaps --------------------------------------------------------
#
# The candidate queue is a binary min-heap on the key (d, v) — the
# lexicographic tuple order heapq applies to _BeamState.candidates.  The
# pool is a binary max-heap whose root is the *worst* pool entry under
# the key (-d, v): largest distance first, smallest vertex id among
# distance ties — the entry heapq pops from _BeamState.pool on
# eviction.  Keys are unique per query (each vertex enters a heap at
# most once), so pop/evict order is a total order and any conforming
# heap reproduces the numpy sequence exactly.


def _cand_push(cd, cv, size, d, v):
    i = size
    cd[i] = d
    cv[i] = v
    while i > 0:
        p = (i - 1) >> 1
        if cd[i] < cd[p] or (cd[i] == cd[p] and cv[i] < cv[p]):
            cd[i], cd[p] = cd[p], cd[i]
            cv[i], cv[p] = cv[p], cv[i]
            i = p
        else:
            break
    return size + 1


def _cand_pop(cd, cv, size):
    size -= 1
    cd[0] = cd[size]
    cv[0] = cv[size]
    i = 0
    while True:
        left = 2 * i + 1
        if left >= size:
            break
        small = left
        right = left + 1
        if right < size and (
            cd[right] < cd[left] or (cd[right] == cd[left] and cv[right] < cv[left])
        ):
            small = right
        if cd[small] < cd[i] or (cd[small] == cd[i] and cv[small] < cv[i]):
            cd[i], cd[small] = cd[small], cd[i]
            cv[i], cv[small] = cv[small], cv[i]
            i = small
        else:
            break
    return size


def _pool_worse(d1, v1, d2, v2):
    """True when entry 1 is evicted before entry 2 — heapq order on
    ``(-d, v)``: larger distance first, smaller id among ties."""
    if d1 > d2:
        return True
    if d1 == d2 and v1 < v2:
        return True
    return False


def _pool_push(pd, pv, size, d, v):
    i = size
    pd[i] = d
    pv[i] = v
    while i > 0:
        p = (i - 1) >> 1
        if _pool_worse(pd[i], pv[i], pd[p], pv[p]):
            pd[i], pd[p] = pd[p], pd[i]
            pv[i], pv[p] = pv[p], pv[i]
            i = p
        else:
            break
    return size + 1


def _pool_pop(pd, pv, size):
    size -= 1
    pd[0] = pd[size]
    pv[0] = pv[size]
    i = 0
    while True:
        left = 2 * i + 1
        if left >= size:
            break
        worst = left
        right = left + 1
        if right < size and _pool_worse(pd[right], pv[right], pd[left], pv[left]):
            worst = right
        if _pool_worse(pd[worst], pv[worst], pd[i], pv[i]):
            pd[i], pd[worst] = pd[worst], pd[i]
            pv[i], pv[worst] = pv[worst], pv[i]
            i = worst
        else:
            break
    return size


def beam_kernel(
    offsets,
    targets,
    kind,
    factor,
    Q,
    data,
    codes,
    minv,
    scale,
    starts,
    d0,
    beam_width,
    k_fetch,
    budget,
    allowed,
    has_allowed,
    out_ids,
    out_evals,
    gen0,
    visited,
    cand_d,
    cand_v,
    pool_d,
    pool_v,
):
    """Best-first beam search for every query of the batch.

    Mirrors the per-query state transitions of
    ``engine.beam_search_batch`` (queries are independent, so the numpy
    path's lockstep rounds and this sequential sweep visit identical
    states).  ``budget < 0`` means unbudgeted.  Outputs: ``out_ids``
    holds each query's pool sorted ascending by ``(distance, vertex)``,
    ``-1`` padded past the pool size; ``out_evals`` the exact
    distance-evaluation counts.

    ``visited`` is reused from call to call without clearing: query
    ``qi`` stamps it with ``gen0 + qi + 1``, so the caller hands in a
    ``gen0`` no smaller than any stamp the array already holds.
    """
    nq = starts.shape[0]
    for qi in range(nq):
        gen = gen0 + qi + 1
        s = starts[qi]
        csize = _cand_push(cand_d, cand_v, 0, d0[qi], s)
        psize = 0
        if has_allowed == 0 or allowed[s] != 0:
            psize = _pool_push(pool_d, pool_v, 0, d0[qi], s)
        visited[s] = gen
        evals = 1
        while csize > 0:
            dcur = cand_d[0]
            u = cand_v[0]
            csize = _cand_pop(cand_d, cand_v, csize)
            if psize >= beam_width and dcur > pool_d[0]:
                break
            beg = offsets[u]
            end = offsets[u + 1]
            cnt = 0
            for ei in range(beg, end):
                if visited[targets[ei]] != gen:
                    cnt += 1
            if cnt == 0:
                continue
            if budget >= 0 and evals >= budget:
                break
            take = cnt
            if budget >= 0 and evals + cnt > budget:
                take = budget - evals
            processed = 0
            for ei in range(beg, end):
                if processed >= take:
                    break
                v = targets[ei]
                if visited[v] == gen:
                    continue
                processed += 1
                visited[v] = gen
                dv = _dist(kind, factor, Q, qi, data, codes, minv, scale, v)
                evals += 1
                if psize < beam_width or dv < pool_d[0]:
                    csize = _cand_push(cand_d, cand_v, csize, dv, v)
                    if has_allowed == 0 or allowed[v] != 0:
                        psize = _pool_push(pool_d, pool_v, psize, dv, v)
                        if psize > beam_width:
                            psize = _pool_pop(pool_d, pool_v, psize)
        # Extract: the numpy path reports sorted((-d, v) for pool)[:k],
        # i.e. ascending (distance, vertex).  Insertion-sort the pool
        # (≤ beam_width entries) under that key.
        for a in range(1, psize):
            dd = pool_d[a]
            vv = pool_v[a]
            b = a - 1
            while b >= 0 and (pool_d[b] > dd or (pool_d[b] == dd and pool_v[b] > vv)):
                pool_d[b + 1] = pool_d[b]
                pool_v[b + 1] = pool_v[b]
                b -= 1
            pool_d[b + 1] = dd
            pool_v[b + 1] = vv
        for a in range(k_fetch):
            out_ids[qi, a] = pool_v[a] if a < psize else -1
        out_evals[qi] = evals
    return 0


def construction_kernel(
    offsets,
    targets,
    kind,
    factor,
    Q,
    data,
    codes,
    minv,
    scale,
    starts,
    d0,
    beam_width,
    expand_per_round,
    out_ids,
    out_dists,
    out_sizes,
    visited,
    pexp,
    sel_buf,
):
    """Construction-wave beam location for every query of the batch.

    Mirrors ``engine.construction_beam_batch`` query by query (queries
    are independent, so the numpy path's lockstep rounds and this
    sequential sweep reach identical pool states): per round, the first
    ``expand_per_round`` unexpanded pool slots in ascending-distance
    order are marked expanded *before* any neighbor is folded in, their
    CSR neighbor slices are walked in order, each not-yet-visited
    neighbor is stamped in the generation-stamped ``visited`` array
    (replicating both the within-round key-sort dedup and the
    cross-round bitmap), evaluated, and inserted into the
    ``beam_width``-bounded pool kept sorted ascending by distance with
    worst-entry eviction — set-equivalent to the engine's
    argpartition+argsort batch merge for distinct distances (ties are
    measure-zero and pinned empirically by the 3-seed suites).  A query
    terminates when no unexpanded valid slot remains, exactly the
    engine's eligibility test (on a sorted pool ``d <= d[ef-1]`` is
    trivially true for every valid slot).

    ``out_ids`` / ``out_dists`` double as the pool arrays: on return
    row ``qi`` holds the final pool ascending by distance and
    ``out_sizes[qi]`` its valid length.  ``pexp`` is a per-query
    expansion-flag scratch row; ``sel_buf`` buffers one round's
    selected node ids (selection is frozen before insertions shift
    slot positions, matching the engine's round structure).
    """
    nq = starts.shape[0]
    ef = beam_width
    for qi in range(nq):
        gen = qi + 1
        for a in range(ef):
            pexp[a] = 0
        out_ids[qi, 0] = starts[qi]
        out_dists[qi, 0] = d0[qi]
        psize = 1
        visited[starts[qi]] = gen
        while True:
            nsel = 0
            for slot in range(psize):
                if pexp[slot] == 0:
                    sel_buf[nsel] = out_ids[qi, slot]
                    pexp[slot] = 1
                    nsel += 1
                    if nsel >= expand_per_round:
                        break
            if nsel == 0:
                break
            for si in range(nsel):
                u = sel_buf[si]
                for ei in range(offsets[u], offsets[u + 1]):
                    v = targets[ei]
                    if visited[v] == gen:
                        continue
                    visited[v] = gen
                    dv = _dist(kind, factor, Q, qi, data, codes, minv, scale, v)
                    if psize < ef:
                        pos = psize
                        psize += 1
                    elif dv < out_dists[qi, ef - 1]:
                        pos = ef - 1
                    else:
                        continue
                    j = pos
                    while j > 0 and out_dists[qi, j - 1] > dv:
                        out_dists[qi, j] = out_dists[qi, j - 1]
                        out_ids[qi, j] = out_ids[qi, j - 1]
                        pexp[j] = pexp[j - 1]
                        j -= 1
                    out_dists[qi, j] = dv
                    out_ids[qi, j] = v
                    pexp[j] = 0
        out_sizes[qi] = psize
    return 0


def _point_dist(points, kind, factor, a, b):
    """Distance between two stored points over raw float64 coordinates.

    Replicates the coordinate metrics' ``distances`` rows (the einsum
    difference form for L2, exact max-abs-diff for Linf) with a
    sequential float64 accumulation; the ~1e-15 relative spread the
    L2 reassociation admits only matters at measure-zero tie scale.
    """
    dim = points.shape[1]
    if kind == KIND_FLAT_L2:
        acc = 0.0
        for c in range(dim):
            t = points[a, c] - points[b, c]
            acc += t * t
        return factor * math.sqrt(acc)
    acc = 0.0
    for c in range(dim):
        t = points[a, c] - points[b, c]
        if t < 0.0:
            t = -t
        if t > acc:
            acc = t
    return factor * acc


def _prune_core(
    points, kind, factor, pid, v_in, d_in, P, alpha, max_degree,
    vs, ds, alive, sq, out,
):
    """The RobustPrune body shared by the per-call and wave kernels;
    reads the first ``P`` entries of ``v_in``/``d_in`` and returns the
    kept count (ids in ``out``)."""
    # (d, v)-ascending insertion sort into the scratch arrays.
    for i in range(P):
        d = d_in[i]
        v = v_in[i]
        j = i
        while j > 0 and (ds[j - 1] > d or (ds[j - 1] == d and vs[j - 1] > v)):
            ds[j] = ds[j - 1]
            vs[j] = vs[j - 1]
            j -= 1
        ds[j] = d
        vs[j] = v
    # Drop pid + first-occurrence-per-id dedup, compacting in place
    # (in (d, v) order the first occurrence has the smallest distance,
    # exactly np.unique's return_index under the engine's sort).
    k = 0
    for i in range(P):
        v = vs[i]
        if v == pid:
            continue
        dup = False
        for j in range(k):
            if vs[j] == v:
                dup = True
                break
        if dup:
            continue
        vs[k] = v
        ds[k] = ds[i]
        k += 1
    if k == 0:
        return 0
    dim = points.shape[1]
    if kind == KIND_FLAT_L2:
        for i in range(k):
            acc = 0.0
            for c in range(dim):
                t = points[vs[i], c]
                acc += t * t
            sq[i] = acc
    for i in range(k):
        alive[i] = 1
    kept = 0
    pos = 0
    while kept < max_degree:
        while pos < k and alive[pos] == 0:
            pos += 1
        if pos >= k:
            break
        out[kept] = vs[pos]
        kept += 1
        if kept >= max_degree:
            break
        # Fold the kept point's pairwise row into the alive mask.
        for j in range(k):
            if alive[j] == 0:
                continue
            if j == pos:
                d = 0.0
            elif kind == KIND_FLAT_L2:
                dot = 0.0
                for c in range(dim):
                    dot += points[vs[pos], c] * points[vs[j], c]
                d2 = sq[pos] + sq[j] - 2.0 * dot
                if d2 < 0.0:
                    d2 = 0.0
                d = factor * math.sqrt(d2)
            else:
                acc = 0.0
                for c in range(dim):
                    t = points[vs[pos], c] - points[vs[j], c]
                    if t < 0.0:
                        t = -t
                    if t > acc:
                        acc = t
                d = factor * acc
            if not alpha * d > ds[j]:
                alive[j] = 0
        pos += 1
    return kept


def robust_prune_kernel(
    points,
    kind,
    factor,
    pid,
    v_in,
    d_in,
    alpha,
    max_degree,
    vs,
    ds,
    alive,
    sq,
    out,
):
    """RobustPrune over raw float64 coordinates, start to finish.

    Mirrors ``engine.robust_prune`` step for step: sort candidates
    ascending by ``(distance, vertex)`` (``np.lexsort((v, d))``), drop
    ``pid``, keep the first occurrence per id, then run the greedy
    alpha scan.  Kept-to-candidate distances replicate the coordinate
    metrics' ``pairwise`` entry for entry — the Euclidean gram identity
    ``sqrt(max(sq_i + sq_j - 2*dot_ij, 0))`` with a zero diagonal, the
    Chebyshev max-of-absolute-differences exactly — with sequential
    float64 dots where numpy calls BLAS; the ~1e-15 relative spread
    this admits flips an ``alpha * D > d`` comparison only at
    measure-zero tie scale, pinned empirically by the 3-seed suites.

    ``vs``/``ds``/``alive``/``sq`` are length-``len(v_in)`` scratch;
    ``out`` receives the kept ids and the return value is their count.
    """
    return _prune_core(
        points, kind, factor, pid, v_in, d_in, v_in.shape[0],
        alpha, max_degree, vs, ds, alive, sq, out,
    )


def commit_wave_kernel(
    points,
    kind,
    factor,
    pids,
    pool_ids,
    pool_d,
    pool_off,
    include_own,
    alpha,
    max_degree,
    adj,
    deg,
    cand_v,
    cand_d,
    vs,
    ds,
    alive,
    sq,
    out,
    out2,
):
    """Commit a whole construction wave against a padded adjacency.

    Mirrors ``engine.prune_and_link`` commit by commit, in wave order:
    each member's candidate pool (its slice of ``pool_ids``/``pool_d``,
    plus — when ``include_own`` is nonzero — its current out-neighbors
    with distances computed by :func:`_point_dist`, exactly Vamana's
    own-edge concatenation) is RobustPruned into its adjacency row,
    then backlinks are added to every kept neighbor with overflow
    re-pruning, whose candidate distances are likewise computed
    in-kernel.  ``adj`` is the ``(n, cap)`` padded row store with
    ``deg`` holding row lengths; rows never exceed ``max_degree``
    after a commit, and ``cap >= max_degree + 1`` absorbs the
    transient pre-prune append.

    ``cand_v``/``cand_d`` assemble one candidate list at a time and
    ``vs``/``ds``/``alive``/``sq`` are the prune scratch (all sized to
    the longest possible candidate list); ``out`` holds the committed
    member's kept row while ``out2`` serves the backlink re-prunes.
    """
    w = pids.shape[0]
    for i in range(w):
        pid = pids[i]
        P = 0
        for j in range(pool_off[i], pool_off[i + 1]):
            cand_v[P] = pool_ids[j]
            cand_d[P] = pool_d[j]
            P += 1
        if include_own != 0:
            for j in range(deg[pid]):
                v = adj[pid, j]
                cand_v[P] = v
                cand_d[P] = _point_dist(points, kind, factor, pid, v)
                P += 1
        kept = _prune_core(
            points, kind, factor, pid, cand_v, cand_d, P,
            alpha, max_degree, vs, ds, alive, sq, out,
        )
        for j in range(kept):
            adj[pid, j] = out[j]
        deg[pid] = kept
        for j in range(kept):
            v = out[j]
            dv = deg[v]
            present = False
            for t in range(dv):
                if adj[v, t] == pid:
                    present = True
                    break
            if present:
                continue
            adj[v, dv] = pid
            deg[v] = dv + 1
            if deg[v] > max_degree:
                P2 = deg[v]
                for t in range(P2):
                    cand_v[t] = adj[v, t]
                    cand_d[t] = _point_dist(points, kind, factor, v, adj[v, t])
                k2 = _prune_core(
                    points, kind, factor, v, cand_v, cand_d, P2,
                    alpha, max_degree, vs, ds, alive, sq, out2,
                )
                for t in range(k2):
                    adj[v, t] = out2[t]
                deg[v] = k2
    return 0


def greedy_kernel(
    offsets,
    targets,
    kind,
    factor,
    Q,
    data,
    codes,
    minv,
    scale,
    starts,
    d0,
    budget,
    allowed,
    has_allowed,
    out_p,
    out_d,
    out_evals,
    out_hops,
    out_term,
    out_best_p,
    out_best_d,
    hops_buf,
    hops_cap,
):
    """Greedy routing for every query of the batch.

    Mirrors ``engine.greedy_batch`` exactly: budget checked before each
    hop, segment truncation in slice order, per-hop first-minimum
    tie-break, strict-improvement advance, ``self_terminated`` false on
    truncated final hops, and the ``allowed`` best-so-far bookkeeping
    (per-hop first admissible minimum folded under strict improvement).
    Walks record their hop vertices into ``hops_buf`` up to ``hops_cap``
    entries per query; the return value is the batch's true maximum hop
    count so the dispatcher can retry with a bigger buffer in the rare
    case a walk outruns it.
    """
    nq = starts.shape[0]
    maxnh = 0
    for qi in range(nq):
        p = starts[qi]
        dcur = d0[qi]
        evals = 1
        nh = 1
        if hops_cap > 0:
            hops_buf[qi, 0] = p
        bp = -1
        bd = _INF
        if has_allowed != 0 and allowed[p] != 0:
            bp = p
            bd = dcur
        term = 0
        while True:
            if budget >= 0 and evals >= budget:
                term = 0
                break
            beg = offsets[p]
            end = offsets[p + 1]
            deg = end - beg
            if deg == 0:
                term = 1
                break
            take = deg
            truncated = 0
            if budget >= 0 and evals + deg > budget:
                take = budget - evals
                truncated = 1
            bestd = _INF
            bestv = -1
            hop_ad = _INF
            hop_av = -1
            for i in range(take):
                v = targets[beg + i]
                dv = _dist(kind, factor, Q, qi, data, codes, minv, scale, v)
                if has_allowed != 0 and allowed[v] != 0 and dv < hop_ad:
                    hop_ad = dv
                    hop_av = v
                if dv < bestd:
                    bestd = dv
                    bestv = v
            evals += take
            if hop_av >= 0 and hop_ad < bd:
                bd = hop_ad
                bp = hop_av
            if bestd < dcur:
                p = bestv
                dcur = bestd
                if nh < hops_cap:
                    hops_buf[qi, nh] = p
                nh += 1
            else:
                term = 0 if truncated == 1 else 1
                break
        out_p[qi] = p
        out_d[qi] = dcur
        out_evals[qi] = evals
        out_hops[qi] = nh
        out_term[qi] = term
        out_best_p[qi] = bp
        out_best_d[qi] = bd
        if nh > maxnh:
            maxnh = nh
    return maxnh


class SearchKernels:
    """The two search kernels bound to the arrays that outlive a call.

    :mod:`repro.accel.dispatch` builds one per search plan — the CSR
    arrays, the distance mode and the stored vectors are fixed for the
    plan's lifetime — and passes only the per-call arguments afterwards.
    This interpreted form just holds the arrays;
    :class:`repro.accel.cbackend.SearchKernels` holds their C pointers.
    """

    def __init__(self, offsets, targets, kind, factor, data, codes, minv, scale):
        self._graph = (offsets, targets, kind, factor)
        self._vectors = (data, codes, minv, scale)

    @staticmethod
    def scratch(visited, cand_d, cand_v):
        """Per-thread scratch arrays in the form :meth:`beam` takes them,
        plus a pool heap of the candidate heap's length (a pool holds at
        most n vertices)."""
        return visited, cand_d, cand_v, np.empty_like(cand_d), np.empty_like(cand_v)

    def beam(self, Q, *rest):
        """:func:`beam_kernel`; ``rest`` is its arguments from ``starts`` on."""
        return beam_kernel(*self._graph, Q, *self._vectors, *rest)

    def greedy(self, Q, *rest):
        """:func:`greedy_kernel`; ``rest`` is its arguments from ``starts`` on."""
        return greedy_kernel(*self._graph, Q, *self._vectors, *rest)
