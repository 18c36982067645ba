"""The ``cffi`` backend: the traversal kernels as C, compiled on demand.

This is the one compiled backend (it needs :mod:`cffi` and a C
toolchain), and the C source below is its own specification, pinned
against the numpy engines of :mod:`repro.graphs.engine` decision for
decision: candidates pop in ``(distance, vertex)`` order and the pool
evicts its largest distance, smallest vertex first (``_BeamState``'s
``heapq`` orders), a row is evaluated and ranked in CSR order, and
``budget`` and ``allowed`` cut and gate at the engines' points, so ids
and eval counts agree through distance ties.  The kernels differ in
*when* a distance is computed, never in its value or in the order
results are ranked: an expansion gathers a row's unvisited targets into
a block, prefetches their stored rows, evaluates the block (flat L2 four
rows at a time), then ranks it.  Where the engines keep a candidate heap
and a pool heap, ``repro_beam`` ranks the vertices the ``allowed`` mask
admits into one array sorted by ``(d, v)`` and routes the ones it
refuses through a min-heap; it pops, admits, evicts and stops exactly
where the two heaps do.  ``repro_traverse`` and its CSR tail
``repro_in_edge_csr`` transcribe the numpy loop of
:func:`repro.nets.hierarchy.farthest_point_order` and ``NetHierarchy``'s
in-edge record.  Kernels never allocate; a ``kind`` code (``KIND_*``)
selects the distance mode.  cffi releases the GIL around every call, so
dispatch splits the rows of a large call across cores.

Floating-point contract: the shared object is built with
``-ffp-contract=off`` and without any fast-math flag, so the compiler
neither fuses multiply-adds nor reassociates reductions — every distance
sums its coordinates left to right in float64.  numpy's ``einsum`` may
sum in another, SIMD-dependent order, so a decision can differ from the
engines' only where a comparison flips at 1-ulp scale; the equivalence
suites pin the kernels against the engines, over a left-to-right-summing
L2 where that order decides ties.  A flat beam's reported distances are
the engines' own: dispatch re-evaluates them through the numpy distance
view.  The two-stage beam reports its rerank's floats, sums the numpy
rerank makes in the same order.  The warm-time self-check runs both
before the backend serves any search.

Build artifacts are content-addressed (source hash + compiler) and
cached under ``$REPRO_ACCEL_CACHE`` (default: a per-user directory in
the system temp dir, created 0o700), so each environment compiles once
— a few hundred milliseconds — and every later process ``dlopen``\\ s
the cached shared object, after checking that the directory and the
file are this user's own and not symlinks.
"""

from __future__ import annotations

import hashlib
import os
import re
import shutil
import stat
import subprocess
import tempfile
import threading
from pathlib import Path

import numpy as np

__all__ = [
    "SearchKernels",
    "robust_prune_kernel",
    "commit_wave_kernel",
    "call",
    "cache_dir",
    "ensure_compiled",
]

# The distance modes, as the C source's ``#define KIND_*`` numbers them.
KIND_FLAT_L2 = 0
KIND_FLAT_LINF = 1
KIND_SQ8_L2 = 2
KIND_SQ8_LINF = 3

_SOURCE = r"""
#include <stdint.h>
#include <math.h>

#define KIND_FLAT_L2 0
#define KIND_FLAT_LINF 1
#define KIND_SQ8_L2 2
#define KIND_SQ8_LINF 3

/* What a kernel call binds: the CSR graph (int64 row pointers, int32
 * vertex ids), the stored vectors and, in the copy each thread searches
 * through, that thread's beam scratch.  data holds the raw float64 rows:
 * a flat plan walks them, an sq8 plan walks codes and reranks its pool on
 * them under exact_kind and exact_factor. */
typedef struct {
    const int64_t *offsets;
    const int32_t *targets;
    int32_t kind, exact_kind;
    double factor, exact_factor;
    const double *data, *minv, *scale;
    const uint8_t *codes;
    int64_t ddim, cdim;
    int32_t *visited;
    double *cand_d;
    int64_t *cand_v, cap;
} repro_plan;

/* One expansion step works on a block: up to BLOCK unvisited targets of
 * a row are gathered, their stored rows prefetched while the scan goes
 * on, then evaluated together, then ranked in gather order; a longer row
 * (G-net rows hold hundreds) takes several.  Blocks live on the C stack. */
#define BLOCK 32

/* Gather into blk the next targets of row [*pos, end) not stamped gen, at
 * most BLOCK, in row order, and start fetching every cache line of each
 * one's stored row.  Advances *pos past what it scanned; stamps nothing. */
static inline int64_t gather_block(
    const repro_plan *p, int64_t *pos, int64_t end,
    const int32_t *visited, int32_t gen, int64_t *blk)
{
    int flat = p->kind <= KIND_FLAT_LINF;
    const char *rows = flat ? (const char *)p->data : (const char *)p->codes;
    int64_t row_bytes = flat ? p->ddim * (int64_t)sizeof(double) : p->cdim;
    int64_t nb = 0;
    int64_t ei = *pos;
    for (; ei < end && nb < BLOCK; ei++) {
        int64_t v = p->targets[ei];
        if (visited[v] == gen)
            continue;
        blk[nb++] = v;
        for (int64_t o = 0; o < row_bytes; o += 64)
            __builtin_prefetch(rows + v * row_bytes + o);
        __builtin_prefetch(rows + (v + 1) * row_bytes - 1);
    }
    *pos = ei;
    return nb;
}

/* out[0..3] = factor * |q - x_i|_2: four independent sums, each the
 * sequential one a row at a time gives, so every float is unchanged. */
static inline void l2_four(
    const double *q, const double *x0, const double *x1, const double *x2,
    const double *x3, int64_t dim, double factor, double *out)
{
    double a0 = 0.0, a1 = 0.0, a2 = 0.0, a3 = 0.0;
    for (int64_t j = 0; j < dim; j++) {
        double t0 = q[j] - x0[j];
        double t1 = q[j] - x1[j];
        double t2 = q[j] - x2[j];
        double t3 = q[j] - x3[j];
        a0 += t0 * t0;
        a1 += t1 * t1;
        a2 += t2 * t2;
        a3 += t3 * t3;
    }
    out[0] = factor * sqrt(a0);
    out[1] = factor * sqrt(a1);
    out[2] = factor * sqrt(a2);
    out[3] = factor * sqrt(a3);
}

/* out[b] = distance from query q to vertex vs[b], b < nb.  kind is switched
 * once a block; each distance sums its coordinates in order, operation for
 * operation, so every float is the one a vertex-at-a-time call returns. */
static inline void dist_block(
    const repro_plan *p, const double *q, const int64_t *vs, int64_t nb, double *out)
{
    const double factor = p->factor, *data = p->data, *minv = p->minv, *scale = p->scale;
    const uint8_t *codes = p->codes;
    int64_t ddim = p->ddim, cdim = p->cdim;
    switch (p->kind) {
    case KIND_FLAT_L2: {
        int64_t b = 0;
        for (; b + 4 <= nb; b += 4)
            l2_four(q, data + vs[b] * ddim, data + vs[b + 1] * ddim,
                    data + vs[b + 2] * ddim, data + vs[b + 3] * ddim,
                    ddim, factor, out + b);
        for (; b < nb; b++) {
            const double *x = data + vs[b] * ddim;
            double acc = 0.0;
            for (int64_t j = 0; j < ddim; j++) {
                double t = q[j] - x[j];
                acc += t * t;
            }
            out[b] = factor * sqrt(acc);
        }
        return;
    }
    case KIND_FLAT_LINF:
        for (int64_t b = 0; b < nb; b++) {
            const double *x = data + vs[b] * ddim;
            double acc = 0.0;
            for (int64_t j = 0; j < ddim; j++) {
                double t = fabs(q[j] - x[j]);
                if (t > acc)
                    acc = t;
            }
            out[b] = factor * acc;
        }
        return;
    case KIND_SQ8_L2:
        for (int64_t b = 0; b < nb; b++) {
            const uint8_t *c = codes + vs[b] * cdim;
            double acc = 0.0;
            for (int64_t j = 0; j < cdim; j++) {
                double t = q[j] - ((double)c[j] * scale[j] + minv[j]);
                acc += t * t;
            }
            out[b] = factor * sqrt(acc);
        }
        return;
    default: /* KIND_SQ8_LINF */
        for (int64_t b = 0; b < nb; b++) {
            const uint8_t *c = codes + vs[b] * cdim;
            double acc = 0.0;
            for (int64_t j = 0; j < cdim; j++) {
                double t = fabs(q[j] - ((double)c[j] * scale[j] + minv[j]));
                if (t > acc)
                    acc = t;
            }
            out[b] = factor * acc;
        }
    }
}

/* The beam: the vertices the mask admits are one array sorted by (d, v),
 * each entry v << 2 with two flag bits (v is unique, so a flag never decides
 * an order).  IN_POOL marks the ones the bounded pool holds; a cursor runs to
 * the first one not EXPANDED.  A vertex the mask refuses routes but is never
 * reported: it waits in a min-heap on (d, v) that grows down from the
 * buffers' far end, since a few allowed ids can leave thousands waiting. */
#define IN_POOL 1
#define EXPANDED 2

/* Push (d, v) onto the routing heap: entry i lives at hd[-i], hv[-i]. */
static void route_push(double *hd, int64_t *hv, int64_t size, double d, int64_t v)
{
    int64_t i = size;
    for (; i > 0; i = (i - 1) >> 1) {
        int64_t p = (i - 1) >> 1;
        if (!(d < hd[-p] || (d == hd[-p] && v < hv[-p])))
            break;
        hd[-i] = hd[-p];
        hv[-i] = hv[-p];
    }
    hd[-i] = d;
    hv[-i] = v;
}

/* Pop the routing heap's root; returns the new size. */
static int64_t route_pop(double *hd, int64_t *hv, int64_t size)
{
    size--;
    double d = hd[-size];
    int64_t v = hv[-size], i = 0;
    for (int64_t c = 1; c < size; c = 2 * i + 1) {
        if (c + 1 < size && (hd[-c - 1] < hd[-c] || (hd[-c - 1] == hd[-c] && hv[-c - 1] < hv[-c])))
            c++;
        if (!(hd[-c] < d || (hd[-c] == d && hv[-c] < v)))
            break;
        hd[-i] = hd[-c];
        hv[-i] = hv[-c];
        i = c;
    }
    hd[-i] = d;
    hv[-i] = v;
    return size;
}

/* The pool has just reached L entries (evict 0) or L + 1 (evict 1).  Drop
 * from it the entry heapq evicts — the largest d, the smallest v among its
 * ties — set *worst to the largest d left, and cut every entry beyond it:
 * the numpy engine's beam stops on popping one.  Entries tied at *worst
 * stay, it pops and expands those.  Returns the new size.  The array always
 * ends on a pool entry: one evicted earlier survives a cut only tied at
 * *worst, and then ahead of the larger ids its eviction spared. */
static int64_t beam_trim(const double *cd, int64_t *cv, int64_t size, int evict,
                         double *worst)
{
    int64_t last = size - 1;
    if (evict) {
        int64_t first = last;
        for (int64_t i = last - 1; i >= 0 && cd[i] == cd[last]; i--)
            if ((cv[i] & IN_POOL) != 0)
                first = i;
        cv[first] &= ~(int64_t)IN_POOL;
        while ((cv[last] & IN_POOL) == 0)
            last--;
    }
    *worst = cd[last];
    while (cd[size - 1] > *worst)
        size--;
    return size;
}

/* dist_block outside repro_beam's expansion loop: the start and the
 * rerank call it once a row, and a third inlined copy of the switch costs
 * the loop's code ~8 % on 64-row flat calls. */
static __attribute__((noinline)) void dist_once(
    const repro_plan *p, const double *q, const int64_t *vs, int64_t nb, double *out)
{
    dist_block(p, q, vs, nb, out);
}

/* Rank the n pool ids in v by (d, v) ascending, d their distances. */
static __attribute__((noinline)) void rank_pool(double *d, int64_t *v, int64_t n)
{
    for (int64_t i = 1; i < n; i++) {
        double di = d[i];
        int64_t vi = v[i], j = i;
        for (; j > 0 && (d[j - 1] > di || (d[j - 1] == di && v[j - 1] > vi)); j--) {
            d[j] = d[j - 1];
            v[j] = v[j - 1];
        }
        d[j] = di;
        v[j] = vi;
    }
}

/* The beam, then the report.  rerank_k == 0 reports each row's pool into
 * out_ids, k_fetch a row.  rerank_k > 0 is the two-stage search's exact
 * stage: the first k_fetch pool entries are evaluated on the raw rows,
 * ranked by (d, v), and the first rerank_k written to out_ids and out_d,
 * rerank_k a row; their evaluations count in out_evals. */
int64_t repro_beam(
    const repro_plan *plan,
    const double *Q, int64_t qdim,
    const int64_t *starts, int64_t nq,
    int64_t beam_width, int64_t k_fetch, int64_t rerank_k, int64_t budget,
    const uint8_t *allowed, int32_t has_allowed,
    int64_t *out_ids, double *out_d, int64_t *out_evals, int64_t gen0)
{
    const int64_t *offsets = plan->offsets;
    int32_t *visited = plan->visited;
    double *cand_d = plan->cand_d;
    int64_t *cand_v = plan->cand_v, cap = plan->cap;
    int64_t blk[BLOCK];
    double dblk[BLOCK];
    double *hd = cand_d + cap - 1;
    int64_t *hv = cand_v + cap - 1;
    repro_plan exact = *plan;
    exact.kind = plan->exact_kind;
    exact.factor = plan->exact_factor;
    for (int64_t qi = 0; qi < nq; qi++) {
        const double *q = Q + qi * qdim;
        int32_t gen = (int32_t)(gen0 + qi + 1);
        int64_t s = starts[qi];
        double d0;
        dist_once(plan, q, &s, 1, &d0);
        /* size array entries, psize of them in the pool, whose largest d is
         * worst once psize == L; hsize vertices on the routing heap. */
        int64_t size = 0, cur = 0, psize = 0, hsize = 0;
        double worst = INFINITY;
        if (has_allowed == 0 || allowed[s] != 0) {
            cand_d[0] = d0;
            cand_v[0] = s << 2 | IN_POOL;
            size = psize = 1;
            if (beam_width == 1)
                worst = d0;
        } else {
            route_push(hd, hv, hsize++, d0, s);
        }
        visited[s] = gen;
        int64_t evals = 1;
        for (;;) {
            /* Pop the least (d, v) of both: a routing vertex beyond a full
             * pool's worst is where the numpy engine's beam stops, and so is
             * every one under it. */
            while (cur < size && (cand_v[cur] & EXPANDED) != 0)
                cur++;
            if (hsize > 0 && psize >= beam_width && hd[0] > worst)
                hsize = 0;
            int64_t u;
            if (hsize > 0 && (cur == size || hd[0] < cand_d[cur] ||
                              (hd[0] == cand_d[cur] && hv[0] < cand_v[cur] >> 2))) {
                u = hv[0];
                hsize = route_pop(hd, hv, hsize);
            } else if (cur < size) {
                cand_v[cur] |= EXPANDED;
                u = cand_v[cur++] >> 2;
            } else {
                break;
            }
            int64_t ei = offsets[u];
            int64_t end = offsets[u + 1];
            while (ei < end) {
                int64_t nb = gather_block(plan, &ei, end, visited, gen, blk);
                if (nb == 0)
                    break;
                if (budget >= 0 && evals >= budget)
                    goto report;
                int64_t take = nb;
                if (budget >= 0 && evals + nb > budget)
                    take = budget - evals;
                for (int64_t b = 0; b < take; b++)
                    visited[blk[b]] = gen;
                dist_block(plan, q, blk, take, dblk);
                evals += take;
                for (int64_t b = 0; b < take; b++) {
                    double dv = dblk[b];
                    int64_t v = blk[b];
                    if (!(psize < beam_width || dv < worst))
                        continue;
                    if (has_allowed != 0 && allowed[v] == 0) {
                        route_push(hd, hv, hsize++, dv, v);
                        continue;
                    }
                    int64_t ev = v << 2 | IN_POOL;
                    int64_t i = size++;
                    for (; i > 0 && (cand_d[i - 1] > dv ||
                                     (cand_d[i - 1] == dv && cand_v[i - 1] > ev)); i--) {
                        cand_d[i] = cand_d[i - 1];
                        cand_v[i] = cand_v[i - 1];
                    }
                    cand_d[i] = dv;
                    cand_v[i] = ev;
                    if (i < cur)
                        cur = i;
                    if (++psize >= beam_width) {
                        size = beam_trim(cand_d, cand_v, size, psize > beam_width, &worst);
                        psize = beam_width;
                        if (cur > size)
                            cur = size;
                    }
                }
                /* The budget cut this row: nothing more can be evaluated,
                 * so the pops the numpy engine still makes change nothing. */
                if (take < nb)
                    goto report;
            }
        }
    report:
        /* The pool in array order: ascending (d, v), the numpy path's
         * sorted((-d, v)) report order; -1 pads the row.  The rerank
         * moves it to the array's front instead: the heap is done with. */
        if (rerank_k == 0) {
            int64_t *row = out_ids + qi * k_fetch, n_out = 0;
            for (int64_t a = 0; a < size && n_out < k_fetch; a++)
                if ((cand_v[a] & IN_POOL) != 0)
                    row[n_out++] = cand_v[a] >> 2;
            while (n_out < k_fetch)
                row[n_out++] = -1;
        } else {
            int64_t *row = out_ids + qi * rerank_k, n_pool = 0;
            double *drow = out_d + qi * rerank_k;
            for (int64_t a = 0; a < size && n_pool < k_fetch; a++)
                if ((cand_v[a] & IN_POOL) != 0)
                    cand_v[n_pool++] = cand_v[a] >> 2;
            dist_once(&exact, q, cand_v, n_pool, cand_d);
            evals += n_pool;
            rank_pool(cand_d, cand_v, n_pool);
            for (int64_t a = 0; a < rerank_k; a++) {
                row[a] = a < n_pool ? cand_v[a] : -1;
                drow[a] = a < n_pool ? cand_d[a] : INFINITY;
            }
        }
        out_evals[qi] = evals;
    }
    return 0;
}

int64_t repro_greedy(
    const repro_plan *plan,
    const double *Q, int64_t qdim,
    const int64_t *starts, const double *d0, int64_t nq,
    int64_t budget,
    const uint8_t *allowed, int32_t has_allowed,
    int64_t *out_p, double *out_d, int64_t *out_evals,
    int64_t *out_hops, int64_t *out_term,
    int64_t *out_best_p, double *out_best_d,
    int64_t *hops_buf, int64_t hops_cap)
{
    const int64_t *offsets = plan->offsets;
    const int32_t *targets = plan->targets;
    int64_t blk[BLOCK];
    double dblk[BLOCK];
    int64_t maxnh = 0;
    for (int64_t qi = 0; qi < nq; qi++) {
        int64_t p = starts[qi];
        double dcur = d0[qi];
        int64_t evals = 1;
        int64_t nh = 1;
        if (hops_cap > 0)
            hops_buf[qi * hops_cap] = p;
        int64_t bp = -1;
        double bd = INFINITY;
        if (has_allowed != 0 && allowed[p] != 0) {
            bp = p;
            bd = dcur;
        }
        int64_t term = 0;
        for (;;) {
            if (budget >= 0 && evals >= budget) {
                term = 0;
                break;
            }
            int64_t beg = offsets[p];
            int64_t end = offsets[p + 1];
            int64_t deg = end - beg;
            if (deg == 0) {
                term = 1;
                break;
            }
            int64_t take = deg;
            int64_t truncated = 0;
            if (budget >= 0 && evals + deg > budget) {
                take = budget - evals;
                truncated = 1;
            }
            double bestd = INFINITY;
            int64_t bestv = -1;
            double hop_ad = INFINITY;
            int64_t hop_av = -1;
            for (int64_t i = 0; i < take; i += BLOCK) {
                int64_t nb = take - i < BLOCK ? take - i : BLOCK;
                for (int64_t b = 0; b < nb; b++)
                    blk[b] = targets[beg + i + b];
                dist_block(plan, Q + qi * qdim, blk, nb, dblk);
                for (int64_t b = 0; b < nb; b++) {
                    int64_t v = blk[b];
                    double dv = dblk[b];
                    if (has_allowed != 0 && allowed[v] != 0 && dv < hop_ad) {
                        hop_ad = dv;
                        hop_av = v;
                    }
                    if (dv < bestd) {
                        bestd = dv;
                        bestv = v;
                    }
                }
            }
            evals += take;
            if (hop_av >= 0 && hop_ad < bd) {
                bd = hop_ad;
                bp = hop_av;
            }
            if (bestd < dcur) {
                p = bestv;
                dcur = bestd;
                if (nh < hops_cap)
                    hops_buf[qi * hops_cap + nh] = p;
                nh++;
            } else {
                term = truncated == 1 ? 0 : 1;
                break;
            }
        }
        out_p[qi] = p;
        out_d[qi] = dcur;
        out_evals[qi] = evals;
        out_hops[qi] = nh;
        out_term[qi] = term;
        out_best_p[qi] = bp;
        out_best_d[qi] = bd;
        if (nh > maxnh)
            maxnh = nh;
    }
    return maxnh;
}

/* RobustPrune over raw float64 coordinates: (d, v)-ascending sort,
 * pid drop + first-occurrence dedup, then the greedy alpha scan with
 * lazily computed kept-to-candidate rows (sequential gram identity
 * for L2, exact max-abs-diff for Linf).  Shared by the per-call entry
 * and the wave commit below. */
static int64_t prune_core(
    const double *points, int64_t ddim,
    int32_t kind, double factor, int64_t pid,
    const int64_t *v_in, const double *d_in, int64_t P,
    double alpha, int64_t max_degree,
    int64_t *vs, double *ds, uint8_t *alive, double *sq, int64_t *out)
{
    for (int64_t i = 0; i < P; i++) {
        double d = d_in[i];
        int64_t v = v_in[i];
        int64_t j = i;
        while (j > 0 && (ds[j - 1] > d || (ds[j - 1] == d && vs[j - 1] > v))) {
            ds[j] = ds[j - 1];
            vs[j] = vs[j - 1];
            j--;
        }
        ds[j] = d;
        vs[j] = v;
    }
    int64_t k = 0;
    for (int64_t i = 0; i < P; i++) {
        int64_t v = vs[i];
        if (v == pid)
            continue;
        int dup = 0;
        for (int64_t j = 0; j < k; j++) {
            if (vs[j] == v) {
                dup = 1;
                break;
            }
        }
        if (dup)
            continue;
        vs[k] = v;
        ds[k] = ds[i];
        k++;
    }
    if (k == 0)
        return 0;
    if (kind == KIND_FLAT_L2) {
        for (int64_t i = 0; i < k; i++) {
            double acc = 0.0;
            const double *x = points + vs[i] * ddim;
            for (int64_t c = 0; c < ddim; c++)
                acc += x[c] * x[c];
            sq[i] = acc;
        }
    }
    for (int64_t i = 0; i < k; i++)
        alive[i] = 1;
    int64_t kept = 0;
    int64_t pos = 0;
    while (kept < max_degree) {
        while (pos < k && alive[pos] == 0)
            pos++;
        if (pos >= k)
            break;
        out[kept] = vs[pos];
        kept++;
        if (kept >= max_degree)
            break;
        const double *xp = points + vs[pos] * ddim;
        for (int64_t j = 0; j < k; j++) {
            if (alive[j] == 0)
                continue;
            double d;
            if (j == pos) {
                d = 0.0;
            } else if (kind == KIND_FLAT_L2) {
                const double *xj = points + vs[j] * ddim;
                double dot = 0.0;
                for (int64_t c = 0; c < ddim; c++)
                    dot += xp[c] * xj[c];
                double d2 = sq[pos] + sq[j] - 2.0 * dot;
                if (d2 < 0.0)
                    d2 = 0.0;
                d = factor * sqrt(d2);
            } else {
                const double *xj = points + vs[j] * ddim;
                double acc = 0.0;
                for (int64_t c = 0; c < ddim; c++) {
                    double t = xp[c] - xj[c];
                    if (t < 0.0)
                        t = -t;
                    if (t > acc)
                        acc = t;
                }
                d = factor * acc;
            }
            if (!(alpha * d > ds[j]))
                alive[j] = 0;
        }
        pos++;
    }
    return kept;
}

int64_t repro_robust_prune(
    const double *points, int64_t ddim,
    int32_t kind, double factor, int64_t pid,
    const int64_t *v_in, const double *d_in, int64_t P,
    double alpha, int64_t max_degree,
    int64_t *vs, double *ds, uint8_t *alive, double *sq, int64_t *out)
{
    return prune_core(points, ddim, kind, factor, pid, v_in, d_in, P,
                      alpha, max_degree, vs, ds, alive, sq, out);
}

/* Distance between two stored points — the coordinate metrics'
 * `distances` rows with sequential float64 accumulation. */
static double point_dist(
    const double *points, int64_t ddim, int32_t kind, double factor,
    int64_t a, int64_t b)
{
    const double *xa = points + a * ddim;
    const double *xb = points + b * ddim;
    double acc = 0.0;
    if (kind == KIND_FLAT_L2) {
        for (int64_t c = 0; c < ddim; c++) {
            double t = xa[c] - xb[c];
            acc += t * t;
        }
        return factor * sqrt(acc);
    }
    for (int64_t c = 0; c < ddim; c++) {
        double t = xa[c] - xb[c];
        if (t < 0.0)
            t = -t;
        if (t > acc)
            acc = t;
    }
    return factor * acc;
}

/* Commit a whole construction wave against a padded row store: per
 * member, RobustPrune its pool (plus, with include_own, its current
 * out-neighbors at in-kernel distances) into its row, then add
 * backlinks with overflow re-pruning — engine.prune_and_link commit by
 * commit, in wave order.  Vertex v's row is adj row slot[v]; a vertex
 * with no row there (slot -1) stops the wave and returns -1, before
 * anything is written to it. */
int64_t repro_commit_wave(
    const double *points, int64_t ddim,
    int32_t kind, double factor,
    const int64_t *pids, int64_t w,
    const int64_t *pool_ids, const double *pool_d, const int64_t *pool_off,
    int32_t include_own, double alpha, int64_t max_degree,
    int64_t *adj, int64_t cap, int64_t *deg, const int64_t *slot,
    int64_t *cand_v, double *cand_d,
    int64_t *vs, double *ds, uint8_t *alive, double *sq,
    int64_t *out, int64_t *out2)
{
    for (int64_t i = 0; i < w; i++) {
        int64_t pid = pids[i];
        int64_t sp = slot[pid];
        if (sp < 0)
            return -1;
        int64_t *row = adj + sp * cap;
        int64_t P = 0;
        for (int64_t j = pool_off[i]; j < pool_off[i + 1]; j++) {
            cand_v[P] = pool_ids[j];
            cand_d[P] = pool_d[j];
            P++;
        }
        if (include_own) {
            for (int64_t j = 0; j < deg[sp]; j++) {
                int64_t v = row[j];
                cand_v[P] = v;
                cand_d[P] = point_dist(points, ddim, kind, factor, pid, v);
                P++;
            }
        }
        int64_t kept = prune_core(points, ddim, kind, factor, pid,
                                  cand_v, cand_d, P, alpha, max_degree,
                                  vs, ds, alive, sq, out);
        for (int64_t j = 0; j < kept; j++)
            row[j] = out[j];
        deg[sp] = kept;
        for (int64_t j = 0; j < kept; j++) {
            int64_t v = out[j];
            int64_t sv = slot[v];
            if (sv < 0)
                return -1;
            int64_t *vrow = adj + sv * cap;
            int64_t dv = deg[sv];
            int present = 0;
            for (int64_t t = 0; t < dv; t++) {
                if (vrow[t] == pid) {
                    present = 1;
                    break;
                }
            }
            if (present)
                continue;
            vrow[dv] = pid;
            deg[sv] = dv + 1;
            if (deg[sv] > max_degree) {
                int64_t P2 = deg[sv];
                for (int64_t t = 0; t < P2; t++) {
                    cand_v[t] = vrow[t];
                    cand_d[t] = point_dist(points, ddim, kind, factor,
                                           v, vrow[t]);
                }
                int64_t k2 = prune_core(points, ddim, kind, factor, v,
                                        cand_v, cand_d, P2, alpha,
                                        max_degree, vs, ds, alive, sq, out2);
                for (int64_t t = 0; t < k2; t++)
                    vrow[t] = out2[t];
                deg[sv] = k2;
            }
        }
    }
    return 0;
}

/* row[p] = D(y, p) for every stored point p: point_dist's arithmetic, for
 * L2 four points at a time. */
static void dist_row(
    const double *points, int64_t n, int64_t ddim, int32_t kind, double factor,
    int64_t y, double *row)
{
    const double *xy = points + y * ddim;
    int64_t p = 0;
    for (; kind == KIND_FLAT_L2 && p + 4 <= n; p += 4) {
        const double *x = points + p * ddim;
        l2_four(xy, x, x + ddim, x + 2 * ddim, x + 3 * ddim, ddim, factor, row + p);
    }
    for (; p < n; p++)
        row[p] = point_dist(points, ddim, kind, factor, y, p);
}

/* Gonzalez farthest-point traversal, resumable: state[0] points placed
 * (order[0] the start, its cover +inf), state[1] in-edges recorded.  Per
 * point y = order[k]: the row D(y, .) into the record's free end, then one
 * pass lowers cover[p] (parent[p] = y), keeps the in-edge p -> y if D <=
 * phi * 2^top(y) (none for phi <= 0 or y below Y_0) and takes the argmax
 * of cover, the smaller id on ties, as order[k + 1].  Returns 1, state
 * saved, once fewer than n record entries are free; 0 when all are placed. */
int64_t repro_traverse(
    const double *points, int64_t n, int64_t ddim,
    int32_t kind, double factor, double phi, int64_t height,
    double *cover, int64_t *order, int64_t *parent, int64_t *state,
    int64_t *sources, int64_t *targets, double *dists, int64_t cap)
{
    int64_t k = state[0], m = state[1];
    for (; k < n && m + n <= cap; k++) {
        int64_t y = order[k], next = -1;
        double radius = -1.0, best = -INFINITY, *row = dists + m;
        if (phi > 0.0 && cover[y] >= 1.0) { /* top(y): log2 of it, at most height */
            int e = (int)height + 1;
            if (cover[y] < INFINITY)
                frexp(cover[y], &e);
            radius = ldexp(phi, e - 1 < height ? e - 1 : (int)height);
        }
        cover[y] = -INFINITY; /* never re-selected */
        dist_row(points, n, ddim, kind, factor, y, row);
        for (int64_t p = 0; p < n; p++) {
            double d = row[p]; /* read before the record overwrites it */
            if (p != y) {
                if (d < cover[p]) {
                    cover[p] = d;
                    parent[p] = y;
                }
                sources[m] = p;
                targets[m] = y;
                dists[m] = d;
                m += d <= radius;
            }
            if (cover[p] > best) {
                best = cover[p];
                next = p;
            }
        }
        if (k + 1 < n)
            order[k + 1] = next;
    }
    state[0] = k;
    state[1] = m;
    return k < n;
}

/* CSR of m in-edges grouped by target, by a counting sort (offsets
 * zeroed, first all -1): each group is scattered into its sources' rows in
 * ascending target order, so every row comes out increasing.  The targets
 * come out as the graph holds them, int32. */
int64_t repro_in_edge_csr(
    int64_t n, int64_t m, const int64_t *sources, const int64_t *targets,
    int64_t *first, int64_t *fill, int64_t *offsets, int32_t *out_targets)
{
    for (int64_t j = 0; j < m; j++) {
        offsets[sources[j] + 1]++;
        if (j == 0 || targets[j] != targets[j - 1])
            first[targets[j]] = j;
    }
    for (int64_t p = 0; p < n; p++) {
        fill[p] = offsets[p];
        offsets[p + 1] += offsets[p];
    }
    for (int64_t y = 0; y < n; y++)
        for (int64_t j = first[y]; j >= 0 && j < m && targets[j] == y; j++)
            out_targets[fill[sources[j]]++] = (int32_t)y;
    return 0;
}
"""

#: cffi's declarations: the plan struct and every exported ``repro_*``
#: signature, read off the source above so the two cannot drift apart.
_CDEF = "".join(decl + ";\n" for decl in re.findall(
    r"^typedef struct \{[^}]*\} repro_plan|^int64_t repro_\w+\([^)]*\)", _SOURCE, re.M))

# Strict IEEE: no fused multiply-add contraction, no reassociation.
_CFLAGS = ["-O2", "-fPIC", "-shared", "-ffp-contract=off", "-fno-unsafe-math-optimizations"]

_lock = threading.Lock()
_lib = None
_ffi = None


def cache_dir() -> Path:
    """Where compiled shared objects live (``$REPRO_ACCEL_CACHE``
    overrides; default is a per-user directory under the temp dir)."""
    env = os.environ.get("REPRO_ACCEL_CACHE")
    if env:
        return Path(env)
    return Path(tempfile.gettempdir()) / f"repro-accel-cache-{_uid()}"


def _uid() -> int:
    # No uids on Windows, where ``st_uid`` reads 0 as well.
    return os.getuid() if hasattr(os, "getuid") else 0


def _require_own(path: Path, is_kind, what: str) -> None:
    """Refuse a cache ``path`` that is not itself (``lstat``: a symlink
    is not) a ``what`` owned by this user — the default location is
    predictable, so on a shared temp dir anyone can put one there first,
    and what is found in it is ``dlopen``ed."""
    from repro.accel.dispatch import AccelUnavailableError

    st = os.lstat(path)
    if not is_kind(st.st_mode) or st.st_uid != _uid():
        raise AccelUnavailableError(
            f"refusing the cffi accel cache {what} {path}: it is not a "
            f"real {what} owned by uid {_uid()} (set $REPRO_ACCEL_CACHE to "
            "a directory of your own)"
        )


def _find_compiler() -> str | None:
    for cc in ("cc", "gcc", "clang"):
        path = shutil.which(cc)
        if path:
            return path
    return None


def ensure_compiled() -> Path:
    """Compile (or reuse) the shared object; returns its path."""
    from repro.accel.dispatch import AccelUnavailableError

    cc = _find_compiler()
    if cc is None:
        raise AccelUnavailableError(
            "no C compiler (cc/gcc/clang) found for the cffi accel backend"
        )
    key = hashlib.sha256(
        (_SOURCE + "\0" + " ".join(_CFLAGS) + "\0" + cc).encode()
    ).hexdigest()[:16]
    cdir = cache_dir()
    try:
        cdir.mkdir(mode=0o700, parents=True, exist_ok=True)
    except FileExistsError:
        pass  # not a directory: refused just below
    _require_own(cdir, stat.S_ISDIR, "directory")
    so_path = cdir / f"repro_accel_{key}.so"
    if os.path.lexists(so_path):
        _require_own(so_path, stat.S_ISREG, "file")
        return so_path
    c_path = cdir / f"repro_accel_{key}.c"
    c_path.write_text(_SOURCE)
    tmp_so = cdir / f".repro_accel_{key}.{os.getpid()}.so"
    proc = subprocess.run(
        [cc, *_CFLAGS, "-o", str(tmp_so), str(c_path), "-lm"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    if proc.returncode != 0:
        raise AccelUnavailableError(
            f"C compilation of the cffi accel backend failed:\n{proc.stderr}"
        )
    os.replace(tmp_so, so_path)  # atomic under concurrent builders
    return so_path


def _load():
    global _lib, _ffi
    if _lib is not None:
        return _lib, _ffi
    with _lock:
        if _lib is not None:
            return _lib, _ffi
        from cffi import FFI

        ffi = FFI()
        ffi.cdef(_CDEF)
        lib = ffi.dlopen(str(ensure_compiled()))
        _ffi, _lib = ffi, lib
    return _lib, _ffi


def _f64(ffi, arr: np.ndarray):
    return ffi.from_buffer("double[]", arr)


def _i64(ffi, arr: np.ndarray):
    return ffi.from_buffer("int64_t[]", arr)


def _u8(ffi, arr: np.ndarray):
    return ffi.from_buffer("uint8_t[]", arr)


def _plan_fields(
    ffi, offsets, targets, kind, factor, data, codes, minv, scale, exact_kind, exact_factor,
):
    """A ``repro_plan``'s graph and vector fields; keep them while it lives.
    ``from_buffer`` reads any buffer as the type it is given, so the CSR
    widths are checked here: int64 offsets, int32 targets."""
    if offsets.dtype != np.int64 or targets.dtype != np.int32:
        raise TypeError(
            f"CSR arrays must be int64 offsets and int32 targets, got "
            f"{offsets.dtype} and {targets.dtype}"
        )
    buf, i64, f64 = ffi.from_buffer, "int64_t[]", "double[]"
    return {
        "offsets": buf(i64, offsets), "targets": buf("int32_t[]", targets),
        "kind": int(kind), "factor": float(factor),
        "exact_kind": int(exact_kind), "exact_factor": float(exact_factor),
        "data": buf(f64, data), "ddim": data.shape[1],
        "codes": buf("uint8_t[]", codes), "cdim": codes.shape[1],
        "minv": buf(f64, minv), "scale": buf(f64, scale),
    }


class SearchKernels:
    """``repro_beam`` / ``repro_greedy`` bound to the arrays that outlive
    a call; :mod:`repro.accel.dispatch` builds one per search plan.

    The pointers of the CSR arrays, the stored vectors and the quantiser
    parameters are resolved here, once, into a ``repro_plan`` (one per
    thread with its scratch, by :meth:`scratch`); :meth:`beam` and
    :meth:`greedy` marshal only what changes from call to call.  Every
    pointer comes from ``ffi.from_buffer``, which holds its array (or
    mapping) alive and refuses one that is not C-contiguous.
    """

    def __init__(self, offsets, targets, *layout):
        self._lib, self._ffi = _load()
        self._buf = self._ffi.from_buffer
        self._f64 = self._ffi.typeof("double[]")
        self._i64 = self._ffi.typeof("int64_t[]")
        self._fields = _plan_fields(self._ffi, offsets, targets, *layout)
        self._plan = self._ffi.new("repro_plan *", self._fields)

    def scratch(self, visited, cand_d, cand_v):
        """This thread's plan, with its scratch arrays, in the form
        :meth:`beam` takes it: the plan, then the pointers it holds."""
        held = {
            "visited": self._buf("int32_t[]", visited),
            "cand_d": self._buf(self._f64, cand_d),
            "cand_v": self._buf(self._i64, cand_v),
        }
        return self._ffi.new("repro_plan *", {**self._fields, **held, "cap": len(cand_d)}), held

    def beam(
        self, Q, starts, beam_width, k_fetch, rerank_k, budget, allowed, has_allowed,
        out_ids, out_d, out_evals, gen0, plan, _held,
    ):
        """``engine.beam_search_batch`` over the rows of ``Q``: each row's
        pool ascending by ``(distance, vertex)`` into ``out_ids`` (``-1``
        past its size), its exact eval count into ``out_evals``.  With
        ``rerank_k > 0`` the pool is reranked on the raw rows first and its
        first ``rerank_k`` written, distances into ``out_d``.  A ``budget``
        below 0 is none.  Row ``i`` stamps ``visited`` with ``gen0 + i +
        1``, so ``gen0`` is at least every stamp it holds."""
        buf, f64, i64 = self._buf, self._f64, self._i64
        return self._lib.repro_beam(
            plan, buf(f64, Q), Q.shape[1],
            buf(i64, starts), starts.shape[0],
            beam_width, k_fetch, rerank_k, budget,
            buf("uint8_t[]", allowed) if has_allowed else self._ffi.NULL, has_allowed,
            buf(i64, out_ids), buf(f64, out_d), buf(i64, out_evals), gen0,
        )

    def greedy(
        self, Q, starts, d0, budget, allowed, has_allowed,
        out_p, out_d, out_evals, out_hops, out_term, out_best_p, out_best_d,
        hops_buf, hops_cap,
    ):
        """``engine.greedy_batch`` over the rows of ``Q``: end vertex,
        evals, hop count, self-termination and the best allowed vertex
        per row, the hops into ``hops_buf`` up to ``hops_cap`` a row.
        Returns the longest walk's hop count; over ``hops_cap``, the
        caller retries with a larger buffer."""
        buf, f64, i64 = self._buf, self._f64, self._i64
        return self._lib.repro_greedy(
            self._plan, buf(f64, Q), Q.shape[1],
            buf(i64, starts), buf(f64, d0), starts.shape[0],
            budget, buf("uint8_t[]", allowed) if has_allowed else self._ffi.NULL, has_allowed,
            buf(i64, out_p), buf(f64, out_d), buf(i64, out_evals),
            buf(i64, out_hops), buf(i64, out_term),
            buf(i64, out_best_p), buf(f64, out_best_d),
            buf(i64, hops_buf), hops_cap,
        )


def robust_prune_kernel(
    points, kind, factor, pid, v_in, d_in, alpha, max_degree,
    vs, ds, alive, sq, out,
):
    """``engine.robust_prune`` over raw float64 ``points``: candidates in
    ``(distance, vertex)`` order, ``pid`` and repeated ids dropped, then
    the alpha scan.  Kept-to-candidate distances follow the metric's
    ``pairwise`` entry for entry (the Gram identity with a zero diagonal
    for L2, with sequential dots where numpy calls BLAS).  Writes the
    kept ids to ``out`` and returns their count."""
    lib, ffi = _load()
    return lib.repro_robust_prune(
        _f64(ffi, points), points.shape[1],
        int(kind), float(factor), int(pid),
        _i64(ffi, v_in), _f64(ffi, d_in), v_in.shape[0],
        float(alpha), int(max_degree),
        _i64(ffi, vs), _f64(ffi, ds), _u8(ffi, alive), _f64(ffi, sq),
        _i64(ffi, out),
    )


def commit_wave_kernel(
    points, kind, factor, pids, pool_ids, pool_d, pool_off,
    include_own, alpha, max_degree, adj, deg, slot,
    cand_v, cand_d, vs, ds, alive, sq, out, out2,
):
    """``engine.commit_wave_pools`` in one call: in wave order, each
    member's pool (plus its current out-edges when ``include_own``) is
    pruned into its row of the padded store ``adj`` / ``deg``, then
    linked back from every kept neighbour, re-pruning a row that
    overflows ``max_degree``.  Vertex ``v``'s row is ``adj[slot[v]]``;
    a ``-1`` slot stops the wave with ``-1`` returned.  The other arrays
    are scratch sized to the longest candidate list."""
    lib, ffi = _load()
    return lib.repro_commit_wave(
        _f64(ffi, points), points.shape[1],
        int(kind), float(factor),
        _i64(ffi, pids), pids.shape[0],
        _i64(ffi, pool_ids), _f64(ffi, pool_d), _i64(ffi, pool_off),
        int(include_own), float(alpha), int(max_degree),
        _i64(ffi, adj), adj.shape[1], _i64(ffi, deg), _i64(ffi, slot),
        _i64(ffi, cand_v), _f64(ffi, cand_d),
        _i64(ffi, vs), _f64(ffi, ds), _u8(ffi, alive), _f64(ffi, sq),
        _i64(ffi, out), _i64(ffi, out2),
    )


def call(name, *args):
    """Call the C routine ``name``: float64 / int64 / int32 arrays as
    pointers to their data, anything else as it is."""
    lib, ffi = _load()
    ctype = {"float64": "double[]", "int64": "int64_t[]", "int32": "int32_t[]"}
    return getattr(lib, name)(*(
        ffi.from_buffer(ctype[a.dtype.name], a) if isinstance(a, np.ndarray) else a
        for a in args
    ))
