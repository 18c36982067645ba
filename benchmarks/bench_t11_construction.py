"""E3 — Theorem 1.1 construction time: near-linear in n, versus the
Omega(n^2)-or-worse prior constructions (DiskANN slow preprocessing).

We time three builders over an n sweep:

* G_net ``grid``  — the output-sensitive fast path (our stand-in for the
  paper's Har-Peled-Mendel + Cole-Gottlieb pipeline);
* G_net ``paper`` — the Section 2.4 loop against a dynamic cover tree
  (same asymptotics, bigger constants);
* DiskANN slow    — the only prior construction with guarantees, which is
  Theta(n^2) distance rows even before its per-candidate pruning work.

The assertion is about *shape*: DiskANN's time/n must grow markedly
faster than G_net's time/n.  (Pure-Python wall clock is noisy; we keep a
3x safety margin.)
"""

from __future__ import annotations

import time

from benchmarks.conftest import loglog_slope, write_table
from repro.baselines import build_diskann_slow
from repro.graphs import build_gnet
from repro.workloads import jittered_grid, make_dataset


def _time(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def test_construction_scaling(benchmark, bench_rng):
    sides = [12, 17, 24, 34]  # n = 144 .. 1156
    rows, ns = [], []
    t_grid, t_diskann = [], []
    for side in sides:
        ds = make_dataset(jittered_grid(side, 2, bench_rng, jitter=0.05))
        ns.append(ds.n)
        t_grid.append(_time(lambda: build_gnet(ds, 1.0, method="grid")))
        t_diskann.append(_time(lambda: build_diskann_slow(ds, epsilon=1.0)))
        rows.append(
            [
                ds.n,
                round(t_grid[-1], 3),
                round(t_diskann[-1], 3),
                round(1e3 * t_grid[-1] / ds.n, 3),
                round(1e3 * t_diskann[-1] / ds.n, 3),
            ]
        )
    slope_grid = loglog_slope(ns, t_grid)
    slope_diskann = loglog_slope(ns, t_diskann)
    write_table(
        "t11_construction",
        "E3: construction time scaling (eps=1, jittered grid R^2)",
        ["n", "gnet_grid_s", "diskann_s", "grid_ms/n", "diskann_ms/n"],
        rows,
        notes=(
            f"log-log slope: gnet_grid = {slope_grid:.2f}, "
            f"diskann_slow = {slope_diskann:.2f}.  Theorem 1.1's point: the "
            "net-based construction avoids the quadratic wall (paper: "
            "n polylog(n Delta) vs Omega(n^2)/O(n^3))."
        ),
    )
    # DiskANN per-point cost must grow visibly; G_net per-point cost must
    # grow strictly slower than DiskANN's.
    assert slope_diskann > slope_grid + 0.2, (
        f"expected a clear scaling separation, got grid={slope_grid:.2f} "
        f"diskann={slope_diskann:.2f}"
    )

    ds = make_dataset(jittered_grid(sides[-1], 2, bench_rng, jitter=0.05))
    benchmark.pedantic(
        lambda: build_gnet(ds, 1.0, method="grid"), rounds=1, iterations=1
    )


def test_construction_phase_breakdown(benchmark, bench_rng):
    """Where does G_net build time go?  Net hierarchy (the Gonzalez
    traversal: our quadratic-but-vectorized substitution) vs per-level
    edge generation (output-sensitive)."""
    from repro.nets import NetHierarchy

    rows = []
    for side in [17, 24, 34]:
        ds = make_dataset(jittered_grid(side, 2, bench_rng, jitter=0.05))
        t_h = _time(lambda: NetHierarchy(ds))
        hier = NetHierarchy(ds)
        t_e = _time(lambda: build_gnet(ds, 1.0, method="grid", hierarchy=hier))
        rows.append([ds.n, round(t_h, 3), round(t_e, 3)])
    write_table(
        "t11_construction_phases",
        "E3b: G_net build phase breakdown",
        ["n", "hierarchy_s", "edge_generation_s"],
        rows,
        notes=(
            "The hierarchy phase is our Gonzalez substitution: one "
            "farthest-point traversal gives every level Y_i as a prefix "
            "(O(n^2) distances against Har-Peled & Mendel's O(n log(n "
            "Delta)); the proofs use only the r-net properties, see "
            "nets/hierarchy.py); the edge-generation phase is the part "
            "Theorem 1.1's output-sensitivity argument is about."
        ),
    )

    ds = make_dataset(jittered_grid(24, 2, bench_rng, jitter=0.05))
    benchmark.pedantic(lambda: NetHierarchy(ds), rounds=1, iterations=1)


def test_paper_method_small_scale(benchmark, bench_rng):
    """The Section 2.4 loop (dynamic cover tree) timed on a small sweep.

    The asymptotics match the grid path; the pure-Python constants of the
    cover tree are ~two orders larger, which is why the scaling benches
    use the grid path.  Recorded for completeness and to demonstrate the
    paper-faithful pipeline end to end at a usable size."""
    rows = []
    for side in [8, 11, 15]:
        ds = make_dataset(jittered_grid(side, 2, bench_rng, jitter=0.05))
        t_paper = _time(lambda: build_gnet(ds, 1.0, method="paper"))
        t_grid = _time(lambda: build_gnet(ds, 1.0, method="grid"))
        rows.append(
            [ds.n, round(t_paper, 3), round(t_grid, 3),
             round(t_paper / max(t_grid, 1e-9), 1)]
        )
    write_table(
        "t11_construction_paper",
        "E3c: Section 2.4 loop (cover tree) vs grid path, small n",
        ["n", "paper_s", "grid_s", "paper/grid"],
        rows,
        notes=(
            "Identical output (tested in tests/test_gnet.py); the ratio is "
            "pure-Python constant factors, not asymptotics."
        ),
    )
    ds = make_dataset(jittered_grid(8, 2, bench_rng, jitter=0.05))
    benchmark.pedantic(
        lambda: build_gnet(ds, 1.0, method="paper"), rounds=1, iterations=1
    )
