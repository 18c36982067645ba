"""``build_gnet`` — the paper's own construction, the write path.

Operation: one point made queryable and durable.  ``ProximityGraphIndex
.build(pts, epsilon=1.0, method="gnet")`` with defaults (normalisation
is paid) followed by ``save(format="disk")``, on uniform points in the
unit cube with a fixed closest pair (``gen.hardcore_cube``: the aspect
ratio, which the G-net's height and cost depend on, is then the same
for every seed and every n), d = 3, at three doubling sizes; the triple
is repeated until the timed length is reached.  ``metrics`` normalisation, the ``nets``
hierarchy and ``graphs.gnet`` do all the work; ``accel``, ``storage``
quantisers and ``serve`` do none.

Answer quality is the Section 2 guarantee itself: every default
``search(q, k=1)`` must return a point within (1 + epsilon) of the true
nearest neighbour, so ``recall`` must read exactly 1.0.
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any

import numpy as np

from .. import gen, stats
from ..runner import RunContext, Slice, Timed, Verdict, dir_bytes
from ..runner import peak_rss_mb  # noqa: F401 - the workload protocol
from ..tracing import Tracer

SIZES = (250, 500, 1000)
DIM = 3
MIN_DISTANCE = 0.02
EPSILON = 1.0
PROBES = 1000
TOP_LEVEL_SPAN = "core.index.build_and_save"


@dataclass
class State:
    sizes: tuple[int, ...]
    points: dict[int, np.ndarray]
    probes: np.ndarray
    true_nn: dict[int, np.ndarray]  # per size: exact nearest-neighbour distance per probe
    out_dir: Path
    saved_bytes: dict[int, int] = field(default_factory=dict)
    setup_layers: dict[str, float] = field(default_factory=dict)  # none: all layers are timed


def prepare(ctx: RunContext) -> State:
    # Smoke runs keep the doubling but shrink the base size.
    sizes = tuple(ctx.size(n, floor=40 * 2**i) for i, n in enumerate(SIZES))
    points = {
        n: gen.hardcore_cube(ctx.seed, f"points{n}", n, DIM, MIN_DISTANCE) for n in sizes
    }
    probes = gen.uniform_cube(ctx.seed, "probes", ctx.size(PROBES, floor=50), DIM)
    true_nn = {}
    for n, pts in points.items():
        nearest = gen.exact_knn(probes, pts, 1)[:, 0]
        true_nn[n] = gen.distances(probes, pts[nearest])
    return State(
        sizes=sizes, points=points, probes=probes, true_nn=true_nn,
        out_dir=ctx.scratch / "gnet",
    )


def setup(ctx: RunContext, state: State) -> State:
    """One untimed build + save of every size: imports, allocator and
    page cache are warm before the first timed call."""
    from repro import ProximityGraphIndex

    for n in state.sizes:
        warm = ProximityGraphIndex.build(state.points[n], epsilon=EPSILON, method="gnet")
        warm.save(state.out_dir / f"n{n}", format="disk")
    return state


def teardown(state: State) -> None:
    pass


def backend_used(inputs: State) -> str:
    return "numpy"  # the gnet builder has no compiled path


def measure(
    ctx: RunContext, state: State, seconds: float, tracer: Tracer | None = None
) -> Slice:
    from repro import ProximityGraphIndex

    build_s: dict[int, list[float]] = {n: [] for n in state.sizes}
    save_s: dict[int, list[float]] = {n: [] for n in state.sizes}
    indexes: dict[int, Any] = {}
    t_begin = perf_counter()
    triples = 0
    # Another whole triple is started only while at least half of it fits.
    while triples == 0 or (perf_counter() - t_begin) * (1 + 0.5 / triples) <= seconds:
        for n in state.sizes:
            path = state.out_dir / f"n{n}"
            if tracer is not None:
                tracer.set_rid(f"{triples}:{n}")
            span = nullcontext() if tracer is None else tracer.span(TOP_LEVEL_SPAN)
            t0 = perf_counter()
            with span:
                index = ProximityGraphIndex.build(
                    state.points[n], epsilon=EPSILON, method="gnet"
                )
                t1 = perf_counter()
                index.save(path, format="disk")
            t2 = perf_counter()
            build_s[n].append(t1 - t0)
            save_s[n].append(t2 - t1)
            indexes[n] = index
            state.saved_bytes[n] = dir_bytes(path)
        triples += 1
    return Slice(
        wall_s=perf_counter() - t_begin,
        ops=triples * sum(state.sizes),
        data={
            "sizes": state.sizes, "build_s": build_s, "save_s": save_s,
            "indexes": indexes, "triples": triples,
        },
    )


def summarise(slices: list[Slice]) -> Timed:
    """Each size's call time is the mean of the quiet fifth of its repeats
    (see ``stats``); throughput is points over the sum of those."""
    sizes = slices[0].data["sizes"]
    call_s = {
        n: stats.quiet_mean(
            [b + s for sl in slices for b, s in zip(sl.data["build_s"][n], sl.data["save_s"][n])]
        )
        for n in sizes
    }
    return Timed(
        wall_s=sum(sl.wall_s for sl in slices),
        ops=sum(sl.ops for sl in slices),
        ops_per_s=sum(sizes) / sum(call_s.values()),
        # Too few calls, at three different sizes, for percentiles: p50
        # is the middle size's call and p99 the largest size's.
        p50_ms=call_s[sizes[1]] * 1e3,
        p99_ms=call_s[sizes[-1]] * 1e3,
        samples=sum(sl.data["triples"] for sl in slices),  # calls per size
        slices=slices,
    )


def corrupt(timed: Slice) -> None:
    """Self-test hook: make the largest built index misreport distances."""
    timed.data["indexes"][max(timed.data["indexes"])].scale *= 2.0


def verify(ctx: RunContext, state: State, timed: Slice) -> Verdict:
    """The (1 + epsilon) guarantee on every probe, through the saved
    directory: durable means the reloaded index answers, not the one in RAM."""
    from repro.core.persistence import load_any

    problems: list[str] = []
    within = total = 0
    for n in state.sizes:
        ram = timed.data["indexes"][n].search(state.probes, k=1)
        disk = load_any(state.out_dir / f"n{n}").search(state.probes, k=1)
        if not (
            np.array_equal(ram.ids, disk.ids)
            and np.array_equal(ram.distances, disk.distances)
        ):
            problems.append(f"n={n}: reloaded index answers differently from the built one")
        ids = disk.ids[:, 0]
        if ids.shape != (len(state.probes),) or (ids < 0).any() or (ids >= n).any():
            problems.append(f"n={n}: search returned ids outside 0..n-1")
            total += len(state.probes)
            continue
        own = gen.distances(state.probes, state.points[n][ids])
        worst = float(np.abs(own - disk.distances[:, 0]).max())
        if worst > 1e-9:
            problems.append(
                f"n={n}: a reported distance differs from numpy's by {worst:.3g}"
            )
        ok = own <= (1.0 + EPSILON) * state.true_nn[n] * (1.0 + 1e-12)
        within += int(ok.sum())
        total += len(ok)
    recall = within / total
    if recall != 1.0:
        problems.append(
            f"(1+eps) guarantee broken: only {within}/{total} probes within "
            f"(1+{EPSILON}) of the true nearest neighbour"
        )
    return Verdict(recall=recall, attempted=timed.ops, failed=0, problems=problems)


def index_bytes_per_point(state: State) -> float:
    return sum(state.saved_bytes.values()) / sum(state.sizes)


# -- traced run ----------------------------------------------------------


def install(ctx: RunContext, state: State, tracer: Tracer) -> None:
    import repro.core.builders as builders
    import repro.core.index as core_index
    import repro.graphs.gnet as gnet

    tracer.wrap(core_index, "normalize_min_distance", "metrics.scaling.normalize_min_distance")
    tracer.wrap(builders, "build_gnet", "graphs.gnet.build_gnet")
    tracer.wrap(gnet, "NetHierarchy", "nets.hierarchy.NetHierarchy")
    tracer.wrap(core_index.ProximityGraphIndex, "save", "core.persistence.save")


def layers(ctx: RunContext, plain: Timed, traced: Timed, tracer: Tracer) -> dict[str, float]:
    by_name = tracer.by_name()
    triples = sum(sl.data["triples"] for sl in traced.slices)
    sizes = plain.slices[0].data["sizes"]

    def self_per_triple(name: str) -> float:
        return by_name[name]["self_s"] / triples

    # Least-squares slope of log(quiet-fifth build seconds) against
    # log n, from the untraced halves: the slope is an end-to-end shape,
    # the wrappers should not bend it.
    build_s = {
        n: stats.quiet_mean([b for sl in plain.slices for b in sl.data["build_s"][n]])
        for n in sizes
    }
    slope = np.polyfit([math.log(n) for n in sizes], [math.log(build_s[n]) for n in sizes], 1)[0]
    largest = traced.slices[-1].data["indexes"][sizes[-1]]
    return {
        "metrics.normalize_s": self_per_triple("metrics.scaling.normalize_min_distance"),
        "nets.hierarchy_s": self_per_triple("nets.hierarchy.NetHierarchy"),
        "graphs.gnet.edges_s": self_per_triple("graphs.gnet.build_gnet"),
        "core.persistence.save_s": self_per_triple("core.persistence.save"),
        "graphs.gnet.build_slope": float(slope),
        "graphs.gnet.edges_per_point": float(largest.stats()["edges_per_point"]),
    }
