"""Registry of graph builders behind a single uniform signature.

Every construction in the library — the paper's three (G_net, theta,
merged) and the baselines — is reachable as

    ``build(name, dataset, epsilon, rng, **options) -> BuiltGraph``

which is what the :class:`~repro.core.index.ProximityGraphIndex` facade
and all benches use.  ``BuiltGraph.meta`` carries builder-specific
artifacts (parameters, net hierarchy, jackpot mask, ...).
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable

import numpy as np

from repro.baselines.diskann import build_diskann_slow
from repro.baselines.hnsw import HNSWIndex
from repro.baselines.nsw import NSWIndex
from repro.baselines.trivial import build_complete_graph, build_knn_digraph
from repro.baselines.vamana import VamanaIndex
from repro.graphs.base import ProximityGraph
from repro.graphs.gnet import build_gnet
from repro.graphs.merged import build_merged_graph
from repro.graphs.theta import build_theta_graph, theta_for_epsilon
from repro.metrics.base import Dataset

__all__ = [
    "BuiltGraph",
    "BUILDERS",
    "BUILDER_OPTIONS",
    "build",
    "available_builders",
    "builder_options",
    "register_builder",
    "validate_builder_options",
]


@dataclass
class BuiltGraph:
    """A constructed graph plus its provenance."""

    name: str
    graph: ProximityGraph
    epsilon: float
    guaranteed: bool  # does this construction carry a (1+eps)-PG proof?
    meta: dict[str, Any] = field(default_factory=dict)
    # The exact keyword options the builder ran with — recorded by
    # build() so a mutable index can replay the construction (compact()
    # rebuilds over the surviving points with the same knobs).
    options: dict[str, Any] = field(default_factory=dict)


BuilderFn = Callable[..., BuiltGraph]
BUILDERS: dict[str, BuilderFn] = {}

# Per-builder allow-list of ``**options`` keyword names, or ``None`` for
# builders registered without a declaration (no validation — an escape
# hatch for external registrations).  Populated by ``register_builder``
# from the *delegate* signatures (``build_gnet``, ``VamanaIndex``, ...),
# so the front-door check can never drift from what the builder accepts.
BUILDER_OPTIONS: dict[str, frozenset[str] | None] = {}

# Parameters every builder receives positionally from build(); they are
# never valid **options keywords.
_RESERVED_PARAMS = frozenset({"self", "dataset", "epsilon", "rng"})


def register_builder(
    name: str,
    *,
    options_from: Iterable[Callable] | None = None,
    extra_options: Iterable[str] = (),
) -> Callable[[BuilderFn], BuilderFn]:
    """Register a builder, declaring which ``**options`` it accepts.

    ``options_from`` lists the callables the builder forwards its
    options to (their keyword parameters, minus the reserved
    dataset/epsilon/rng slots, become the allow-list); ``extra_options``
    adds names the wrapper itself pops.  Leaving both unset registers
    the builder *unvalidated* — any option passes through, and a typo
    surfaces as the delegate's own ``TypeError``.
    """

    def decorate(fn: BuilderFn) -> BuilderFn:
        if name in BUILDERS:
            raise ValueError(f"builder {name!r} already registered")
        BUILDERS[name] = fn
        if options_from is None and not extra_options:
            BUILDER_OPTIONS[name] = None
            return fn
        allowed = set(extra_options)
        for target in options_from or ():
            for pname, p in inspect.signature(target).parameters.items():
                if pname in _RESERVED_PARAMS or p.kind in (
                    inspect.Parameter.VAR_POSITIONAL,
                    inspect.Parameter.VAR_KEYWORD,
                ):
                    continue
                allowed.add(pname)
        BUILDER_OPTIONS[name] = frozenset(allowed)
        return fn

    return decorate


def available_builders() -> list[str]:
    return sorted(BUILDERS)


def builder_options(name: str) -> list[str] | None:
    """The valid ``**options`` names of builder ``name`` (sorted), or
    ``None`` when the builder was registered without a declaration."""
    if name not in BUILDERS:
        raise ValueError(f"unknown builder {name!r}; have {available_builders()}")
    allowed = BUILDER_OPTIONS.get(name)
    return sorted(allowed) if allowed is not None else None


def validate_builder_options(name: str, options: dict[str, Any]) -> None:
    """Front-door validation of a prospective ``build(name, **options)``.

    Raises a ``ValueError`` naming the offending keyword(s), the
    builder's valid options, and the registered builder names — instead
    of the confusing deep ``TypeError`` (``build_gnet() got an
    unexpected keyword argument ...``) a typo used to surface as, often
    only *after* an expensive normalization pass.  Cheap and data-free,
    so callers run it before any heavy work.
    """
    allowed = builder_options(name)
    if allowed is None:
        return
    for knob, lacking in (
        ("batch_size", "does not support batched construction"),
        ("backend", "has no accelerated construction path"),
    ):
        if knob in options and knob not in allowed:
            takers = [b for b in available_builders() if knob in (builder_options(b) or ())]
            raise ValueError(f"builder {name!r} {lacking}; {knob} applies to {takers}")
    unknown = sorted(set(options) - set(allowed))
    if unknown:
        accepts = (
            f"valid options for {name!r}: {sorted(allowed)}"
            if allowed
            else f"builder {name!r} takes no options"
        )
        raise ValueError(
            f"unknown build option(s) {unknown} for builder {name!r}; "
            f"{accepts}.  Select the construction itself with "
            f"method=<one of {available_builders()}>"
        )


def build(
    name: str,
    dataset: Dataset,
    epsilon: float,
    rng: np.random.Generator | None = None,
    batch_size: int | None = None,
    backend: str | None = None,
    **options: Any,
) -> BuiltGraph:
    """Build graph ``name`` over ``dataset``; returns it with provenance.

    ``batch_size`` selects the batched construction engine for the
    insertion-based builders (``hnsw``, ``nsw``, ``vamana``,
    ``diskann``): points are inserted in waves of ``batch_size``, each
    wave's candidates located with one lockstep beam search against the
    frozen prefix graph and its distance work vectorized across the
    wave.  ``batch_size=1`` reproduces the sequential build edge-for-edge;
    larger waves build several times faster but locate candidates
    against a prefix that is up to one wave stale, which can shave a
    hair off recall — empirically < 0.01 recall@10 at ``batch_size <=
    n/10`` (``tests/test_recall_regression.py`` holds wave builds to the
    sequential builds' floors).  Passing ``batch_size`` to any other builder
    raises ``ValueError``: the paper's constructions (gnet/theta/merged)
    are not insertion-ordered, so the knob has no meaning there.

    ``backend`` selects the accel backend for the construction inner
    loops (candidate location + RobustPrune) of ``hnsw``, ``nsw`` and
    ``vamana``: ``None``/``"numpy"`` run the pinned numpy engines,
    ``"auto"`` the best warmed compiled backend (falling back silently),
    and ``"cffi"`` the compiled kernels, warmed on demand, raising when
    unavailable.  Like ``batch_size`` it is rejected, by name, for every
    builder whose signature does not take it (``diskann``'s quadratic
    scan has no inner loop for the kernels to replace).  It is an
    execution choice, not provenance — every backend builds the same
    graph — so unlike ``batch_size`` it is not recorded in
    ``built.options``: where an index was built must not decide where
    it can be compacted.
    """
    if name not in BUILDERS:
        raise ValueError(f"unknown builder {name!r}; have {available_builders()}")
    if batch_size is not None:
        options["batch_size"] = batch_size
    if backend is not None:
        options["backend"] = backend
    validate_builder_options(name, options)
    built = BUILDERS[name](
        dataset=dataset,
        epsilon=epsilon,
        rng=rng or np.random.default_rng(0),
        **options,
    )
    built.options = {k: v for k, v in options.items() if k != "backend"}
    return built


# ----------------------------------------------------------------------
# The paper's constructions
# ----------------------------------------------------------------------


@register_builder("gnet", options_from=(build_gnet,))
def _build_gnet(
    dataset: Dataset, epsilon: float, rng: np.random.Generator, **options: Any
) -> BuiltGraph:
    """Theorem 1.1: the net-hierarchy graph (any doubling metric)."""
    result = build_gnet(dataset, epsilon, **options)
    return BuiltGraph(
        name="gnet",
        graph=result.graph,
        epsilon=epsilon,
        guaranteed=True,
        meta={
            "params": result.params,
            "hierarchy": result.hierarchy,
            "level_sizes": result.level_sizes,
            "level_edge_counts": result.level_edge_counts,
        },
    )


@register_builder("theta", options_from=(build_theta_graph,))
def _build_theta(
    dataset: Dataset, epsilon: float, rng: np.random.Generator, **options: Any
) -> BuiltGraph:
    """Lemma 5.1: the (eps/32)-graph (Euclidean; small but maybe slow)."""
    theta = options.pop("theta", theta_for_epsilon(epsilon))
    result = build_theta_graph(dataset, theta, **options)
    guaranteed = theta <= theta_for_epsilon(epsilon) + 1e-15
    return BuiltGraph(
        name="theta",
        graph=result.graph,
        epsilon=epsilon,
        guaranteed=guaranteed,
        meta={"theta": result.theta, "cones": result.cones},
    )


@register_builder("merged", options_from=(build_merged_graph,))
def _build_merged(
    dataset: Dataset, epsilon: float, rng: np.random.Generator, **options: Any
) -> BuiltGraph:
    """Theorem 1.3: jackpot-sampled G_net merged with the theta-graph."""
    result = build_merged_graph(dataset, epsilon, rng, **options)
    return BuiltGraph(
        name="merged",
        graph=result.graph,
        epsilon=epsilon,
        guaranteed=True,
        meta={
            "tau": result.tau,
            "jackpot": result.jackpot,
            "params": result.params,
            "runs_edge_counts": result.runs_edge_counts,
            "gnet_edges": result.gnet.graph.num_edges,
            "theta_edges": result.geo.graph.num_edges,
        },
    )


# ----------------------------------------------------------------------
# Baselines
# ----------------------------------------------------------------------


@register_builder("diskann", options_from=(build_diskann_slow,))
def _build_diskann(
    dataset: Dataset, epsilon: float, rng: np.random.Generator, **options: Any
) -> BuiltGraph:
    """Indyk-Xu slow-preprocessing DiskANN (guaranteed, Omega(n^2) build)."""
    result = build_diskann_slow(dataset, epsilon=epsilon, **options)
    guaranteed = options.get("max_degree") is None
    return BuiltGraph(
        name="diskann",
        graph=result.graph,
        epsilon=epsilon,
        guaranteed=guaranteed,
        meta={"alpha": result.alpha, "guarantee": result.guarantee},
    )


@register_builder("hnsw", options_from=(HNSWIndex,))
def _build_hnsw(
    dataset: Dataset, epsilon: float, rng: np.random.Generator, **options: Any
) -> BuiltGraph:
    """HNSW (no guarantee; the empirical champion)."""
    index = HNSWIndex(dataset, rng, **options)
    return BuiltGraph(
        name="hnsw",
        graph=index.base_layer_graph(),
        epsilon=epsilon,
        guaranteed=False,
        meta={"m": index.m, "max_level": index.max_level},
    )


@register_builder("nsw", options_from=(NSWIndex,))
def _build_nsw(
    dataset: Dataset, epsilon: float, rng: np.random.Generator, **options: Any
) -> BuiltGraph:
    """Flat NSW (no guarantee)."""
    index = NSWIndex(dataset, rng, **options)
    return BuiltGraph(
        name="nsw",
        graph=index.graph(),
        epsilon=epsilon,
        guaranteed=False,
        meta={"m": index.m},
    )


@register_builder("vamana", options_from=(VamanaIndex,))
def _build_vamana(
    dataset: Dataset, epsilon: float, rng: np.random.Generator, **options: Any
) -> BuiltGraph:
    """Practical DiskANN (Vamana [19]): fast build, degree-capped, no
    worst-case guarantee — the regime Theorem 1.1 renders unnecessary."""
    index = VamanaIndex(dataset, rng, **options)
    return BuiltGraph(
        name="vamana",
        graph=index.graph(),
        epsilon=epsilon,
        guaranteed=False,
        meta={"max_degree": index.max_degree, "alpha": index.alpha},
    )


@register_builder("knn", options_from=(), extra_options=("k",))
def _build_knn(
    dataset: Dataset, epsilon: float, rng: np.random.Generator, **options: Any
) -> BuiltGraph:
    """k-NN digraph (negative control: not navigable in general)."""
    k = options.pop("k", 8)
    return BuiltGraph(
        name="knn",
        graph=build_knn_digraph(dataset, k=k),
        epsilon=epsilon,
        guaranteed=False,
        meta={"k": k},
    )


@register_builder("complete", options_from=())
def _build_complete(
    dataset: Dataset, epsilon: float, rng: np.random.Generator, **options: Any
) -> BuiltGraph:
    """Complete digraph (a PG for every eps; Theta(n^2) edges)."""
    return BuiltGraph(
        name="complete",
        graph=build_complete_graph(dataset),
        epsilon=epsilon,
        guaranteed=True,
        meta={},
    )
