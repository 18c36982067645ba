"""Command-line interface: build, save, query, validate, and inspect
proximity-graph indexes from the shell.

    python -m repro save-index points.npy index.npz --method vamana
    python -m repro save-index points.npy index_dir --shards 4 --workers 4
    python -m repro save-index points.npy index.npz --storage sq8
    python -m repro save-index points.npy index.v5 --format disk
    python -m repro load-index index.npz --q 0.25 0.75 --start 7
    python -m repro validate index.npz --queries 200
    python -m repro search index.npz --q 0.25 0.75 --k 10 --beam-width 32
    python -m repro search index.npz --q 0.25 0.75 --k 10 --rerank-factor 4
    python -m repro search index_dir --queries-file queries.npy --k 10 --workers 4
    python -m repro index info index.npz
    python -m repro serve  index.npz --port 8080 --max-batch 64
    python -m repro add    index.npz points.npy
    python -m repro delete index.npz --ids 3 17 29 --compact
    python -m repro builders

Points files are ``.npy`` arrays of shape ``(n, d)``.  ``save-index``
builds a full index (graph + points + provenance) and saves it in one
self-contained file; ``--shards K`` builds a sharded index instead
(process-parallel with ``--workers``) and saves it as a manifest
*directory*.  Every index-consuming subcommand (``load-index``/
``search``/``add``/``delete``/``index info``/``serve``) accepts either
kind transparently (``validate`` checks flat indexes), and
``add``/``delete`` write the index back in the layout it was loaded
from.  ``save-index --storage {flat,sq8}`` selects the vector storage
(sq8 indexes traverse compressed codes and exact-rerank; tune with
``search --rerank-factor``); ``index info`` prints the memory
breakdown.
``save-index --format disk`` writes the memory-mappable v5 directory
(``--no-compress`` speeds up the npz path), which every loader attaches
lazily: the index opens in milliseconds and the full-precision vectors
stay on disk until the exact-rerank stage.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from pathlib import Path

import numpy as np

from repro import accel
from repro.core.builders import available_builders
from repro.core.index import ProximityGraphIndex
from repro.core.persistence import _saved_format, load_any
from repro.core.search import SearchParams
from repro.core.sharded import ShardedIndex
from repro.core.stats import storage_breakdown, timed
from repro.storage import STORAGE_KINDS
from repro.workloads.queries import near_data_queries, uniform_queries

__all__ = ["main"]


def _load_points(path: str) -> np.ndarray:
    points = np.load(Path(path))
    if points.ndim != 2:
        raise SystemExit(f"{path}: expected an (n, d) array, got {points.shape}")
    return points.astype(np.float64)


def _cmd_builders(_args: argparse.Namespace) -> int:
    for name in available_builders():
        print(name)
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    """Navigability check of a saved flat index against its own epsilon:
    exit 1 on any query whose greedy answer is not a (1+eps)-ANN."""
    index = load_any(args.index)
    if isinstance(index, ShardedIndex):
        raise SystemExit(
            "validate checks one flat index; a sharded index has no single "
            "graph to route on (run it on a shard, or use index info "
            "--validate for the structural checks)"
        )
    rng = np.random.default_rng(args.seed)
    points = np.asarray(index.dataset.points)
    queries = list(uniform_queries(args.queries // 2, points, rng))
    queries += list(near_data_queries(args.queries - len(queries), points, rng))
    violations = index.validate(queries, stop_at=None)
    stats = index.measure(queries, seed=args.seed)
    print(
        json.dumps(
            {
                "queries": len(queries),
                "epsilon": index.epsilon,
                "violations": len(violations),
                "recall_at_1": stats.recall_at_1,
                "eps_satisfied_fraction": stats.epsilon_satisfied_fraction,
                "mean_distance_evals": round(stats.mean_distance_evals, 1),
            },
            indent=2,
        )
    )
    return 0 if not violations else 1


def _cmd_save_index(args: argparse.Namespace) -> int:
    """Build a full index over a points file and persist it — one .npz
    for the flat index, a manifest directory when ``--shards > 1``."""
    points = _load_points(args.points)
    # Only wave builders take batch_size; the others reject the keyword.
    batch = {} if args.batch_size is None else {"batch_size": args.batch_size}
    if args.shards > 1:
        index, seconds = timed(
            lambda: ShardedIndex.build(
                points,
                epsilon=args.epsilon,
                method=args.method,
                seed=args.seed,
                shards=args.shards,
                workers=args.workers,
                assignment=args.assignment,
                storage=args.storage,
                **batch,
            )
        )
    else:
        index, seconds = timed(
            lambda: ProximityGraphIndex.build(
                points,
                epsilon=args.epsilon,
                method=args.method,
                seed=args.seed,
                storage=args.storage,
                **batch,
            )
        )
    written, save_seconds = timed(
        lambda: index.save(
            args.index, format=args.format, compress=not args.no_compress
        )
    )
    out = dict(index.stats())
    out["build_seconds"] = round(seconds, 3)
    out["save_seconds"] = round(save_seconds, 3)
    out["format"] = args.format
    out["index_file"] = str(written)
    if args.batch_size is not None:
        out["batch_size"] = args.batch_size
    print(json.dumps(out, indent=2))
    return 0


def _cmd_load_index(args: argparse.Namespace) -> int:
    """Load a saved index (either kind); print its stats, optionally
    answer a query through the unified front door."""
    index = load_any(args.index)
    out = dict(index.stats())
    if args.q is not None:
        q = np.array(args.q, dtype=np.float64)
        params = SearchParams(
            starts=[args.start] if args.start is not None else None
        )
        result = index.search(q, k=args.k, params=params)
        out["query"] = [
            {"point_id": pid, "distance": dist} for pid, dist in result.pairs(0)
        ]
        out["evals"] = int(result.evals[0])
        out["hops"] = None if result.hops is None else int(result.hops[0])
    print(json.dumps(out, indent=2))
    return 0


def _cmd_search(args: argparse.Namespace) -> int:
    """The unified front door from the shell: one query or a batch."""
    index = load_any(args.index)
    if args.workers is not None:
        if isinstance(index, ShardedIndex):
            index.workers = args.workers
        elif args.workers > 1:
            raise SystemExit("--workers applies to sharded indexes only")
    if (args.q is None) == (args.queries_file is None):
        raise SystemExit("pass exactly one of --q or --queries-file")
    if args.q is not None:
        queries = np.array(args.q, dtype=np.float64)
    else:
        queries = _load_points(args.queries_file)
    params = SearchParams(
        mode=args.mode,
        beam_width=args.beam_width,
        budget=args.budget,
        seed=args.seed,
        allowed_ids=args.allowed if args.allowed else None,
        rerank_factor=args.rerank_factor,
        backend=args.backend,
    )
    result, seconds = timed(lambda: index.search(queries, k=args.k, params=params))
    out = {
        "queries": result.m,
        "k": result.k,
        "mode": args.mode,
        "backend": args.backend,
        "seconds": round(seconds, 4),
        "mean_distance_evals": round(float(result.evals.mean()), 1)
        if result.m
        else 0.0,
        "results": [
            [{"id": int(v), "distance": float(d)} for v, d in result.pairs(i)]
            for i in range(result.m)
        ],
    }
    print(json.dumps(out, indent=2))
    return 0


def _cmd_add(args: argparse.Namespace) -> int:
    """Insert new points into a saved index and write it back."""
    index = load_any(args.index)
    points = _load_points(args.points)
    new_ids, seconds = timed(
        lambda: index.add(
            points,
            ids=args.ids,
            mode=args.mode,
            batch_size=args.batch_size,
        )
    )
    written = index.save(
        args.out or args.index, format=_saved_format(args.index)
    )
    out = dict(index.stats())
    out["added"] = len(new_ids)
    out["new_ids"] = [int(i) for i in new_ids[:20]]
    out["add_seconds"] = round(seconds, 3)
    out["index_file"] = str(written)
    print(json.dumps(out, indent=2))
    return 0


def _cmd_delete(args: argparse.Namespace) -> int:
    """Tombstone (and optionally compact away) points of a saved index."""
    index = load_any(args.index)
    try:
        removed = index.delete(args.ids)
    except KeyError as exc:
        raise SystemExit(str(exc))
    if args.compact:
        index.compact()
    written = index.save(
        args.out or args.index, format=_saved_format(args.index)
    )
    out = dict(index.stats())
    out["deleted"] = removed
    out["compacted"] = bool(args.compact)
    out["index_file"] = str(written)
    print(json.dumps(out, indent=2))
    return 0


def _cmd_index_info(args: argparse.Namespace) -> int:
    """Kind, counts (``unreachable``: live points no edge leads to, which
    a search returns only from a start there), storage mode, and the
    memory breakdown of a saved index (either kind); ``--validate`` adds
    the structural integrity checks (CSR shape, id-map/tombstone
    consistency, manifest shard agreement) and exits nonzero on any
    violated invariant."""
    try:
        index = load_any(args.index)
    except ValueError as exc:
        if not args.validate:
            raise
        # The loaders refuse a torn or mislabeled layout through the
        # same invariant-named checks --validate reports, one per line.
        for violation in str(exc).splitlines():
            print(f"INTEGRITY VIOLATION: {violation}", file=sys.stderr)
        return 1
    out = {
        "kind": "sharded" if isinstance(index, ShardedIndex) else "flat",
        "n": int(index.n),
        "active": int(index.active_count),
        "tombstones": int(index.tombstone_count),
        "unreachable": int(index.unreachable_count),
        "epsilon": float(index.epsilon),
        "storage": storage_breakdown(index),
        "accel": accel.backend_status(),
    }
    if isinstance(index, ShardedIndex):
        out["shards"] = index.n_shards
        out["builder"] = index.shards[0].built.name
    else:
        out["builder"] = index.built.name
    if args.validate:
        from repro.core.integrity import integrity_report

        report = integrity_report(index, path=args.index)
        out["integrity"] = report
        print(json.dumps(out, indent=2))
        if not report["ok"]:
            for violation in report["violations"]:
                print(f"INTEGRITY VIOLATION: {violation}", file=sys.stderr)
            return 1
        return 0
    print(json.dumps(out, indent=2))
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    """Run the project-contract linter; nonzero on any unsuppressed
    finding.  See ``repro.analysis.lint`` for the rules."""
    from repro.analysis.lint import (
        ALL_RULES,
        LintConfig,
        LintError,
        format_findings,
        lint_paths,
    )

    if args.list_rules:
        for cls in ALL_RULES:
            print(f"{cls.id}: {' '.join(cls.rationale.split())}")
        return 0
    if not args.paths:
        print("error: no paths to lint (try: repro lint src/repro)",
              file=sys.stderr)
        return 2
    config = LintConfig(
        select=frozenset(args.select or ()),
        ignore=frozenset(args.ignore or ()),
    )
    try:
        report = lint_paths(args.paths, config=config)
    except LintError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(
        format_findings(
            report, fmt=args.format, show_suppressed=args.show_suppressed
        )
    )
    return report.exit_code


def _cmd_serve(args: argparse.Namespace) -> int:
    """Serve a saved index over HTTP, one search batch in flight."""
    import asyncio

    from repro.serve import IndexHolder, SearchServer

    logging.basicConfig(
        level=logging.INFO, format="%(asctime)s %(name)s %(levelname)s %(message)s"
    )
    log = logging.getLogger("repro.serve")
    # Warm once before binding, so "auto" (the default of /search and of
    # the snapshot writer) means the compiled backend from the first
    # request on, not "numpy until some client names a backend".
    try:
        warmed = accel.warm()
    except accel.AccelError as exc:
        log.warning("no compiled accel backend (%s); serving on numpy", exc)
    else:
        log.info(
            "accel backend %s (warmed in %.3f s)",
            warmed["backend"], warmed["compile_seconds"],
        )
    index = load_any(args.index)
    if args.workers is not None and isinstance(index, ShardedIndex):
        index.workers = args.workers
    server = SearchServer(
        IndexHolder(index), max_batch=args.max_batch, cache_size=args.cache_size
    )
    try:
        asyncio.run(server.serve_forever(args.host, args.port))
    except KeyboardInterrupt:
        pass
    return 0


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Proximity graphs for similarity search (Lu & Tao, PODS 2025)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("builders", help="list registered graph builders")
    p.set_defaults(fn=_cmd_builders)

    p = sub.add_parser(
        "save-index",
        help="build a full index (graph + points + provenance) into one .npz",
    )
    p.add_argument("points")
    p.add_argument("index", help="output index .npz path")
    p.add_argument("--method", default="gnet", choices=available_builders())
    p.add_argument("--epsilon", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--batch-size", type=int, default=None)
    p.add_argument("--shards", type=int, default=1,
                   help="partition into this many shards (> 1 builds a "
                   "ShardedIndex, saved as a manifest directory)")
    p.add_argument("--workers", type=int, default=1,
                   help="process-pool size for the sharded build")
    p.add_argument("--assignment", default="random",
                   choices=["random", "kmeans"],
                   help="shard assignment policy")
    p.add_argument("--storage", default="flat", choices=list(STORAGE_KINDS),
                   help="vector storage: flat (exact) or sq8 (8-bit scalar "
                   "quantization)")
    p.add_argument("--format", default="npz", choices=["npz", "disk"],
                   help="persistence format: npz (single compressed file, "
                   "v4) or disk (v5 directory of raw array files that "
                   "every loader attaches lazily)")
    p.add_argument("--no-compress", action="store_true",
                   help="npz format only: write np.savez instead of "
                   "savez_compressed (bigger file, much faster save)")
    p.set_defaults(fn=_cmd_save_index)

    p = sub.add_parser(
        "load-index",
        help="load a saved index; print stats and optionally answer a query",
    )
    p.add_argument("index")
    p.add_argument("--q", type=float, nargs="+", default=None)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--start", type=int, default=None,
                   help="pin the search's start vertex")
    p.set_defaults(fn=_cmd_load_index)

    p = sub.add_parser(
        "validate",
        help="navigability check of a saved flat index against its own "
        "epsilon (exit 1 on violations)",
    )
    p.add_argument("index")
    p.add_argument("--queries", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_validate)

    p = sub.add_parser(
        "search",
        help="unified search over a saved index (single query or batch)",
    )
    p.add_argument("index")
    p.add_argument("--q", type=float, nargs="+", default=None,
                   help="one query point, inline")
    p.add_argument("--queries-file", default=None,
                   help="an (m, d) .npy batch of query points")
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--mode", default="auto", choices=["auto", "greedy", "beam"])
    p.add_argument("--beam-width", type=int, default=None)
    p.add_argument("--budget", type=int, default=None,
                   help="distance-evaluation cap per query")
    p.add_argument("--seed", type=int, default=None,
                   help="seed for default start vertices")
    p.add_argument("--allowed", type=int, nargs="+", default=None,
                   help="restrict results to these external ids")
    p.add_argument("--workers", type=int, default=None,
                   help="fan a sharded index's search out over this "
                   "many worker processes (sharded indexes only)")
    p.add_argument("--rerank-factor", type=int, default=None,
                   help="over-fetch multiplier of the compressed-traversal "
                   "+ exact-rerank pipeline (quantized indexes; default: "
                   "the storage's own, 2 for sq8)")
    p.add_argument("--backend", default="auto",
                   choices=accel.BACKEND_CHOICES,
                   help="traversal backend: 'auto' uses the compiled cffi "
                   "kernels once warmed (numpy until repro.accel.warm() ran), "
                   "'numpy' pins the pure-numpy engines, 'cffi' forces the "
                   "compiled kernels (warming on demand; error if "
                   "unavailable)")
    p.set_defaults(fn=_cmd_search)

    p = sub.add_parser("index", help="saved-index utilities")
    isub = p.add_subparsers(dest="index_command", required=True)
    pi = isub.add_parser(
        "info",
        help="kind, point counts, storage mode, and memory breakdown",
    )
    pi.add_argument("index")
    pi.add_argument(
        "--validate", action="store_true",
        help="run structural integrity checks (CSR offsets/targets, "
             "tombstone/id-map consistency, manifest shard agreement); "
             "exits 1 naming every violated invariant",
    )
    pi.set_defaults(fn=_cmd_index_info)

    p = sub.add_parser(
        "lint",
        help="project-contract linter (determinism, async/spawn safety, "
             "arena hygiene, typing); nonzero on findings",
    )
    p.add_argument(
        "paths", nargs="*", help="files or directories to lint"
    )
    p.add_argument(
        "--select", nargs="*", metavar="RULE",
        help="run only these rule ids (default: all)",
    )
    p.add_argument(
        "--ignore", nargs="*", metavar="RULE", help="skip these rule ids"
    )
    p.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="output format (default: text)",
    )
    p.add_argument(
        "--show-suppressed", action="store_true",
        help="also print findings silenced by # repro: ignore[...]",
    )
    p.add_argument(
        "--list-rules", action="store_true",
        help="print every rule id with its rationale and exit",
    )
    p.set_defaults(fn=_cmd_lint)

    p = sub.add_parser(
        "add", help="insert an (n, d) .npy of new points into a saved index"
    )
    p.add_argument("index")
    p.add_argument("points")
    p.add_argument("--ids", type=int, nargs="+", default=None,
                   help="external ids for the new points (default: fresh)")
    p.add_argument("--mode", default="auto",
                   choices=["auto", "repair", "dynamic"])
    p.add_argument("--batch-size", type=int, default=64)
    p.add_argument("--out", default=None,
                   help="write here instead of overwriting the index")
    p.set_defaults(fn=_cmd_add)

    p = sub.add_parser(
        "delete", help="tombstone points of a saved index by external id"
    )
    p.add_argument("index")
    p.add_argument("--ids", type=int, nargs="+", required=True)
    p.add_argument("--compact", action="store_true",
                   help="rebuild over the survivors instead of tombstoning")
    p.add_argument("--out", default=None,
                   help="write here instead of overwriting the index")
    p.set_defaults(fn=_cmd_delete)

    p = sub.add_parser(
        "serve",
        help="serve a saved index over HTTP (requests that arrive while a "
        "search runs go out as the next batch; POST /search /add /delete, "
        "GET /healthz /stats)",
    )
    p.add_argument("index", help="saved index (.npz file, manifest dir, "
                   "or v5 disk dir)")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8080)
    p.add_argument("--max-batch", type=int, default=64,
                   help="most requests one search batch takes")
    p.add_argument("--cache-size", type=int, default=1024,
                   help="LRU query-cache entries (0 disables)")
    p.add_argument("--workers", type=int, default=None,
                   help="fan-out worker processes (sharded indexes only)")
    p.set_defaults(fn=_cmd_serve)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
