"""Index persistence — one ``.npz`` per index, JSON header inside.

A saved :class:`~repro.core.index.ProximityGraphIndex` is a single
compressed ``.npz`` holding the graph's CSR arrays verbatim
(``offsets``/``targets``), the normalized point coordinates, and a JSON
header (builder name, epsilon, guarantee flag, normalization scale,
metric spec, rng seed, and the JSON-safe slice of the builder's
provenance ``meta``).  Loading reconstructs the metric from its spec,
adopts the CSR arrays without per-row copies, and returns an index whose
``search`` answers are *identical* — same ids, same distances — to the
index that was saved.

Format v2 additionally persists the *mutable-collection* state: the
external id map (``external_ids``), the tombstone mask
(``tombstones``), and the recorded builder options (so ``compact()``
can replay the construction after a reload).  v1 files — written before
the index was mutable — still load: they get the identity id map, an
empty tombstone mask, and default builder options.

Format v3 is the **sharded directory** layout of a
:class:`~repro.core.sharded.ShardedIndex`: a ``manifest.json`` naming
the shard files plus routing state (assignment policy, seed, worker
count, next fresh external id), next to one flat per-shard file each —
so the shard format and the flat format share one code path, and older
flat files keep loading through the same :func:`load_index`.  Use
:func:`load_any` when the on-disk kind is not known in advance; it
dispatches on the manifest and returns whichever index type was saved.

Format v4 adds the **vector store**: the storage spec (kind, quantizer
options, training stats including the drift counter) joins the JSON
header, and the store's arrays — SQ8 codes, offsets and scales — are
written as ``store_*`` members.  Flat-storage indexes carry only the
spec (no extra arrays).  v1–v3 files still load (as flat storage);
sharded directories keep the v3 manifest and simply hold v4 shard files
inside.

Format v5 (this build) is the **disk directory** layout behind
beyond-RAM indexes: ``save_index(index, path, format="disk")`` writes a
directory of raw, page-aligned binary files —

    header.json          JSON header + per-array manifest (file, dtype, shape)
    csr_offsets.bin      (n+1,) int64   graph row pointers      | hot tier
    csr_targets.bin      (e,)   int64   flat neighbor ids       | hot tier
    codes.bin            (n, m) uint8   quantized codes         | hot tier
    vectors.bin          (n, d) float64 full-precision rows     | COLD tier
    external_ids.bin     (n,)   int64   stable external ids
    tombstones.bin       (n,)   uint8   deletion mask
    store_*.bin          quantizer training state (SQ8 offsets, scales)

— each array in its own file at offset 0, so ``load(path, mmap=True)``
attaches every large array with a read-only ``np.memmap`` in
milliseconds and the full-precision ``vectors.bin`` is only ever paged
in by the exact-rerank stage (see
:class:`~repro.storage.disk.DiskTierStore`).  ``mmap=False`` reads the
same files eagerly into RAM.  Content is identical to what v4 would
have written, so search answers are bit-identical across formats.

Only **coordinate metrics** (Euclidean, Chebyshev, Minkowski, optionally
wrapped in the normalization :class:`~repro.metrics.base.ScaledMetric`)
have an on-disk form: their state is a handful of floats and the points
array round-trips losslessly through ``.npz``.  Abstract metrics —
:class:`~repro.metrics.counting.CountingMetric` (mutable counter),
:class:`~repro.metrics.tree_metric.TreeMetric` and explicit-matrix
spaces (id-based points) — raise :class:`NotImplementedError` from
``save()`` rather than silently pickling objects whose identity cannot
be restored faithfully.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
from pathlib import Path
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.core.builders import BuiltGraph
from repro.graphs.base import ProximityGraph
from repro.graphs.gnet import GNetParameters
from repro.metrics.base import Dataset
from repro.metrics.specs import metric_from_spec, metric_to_spec

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.index import ProximityGraphIndex
    from repro.core.sharded import ShardedIndex

__all__ = [
    "FORMAT_VERSION",
    "SHARDED_FORMAT_VERSION",
    "DISK_FORMAT_VERSION",
    "SUPPORTED_VERSIONS",
    "MANIFEST_NAME",
    "DISK_HEADER_NAME",
    "metric_to_spec",
    "metric_from_spec",
    "save_index",
    "load_index",
    "save_sharded_index",
    "load_sharded_index",
    "load_any",
]

FORMAT_VERSION = 4
SHARDED_FORMAT_VERSION = 3
DISK_FORMAT_VERSION = 5
# Versions the single-file .npz reader accepts.  3 is the sharded
# manifest *directory* and 5 the disk *directory* — both get precise
# errors from load_index naming the right loader, never the generic
# unsupported-version branch.
SUPPORTED_VERSIONS = (1, 2, 4)
MANIFEST_NAME = "manifest.json"
DISK_HEADER_NAME = "header.json"

# Tag for GNetParameters entries in the serialized meta (the one
# provenance object stats() needs back as a real object).
_GNET_PARAMS_TAG = "__gnet_parameters__"


# metric_to_spec / metric_from_spec live in repro.metrics.specs (the
# sharded build/search workers need them without this module); they are
# re-exported here because the saved-header format is their other home.


def _sanitize_meta(meta: dict[str, Any]) -> tuple[dict[str, Any], list[str]]:
    """Split builder provenance into (JSON-safe subset, dropped keys).

    :class:`GNetParameters` is serialized through a tagged dict (it is a
    frozen dataclass of numbers and the one meta object ``stats()``
    consumes); plain JSON values pass through; everything else — net
    hierarchies, cone families, numpy arrays — is dropped by key, with
    the keys recorded so a loaded index can report what it lost.
    """
    kept: dict[str, Any] = {}
    dropped: list[str] = []
    for key, value in meta.items():
        if isinstance(value, GNetParameters):
            kept[key] = {_GNET_PARAMS_TAG: dataclasses.asdict(value)}
            continue
        if isinstance(value, (np.integer, np.floating, np.bool_)):
            value = value.item()
        try:
            json.dumps(value)
        except (TypeError, ValueError):
            dropped.append(key)
        else:
            kept[key] = value
    return kept, dropped


def _rehydrate_meta(kept: dict[str, Any]) -> dict[str, Any]:
    out: dict[str, Any] = {}
    for key, value in kept.items():
        if isinstance(value, dict) and _GNET_PARAMS_TAG in value:
            out[key] = GNetParameters(**value[_GNET_PARAMS_TAG])
        else:
            out[key] = value
    return out


def _stored_options(header: dict[str, Any]) -> dict[str, Any]:
    """The builder options ``compact()`` replays.  Headers written
    before the accel backend stopped being recorded may name one — an
    execution choice of the box that built the index, which this box
    may not have (or know): dropped."""
    options = dict(header.get("options") or {})
    options.pop("backend", None)
    return options


def _flat_header(index: "ProximityGraphIndex") -> dict[str, Any]:
    """The JSON header both flat writers (v4 .npz, v5 disk dir) share."""
    spec = metric_to_spec(index.dataset.metric)
    meta_kept, meta_dropped = _sanitize_meta(index.built.meta)
    options_kept, _options_dropped = _sanitize_meta(index.built.options)
    return {
        "n": int(index.dataset.n),
        "builder": index.built.name,
        "epsilon": float(index.built.epsilon),
        "guaranteed": bool(index.built.guaranteed),
        "scale": float(index.scale),
        "seed": int(getattr(index, "seed", 0)),
        "metric": spec,
        "meta": meta_kept,
        "meta_dropped": meta_dropped,
        "options": options_kept,
        "storage": index.store.spec(),
    }


def _coordinate_points(index: "ProximityGraphIndex") -> np.ndarray:
    points = np.asarray(index.dataset.points)
    if points.dtype == object or not np.issubdtype(points.dtype, np.number):
        raise NotImplementedError(
            "cannot save an index whose points are not a numeric coordinate "
            f"array (got dtype {points.dtype})"
        )
    return points


def save_index(
    index: "ProximityGraphIndex",
    path: str | Path,
    format: str = "npz",
    compress: bool = True,
) -> Path:
    """Write ``index`` to ``path``.

    ``format="npz"`` (default) writes a single ``.npz`` file — format
    v4 — compressed unless ``compress=False`` (uncompressed saves are
    several times faster on large indexes; the file is bigger but loads
    the same).  ``format="disk"`` writes the v5 directory of raw binary
    files that ``load_index(path, mmap=True)`` attaches lazily; raw
    files are inherently uncompressed, so ``compress`` is ignored
    there.  Raises :class:`NotImplementedError` for indexes over
    non-coordinate metrics (see the module docstring).  Returns the
    path written (numpy appends ``.npz`` when missing).
    """
    if format == "disk":
        return _save_disk_index(index, path)
    if format != "npz":
        raise ValueError(f"unknown save format {format!r}; use 'npz' or 'disk'")
    points = _coordinate_points(index)
    offsets, targets = index.graph.csr()
    header = {"format_version": FORMAT_VERSION, **_flat_header(index)}
    store_arrays = {
        f"store_{name}": arr for name, arr in index.store.arrays().items()
    }
    path = Path(path)
    writer = np.savez_compressed if compress else np.savez
    writer(
        path,
        offsets=offsets.astype(np.int64, copy=False),
        targets=targets.astype(np.int64, copy=False),
        points=points,
        external_ids=index.id_map.externals.astype(np.int64, copy=False),
        tombstones=index._tombstones.astype(np.uint8, copy=False),
        header=np.frombuffer(
            json.dumps(header).encode("utf-8"), dtype=np.uint8
        ),
        **store_arrays,
    )
    return path if path.suffix == ".npz" else path.with_suffix(path.suffix + ".npz")


# ----------------------------------------------------------------------
# Format v5: the disk directory (one raw binary file per array)
# ----------------------------------------------------------------------


def _disk_array_files(
    index: "ProximityGraphIndex",
) -> dict[str, np.ndarray]:
    """File stem -> array, for every array a v5 directory holds.

    CSR indices are widened to int64 on the way out so the loader (and
    the accel planner's ``ascontiguousarray``) can adopt the mappings
    without a converting copy; codes get their own ``codes.bin`` (the
    hot tier), quantizer training state lands in ``store_*.bin``.
    """
    offsets, targets = index.graph.csr()
    files = {
        "csr_offsets": offsets.astype(np.int64, copy=False),
        "csr_targets": targets.astype(np.int64, copy=False),
        "vectors": _coordinate_points(index),
        "external_ids": index.id_map.externals.astype(np.int64, copy=False),
        "tombstones": index._tombstones.astype(np.uint8, copy=False),
    }
    for name, arr in index.store.arrays().items():
        files["codes" if name == "codes" else f"store_{name}"] = arr
    return files


def _save_disk_index(index: "ProximityGraphIndex", path: str | Path) -> Path:
    """Write the v5 directory: raw array files + ``header.json`` last.

    The header doubles as the commit marker — an interrupted save
    leaves a directory without ``header.json``, which the loader
    rejects by name instead of attaching torn arrays.
    """
    path = Path(path)
    if path.exists() and not path.is_dir():
        raise ValueError(
            f"{path} exists and is not a directory; a disk-format index "
            "saves as a directory of raw array files"
        )
    files = _disk_array_files(index)
    manifest: dict[str, Any] = {}
    try:
        path.mkdir(parents=True, exist_ok=True)
        for stem, arr in files.items():
            arr = np.ascontiguousarray(arr)
            arr.tofile(path / f"{stem}.bin")
            manifest[stem] = {
                "file": f"{stem}.bin",
                "dtype": str(arr.dtype),
                "shape": list(arr.shape),
            }
        header = {
            "format_version": DISK_FORMAT_VERSION,
            "kind": "disk-index",
            **_flat_header(index),
            "arrays": manifest,
        }
        (path / DISK_HEADER_NAME).write_text(
            json.dumps(header, indent=2), encoding="utf-8"
        )
    except OSError as exc:
        raise ValueError(
            f"disk-dir-unwritable: cannot write v5 index into {path}: {exc}"
        ) from exc
    return path


def _attach_array(
    directory: Path, stem: str, entry: dict[str, Any], mmap: bool
) -> np.ndarray:
    """Open one v5 array file, validated against its header entry.

    With ``mmap=True`` returns a read-only ``np.memmap`` whose
    ownership transfers to the caller (the dataset/store/graph that
    adopts it holds the mapping for the index's lifetime; numpy
    releases it with the last reference).  With ``mmap=False`` the file
    is read eagerly into a private RAM array.  A missing file or a size
    that disagrees with ``dtype * prod(shape)`` — a truncated
    ``vectors.bin``, a hand-edited header — fails loudly with the
    invariant named.
    """
    file_path = directory / entry["file"]
    dtype = np.dtype(entry["dtype"])
    shape = tuple(int(s) for s in entry["shape"])
    if not file_path.is_file():
        raise ValueError(
            f"disk-file-missing: {directory} declares array {stem!r} in "
            f"{entry['file']} but the file does not exist"
        )
    expected = dtype.itemsize * int(np.prod(shape, dtype=np.int64))
    actual = file_path.stat().st_size
    if actual != expected:
        raise ValueError(
            f"disk-array-size: {entry['file']} holds {actual} bytes but "
            f"header.json declares {dtype} x {shape} = {expected} bytes "
            "(truncated or mislabeled array)"
        )
    if not mmap:
        return np.fromfile(file_path, dtype=dtype).reshape(shape)
    if expected == 0:
        # np.memmap refuses zero-length mappings; an empty array needs
        # no backing file anyway.
        return np.empty(shape, dtype=dtype)
    return np.memmap(file_path, dtype=dtype, mode="r", shape=shape)


def _load_disk_index(
    path: Path, cls: type | None, mmap: bool
) -> "ProximityGraphIndex":
    """Load a v5 directory; ``mmap=True`` is the lazy-attach fast path.

    Large arrays (CSR, vectors, codes) attach as read-only memmaps —
    opening is O(header size), not O(index size) — and the store is
    wrapped in a :class:`~repro.storage.disk.DiskTierStore` so only the
    exact-rerank stage ever pages in ``vectors.bin``.  Mutable state
    (external ids, tombstone mask) is always read eagerly: ``delete()``
    writes the mask in place and must never touch the mapping.  Deep
    CSR content validation is skipped on the mmap path (it would fault
    in the whole hot tier); ``repro index info --validate`` runs it on
    demand via :func:`repro.core.integrity.check_disk_layout`.
    """
    if cls is None:
        from repro.core.index import ProximityGraphIndex as cls
    from repro.core.search import IdMap
    from repro.storage import store_from_arrays
    from repro.storage.disk import DiskTierStore

    header_path = path / DISK_HEADER_NAME
    try:
        header = json.loads(header_path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ValueError(
            f"corrupt disk-index header {header_path}: {exc}"
        ) from exc
    version = header.get("format_version")
    if version != DISK_FORMAT_VERSION or header.get("kind") != "disk-index":
        raise ValueError(
            f"{header_path} is not a v{DISK_FORMAT_VERSION} disk-index "
            f"header (format_version={version!r}, kind="
            f"{header.get('kind')!r})"
        )
    entries = header.get("arrays")
    if not isinstance(entries, dict):
        raise ValueError(
            f"{header_path} declares no array manifest; the directory "
            "cannot be attached"
        )
    required = ("csr_offsets", "csr_targets", "vectors", "external_ids",
                "tombstones")
    missing = [stem for stem in required if stem not in entries]
    if missing:
        raise ValueError(
            f"disk-array-missing: {header_path} lists no entry for "
            f"{missing} — required by every v5 index"
        )
    n = int(header["n"])
    arrays = {
        stem: _attach_array(path, stem, entry, mmap=mmap and stem not in
                            ("external_ids", "tombstones"))
        for stem, entry in entries.items()
    }
    for stem in ("vectors", "external_ids", "tombstones"):
        if len(arrays[stem]) != n:
            raise ValueError(
                f"disk-array-rows: {entries[stem]['file']} holds "
                f"{len(arrays[stem])} rows but header.json declares n={n}"
            )
    graph = ProximityGraph.from_csr(
        n, arrays["csr_offsets"], arrays["csr_targets"], validate=not mmap
    )
    metric = metric_from_spec(header["metric"])
    points = arrays["vectors"]
    dataset = Dataset(metric, points)
    store_arrays = {
        ("codes" if stem == "codes" else stem[len("store_"):]): arr
        for stem, arr in arrays.items()
        if stem == "codes" or stem.startswith("store_")
    }
    inner = store_from_arrays(
        header.get("storage") or {"kind": "flat"}, store_arrays, metric, points
    )
    store = DiskTierStore(inner, points)
    built = BuiltGraph(
        name=header["builder"],
        graph=graph,
        epsilon=float(header["epsilon"]),
        guaranteed=bool(header["guaranteed"]),
        meta=_rehydrate_meta(header["meta"]),
        options=_stored_options(header),
    )
    if header["meta_dropped"]:
        built.meta["meta_dropped"] = list(header["meta_dropped"])
    index = cls(
        dataset=dataset,
        built=built,
        scale=float(header["scale"]),
        # validated=True: uniqueness was enforced when the file was
        # written, and re-deriving the reverse map eagerly would put an
        # O(n) Python loop back on the millisecond attach path.
        id_map=IdMap(
            arrays["external_ids"].astype(np.int64, copy=False),
            validated=True,
        ),
        tombstones=arrays["tombstones"].astype(bool),
        store=store,
    )
    index.seed = int(header["seed"])
    return index


def load_index(
    path: str | Path, cls: type | None = None, mmap: bool | None = None
) -> "ProximityGraphIndex":
    """Load an index saved by :func:`save_index` (format v1, v2, v4, v5).

    The loaded index answers ``search`` with ids and distances identical
    to the saved one: the CSR arrays are adopted verbatim, the points
    array round-trips losslessly, and the scale and metric constants
    survive JSON exactly (Python floats serialize shortest-round-trip).
    The build seed is restored, so default random starts are the ones
    the saved index would draw.  v1 files predate the mutable collection: they load with the
    identity id map and no tombstones.  v1–v3-era files predate the
    storage layer: they load as flat (exact) storage; v4 files restore
    the saved store — codes, offsets/scales, and training stats
    (including the drift counter) — exactly.

    A v5 disk directory (``header.json`` inside) lazily attaches via
    ``np.memmap`` by default — pass ``mmap=False`` to read it eagerly
    into RAM instead.  ``mmap=True`` on an ``.npz`` file is an error
    (zip members cannot be mapped); re-save with ``format="disk"``.
    """
    if cls is None:
        from repro.core.index import ProximityGraphIndex as cls
    from repro.core.search import IdMap
    from repro.storage import store_from_arrays

    path = Path(path)
    if path.is_dir():
        if (path / DISK_HEADER_NAME).is_file():
            return _load_disk_index(path, cls, mmap=mmap is not False)
        if (path / MANIFEST_NAME).is_file():
            raise ValueError(
                f"{path} is a sharded (format v3) manifest directory — "
                "load it via ShardedIndex.load / load_sharded_index / "
                "load_any, not load_index"
            )
        raise ValueError(
            f"{path} is a directory without {DISK_HEADER_NAME} (disk "
            f"format v5) or {MANIFEST_NAME} (sharded format v3) — not a "
            "saved index"
        )
    if mmap:
        raise ValueError(
            f"{path} is a single-file .npz index; zip members cannot be "
            "memory-mapped — re-save with save_index(..., format='disk') "
            "to get an mmap-able v5 directory"
        )
    with np.load(path, allow_pickle=False) as data:
        header = json.loads(bytes(data["header"].tobytes()).decode("utf-8"))
        version = header.get("format_version")
        if version == SHARDED_FORMAT_VERSION:
            raise ValueError(
                f"{path} is labeled format version "
                f"{SHARDED_FORMAT_VERSION}, the sharded manifest-directory "
                "layout — a flat file can never carry it; load the "
                "enclosing directory via ShardedIndex.load / "
                "load_sharded_index / load_any"
            )
        if version == DISK_FORMAT_VERSION:
            raise ValueError(
                f"{path} is labeled format version {DISK_FORMAT_VERSION}, "
                "the disk directory layout — a single .npz can never carry "
                "it; load the v5 directory itself (load_index on the "
                "directory, or load_any)"
            )
        if version not in SUPPORTED_VERSIONS:
            raise ValueError(
                f"unsupported index format version {version!r} "
                f"(this build reads versions {list(SUPPORTED_VERSIONS)})"
            )
        n = int(header["n"])
        graph = ProximityGraph.from_csr(
            n,
            data["offsets"].astype(np.int64),
            data["targets"].astype(np.intp),
            validate=True,
        )
        points = data["points"]
        if version >= 2:
            external_ids = data["external_ids"].astype(np.int64)
            tombstones = data["tombstones"].astype(bool)
        else:
            external_ids = np.arange(n, dtype=np.int64)
            tombstones = np.zeros(n, dtype=bool)
        store_arrays = {
            name[len("store_"):]: data[name]
            for name in data.files
            if name.startswith("store_")
        }
    metric = metric_from_spec(header["metric"])
    dataset = Dataset(metric, points)
    store = store_from_arrays(
        header.get("storage") or {"kind": "flat"}, store_arrays, metric, points
    )
    built = BuiltGraph(
        name=header["builder"],
        graph=graph,
        epsilon=float(header["epsilon"]),
        guaranteed=bool(header["guaranteed"]),
        meta=_rehydrate_meta(header["meta"]),
        options=_stored_options(header),
    )
    if header["meta_dropped"]:
        built.meta["meta_dropped"] = list(header["meta_dropped"])
    index = cls(
        dataset=dataset,
        built=built,
        scale=float(header["scale"]),
        id_map=IdMap(external_ids),
        tombstones=tombstones,
        store=store,
    )
    index.seed = int(header["seed"])
    return index


# ----------------------------------------------------------------------
# Format v3: the sharded manifest directory
# ----------------------------------------------------------------------


def _shard_filename(j: int, format: str = "npz") -> str:
    return f"shard-{j:03d}.npz" if format == "npz" else f"shard-{j:03d}.disk"


def save_sharded_index(
    index: "ShardedIndex",
    path: str | Path,
    format: str = "npz",
    compress: bool = True,
) -> Path:
    """Write a :class:`ShardedIndex` as a manifest directory.

    ``path`` becomes a directory holding ``manifest.json`` plus one
    per-shard entry written by :func:`save_index` — a flat-format
    ``.npz`` by default, or (``format="disk"``) a per-shard v5
    ``shard-NNN.disk/`` directory, so everything a flat save preserves —
    CSR graph, points, id map, tombstones, metric spec, builder
    options, vector store — is preserved per shard and every shard can
    lazily mmap-attach on load.
    The manifest records the fan-out state that lives *above* the
    shards: assignment policy, build seed, worker count, and the next
    fresh external id (so id stability survives delete-then-reload).
    """
    if format not in ("npz", "disk"):
        raise ValueError(f"unknown save format {format!r}; use 'npz' or 'disk'")
    path = Path(path)
    if path.exists() and not path.is_dir():
        raise ValueError(
            f"{path} exists and is not a directory; a sharded index "
            "saves as a manifest directory"
        )
    path.mkdir(parents=True, exist_ok=True)
    shard_files = []
    for j, shard in enumerate(index.shards):
        save_index(
            shard, path / _shard_filename(j, format),
            format=format, compress=compress,
        )
        shard_files.append(_shard_filename(j, format))
    # Re-saving into a directory that held a wider (or differently
    # formatted) index must not leave stale shard entries behind: the
    # directory's shard-* set always matches the manifest exactly.
    for stale in path.glob("shard-*"):
        if stale.name not in shard_files:
            if stale.is_dir():
                shutil.rmtree(stale)
            else:
                stale.unlink()
    manifest = {
        "format_version": SHARDED_FORMAT_VERSION,
        "kind": "sharded-index",
        "shards": len(index.shards),
        "shard_files": shard_files,
        "shard_format": format,
        "assignment": index.assignment,
        "seed": int(index.seed),
        "workers": int(index.workers),
        "search_chunk": int(index.search_chunk),
        "next_id": int(index._next),
    }
    (path / MANIFEST_NAME).write_text(json.dumps(manifest, indent=2))
    return path


def load_sharded_index(
    path: str | Path, cls: type | None = None, mmap: bool | None = None
) -> "ShardedIndex":
    """Load a directory written by :func:`save_sharded_index`.

    Shards saved with ``format="disk"`` are per-shard v5 directories;
    they lazily mmap-attach by default (``mmap=False`` forces eager
    reads).  Errors are diagnosed precisely: a missing manifest, corrupt
    manifest JSON, a wrong format version, a shard-count mismatch, and
    missing shard files each raise ``ValueError`` naming the problem —
    a partially copied index directory must never load quietly.
    """
    if cls is None:
        from repro.core.sharded import ShardedIndex as cls

    path = Path(path)
    manifest_path = path / MANIFEST_NAME if path.is_dir() else path
    if not manifest_path.exists():
        raise ValueError(
            f"{path} is not a sharded index: no {MANIFEST_NAME} found"
        )
    try:
        manifest = json.loads(manifest_path.read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(
            f"corrupt sharded-index manifest {manifest_path}: {exc}"
        ) from exc
    if not isinstance(manifest, dict) or manifest.get("kind") != "sharded-index":
        raise ValueError(
            f"{manifest_path} is not a sharded-index manifest "
            "(missing kind: 'sharded-index')"
        )
    version = manifest.get("format_version")
    if version != SHARDED_FORMAT_VERSION:
        raise ValueError(
            f"unsupported sharded format version {version!r} "
            f"(this build reads version {SHARDED_FORMAT_VERSION})"
        )
    root = manifest_path.parent
    shard_files = manifest.get("shard_files")
    declared = manifest.get("shards")
    if not shard_files or declared != len(shard_files):
        raise ValueError(
            f"corrupt sharded-index manifest {manifest_path}: declares "
            f"{declared!r} shards but lists {len(shard_files or [])} files"
        )
    shards = []
    for name in shard_files:
        shard_path = root / name
        if not shard_path.exists():
            raise ValueError(
                f"sharded index at {root} is incomplete: missing shard "
                f"file {name} (declared in {MANIFEST_NAME})"
            )
        shards.append(
            load_index(shard_path, mmap=mmap)
            if shard_path.is_dir()
            else load_index(shard_path)
        )
    return cls(
        shards,
        seed=int(manifest.get("seed", 0)),
        workers=int(manifest.get("workers", 1)),
        assignment=manifest.get("assignment", "random"),
        next_id=manifest.get("next_id"),
        search_chunk=int(manifest.get("search_chunk", 4096)),
    )


def load_any(
    path: str | Path, mmap: bool | None = None
) -> "ProximityGraphIndex | ShardedIndex":
    """Load whichever index kind lives at ``path``.

    Dispatches on shape: a directory with a ``header.json`` loads as a
    flat v5 disk index, a directory with a ``manifest.json`` (or the
    manifest itself) as a :class:`ShardedIndex`, and a single file as a
    flat :class:`ProximityGraphIndex`.  ``mmap`` passes through to the
    disk-format loaders (directories attach lazily by default).  The
    one loader every CLI entry point uses, so saved indexes of either
    kind are interchangeable from the shell.
    """
    path = Path(path)
    if path.is_dir() and (path / DISK_HEADER_NAME).is_file():
        return load_index(path, mmap=mmap)
    if path.is_dir() or path.name == MANIFEST_NAME:
        return load_sharded_index(path, mmap=mmap)
    return load_index(path, mmap=mmap)
