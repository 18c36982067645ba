"""Index persistence: one saved index, three layouts, one reader each.

* **v4 ``.npz``** (``save_index(index, path)``): one compressed file
  holding the graph's CSR arrays verbatim (``offsets``/``targets``), the
  normalized point coordinates, the external id map, the tombstone
  mask, the vector store's arrays as ``store_*`` members (SQ8 codes,
  offsets and scales) and a JSON header: builder name, epsilon,
  guarantee flag, normalization scale, metric spec, rng seed, storage
  spec (kind, quantizer options, training stats including the drift
  counter), the builder options ``compact()`` replays, and the
  JSON-safe slice of the builder's provenance ``meta``.
* **v5 disk directory** (``save_index(index, path, format="disk")``):
  the same content as raw, page-aligned binary files::

    header.json          JSON header + per-array manifest (file, dtype, shape)
    csr_offsets.bin      (n+1,) int64   graph row pointers      | hot tier
    csr_targets.bin      (e,)   int32   flat neighbor ids       | hot tier
    codes.bin            (n, m) uint8   quantized codes         | hot tier
    vectors.bin          (n, d) float64 full-precision rows     | COLD tier
    external_ids.bin     (n,)   int64   stable external ids
    tombstones.bin       (n,)   uint8   deletion mask
    store_*.bin          quantizer training state (SQ8 offsets, scales)

  Loading attaches every large array with a read-only ``np.memmap`` in
  milliseconds; the full-precision ``vectors.bin`` is only ever paged in
  by the exact-rerank stage (see
  :class:`~repro.storage.disk.DiskTierStore`).  Files written before
  vertex ids were int32 hold int64 targets: they load through a one-time
  cast, held in memory rather than mapped (a WARNING on this module's
  logger says so), and a re-save writes int32.
* **v3 sharded manifest directory**
  (:func:`save_sharded_index`): a ``manifest.json`` naming the shard
  entries plus routing state (assignment policy, seed, worker count,
  next fresh external id), next to one v4 file or v5 directory per
  shard.

Each layout has one check here — :func:`_disk_layout` and
:func:`_manifest_layout` return every violation by invariant name; the
loaders raise on them and :mod:`repro.core.integrity` reports them — and
both flat readers rebuild the index through one :func:`_assemble`.
:func:`load_any` dispatches on the shape of ``path``.  A loaded index
answers ``search`` with ids and distances identical to the saved one.

Only **coordinate metrics** (Euclidean, Chebyshev, Minkowski, optionally
wrapped in the normalization :class:`~repro.metrics.base.ScaledMetric`)
have an on-disk form: their state is a handful of floats and the points
array round-trips losslessly.  Abstract metrics —
:class:`~repro.metrics.counting.CountingMetric` (mutable counter),
:class:`~repro.metrics.tree_metric.TreeMetric` and explicit-matrix
spaces (id-based points) — raise :class:`NotImplementedError` from
``save()`` rather than silently pickling objects whose identity cannot
be restored faithfully.
"""

from __future__ import annotations

import dataclasses
import json
import logging
import os
import shutil
from collections.abc import Callable
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
MANIFEST_NAME = "manifest.json"
DISK_HEADER_NAME = "header.json"

# Tag for GNetParameters entries in the serialized meta (the one
# provenance object stats() needs back as a real object).
_GNET_PARAMS_TAG = "__gnet_parameters__"

_log = logging.getLogger(__name__)

# The CSR widths a saved index may hold: int64 row pointers, and int32
# vertex ids — or int64 ones, as files written before ids were int32
# hold them (read through one cast).
_CSR_DTYPES = {
    "csr_offsets": (np.dtype(np.int64),),
    "csr_targets": (np.dtype(np.int32), np.dtype(np.int64)),
}


def _csr_dtype_violation(source: Path, stem: str, dtype: np.dtype) -> str | None:
    """The ``disk-array-dtype`` violation of one array, if it is a CSR
    array of a width the graph cannot adopt (a float array would be
    truncated to ids without complaint)."""
    allowed = _CSR_DTYPES.get(stem)
    if allowed is None or dtype in allowed:
        return None
    return (
        f"disk-array-dtype: {source} holds {stem} as {dtype}, but it must be "
        + " or ".join(map(str, allowed))
    )


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
    files that :func:`load_index` attaches lazily; raw files are
    inherently uncompressed, so ``compress`` is ignored there.  Raises
    :class:`NotImplementedError` for indexes over non-coordinate metrics
    (see the module docstring).  Returns the path written (numpy appends
    ``.npz`` when missing).
    """
    if format == "disk":
        return _save_disk_index(index, path)
    if format != "npz":
        raise ValueError(f"unknown save format {format!r}; use 'npz' or 'disk'")
    arrays = _index_arrays(index)
    header = {"format_version": FORMAT_VERSION, **_flat_header(index)}
    path = Path(path)
    writer = np.savez_compressed if compress else np.savez
    writer(
        path,
        header=np.frombuffer(
            json.dumps(header).encode("utf-8"), dtype=np.uint8
        ),
        **{_NPZ_NAMES.get(stem, stem): arr for stem, arr in arrays.items()},
    )
    return path if path.suffix == ".npz" else path.with_suffix(path.suffix + ".npz")


# The v4 .npz member names that differ from the v5 file stems.
_NPZ_NAMES = {
    "csr_offsets": "offsets",
    "csr_targets": "targets",
    "vectors": "points",
    "codes": "store_codes",
}


def _index_arrays(index: "ProximityGraphIndex") -> dict[str, np.ndarray]:
    """Every array a saved index holds, keyed by v5 file stem.

    The CSR arrays leave as the graph holds them, int64 offsets and int32
    targets, so the loader (and the accel planner) adopt the mappings
    without a converting copy; codes get their own ``codes.bin`` (the
    hot tier), quantizer training state lands in ``store_*``.
    """
    offsets, targets = index.graph.csr()
    arrays = {
        "csr_offsets": offsets,
        "csr_targets": targets,
        "vectors": _coordinate_points(index),
        "external_ids": index.id_map.externals.astype(np.int64, copy=False),
        "tombstones": index._tombstones.astype(np.uint8, copy=False),
    }
    for name, arr in index.store.arrays().items():
        arrays["codes" if name == "codes" else f"store_{name}"] = arr
    return arrays


def _assemble(
    cls: type | None,
    header: dict[str, Any],
    arrays: dict[str, np.ndarray],
    mapped: bool,
    source: Path,
) -> "ProximityGraphIndex":
    """Rebuild an index from a flat header and its arrays, keyed by v5
    file stem (``csr_offsets``, ``vectors``, ``codes``, ``store_*``, ...),
    read from ``source`` (the ``.npz`` file or the v5 directory).

    CSR arrays of another width than the graph's are refused by name
    (``disk-array-dtype``); int64 targets, as older files hold them, are
    validated and cast to int32 once, with a WARNING: that copy lives in
    memory.

    ``mapped`` marks the v5 attach path, whose arrays are read-only
    memmaps.  It skips the deep CSR validation (that would fault in the
    whole hot tier; ``repro index info --validate`` runs it on demand),
    wraps the store in a :class:`~repro.storage.disk.DiskTierStore` so
    only exact rerank pages in the vectors, and adopts the id map as
    validated: uniqueness was enforced when the file was written, and
    re-deriving the reverse map eagerly would put an O(n) Python loop
    back on the millisecond open.
    """
    if cls is None:
        from repro.core.index import ProximityGraphIndex as cls
    from repro.core.search import IdMap
    from repro.storage import store_from_arrays
    from repro.storage.disk import DiskTierStore

    violations = [
        violation
        for stem in _CSR_DTYPES
        if (violation := _csr_dtype_violation(source, stem, arrays[stem].dtype))
    ]
    if violations:
        raise ValueError("\n".join(violations))
    # The cast reads every target anyway, so it checks them first: an
    # int64 id past 2**31 must not wrap into a valid-looking one.
    cast = arrays["csr_targets"].dtype != np.int32
    if cast:
        _log.warning(
            "%s holds int64 csr_targets (written before vertex ids were "
            "int32): they are cast to int32 and held in memory, not mapped; "
            "saving the index again writes int32",
            source,
        )
    graph = ProximityGraph.from_csr(
        int(header["n"]), arrays["csr_offsets"], arrays["csr_targets"],
        validate=cast or not mapped,
    )
    metric = metric_from_spec(header["metric"])
    points = arrays["vectors"]
    store_arrays = {
        stem.removeprefix("store_"): arr
        for stem, arr in arrays.items()
        if stem == "codes" or stem.startswith("store_")
    }
    store = store_from_arrays(header["storage"], store_arrays, metric, points)
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
    return cls(
        dataset=Dataset(metric, points),
        built=built,
        scale=float(header["scale"]),
        seed=int(header["seed"]),
        id_map=IdMap(
            arrays["external_ids"].astype(np.int64, copy=False),
            validated=mapped,
        ),
        tombstones=arrays["tombstones"].astype(bool),
        store=DiskTierStore(store, points) if mapped else store,
    )


# ----------------------------------------------------------------------
# Format v5: the disk directory (one raw binary file per array)
# ----------------------------------------------------------------------

# Arrays every v5 directory holds, and the mutable ones read eagerly:
# delete() writes the tombstone mask in place and must never touch the
# mapping.
_DISK_REQUIRED = (
    "csr_offsets", "csr_targets", "vectors", "external_ids", "tombstones"
)
_DISK_EAGER = ("external_ids", "tombstones")

# One array file the layout check accepted: (path, dtype, shape).
_ArraySpec = tuple[Path, np.dtype, tuple[int, ...]]


def _write_replacing(target: Path, write: Callable[[Path], object]) -> None:
    """Write ``target`` through a temporary sibling renamed onto it.

    The index being saved may be mapped from the very file it replaces
    (a v5 index re-saved into its own directory).  Truncating that file
    in place would pull the pages out from under the mapping; a rename
    leaves the old inode alive until the last mapping of it goes.
    """
    tmp = target.with_name(target.name + ".tmp")
    try:
        write(tmp)
        os.replace(tmp, target)
    except OSError:
        tmp.unlink(missing_ok=True)
        raise


def _save_disk_index(index: "ProximityGraphIndex", path: str | Path) -> Path:
    """Write the v5 directory: raw array files + ``header.json`` last.

    The header is the commit marker.  A save into an existing directory
    removes it before the first array changes, so an interrupted save
    leaves a directory without ``header.json``, which the loader rejects
    by name instead of attaching torn arrays.  Array files the new
    header does not list (an sq8 index re-saved as flat leaves its
    ``codes.bin``) are removed once the header is in place.
    """
    path = Path(path)
    if path.exists() and not path.is_dir():
        raise ValueError(
            f"{path} exists and is not a directory; a disk-format index "
            "saves as a directory of raw array files"
        )
    arrays = _index_arrays(index)
    header = {
        "format_version": DISK_FORMAT_VERSION,
        "kind": "disk-index",
        **_flat_header(index),
    }
    manifest: dict[str, Any] = {}
    try:
        path.mkdir(parents=True, exist_ok=True)
        (path / DISK_HEADER_NAME).unlink(missing_ok=True)
        for stem, arr in arrays.items():
            arr = np.ascontiguousarray(arr)
            _write_replacing(path / f"{stem}.bin", arr.tofile)
            manifest[stem] = {
                "file": f"{stem}.bin",
                "dtype": str(arr.dtype),
                "shape": list(arr.shape),
            }
        header["arrays"] = manifest
        text = json.dumps(header, indent=2)
        _write_replacing(
            path / DISK_HEADER_NAME,
            lambda tmp: tmp.write_text(text, encoding="utf-8"),
        )
        for stale in _unlisted_bins(path, header):
            stale.unlink()
    except OSError as exc:
        raise ValueError(
            f"disk-dir-unwritable: cannot write v5 index into {path}: {exc}"
        ) from exc
    return path


def _unlisted_bins(directory: Path, header: dict[str, Any]) -> list[Path]:
    """The ``.bin`` files in ``directory`` that ``header`` lists no array
    in: left by an older save, ignored by the loader."""
    listed = {entry["file"] for entry in header["arrays"].values()}
    return sorted(p for p in directory.glob("*.bin") if p.name not in listed)


def _disk_layout(
    directory: Path,
) -> tuple[dict[str, Any], dict[str, _ArraySpec], list[str]]:
    """Check a v5 directory's ``header.json`` against its array files.

    Returns ``(header, arrays, violations)``: ``arrays`` maps each stem
    whose file holds exactly ``dtype * prod(shape)`` bytes to its
    ``_ArraySpec``.  Only the header and the file sizes are read,
    never an array, so the mmap open stays O(header).  Every violation
    names its invariant (``disk-file-missing``, ``disk-array-size``,
    ``disk-array-dtype``, ...); :func:`load_index` raises on any, and
    :func:`repro.core.integrity.check_disk_layout` reports them plus the
    deep CSR check.
    """
    header_path = directory / DISK_HEADER_NAME
    if not header_path.is_file():
        return {}, {}, [
            f"disk-header-missing: {directory} has no {DISK_HEADER_NAME}; "
            "not a v5 disk-index directory"
        ]
    try:
        header = json.loads(header_path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        return {}, {}, [
            "disk-header-unreadable: corrupt disk-index header "
            f"{header_path}: {exc}"
        ]
    if not isinstance(header, dict):
        header = {}
    version, kind = header.get("format_version"), header.get("kind")
    if version != DISK_FORMAT_VERSION or kind != "disk-index":
        return {}, {}, [
            f"disk-header-version: {header_path} is not a "
            f"v{DISK_FORMAT_VERSION} disk-index header "
            f"(format_version={version!r}, kind={kind!r})"
        ]
    entries = header.get("arrays")
    if not isinstance(entries, dict):
        return {}, {}, [
            f"disk-manifest-missing: {header_path} declares no array "
            "manifest; the directory cannot be attached"
        ]
    violations = [
        f"disk-array-missing: {header_path} lists no entry for required "
        f"array {stem!r}"
        for stem in _DISK_REQUIRED
        if stem not in entries
    ]
    arrays: dict[str, _ArraySpec] = {}
    for stem, entry in entries.items():
        file_path = directory / entry["file"]
        if not file_path.is_file():
            violations.append(
                f"disk-file-missing: {directory} declares array {stem!r} "
                f"in {entry['file']} but the file does not exist"
            )
            continue
        try:
            dtype = np.dtype(entry["dtype"])
        except TypeError:
            violations.append(
                f"disk-array-dtype: {header_path} declares {stem} as "
                f"{entry['dtype']!r}, which is not a dtype"
            )
            continue
        violation = _csr_dtype_violation(header_path, stem, dtype)
        if violation:
            violations.append(violation)
            continue
        shape = tuple(int(s) for s in entry["shape"])
        expected = dtype.itemsize * int(np.prod(shape, dtype=np.int64))
        actual = file_path.stat().st_size
        if actual != expected:
            violations.append(
                f"disk-array-size: {entry['file']} holds {actual} bytes but "
                f"{DISK_HEADER_NAME} declares {dtype} x {shape} = {expected} "
                "bytes (truncated or mislabeled array)"
            )
            continue
        arrays[stem] = (file_path, dtype, shape)
    n = int(header.get("n", -1))
    for stem in ("vectors", "external_ids", "tombstones"):
        rows = (arrays[stem][2] or (0,))[0] if stem in arrays else n
        if rows != n:
            violations.append(
                f"disk-array-rows: {entries[stem]['file']} holds {rows} "
                f"rows but {DISK_HEADER_NAME} declares n={n}"
            )
    return header, arrays, violations


def _attach_array(
    file_path: Path, dtype: np.dtype, shape: tuple[int, ...], mmap: bool
) -> np.ndarray:
    """Open one v5 array file that :func:`_disk_layout` accepted.

    With ``mmap=True`` returns a read-only ``np.memmap`` whose
    ownership transfers to the caller (the dataset/store/graph that
    adopts it holds the mapping for the index's lifetime; numpy
    releases it with the last reference).  With ``mmap=False`` the file
    is read eagerly into a private RAM array.
    """
    if not mmap:
        return np.fromfile(file_path, dtype=dtype).reshape(shape)
    if int(np.prod(shape, dtype=np.int64)) == 0:
        # np.memmap refuses zero-length mappings; an empty array needs
        # no backing file anyway.
        return np.empty(shape, dtype=dtype)
    return np.memmap(file_path, dtype=dtype, mode="r", shape=shape)


def _load_disk_index(path: Path, cls: type | None) -> "ProximityGraphIndex":
    """Attach a v5 directory: large arrays (CSR, vectors, codes) as
    read-only memmaps, so opening is O(header size), not O(index size);
    the mutable ids and tombstone mask eagerly."""
    header, specs, violations = _disk_layout(path)
    if violations:
        raise ValueError("\n".join(violations))
    arrays = {
        stem: _attach_array(*spec, mmap=stem not in _DISK_EAGER)
        for stem, spec in specs.items()
    }
    return _assemble(cls, header, arrays, mapped=True, source=path)


def load_index(
    path: str | Path, cls: type | None = None
) -> "ProximityGraphIndex":
    """Load an index saved by :func:`save_index`: a v4 ``.npz`` file or
    a v5 disk directory.

    The loaded index answers ``search`` with ids and distances identical
    to the saved one: the CSR arrays are adopted verbatim, the points
    array round-trips losslessly, the scale and metric constants survive
    JSON exactly (Python floats serialize shortest-round-trip), and the
    store — codes, offsets/scales, training stats including the drift
    counter — is restored exactly.  The build seed is restored, so
    default random starts are the ones the saved index would draw.

    A v5 directory (``header.json`` inside) attaches lazily via
    ``np.memmap``: millisecond opens, vectors paged in only at rerank.
    """
    path = Path(path)
    if path.is_dir():
        if (path / DISK_HEADER_NAME).is_file():
            return _load_disk_index(path, cls)
        if (path / MANIFEST_NAME).is_file():
            raise ValueError(
                f"{path} is a sharded (format v3) manifest directory — "
                "load it via ShardedIndex.load / load_sharded_index / "
                "load_any, not load_index"
            )
        if any(path.glob("shard-*")):
            raise ValueError(
                f"{path} holds shard-* entries but no {MANIFEST_NAME}: a "
                "sharded save was cut short before its manifest was written. "
                "The shards are still there; save the index to this path "
                "again to finish it"
            )
        raise ValueError(
            f"{path} is a directory without {DISK_HEADER_NAME} (disk "
            f"format v5) or {MANIFEST_NAME} (sharded format v3) — not a "
            "saved index"
        )
    with np.load(path, allow_pickle=False) as data:
        header = json.loads(bytes(data["header"].tobytes()).decode("utf-8"))
        version = header.get("format_version")
        if version != FORMAT_VERSION:
            raise ValueError(
                f"{path} has index format version {version!r}; this build "
                f"reads .npz files of format version {FORMAT_VERSION} only. "
                "To recover it, open it with a release that still reads "
                "it and save it again."
            )
        stems = {name: stem for stem, name in _NPZ_NAMES.items()}
        arrays = {
            stems.get(name, name): data[name]
            for name in data.files
            if name != "header"
        }
    return _assemble(cls, header, arrays, mapped=False, source=path)


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

    The manifest is the commit marker, as ``header.json`` is for a v5
    directory: a re-save removes it before the first shard changes and
    writes it last, so an interrupted save leaves a directory the
    loader refuses instead of a mix of old and new shards.
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
    (path / MANIFEST_NAME).unlink(missing_ok=True)
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
    text = json.dumps(manifest, indent=2)
    _write_replacing(
        path / MANIFEST_NAME, lambda tmp: tmp.write_text(text, encoding="utf-8")
    )
    return path


def _manifest_layout(path: Path) -> tuple[dict[str, Any], Path, list[str]]:
    """Check a sharded manifest against the shard entries on disk.

    Returns ``(manifest, root, violations)``; ``path`` is the manifest
    directory or the manifest file itself.  A manifest edited by hand or
    a partially copied directory fails here with the invariant named
    (``manifest-shard-count``, ``manifest-shard-files``, ...) before
    any shard is opened: :func:`load_sharded_index` raises on any
    violation, and :func:`repro.core.integrity.check_sharded_manifest`
    reports them.
    """
    manifest_path = path / MANIFEST_NAME if path.is_dir() else path
    root = manifest_path.parent
    if not manifest_path.is_file():
        return {}, root, [
            f"manifest-missing: {path} is not a sharded index: no "
            f"{MANIFEST_NAME} found"
        ]
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        return {}, root, [
            "manifest-unreadable: corrupt sharded-index manifest "
            f"{manifest_path}: {exc}"
        ]
    if not isinstance(manifest, dict) or manifest.get("kind") != "sharded-index":
        return {}, root, [
            f"manifest-version: {manifest_path} is not a sharded-index "
            "manifest (missing kind: 'sharded-index')"
        ]
    version = manifest.get("format_version")
    if version != SHARDED_FORMAT_VERSION:
        return {}, root, [
            f"manifest-version: unsupported sharded format version "
            f"{version!r} in {manifest_path} (this build reads version "
            f"{SHARDED_FORMAT_VERSION})"
        ]
    declared = manifest.get("shards")
    shard_files = manifest.get("shard_files") or []
    violations: list[str] = []
    if not shard_files or declared != len(shard_files):
        violations.append(
            f"manifest-shard-count: corrupt sharded-index manifest "
            f"{manifest_path}: declares {declared!r} shards but lists "
            f"{len(shard_files)} shard file(s)"
        )
    # A shard entry is a .npz file or (shard_format="disk") a v5
    # directory; either way it must exist.
    violations.extend(
        f"manifest-shard-files: sharded index at {root} is incomplete: "
        f"missing shard file {name} (declared in {MANIFEST_NAME})"
        for name in shard_files
        if not (root / name).exists()
    )
    return manifest, root, violations


def load_sharded_index(
    path: str | Path, cls: type | None = None
) -> "ShardedIndex":
    """Load a directory written by :func:`save_sharded_index`.

    Shards saved with ``format="disk"`` are per-shard v5 directories
    and attach lazily.  A missing or corrupt manifest, a wrong kind or
    format version, a shard-count mismatch, and missing shard files
    each raise ``ValueError`` naming the problem — a partially copied
    index directory must never load quietly.
    """
    if cls is None:
        from repro.core.sharded import ShardedIndex as cls

    manifest, root, violations = _manifest_layout(Path(path))
    if violations:
        raise ValueError("\n".join(violations))
    return cls(
        [load_index(root / name) for name in manifest["shard_files"]],
        seed=int(manifest.get("seed", 0)),
        workers=int(manifest.get("workers", 1)),
        assignment=manifest.get("assignment", "random"),
        next_id=manifest.get("next_id"),
        search_chunk=int(manifest.get("search_chunk", 4096)),
    )


def load_any(path: str | Path) -> "ProximityGraphIndex | ShardedIndex":
    """Load whichever index kind lives at ``path``.

    Dispatches on shape: a directory with a ``manifest.json`` (or the
    manifest itself) loads as a :class:`ShardedIndex`; anything else —
    a v5 directory or a single ``.npz`` file — as a flat
    :class:`ProximityGraphIndex`.  The one loader every CLI entry point
    uses, so saved indexes of either kind are interchangeable from the
    shell.
    """
    path = Path(path)
    if _is_manifest(path):
        return load_sharded_index(path)
    return load_index(path)


def _is_manifest(path: Path) -> bool:
    return path.name == MANIFEST_NAME or (path / MANIFEST_NAME).is_file()


def _saved_format(path: str | Path) -> str:
    """The ``format`` that writes an index back in the layout saved at
    ``path``: ``"disk"`` for a v5 directory, the manifest's
    ``shard_format`` for a sharded directory, ``"npz"`` for a file."""
    path = Path(path)
    if _is_manifest(path):
        return str(_manifest_layout(path)[0].get("shard_format", "npz"))
    return "disk" if path.is_dir() else "npz"
