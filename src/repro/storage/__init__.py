"""Pluggable vector storage: how an index holds its vectors.

The layer between metrics and the graph engines::

    metrics  →  storage  →  engine  →  index / sharded

See :mod:`repro.storage.base` for the contract.  Two kinds ship,
``"flat"`` and ``"sq8"``, and neither takes options.  Callers go
through one of the factories here:

* :func:`make_store` — train-and-encode in one step (the ``build(...,
  storage=...)`` and ``set_storage`` path);
* :func:`store_from_arrays` — reconstruction from a persisted or
  process-shipped wire form (spec dict + arrays).

The sharded index trains SQ8 once over all its shards' points with
:func:`~repro.storage.sq8.train_sq8` and encodes each shard under that
state with :func:`~repro.storage.sq8.encode_sq8`.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.storage.base import (
    FlatQueryView,
    QueryDistanceView,
    StorageConfigError,
    StorageError,
    VectorStore,
    decompose_metric,
)
from repro.storage.disk import DiskTierStore, advise_memmap
from repro.storage.flat import FlatStore
from repro.storage.sq8 import SQ8Params, SQ8Store

__all__ = [
    "STORAGE_KINDS",
    "DiskTierStore",
    "FlatQueryView",
    "FlatStore",
    "QueryDistanceView",
    "SQ8Params",
    "SQ8Store",
    "StorageConfigError",
    "StorageError",
    "VectorStore",
    "advise_memmap",
    "decompose_metric",
    "make_store",
    "store_from_arrays",
    "validate_storage_options",
]

STORAGE_KINDS = ("flat", "sq8")


def validate_storage_options(kind: str) -> None:
    """Fail-fast, data-free check of a storage kind.

    Both ``build`` front doors call it before the graph build — in
    particular before a multi-process sharded build — so an unknown kind
    raises :class:`StorageConfigError` before any expensive work;
    :func:`make_store` and ``ShardedIndex.set_storage`` call it too.
    """
    if kind not in STORAGE_KINDS:
        raise StorageConfigError(
            f"unknown storage kind {kind!r}; use one of {STORAGE_KINDS}"
        )


def make_store(kind: str, metric: Any, points: Any, seed: int = 0) -> VectorStore:
    """Train a store of ``kind`` over ``points`` and encode them.
    ``seed`` is accepted for every kind; neither kind's training draws."""
    validate_storage_options(kind)
    if kind == "flat":
        return FlatStore(metric, points)
    return SQ8Store.train(metric, points)


def store_from_arrays(
    spec: dict[str, Any], arrays: dict[str, np.ndarray], metric: Any, points: Any
) -> VectorStore:
    """Inverse of ``store.spec()`` + ``store.arrays()`` — the load path
    of persistence format v4 and v5, of sharded manifests' shard files
    and of worker shard payloads.

    Indexes saved while flat storage had a float32 traversal copy carry
    ``"dtype": "float32"`` in their spec, and sq8 specs of that time an
    ``"options"`` key; both are read past, so such an index opens as the
    exact flat or the plain sq8 store.
    """
    kind = spec.get("kind", "flat")
    if kind == "flat":
        return FlatStore(metric, points)
    if kind == "sq8":
        params = SQ8Params(
            minv=np.asarray(arrays["minv"], dtype=np.float64),
            scale=np.asarray(arrays["scale"], dtype=np.float64),
        )
        return SQ8Store(
            metric,
            params,
            np.asarray(arrays["codes"], dtype=np.uint8),
            drift=int(spec.get("drift", 0)),
            trained_on=spec.get("trained_on"),
        )
    if kind == "pq":
        raise StorageConfigError(
            "this index was saved with storage kind 'pq' (product "
            "quantization), which is no longer supported. To recover it, "
            "open it with a release that still reads PQ, call "
            "set_storage(\"sq8\") and save it again; the points and the "
            "graph are kept."
        )
    raise StorageConfigError(f"unknown storage spec {spec!r}")
