"""Pluggable vector storage: how an index holds its vectors.

The layer between metrics and the graph engines::

    metrics  →  storage  →  engine  →  index / sharded

See :mod:`repro.storage.base` for the contract.  Most callers go
through one of the factories here:

* :func:`make_store` — train-and-encode in one step (the flat index's
  ``build(..., storage=...)`` path);
* :func:`train_store_params` / :func:`store_from_params` /
  :func:`encode_with_params` — the split form the sharded index uses to
  train SQ8's per-dimension scales **once** over the whole collection
  and share them across shards (each shard encodes its own rows against
  the shared training state);
* :func:`store_from_arrays` — reconstruction from a persisted or
  process-shipped wire form (spec dict + arrays).
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
from repro.storage.flat import FLAT_DTYPES, FlatStore
from repro.storage.sq8 import SQ8Params, SQ8Store, encode_sq8, train_sq8

__all__ = [
    "FLAT_DTYPES",
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
    "encode_with_params",
    "make_store",
    "store_from_arrays",
    "store_from_params",
    "train_store_params",
    "validate_storage_options",
]

STORAGE_KINDS = ("flat", "sq8")

_FLAT_OPTION_KEYS = frozenset({"dtype"})


def validate_storage_options(kind: str, options: dict[str, Any] | None = None) -> None:
    """Fail-fast, data-free validation of a storage configuration.

    The one home of the per-kind option rules: every front door (flat
    and sharded ``build``/``set_storage``, the factories here) routes
    through it, so a bad config raises :class:`StorageConfigError`
    *before* any expensive work — in particular before a multi-process
    sharded graph build.
    """
    opts = dict(options or {})
    if kind not in STORAGE_KINDS:
        raise StorageConfigError(
            f"unknown storage kind {kind!r}; use one of {STORAGE_KINDS}"
        )
    if kind == "flat":
        unknown = set(opts) - _FLAT_OPTION_KEYS
        if unknown:
            raise StorageConfigError(
                f"unknown flat options {sorted(unknown)}; "
                f"valid: {sorted(_FLAT_OPTION_KEYS)}"
            )
        dtype = opts.get("dtype", "float64")
        if dtype not in FLAT_DTYPES:
            raise StorageConfigError(
                f"flat dtype must be one of {FLAT_DTYPES}, got {dtype!r}"
            )
        return
    if opts:
        raise StorageConfigError(
            f"{kind} storage takes no options, got {sorted(opts)}"
        )


def make_store(
    kind: str, metric: Any, points: Any, seed: int = 0, **options: Any
) -> VectorStore:
    """Train a store of ``kind`` over ``points`` and encode them."""
    validate_storage_options(kind, options)
    if kind == "flat":
        return FlatStore(metric, points, **options)
    return SQ8Store.train(metric, points, seed=seed, **options)


def train_store_params(
    kind: str, points: Any, seed: int = 0, **options: Any
) -> Any:
    """Training state only — no codes.  ``None`` for flat storage.

    The sharded build trains once over the *full* collection through
    this, then hands the same params to every shard's
    :func:`store_from_params`.
    """
    validate_storage_options(kind, options)
    if kind == "flat":
        return None
    return train_sq8(points)


def encode_with_params(kind: str, params: Any, points: Any) -> np.ndarray | None:
    """Encode rows under frozen training state (``None`` for flat)."""
    if kind == "flat":
        return None
    if kind == "sq8":
        return encode_sq8(params, points)
    raise StorageConfigError(
        f"unknown storage kind {kind!r}; use one of {STORAGE_KINDS}"
    )


def store_from_params(
    kind: str,
    metric: Any,
    points: Any,
    params: Any,
    codes: np.ndarray | None = None,
    options: dict[str, Any] | None = None,
    trained_on: int | None = None,
) -> VectorStore:
    """Assemble a store from shared training state (+ optional
    pre-encoded codes, e.g. a shared-arena view)."""
    if kind == "flat":
        return FlatStore(metric, points, **(options or {}))
    if codes is None:
        codes = encode_with_params(kind, params, points)
    return SQ8Store(metric, params, codes, options=options, trained_on=trained_on)


def store_from_arrays(
    spec: dict[str, Any], arrays: dict[str, np.ndarray], metric: Any, points: Any
) -> VectorStore:
    """Inverse of ``store.spec()`` + ``store.arrays()`` — the load path
    of persistence format v4 and v5, of sharded manifests' shard files
    and of worker shard payloads."""
    kind = spec.get("kind", "flat")
    if kind == "flat":
        return FlatStore(metric, points, dtype=spec.get("dtype", "float64"))
    if kind == "sq8":
        params = SQ8Params(
            minv=np.asarray(arrays["minv"], dtype=np.float64),
            scale=np.asarray(arrays["scale"], dtype=np.float64),
        )
        return SQ8Store(
            metric,
            params,
            np.asarray(arrays["codes"], dtype=np.uint8),
            options=spec.get("options"),
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
