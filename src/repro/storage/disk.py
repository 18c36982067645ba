"""``DiskTierStore`` — the two-tier wrapper behind beyond-RAM indexes.

The DiskANN observation, applied to this stack: graph traversal only
ever needs the *compact* representation (quantized codes, or the raw
rows for flat storage) plus the CSR adjacency, while the full-precision
vectors are touched exactly once per query — by the exact-rerank pass
over the over-fetched candidate pool.  So a persisted index can keep
its **hot tier** (codes + adjacency) resident and leave its **cold
tier** (the float64 ``vectors.bin``) on disk behind an ``np.memmap``,
and still answer bit-identically to the in-RAM index.

:class:`DiskTierStore` is the load-time wrapper persistence format v5
installs (see :mod:`repro.core.persistence`): it delegates the whole
:class:`~repro.storage.base.VectorStore` traversal surface to an inner
SQ8/flat store — same ``kind``, same ``codes``, same ``bind`` — so
the engines and ``store.spec()`` round-trips are all unchanged (the
accel planner hands the compiled rerank ``vectors``), and overrides
exactly the two behaviors where disk residency matters:

* :meth:`rerank_distances`, the numpy rerank, gathers candidate rows
  from the cold tier in **ascending file-offset order** (one forward
  sweep over the mapping, minimizing page faults and readahead waste)
  and scatters the distances back to candidate order — bit-identical to
  the direct fancy-index because the distance kernel is row-wise;
* :meth:`refresh` **unwraps**: ``add()`` concatenates the memmap with
  the new rows into a fresh RAM array (copy-on-write materialization —
  nothing is ever written through the mapping), after which the cold
  tier no longer backs the collection and the inner store alone is the
  right store to install.

With flat inner storage there is no hot/cold split — traversal reads
the raw rows, i.e. the cold tier itself — so the wrapper still works
but every hop may fault a page; prefer ``sq8`` storage for indexes
that exceed RAM.
"""

from __future__ import annotations

import mmap as _mmap
from typing import Any

import numpy as np

from repro.storage.base import QueryDistanceView, VectorStore, exact_distances

__all__ = ["DiskTierStore", "advise_memmap"]


def advise_memmap(arr: Any, pattern: str) -> bool:
    """Best-effort ``madvise`` hint on a memmap-backed array.

    ``pattern`` is ``"random"`` (rerank gathers scattered rows — don't
    waste readahead) or ``"sequential"`` (a full forward sweep, e.g. a
    re-save).  Returns whether a hint was actually issued: the private
    ``._mmap`` handle and ``mmap.madvise`` both exist only on some
    platforms/numpy builds, and a plain ndarray (post-``refresh`` RAM
    tier) has neither — every miss is a silent no-op by design.
    """
    handle = getattr(arr, "_mmap", None)
    if handle is None or not hasattr(handle, "madvise"):
        return False
    advice = {
        "random": getattr(_mmap, "MADV_RANDOM", None),
        "sequential": getattr(_mmap, "MADV_SEQUENTIAL", None),
    }.get(pattern)
    if advice is None:
        return False
    try:
        handle.madvise(advice)
    except (OSError, ValueError):  # pragma: no cover - platform quirk
        return False
    return True


class DiskTierStore(VectorStore):
    """Two-tier store: inner (hot) codes + memory-mapped (cold) vectors.

    Built by the v5 loader, never by ``make_store`` — ``kind`` reports
    the *inner* kind so every consumer that dispatches on it (the accel
    planner, ``spec()`` round-trips, stats) sees the store it already
    knows.  ``vectors`` is the full-precision row array backing the
    exact-rerank stage; normally the read-only ``np.memmap`` over
    ``vectors.bin``, rebound to a plain RAM array the first time a
    mutation materializes the collection.
    """

    def __init__(self, inner: VectorStore, vectors: Any) -> None:
        if isinstance(inner, DiskTierStore):
            raise ValueError("DiskTierStore cannot wrap another DiskTierStore")
        if len(vectors) != inner.n:
            raise ValueError(
                f"cold tier holds {len(vectors)} vectors but the inner "
                f"store encodes {inner.n}"
            )
        self.inner = inner
        self.vectors = vectors
        # Rerank gathers are scattered even in ascending order; tell the
        # kernel not to read ahead aggressively.
        advise_memmap(vectors, "random")

    # -- delegated traversal surface ------------------------------------
    # Plain attribute delegation keeps the wrapper invisible: the accel
    # planner reads kind/codes/params/metric, persistence reads
    # spec()/arrays(), stats reads the accounting trio.

    @property
    def kind(self) -> str:  # type: ignore[override]
        return self.inner.kind

    @property
    def is_quantized(self) -> bool:  # type: ignore[override]
        return self.inner.is_quantized

    @property
    def default_rerank_factor(self) -> int:  # type: ignore[override]
        return self.inner.default_rerank_factor

    @property
    def drift(self) -> int:  # type: ignore[override]
        return self.inner.drift

    @property
    def metric(self) -> Any:
        return self.inner.metric  # type: ignore[attr-defined]

    @property
    def params(self) -> Any:
        return self.inner.params  # type: ignore[attr-defined]

    def bind(self, Q: Any) -> QueryDistanceView:
        return self.inner.bind(Q)

    @property
    def n(self) -> int:
        return self.inner.n

    def traversal_bytes_per_vector(self) -> float:
        return self.inner.traversal_bytes_per_vector()

    def aux_bytes(self) -> int:
        return self.inner.aux_bytes()

    @property
    def codes(self) -> np.ndarray | None:
        return self.inner.codes

    def spec(self) -> dict[str, Any]:
        return self.inner.spec()

    def param_arrays(self) -> dict[str, np.ndarray]:
        return self.inner.param_arrays()

    def arrays(self) -> dict[str, np.ndarray]:
        return self.inner.arrays()

    def summary(self) -> dict[str, Any]:
        out = self.inner.summary()
        out["disk_backed"] = isinstance(self.vectors, np.memmap)
        return out

    # -- the disk-aware overrides ---------------------------------------

    def rerank_distances(self, dataset: Any, q: Any, cand: np.ndarray) -> np.ndarray:
        """Exact distances via an ascending-offset cold-tier gather.

        Sorting the candidate ids turns the rerank's page accesses into
        one forward sweep over ``vectors.bin``; the distances are
        scattered back to the caller's candidate order, so the result is
        bit-identical to the in-RAM store's (:func:`exact_distances` is
        row-wise — row order cannot change any row's float).
        """
        order = cand.argsort(kind="stable")
        # Index a plain-ndarray view of the mapping: the same pages, but
        # the gather skips np.memmap's per-result subclass bookkeeping.
        gathered = np.asarray(self.vectors)[cand[order]]
        out = np.empty(len(order), dtype=np.float64)
        out[order] = exact_distances(dataset.metric, q, gathered)
        return out

    def clone(self) -> "DiskTierStore":
        out = DiskTierStore.__new__(DiskTierStore)
        out.inner = self.inner.clone()
        out.vectors = self.vectors
        return out

    # -- collection lifecycle -------------------------------------------

    def refresh(self, dataset: Any, added: int) -> VectorStore:
        # add() already rebuilt dataset.points as a RAM concatenation of
        # the mapped rows and the new ones (copy-on-write; the mapping
        # is opened read-only and is never written through).  The cold
        # tier therefore no longer backs the collection: hand the index
        # the refreshed inner store and drop the wrapper.
        return self.inner.refresh(dataset, added)

    def retrained(self, dataset: Any) -> VectorStore:
        return self.inner.retrained(dataset)
