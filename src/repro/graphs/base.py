"""Directed proximity-graph container, CSR-native.

A proximity graph in the paper is a simple directed graph whose vertices
correspond one-to-one to the data points of ``P`` (Section 1.1).  The
container has two physical states:

* **mutable** — one sorted ``numpy`` id array per vertex, the buffer
  builders append into while constructing;
* **frozen** — flat CSR storage (``offsets``/``targets``), the canonical
  form every finished graph lives in.  Frozen adjacency is what the
  batch query engine (:mod:`repro.graphs.engine`) gathers from, and
  what a saved index stores verbatim (:mod:`repro.core.persistence`).

``freeze()`` moves a graph into CSR in place; any mutating call on a
frozen graph transparently thaws it back into the per-vertex buffer, so
the public API (``out_neighbors``/``add_edges``/``set_out_neighbors``/
``merge``) behaves identically in both states.
"""

from __future__ import annotations

import json
from typing import Iterable, Iterator

import numpy as np

__all__ = ["ProximityGraph"]


class ProximityGraph:
    """Out-adjacency of a simple directed graph on vertices ``0..n-1``.

    Self-loops are rejected (they can never help ``greedy``: a self-loop
    target is never strictly closer to the query) and parallel edges are
    collapsed.  Per-vertex adjacency is always sorted by id, which fixes
    greedy's smallest-id tie-breaking and makes membership tests binary
    searches.
    """

    def __init__(self, n: int, out_neighbors: Iterable[np.ndarray] | None = None):
        if n < 1:
            raise ValueError("graph needs at least one vertex")
        self.n = int(n)
        self._offsets: np.ndarray | None = None
        self._targets: np.ndarray | None = None
        if out_neighbors is None:
            self._adj: list[np.ndarray] | None = [
                np.empty(0, dtype=np.intp) for _ in range(self.n)
            ]
        else:
            self._adj = [self._clean(u, nbrs) for u, nbrs in enumerate(out_neighbors)]
            if len(self._adj) != self.n:
                raise ValueError("out_neighbors length must equal n")

    def _clean(self, u: int, nbrs) -> np.ndarray:
        arr = np.unique(np.asarray(nbrs, dtype=np.intp))
        if len(arr) and (arr.min() < 0 or arr.max() >= self.n):
            raise ValueError(f"vertex {u}: neighbor id out of range")
        return arr[arr != u]

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def from_edge_list(cls, n: int, edges: Iterable[tuple[int, int]]) -> "ProximityGraph":
        """Build from ``(u, v)`` pairs (duplicates and self-loops dropped)."""
        buckets: list[list[int]] = [[] for _ in range(n)]
        for u, v in edges:
            buckets[int(u)].append(int(v))
        return cls(n, [np.array(b, dtype=np.intp) for b in buckets])

    @classmethod
    def from_sets(cls, n: int, sets: list[set[int]]) -> "ProximityGraph":
        return cls(n, [np.fromiter(s, dtype=np.intp, count=len(s)) for s in sets])

    @classmethod
    def from_csr(
        cls, n: int, offsets: np.ndarray, targets: np.ndarray, validate: bool = True
    ) -> "ProximityGraph":
        """Adopt CSR arrays directly (no per-row copies) as a frozen graph.

        ``offsets`` must be the ``(n+1,)`` row-pointer array and
        ``targets`` the flat neighbor ids; each row must already be
        strictly increasing with no self-loops (the container invariant).
        """
        offsets = np.ascontiguousarray(offsets, dtype=np.int64)
        targets = np.ascontiguousarray(targets, dtype=np.intp)
        if validate:
            if offsets.shape != (n + 1,) or offsets[0] != 0:
                raise ValueError("offsets must be (n+1,) starting at 0")
            if offsets[-1] != len(targets) or (np.diff(offsets) < 0).any():
                raise ValueError("offsets must be non-decreasing and span targets")
            if len(targets):
                if targets.min() < 0 or targets.max() >= n:
                    raise ValueError("neighbor id out of range")
                rows = np.repeat(np.arange(n, dtype=np.intp), np.diff(offsets))
                if (targets == rows).any():
                    raise ValueError("self-loop in CSR targets")
                same_row = rows[1:] == rows[:-1]
                if (np.diff(targets)[same_row] <= 0).any():
                    raise ValueError("CSR rows must be strictly increasing")
        graph = cls.__new__(cls)
        graph.n = int(n)
        graph._adj = None
        graph._offsets = offsets
        graph._targets = targets
        return graph

    # ------------------------------------------------------------------
    # Physical state: mutable buffer <-> frozen CSR
    # ------------------------------------------------------------------

    @property
    def frozen(self) -> bool:
        """``True`` when adjacency lives in flat CSR storage."""
        return self._adj is None

    def _build_csr(self) -> tuple[np.ndarray, np.ndarray]:
        assert self._adj is not None
        offsets = np.zeros(self.n + 1, dtype=np.int64)
        np.cumsum([len(a) for a in self._adj], out=offsets[1:])
        targets = (
            np.concatenate(self._adj).astype(np.intp, copy=False)
            if offsets[-1]
            else np.empty(0, dtype=np.intp)
        )
        return offsets, targets

    def freeze(self) -> "ProximityGraph":
        """Compact the per-vertex buffers into CSR, in place.

        Idempotent; returns ``self`` so builders can ``return
        graph.freeze()``.
        """
        if self._adj is not None:
            self._offsets, self._targets = self._build_csr()
            self._adj = None
        return self

    def thaw(self) -> "ProximityGraph":
        """Re-expand CSR into per-vertex buffers, in place (idempotent)."""
        if self._adj is None:
            assert self._offsets is not None and self._targets is not None
            self._adj = [
                self._targets[self._offsets[u] : self._offsets[u + 1]].copy()
                for u in range(self.n)
            ]
            self._offsets = self._targets = None
        return self

    def csr(self) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(offsets, targets)``, freezing in place if needed.

        The arrays are the live storage — callers must treat them as
        read-only.
        """
        self.freeze()
        assert self._offsets is not None and self._targets is not None
        return self._offsets, self._targets

    # ------------------------------------------------------------------
    # Adjacency access and mutation
    # ------------------------------------------------------------------

    def out_neighbors(self, u: int) -> np.ndarray:
        if self._adj is None:
            return self._targets[self._offsets[u] : self._offsets[u + 1]]
        return self._adj[u]

    def set_out_neighbors(self, u: int, nbrs) -> None:
        self.thaw()
        self._adj[u] = self._clean(u, nbrs)

    def add_edges(self, u: int, nbrs) -> None:
        self.thaw()
        self._adj[u] = self._clean(
            u, np.concatenate([self._adj[u], np.asarray(nbrs, dtype=np.intp)])
        )

    def has_edge(self, u: int, v: int) -> bool:
        # Adjacency is always sorted, so membership is a binary search.
        nbrs = self.out_neighbors(int(u))
        i = int(np.searchsorted(nbrs, int(v)))
        return i < len(nbrs) and int(nbrs[i]) == int(v)

    def edges(self) -> Iterator[tuple[int, int]]:
        for u in range(self.n):
            for v in self.out_neighbors(u):
                yield u, int(v)

    # ------------------------------------------------------------------

    @property
    def num_edges(self) -> int:
        if self._adj is None:
            return int(self._offsets[-1])
        return int(sum(len(a) for a in self._adj))

    def out_degrees(self) -> np.ndarray:
        if self._adj is None:
            return np.diff(self._offsets).astype(np.intp)
        return np.array([len(a) for a in self._adj], dtype=np.intp)

    def max_out_degree(self) -> int:
        return int(self.out_degrees().max())

    def mean_out_degree(self) -> float:
        return float(self.out_degrees().mean())

    def min_out_degree(self) -> int:
        return int(self.out_degrees().min())

    # ------------------------------------------------------------------

    def merge(self, other: "ProximityGraph") -> "ProximityGraph":
        """Edge-union with another graph on the same vertex set — the
        merging operation of Section 5.2 (out-edge set of each point is
        the union of those in the two graphs)."""
        if other.n != self.n:
            raise ValueError("cannot merge graphs with different vertex counts")
        merged = []
        for u in range(self.n):
            a, b = self.out_neighbors(u), other.out_neighbors(u)
            merged.append(np.union1d(a, b) if len(b) else a)
        return ProximityGraph(self.n, merged)

    def subgraph_of_sources(self, sources: np.ndarray) -> "ProximityGraph":
        """Keep only out-edges of the given source vertices (all vertices
        remain) — the vertex-sampling step of Section 5."""
        keep = np.zeros(self.n, dtype=bool)
        keep[np.asarray(sources, dtype=np.intp)] = True
        pruned = [
            self.out_neighbors(u) if keep[u] else np.empty(0, dtype=np.intp)
            for u in range(self.n)
        ]
        return ProximityGraph(self.n, pruned)

    def copy(self) -> "ProximityGraph":
        if self._adj is None:
            return ProximityGraph.from_csr(
                self.n, self._offsets.copy(), self._targets.copy(), validate=False
            )
        return ProximityGraph(self.n, [a.copy() for a in self._adj])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ProximityGraph):
            return NotImplemented
        if self.n != other.n:
            return False
        if self.frozen and other.frozen:
            # Sorted-unique rows make CSR canonical: two array compares.
            return np.array_equal(self._offsets, other._offsets) and np.array_equal(
                self._targets, other._targets
            )
        return all(
            np.array_equal(self.out_neighbors(u), other.out_neighbors(u))
            for u in range(self.n)
        )

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        state = "frozen" if self.frozen else "mutable"
        return f"ProximityGraph(n={self.n}, edges={self.num_edges}, {state})"

    def degree_histogram(self) -> dict[int, int]:
        values, counts = np.unique(self.out_degrees(), return_counts=True)
        return {int(v): int(c) for v, c in zip(values, counts)}

    def summary(self) -> dict:
        """Small JSON-friendly stats block used by benches and examples."""
        deg = self.out_degrees()
        return {
            "n": self.n,
            "edges": self.num_edges,
            "min_out_degree": int(deg.min()),
            "mean_out_degree": float(deg.mean()),
            "max_out_degree": int(deg.max()),
        }

    def summary_json(self) -> str:
        return json.dumps(self.summary(), indent=2)
