"""Directed proximity-graph container: one read-only CSR.

A proximity graph in the paper is a simple directed graph whose vertices
correspond one-to-one to the data points of ``P`` (Section 1.1).  Every
graph here is a fixed edge set held as flat CSR: ``offsets``, the
``(n+1,)`` int64 row pointers, and ``targets``, the int32 neighbor ids
with each row strictly increasing and free of self-loops.  A vertex id
fits in 4 bytes, so a graph has fewer than ``2**31`` vertices
(:func:`check_vertex_count`); the edge count may pass ``2**31``, so the
offsets stay 8 bytes wide.  The batch query engines
(:mod:`repro.graphs.engine`) and the compiled kernels gather from these
two arrays, and a saved index stores them verbatim
(:mod:`repro.core.persistence`).

Both arrays are read-only and no method changes a graph, so one graph
can be shared by index snapshots, threads and serving generations.
Builders hand their finished rows to the constructor, or their CSR to
:meth:`ProximityGraph.from_csr`.  The one edit made to a finished graph
is dropping some of its edges: failure injection, the lower-bound
adversary's pruned graphs and Section 5's source sampling all go through
:meth:`ProximityGraph.without_edges`, which returns a new graph.
"""

from __future__ import annotations

import json
from typing import Any, Iterable, Iterator

import numpy as np

__all__ = ["MAX_VERTICES", "ProximityGraph", "check_vertex_count"]

#: A graph holds fewer vertices than this: its targets are int32.
MAX_VERTICES = 2**31


def check_vertex_count(n: int) -> None:
    """Refuse a vertex count whose ids do not fit the int32 targets."""
    if n >= MAX_VERTICES:
        raise ValueError(
            f"n={n} vertices: vertex ids are int32, so a graph holds at "
            f"most {MAX_VERTICES - 1} vertices"
        )


def _read_only(a: np.ndarray) -> np.ndarray:
    view = a.view()
    view.flags.writeable = False
    return view


def _row_ids(row: Any) -> np.ndarray:
    if isinstance(row, (list, tuple, np.ndarray)):
        return np.asarray(row, dtype=np.intp)
    return np.fromiter(row, dtype=np.intp)  # a set, or any other iterable


def _csr_of_pairs(
    n: int, sources: np.ndarray, targets: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """CSR of the ``(source, target)`` pairs: range check, one ``lexsort``
    by (source, target), then duplicates and self-loops dropped.  The
    pairs may come in any integer width; the targets leave as int32."""
    bad = (sources < 0) | (sources >= n) | (targets < 0) | (targets >= n)
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError(f"edge ({sources[i]}, {targets[i]}) out of range for n={n}")
    order = np.lexsort((targets, sources))
    sources, targets = sources[order], targets[order]
    keep = targets != sources
    keep[1:] &= (targets[1:] != targets[:-1]) | (sources[1:] != sources[:-1])
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(sources[keep], minlength=n), out=offsets[1:])
    return offsets, targets[keep].astype(np.int32)


class ProximityGraph:
    """Out-adjacency of a simple directed graph on vertices ``0..n-1``.

    ``ProximityGraph(n, rows)`` takes one list, set or array of neighbor
    ids per vertex (``rows=None`` gives the edgeless graph) and builds
    the CSR in one vectorised pass.  Self-loops are dropped (a self-loop
    target is never strictly closer to the query, so it can never help
    ``greedy``) and parallel edges collapse.  Rows are sorted by id,
    which fixes greedy's smallest-id tie-breaking and makes membership
    tests binary searches.
    """

    def __init__(self, n: int, rows: Iterable[Any] | None = None):
        if n < 1:
            raise ValueError("graph needs at least one vertex")
        n = int(n)
        check_vertex_count(n)
        if rows is None:
            self._adopt(n, np.zeros(n + 1, dtype=np.int64), np.empty(0, dtype=np.int32))
            return
        arrays = [_row_ids(r) for r in rows]
        if len(arrays) != n:
            raise ValueError("out_neighbors length must equal n")
        sources = np.repeat(np.arange(n, dtype=np.intp), [len(a) for a in arrays])
        self._adopt(n, *_csr_of_pairs(n, sources, np.concatenate(arrays)))

    def _adopt(self, n: int, offsets: np.ndarray, targets: np.ndarray) -> None:
        self.n = n
        self._offsets = _read_only(offsets)
        self._targets = _read_only(targets)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def from_edge_list(cls, n: int, edges: Iterable[tuple[int, int]]) -> "ProximityGraph":
        """Build from ``(u, v)`` pairs (duplicates and self-loops dropped)."""
        pairs = np.asarray(list(edges), dtype=np.intp).reshape(-1, 2)
        return cls.from_csr(n, *_csr_of_pairs(n, pairs[:, 0], pairs[:, 1]), validate=False)

    @classmethod
    def from_csr(
        cls, n: int, offsets: np.ndarray, targets: np.ndarray, validate: bool = True
    ) -> "ProximityGraph":
        """Adopt CSR arrays directly, without copying them.

        ``offsets`` must be the ``(n+1,)`` row-pointer array and
        ``targets`` the flat neighbor ids; each row must already be
        strictly increasing with no self-loops (the container invariant).
        int64 offsets and int32 targets are adopted as they are; any other
        integer width is converted once (validated first, if asked).
        """
        check_vertex_count(n)
        offsets = np.ascontiguousarray(offsets, dtype=np.int64)
        targets = np.ascontiguousarray(targets)
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
        graph._adopt(int(n), offsets, np.ascontiguousarray(targets, dtype=np.int32))
        return graph

    def csr(self) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(offsets, targets)``: read-only views of the storage."""
        return self._offsets, self._targets

    # ------------------------------------------------------------------
    # Adjacency access
    # ------------------------------------------------------------------

    def out_neighbors(self, u: int) -> np.ndarray:
        return self._targets[self._offsets[u] : self._offsets[u + 1]]

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
        return int(self._offsets[-1])

    def out_degrees(self) -> np.ndarray:
        return np.diff(self._offsets).astype(np.intp)

    def max_out_degree(self) -> int:
        return int(self.out_degrees().max())

    def mean_out_degree(self) -> float:
        return float(self.out_degrees().mean())

    def min_out_degree(self) -> int:
        return int(self.out_degrees().min())

    # ------------------------------------------------------------------

    def without_edges(self, drop: np.ndarray) -> "ProximityGraph":
        """A new graph without the edges that ``drop`` selects.

        ``drop`` is a boolean mask over ``targets`` (one entry per edge,
        in CSR order).  Every vertex stays; this graph is untouched.
        """
        drop = np.asarray(drop, dtype=bool)
        if drop.shape != self._targets.shape:
            raise ValueError("drop must be a boolean mask with one entry per edge")
        kept_before = np.concatenate([[0], np.cumsum(~drop)])
        return ProximityGraph.from_csr(
            self.n, kept_before[self._offsets], self._targets[~drop], validate=False
        )

    def merge(self, other: "ProximityGraph") -> "ProximityGraph":
        """Edge-union with another graph on the same vertex set — the
        merging operation of Section 5.2 (out-edge set of each point is
        the union of those in the two graphs)."""
        if other.n != self.n:
            raise ValueError("cannot merge graphs with different vertex counts")
        sources = np.repeat(
            np.tile(np.arange(self.n, dtype=np.intp), 2),
            np.concatenate([self.out_degrees(), other.out_degrees()]),
        )
        targets = np.concatenate([self._targets, other._targets])
        return ProximityGraph.from_csr(
            self.n, *_csr_of_pairs(self.n, sources, targets), validate=False
        )

    def subgraph_of_sources(self, sources: np.ndarray) -> "ProximityGraph":
        """Keep only out-edges of the given source vertices (all vertices
        remain) — the vertex-sampling step of Section 5."""
        keep = np.zeros(self.n, dtype=bool)
        keep[np.asarray(sources, dtype=np.intp)] = True
        return self.without_edges(np.repeat(~keep, self.out_degrees()))

    def copy(self) -> "ProximityGraph":
        return ProximityGraph.from_csr(
            self.n, self._offsets.copy(), self._targets.copy(), validate=False
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ProximityGraph):
            return NotImplemented
        # Sorted-unique rows make CSR canonical: two array compares.
        return (
            self.n == other.n
            and np.array_equal(self._offsets, other._offsets)
            and np.array_equal(self._targets, other._targets)
        )

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"ProximityGraph(n={self.n}, edges={self.num_edges})"

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
