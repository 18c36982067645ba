"""Dynamic cover tree — our stand-in for the Cole–Gottlieb structure [20].

The Section 2.4 build algorithm needs a fully dynamic structure ``T`` over
the current net ``Y_i`` answering 2-ANN queries with insertions and
deletions (``t_qry``, ``t_upd``).  Cover trees (Beygelzimer, Kakade &
Langford) provide exactly that contract on bounded-doubling metrics.  The
substitution is safe because the build algorithm uses ``T`` only through
that contract: an exact nearest neighbour (what this tree returns) is in
particular a 2-ANN, so the retrieval loop's stopping rule holds verbatim
and the edge set is the definition's; only ``t_qry``/``t_upd`` — the
build time, not the graph — depend on which structure stands behind it.

Representation (implicit/nested form)
-------------------------------------
``C_i`` denotes the node set at level ``i``; a point with *top level*
``t`` belongs to every ``C_i`` with ``i <= t`` (implicit self-children).
Invariants:

* **covering** — an explicit child at level ``j`` is within ``2^(j+1)`` of
  its parent (which belongs to ``C_(j+1)``);
* **separation** — points of ``C_i`` are pairwise ``> 2^i`` apart;
* consequently the *subtree radius* of a node regarded at level ``j`` is
  at most ``2^j + 2^(j-1) + ... = 2^(j+1)``, the bound all query pruning
  uses.  Query **exactness** only needs the covering invariant, so it is
  robust even where separation analysis gets delicate.

Deletions are handled by *tombstoning*: a deleted point stays in the tree
as a routing node (all invariants keep holding) but is never reported; the
tree is rebuilt from live points whenever tombstones outnumber them.  The
Section 2.4 loop deletes points only to immediately re-insert them, which
this makes O(1).
"""

from __future__ import annotations

import math
from typing import Any

import numpy as np

from repro.anns.base import DynamicANN
from repro.metrics.base import Dataset

__all__ = ["CoverTree"]


class CoverTree(DynamicANN):
    """Dynamic cover tree over dataset point ids."""

    def __init__(self, dataset: Dataset, point_ids: Any = ()):
        super().__init__(dataset)
        self.root: int | None = None
        self.root_level: int = 0
        self.min_level: int = 0
        # (parent_id, child_level) -> list of explicit child ids.
        self._children: dict[tuple[int, int], list[int]] = {}
        self._top_level: dict[int, int] = {}
        self._dead: set[int] = set()
        self.insert_many(point_ids)

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------

    def insert(self, point_id: int) -> None:
        point_id = int(point_id)
        if not 0 <= point_id < self.dataset.n:
            raise ValueError(f"point id {point_id} out of range")
        if point_id in self._dead:
            # Cheap resurrection: the tombstoned routing node is already a
            # correctly-placed copy of this exact point.
            self._dead.remove(point_id)
            return
        if point_id in self._top_level:
            raise ValueError(f"point {point_id} already stored")

        if self.root is None:
            self.root = point_id
            self.root_level = 0
            self.min_level = 0
            self._top_level[point_id] = 0
            return

        d_root = self.dataset.distance(point_id, self.root)
        if d_root == 0.0:
            raise ValueError(
                f"point {point_id} duplicates stored point {self.root}"
            )
        # Grow the root's level until it covers the new point.
        while d_root > float(2**self.root_level):
            self.root_level += 1
            self._top_level[self.root] = self.root_level

        # Descend, collecting frames for the unwind phase.
        frames: list[tuple[np.ndarray, np.ndarray, int]] = []
        level = self.root_level
        q_ids = np.array([self.root], dtype=np.intp)
        q_dists = np.array([d_root])
        while True:
            frames.append((q_ids, q_dists, level))
            cand = self._children_with_self(q_ids, level - 1)
            dists = self.dataset.distances_from_index(point_id, cand)
            if float(dists.min()) == 0.0:
                dup = int(cand[int(np.argmin(dists))])
                raise ValueError(f"point {point_id} duplicates stored point {dup}")
            if float(dists.min()) > float(2 ** level):
                break
            keep = dists <= float(2**level)
            q_ids, q_dists = cand[keep], dists[keep]
            level -= 1

        # Unwind from the deepest frame: attach to any covering node.
        for q_ids, q_dists, lvl in reversed(frames):
            j = int(np.argmin(q_dists))
            if float(q_dists[j]) <= float(2**lvl):
                self._attach(int(q_ids[j]), point_id, lvl - 1)
                return
        raise AssertionError("unreachable: root level was grown to cover the point")

    def _attach(self, parent: int, child: int, child_level: int) -> None:
        self._children.setdefault((parent, child_level), []).append(child)
        self._top_level[child] = child_level
        self.min_level = min(self.min_level, child_level)

    def delete(self, point_id: int) -> None:
        point_id = int(point_id)
        if point_id not in self._top_level or point_id in self._dead:
            raise KeyError(f"point {point_id} is not stored")
        self._dead.add(point_id)
        if len(self._dead) > len(self._top_level) - len(self._dead):
            self.rebuild()

    def rebuild(self) -> None:
        """Rebuild the tree from live points, dropping all tombstones."""
        live = [p for p in self._top_level if p not in self._dead]
        self.root = None
        self.root_level = 0
        self.min_level = 0
        self._children.clear()
        self._top_level.clear()
        self._dead.clear()
        self.insert_many(live)

    # ------------------------------------------------------------------
    # Traversal helpers
    # ------------------------------------------------------------------

    def _children_with_self(self, q_ids: np.ndarray, child_level: int) -> np.ndarray:
        """Nodes of ``C_child_level`` reachable from ``q_ids``: the nodes
        themselves (implicit self-children) plus explicit children."""
        out: list[int] = list(map(int, q_ids))
        for q in out[: len(q_ids)]:
            out.extend(self._children.get((q, child_level), ()))
        return np.array(out, dtype=np.intp)

    def _is_live(self, ids: np.ndarray) -> np.ndarray:
        if not self._dead:
            return np.ones(len(ids), dtype=bool)
        return np.array([int(i) not in self._dead for i in ids], dtype=bool)

    # ------------------------------------------------------------------
    # Queries (exact; rely only on the covering invariant)
    # ------------------------------------------------------------------

    def nearest(self, query: Any) -> tuple[int, float] | None:
        if len(self) == 0:
            return None
        best_id, best_d = -1, math.inf
        q_ids = np.array([self.root], dtype=np.intp)
        dists = self.dataset.distances_to_query(query, q_ids)
        if self.root not in self._dead:
            best_id, best_d = int(self.root), float(dists[0])
        level = self.root_level
        while level > self.min_level and len(q_ids) > 0:
            cand = self._children_with_self(q_ids, level - 1)
            dists = self.dataset.distances_to_query(query, cand)
            live = self._is_live(cand)
            if live.any():
                masked = np.where(live, dists, np.inf)
                j = int(np.argmin(masked))
                if float(masked[j]) < best_d:
                    best_id, best_d = int(cand[j]), float(masked[j])
            # Subtree radius at level - 1 is 2^level.
            keep = dists <= best_d + float(2**level)
            q_ids = cand[keep]
            level -= 1
        return (best_id, best_d) if best_id >= 0 else None

    def knn(self, query: Any, k: int) -> list[tuple[int, float]]:
        k = int(k)
        if k <= 0 or len(self) == 0:
            return []
        found: list[tuple[float, int]] = []  # (dist, id), kept sorted, <= k long
        offered: set[int] = set()  # implicit self-children recur per level

        def offer(ids: np.ndarray, dists: np.ndarray) -> None:
            live = self._is_live(ids)
            for i, d in zip(ids[live], dists[live]):
                if int(i) not in offered:
                    offered.add(int(i))
                    found.append((float(d), int(i)))
            found.sort()
            del found[k:]

        def kth_bound() -> float:
            return found[-1][0] if len(found) == k else math.inf

        q_ids = np.array([self.root], dtype=np.intp)
        dists = self.dataset.distances_to_query(query, q_ids)
        offer(q_ids, dists)
        level = self.root_level
        while level > self.min_level and len(q_ids) > 0:
            cand = self._children_with_self(q_ids, level - 1)
            dists = self.dataset.distances_to_query(query, cand)
            offer(cand, dists)
            keep = dists <= kth_bound() + float(2**level)
            q_ids = cand[keep]
            level -= 1
        return [(i, d) for d, i in found]

    def range_search(self, query: Any, radius: float) -> list[tuple[int, float]]:
        if len(self) == 0:
            return []
        hits: list[tuple[int, float]] = []
        q_ids = np.array([self.root], dtype=np.intp)
        dists = self.dataset.distances_to_query(query, q_ids)
        if self.root not in self._dead and float(dists[0]) <= radius:
            hits.append((int(self.root), float(dists[0])))
        level = self.root_level
        while level > self.min_level and len(q_ids) > 0:
            cand = self._children_with_self(q_ids, level - 1)
            dists = self.dataset.distances_to_query(query, cand)
            live = self._is_live(cand)
            close = dists <= radius
            hits.extend(
                (int(i), float(d)) for i, d in zip(cand[live & close], dists[live & close])
            )
            keep = dists <= radius + float(2**level)
            q_ids = cand[keep]
            level -= 1
        # The loop re-reports implicit self-children once per level; dedup.
        seen: set[int] = set()
        unique = []
        for i, d in hits:
            if i not in seen:
                seen.add(i)
                unique.append((i, d))
        return self._as_sorted(unique)

    def __len__(self) -> int:
        return len(self._top_level) - len(self._dead)

    # ------------------------------------------------------------------
    # Validation (test support)
    # ------------------------------------------------------------------

    def check_invariants(self) -> None:
        """Raise ``AssertionError`` on any structural invariant violation.

        Quadratic in stored points; intended for tests.
        """
        if self.root is None:
            if self._top_level:
                raise AssertionError("rootless tree with stored points")
            return
        for (parent, child_level), kids in self._children.items():
            if self._top_level[parent] < child_level + 1:
                raise AssertionError(
                    f"parent {parent} not present at level {child_level + 1}"
                )
            for c in kids:
                if self._top_level[c] != child_level:
                    raise AssertionError(
                        f"child {c} top level {self._top_level[c]} != {child_level}"
                    )
                d = self.dataset.distance(parent, c)
                if d > float(2 ** (child_level + 1)):
                    raise AssertionError(
                        f"covering violated: D({parent},{c})={d} at level {child_level}"
                    )
        by_level: dict[int, list[int]] = {}
        for p, t in self._top_level.items():
            for lvl in range(self.min_level, t + 1):
                by_level.setdefault(lvl, []).append(p)
        for lvl, members in by_level.items():
            arr = np.array(members, dtype=np.intp)
            for a in range(len(arr)):
                d = self.dataset.distances_from_index(int(arr[a]), arr[a + 1 :])
                if (d <= float(2**lvl)).any():
                    b = int(arr[a + 1 :][int(np.argmin(d))])
                    raise AssertionError(
                        f"separation violated at level {lvl}: "
                        f"D({int(arr[a])},{b}) = {d.min()} <= 2^{lvl}"
                    )
