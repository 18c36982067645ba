"""The net hierarchy ``Y_0, ..., Y_h`` of Section 2.1 (equation (2)).

The G_net construction needs, for each level ``i in [0, h]``, a ``2^i``-net
``Y_i`` of ``P``.  The paper invokes Har-Peled & Mendel [15] to compute all
levels in ``O(n log(n Delta))`` time.  We substitute a single
farthest-point (Gonzalez) traversal, which yields **all** levels at once:

    Let ``p_1, p_2, ...`` be the traversal order and ``d_k`` the distance
    of ``p_k`` to ``{p_1, .., p_{k-1}}`` at selection time (``d_1 = inf``).
    The ``d_k`` are non-increasing, and for any ``r`` the prefix
    ``{p_1, .., p_k}`` with ``d_k >= r > d_{k+1}`` is an r-net of ``P``:

    * separation — each prefix point was ``>= d_k >= r`` from all earlier
      points when chosen;
    * covering — every non-prefix point is within ``d_{k+1} < r`` of the
      prefix (the traversal always picks the farthest remaining point).

Consequently the levels are *nested* (``Y_h ⊆ ... ⊆ Y_0``), which the
paper does not require but G_net exploits: with ``top(y)`` the highest
level holding ``y`` and radii doubling per level, ``(p, y)`` is an edge
iff ``D(p, y) <= phi * 2^top(y)``, and the row ``D(y, .)`` is computed
anyway when ``y`` is selected — so, given ``phi``, the traversal records
every edge into ``y`` (see :mod:`repro.graphs.gnet`).  The traversal
costs ``O(n^2)`` scalar distance evaluations (vectorized row-at-a-time)
against [15]'s ``O(n log(n Delta))``.  The substitution is safe because
the proofs of Section 2 consume nothing about ``Y_i`` beyond the two
r-net properties shown above — only the hierarchy's build time differs.

Which traversal runs: for ``(n, d)`` float64 points under (scaled) L2 or
L_inf, one C pass per point (:func:`repro.accel.dispatch.run_traverse`)
wherever the cffi backend loads and passes its self-check, with no flag.
Any other metric (L3, trees, matrices, a counting wrapper) or layout, or a
box without cffi, runs :func:`farthest_point_order`: the numpy loop, and
the reference the compiled pass is pinned against.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from repro.metrics.base import Dataset

__all__ = ["NetHierarchy", "farthest_point_order"]


def farthest_point_order(
    dataset: Dataset,
    start: int = 0,
    visit: Callable[[int, np.ndarray, float], None] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Gonzalez farthest-point traversal of the whole dataset.

    Returns ``(order, insertion_distances)`` where ``order`` is a
    permutation of ``0..n-1`` and ``insertion_distances[k]`` is the
    distance of ``order[k]`` to the first ``k`` points at selection time
    (``inf`` for the first point).  Ties are broken toward the smaller
    point id, making the traversal deterministic.  ``visit(y, row,
    insertion)``, if given, is called with each selected point, its row
    ``D(y, .)`` over all points and its insertion distance, in order.
    """
    n = dataset.n
    order = np.empty(n, dtype=np.intp)
    insertion = np.empty(n, dtype=np.float64)
    cover = np.full(n, np.inf)

    current = int(start)
    for k in range(n):
        order[k] = current
        insertion[k] = cover[current]
        d = dataset.distances_from_index_to_all(current)
        np.minimum(cover, d, out=cover)
        cover[current] = -np.inf  # never re-selected
        if visit is not None:
            visit(current, d, float(insertion[k]))
        if k + 1 < n:
            current = int(np.argmax(cover))
    return order, insertion


def _derived_height(max_finite: float) -> int:
    if max_finite <= 0:
        raise ValueError("degenerate dataset: all points identical")
    return max(1, math.ceil(math.log2(2.0 * max_finite)))


class NetHierarchy:
    """All nets ``Y_0 .. Y_h`` of a dataset, as prefixes of one traversal.

    Parameters
    ----------
    dataset:
        A dataset normalized so the minimum inter-point distance is at
        least 2 (Section 2.1's convention); then ``Y_0 = P`` holds by
        definition and the hierarchy is exactly the paper's.
    height:
        ``h = ceil(log2 diam(P))`` (equation (1)).  If omitted it is
        derived from the largest insertion distance (which equals the
        eccentricity of the start point, a 2-approximation of the
        diameter, so the derived ``h`` may exceed the exact one by 1 —
        harmless: top levels just repeat the singleton net).  The start
        point's row holds that distance, so ``h`` is known after one row.
    phi:
        If given, the G_net radius factor: while each net point ``y`` is
        selected, record its in-neighbours ``{p != y : D(p, y) <= phi *
        2^top(y)}`` for :meth:`take_in_edges`.  Points in no level get
        none.
    """

    def __init__(
        self,
        dataset: Dataset,
        height: int | None = None,
        start: int = 0,
        phi: float | None = None,
    ):
        self.dataset = dataset
        self._height = height
        self._phi = phi
        self._in_parts: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        from repro.accel import dispatch

        compiled = dispatch.run_traverse(dataset, start, height, phi)
        if compiled is None:
            self.order, self.insertion_distances = farthest_point_order(
                dataset, start, visit=None if phi is None else self._record_in_edges
            )
        else:
            self.order, self.insertion_distances, in_edges = compiled
            if in_edges is not None:
                self._in_parts.append(in_edges)
        finite = self.insertion_distances[1:]
        self._max_finite = float(finite.max()) if len(finite) else 0.0
        self.height = int(height if height is not None else _derived_height(self._max_finite))

        # prefix_len[i] = |Y_i| = number of traversal points with insertion
        # distance >= 2^i.
        self._prefix_len = np.array(
            [np.count_nonzero(self.insertion_distances >= float(2**i))
             for i in range(self.height + 1)],
            dtype=np.intp,
        )
        if self._prefix_len.min() < 1:
            raise ValueError("every net level must contain at least one point")

        # Traversal position k lies in Y_i iff k < prefix_len[i], and
        # prefix_len falls with i: the count of levels holding k, minus one.
        held = np.searchsorted(-self._prefix_len, -np.arange(dataset.n), side="left")
        self.top_level = np.empty(dataset.n, dtype=np.intp)
        self.top_level[self.order] = np.maximum(held - 1, 0)

    def _record_in_edges(self, y: int, row: np.ndarray, insertion: float) -> None:
        """``visit`` hook of the traversal: keep the pairs ``(p, y)``,
        ``p != y``, with ``D(p, y) <= phi * 2^top(y)`` from ``y``'s row."""
        if insertion < 1.0:
            return  # in no level: below Y_0 (only without normalization)
        if insertion == math.inf and self._height is None:
            # The start point comes first; the largest finite insertion
            # distance is its row's maximum over the other points (the
            # point the traversal picks next), so h is known from here on.
            self._height = _derived_height(float(np.delete(row, y).max()))
        top = self._height
        if insertion < math.inf:  # largest i with 2^i <= insertion, at most h
            top = min(math.frexp(insertion)[1] - 1, top)
        within = row <= self._phi * float(2**top)
        within[y] = False  # not its own in-neighbour
        sources = within.nonzero()[0]
        self._in_parts.append((sources, np.full(len(sources), y, dtype=np.intp), row[sources]))

    def take_in_edges(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The recorded G_net edges ``p -> y`` as ``(sources, targets,
        distances)`` arrays, grouped by target in traversal order, sources
        ascending within a target; the record is released."""
        parts, self._in_parts = self._in_parts, []
        if not parts:
            raise ValueError("no in-edges recorded: pass phi, and take them once")
        if len(parts) == 1:
            return parts[0]
        sources, targets, distances = map(np.concatenate, zip(*parts))
        return sources, targets, distances

    # ------------------------------------------------------------------

    @property
    def max_insertion_distance(self) -> float:
        """Largest finite insertion distance = eccentricity of the start
        point, a 2-approximation of ``diam(P)`` from below."""
        return self._max_finite

    def level(self, i: int) -> np.ndarray:
        """Point ids of the ``2^i``-net ``Y_i`` (a traversal prefix)."""
        if not 0 <= i <= self.height:
            raise ValueError(f"level {i} outside [0, {self.height}]")
        return self.order[: self._prefix_len[i]]

    def level_size(self, i: int) -> int:
        if not 0 <= i <= self.height:
            raise ValueError(f"level {i} outside [0, {self.height}]")
        return int(self._prefix_len[i])

    def net_for_radius(self, r: float) -> np.ndarray:
        """Prefix that forms an r-net of ``P`` for an arbitrary ``r > 0``."""
        if r <= 0:
            raise ValueError("net radius must be positive")
        k = int(np.count_nonzero(self.insertion_distances >= r))
        return self.order[: max(k, 1)]

    @property
    def levels(self) -> list[np.ndarray]:
        """All levels ``[Y_0, ..., Y_h]``."""
        return [self.level(i) for i in range(self.height + 1)]

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        sizes = ", ".join(str(self.level_size(i)) for i in range(self.height + 1))
        return f"NetHierarchy(h={self.height}, sizes=[{sizes}])"
