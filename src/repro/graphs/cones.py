"""Cone families covering ``R^d`` with bounded angular diameter.

Section 5.1 invokes Yao's construction [28]: a set ``C`` of
``O((1/theta)^(d-1))`` cones, each with apex at the origin and angular
diameter at most ``theta``, whose union is ``R^d``; each cone carries a
*designated ray*.  The proof of Lemma 5.1 uses exactly three properties:

1. the cones cover ``R^d``;
2. each cone's angular diameter is at most ``theta``;
3. the designated ray lies inside its cone.

We therefore substitute *circular* cones about a family of axis
directions whose spherical covering radius is ``theta / 2`` (every unit
vector is within angle ``theta/2`` of some axis); the designated ray of a
cone is its axis.  Angular diameter is then at most ``theta`` and all
three properties hold; circular cones overlap where Yao's partition
does not, which costs a constant factor in the cone count and nothing
in the proof.

Constructions:

* ``d = 1`` — two rays (half-lines), covering trivially;
* ``d = 2`` — ``k = ceil(2*pi/theta)`` exact sectors, tight;
* ``d >= 3`` — axes through a grid on the faces of the cube ``[-1,1]^d``.
  A direction exits the cube inside some grid cell; the cell is a convex
  flat polytope, and the set of directions within a given angle of the
  cell-center axis is a convex cone, so checking the cell's *corners*
  certifies the whole cell.  The grid is refined until every corner
  passes — a deterministic covering certificate.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

__all__ = ["ConeFamily", "build_cone_family"]


class ConeFamily:
    """Circular cones ``{x : angle(x, axis_j) <= half_angle}``.

    ``axes`` is a ``(k, d)`` array of unit vectors; ``half_angle`` is in
    radians.  The angular diameter of each cone is ``2 * half_angle``.
    """

    def __init__(self, axes: np.ndarray, half_angle: float):
        axes = np.asarray(axes, dtype=np.float64)
        if axes.ndim != 2:
            raise ValueError("axes must be a (k, d) array")
        norms = np.linalg.norm(axes, axis=1)
        if not np.allclose(norms, 1.0):
            raise ValueError("axes must be unit vectors")
        if not 0 < half_angle < math.pi:
            raise ValueError("half angle must be in (0, pi)")
        self.axes = axes
        self.half_angle = float(half_angle)
        self._cos_half = math.cos(self.half_angle)

    @property
    def num_cones(self) -> int:
        return len(self.axes)

    @property
    def dim(self) -> int:
        return self.axes.shape[1]

    @property
    def angular_diameter(self) -> float:
        return 2.0 * self.half_angle

    # ------------------------------------------------------------------

    def membership(self, vectors: np.ndarray) -> np.ndarray:
        """Boolean ``(m, k)`` matrix: row ``i`` marks the cones containing
        direction ``vectors[i]`` (zero vectors belong to every cone —
        they sit at the apex)."""
        vectors = np.atleast_2d(np.asarray(vectors, dtype=np.float64))
        norms = np.linalg.norm(vectors, axis=1, keepdims=True)
        safe = np.where(norms > 0, norms, 1.0)
        units = vectors / safe
        dots = units @ self.axes.T
        inside = dots >= self._cos_half - 1e-12
        inside[(norms == 0).ravel(), :] = True
        return inside

    def covers(self, vectors: np.ndarray) -> bool:
        """True iff every given direction lies in at least one cone."""
        return bool(self.membership(vectors).any(axis=1).all())

    def projections(self, vectors: np.ndarray) -> np.ndarray:
        """``(m, k)`` matrix of projections of each vector onto each
        cone's designated ray (its axis) — the nearest-point-on-ray
        ordering key of Section 5.1."""
        return np.atleast_2d(np.asarray(vectors, dtype=np.float64)) @ self.axes.T


def build_cone_family(theta: float, dim: int) -> ConeFamily:
    """A cone family with angular diameter at most ``theta`` covering
    ``R^dim``, with ``O((1/theta)^(dim-1))`` cones."""
    if not 0 < theta < math.pi:
        raise ValueError("theta must be in (0, pi)")
    if dim < 1:
        raise ValueError("dimension must be at least 1")
    if dim == 1:
        return ConeFamily(np.array([[1.0], [-1.0]]), half_angle=min(theta / 2, 1.0))
    if dim == 2:
        k = max(3, math.ceil(2.0 * math.pi / theta))
        angles = (np.arange(k) + 0.5) * (2.0 * math.pi / k)
        axes = np.stack([np.cos(angles), np.sin(angles)], axis=1)
        return ConeFamily(axes, half_angle=math.pi / k)
    return _cube_grid_cones(theta, dim)


def _cube_grid_cones(theta: float, dim: int) -> ConeFamily:
    """Axes through grid-cell centers on the faces of ``[-1, 1]^dim``,
    refined until the corner certificate guarantees covering radius
    ``theta / 2``."""
    half = theta / 2.0
    cells_per_side = max(1, math.ceil(2.0 * math.sqrt(dim - 1) / half))
    while True:
        axes, ok = _try_grid(cells_per_side, dim, half)
        if ok:
            return ConeFamily(axes, half_angle=half)
        cells_per_side *= 2


def _try_grid(m: int, dim: int, half: float) -> tuple[np.ndarray, bool]:
    """Build face-grid axes with ``m`` cells per side and certify that
    every cell corner is within ``half`` of its cell-center direction."""
    step = 2.0 / m
    centers_1d = -1.0 + step * (np.arange(m) + 0.5)
    face_centers = np.array(
        list(itertools.product(centers_1d, repeat=dim - 1)), dtype=np.float64
    )
    corner_offsets = np.array(
        list(itertools.product((-step / 2.0, step / 2.0), repeat=dim - 1)),
        dtype=np.float64,
    )
    cos_half = math.cos(half)

    axes: list[np.ndarray] = []
    for axis_dim in range(dim):
        for sign in (-1.0, 1.0):
            # Points on the face {x[axis_dim] = sign}.
            block = np.empty((len(face_centers), dim))
            other = [k for k in range(dim) if k != axis_dim]
            block[:, axis_dim] = sign
            block[:, other] = face_centers
            units = block / np.linalg.norm(block, axis=1, keepdims=True)
            axes.append(units)

            # Certificate: every corner of every cell within `half`.
            for off in corner_offsets:
                corner = block.copy()
                corner[:, other] = face_centers + off[None, :]
                corner_units = corner / np.linalg.norm(corner, axis=1, keepdims=True)
                dots = np.einsum("ij,ij->i", units, corner_units)
                if (dots < cos_half).any():
                    return np.empty((0, dim)), False
    return np.concatenate(axes, axis=0), True
