"""``SQ8Store`` — per-dimension 8-bit scalar quantization.

Each dimension is affinely mapped onto ``0..255`` by its training
min/range (``code = round((x - min) / scale)`` with ``scale = range /
255``), storing one ``uint8`` per dimension — ``8x`` smaller than the
float64 source.  Distances are *asymmetric*: the query stays full
precision and candidates are dequantized on the fly, then fed to the
**same** metric kernels the exact path uses — which is what makes SQ8
work for every coordinate metric (Euclidean, Chebyshev, Minkowski,
scaled or not) without per-metric code.

Degenerate guard: a constant dimension has zero range.  Its scale is
stored as 0 and encoding routes through a divide-safe substitute, so
the code is 0 and decoding reproduces the constant exactly — never a
division by zero or a NaN.  Points encoded after training (``add()``)
clamp into the trained range; the clamp loss is part of what the
:attr:`~repro.storage.base.VectorStore.drift` counter surfaces.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.metrics.base import MetricSpace
from repro.storage.base import QueryDistanceView, StorageConfigError, VectorStore

__all__ = ["SQ8Params", "SQ8Store", "train_sq8", "encode_sq8"]


@dataclass(frozen=True)
class SQ8Params:
    """Frozen training state: per-dimension offset and step."""

    minv: np.ndarray  # (d,) float64
    scale: np.ndarray  # (d,) float64; 0 marks a constant dimension

    @property
    def dim(self) -> int:
        return len(self.minv)

    @property
    def constant_dims(self) -> int:
        return int((self.scale == 0.0).sum())

    def nbytes(self) -> int:
        return int(self.minv.nbytes + self.scale.nbytes)


def _coords(points: Any, who: str) -> np.ndarray:
    arr = np.asarray(points, dtype=np.float64)
    if arr.ndim != 2:
        raise StorageConfigError(
            f"{who} needs (n, d) coordinate points, got shape {arr.shape}"
        )
    return arr


def train_sq8(points: Any) -> SQ8Params:
    """Per-dimension min/range over the training points."""
    x = _coords(points, "sq8 storage")
    minv = x.min(axis=0)
    rng = x.max(axis=0) - minv
    # Zero-range (constant) dimensions store scale 0: encode emits code
    # 0 through the safe divisor, decode reproduces minv exactly.
    scale = rng / 255.0
    return SQ8Params(minv=minv, scale=scale)


def encode_sq8(params: SQ8Params, points: Any) -> np.ndarray:
    """Encode rows under frozen params; out-of-range values clamp."""
    x = _coords(points, "sq8 storage")
    if x.shape[1] != params.dim:
        raise StorageConfigError(
            f"sq8 store trained on {params.dim}-d points, got {x.shape[1]}-d"
        )
    safe = np.where(params.scale > 0.0, params.scale, 1.0)
    q = np.rint((x - params.minv) / safe)
    np.clip(q, 0.0, 255.0, out=q)
    return q.astype(np.uint8)


def decode_sq8(params: SQ8Params, codes: np.ndarray) -> np.ndarray:
    return codes.astype(np.float64) * params.scale + params.minv


class _SQ8View(QueryDistanceView):
    """Dequantize candidates, then reuse the exact metric kernels."""

    __slots__ = ("metric", "params", "codes", "Q")

    def __init__(
        self,
        metric: MetricSpace,
        params: SQ8Params,
        codes: np.ndarray,
        Q: Any,
    ) -> None:
        self.metric = metric
        self.params = params
        self.codes = codes
        self.Q = np.asarray(Q, dtype=np.float64)

    def scalar(self, qi: int, v: int) -> float:
        row = decode_sq8(self.params, self.codes[v][None, :])
        return float(self.metric.distances(self.Q[qi], row)[0])

    def start_distances(self, starts: np.ndarray) -> np.ndarray:
        # scalar() is one row of a row-wise kernel (decode, then the
        # metric's per-row reduction), so all rows at once — one segment
        # per query — are the same floats.  A single query skips the
        # segment bookkeeping: that call is scalar() itself.
        decoded = decode_sq8(self.params, self.codes[starts])
        if len(decoded) == 1:
            return self.metric.distances(self.Q[0], decoded)
        return self.metric.distances_many(
            self.Q, decoded, np.ones(len(decoded), dtype=np.int64)
        )

    def segmented(
        self, q_rows: np.ndarray, cand: np.ndarray, lens: np.ndarray
    ) -> np.ndarray:
        idx = np.asarray(cand, dtype=np.intp)
        rows = np.asarray(q_rows, dtype=np.intp)
        decoded = decode_sq8(self.params, self.codes[idx])
        return self.metric.distances_many(self.Q[rows], decoded, lens)


class SQ8Store(VectorStore):
    """8-bit scalar-quantized vectors with asymmetric exact-kernel
    distances."""

    kind = "sq8"
    is_quantized = True
    default_rerank_factor = 2

    def __init__(
        self,
        metric: MetricSpace,
        params: SQ8Params,
        codes: np.ndarray,
        drift: int = 0,
        trained_on: int | None = None,
    ) -> None:
        self.metric = metric
        self.params = params
        # Kernel-layout contract: the code matrix is always C-contiguous
        # uint8, so the compiled accel backends can hand it to their
        # kernels as a zero-copy view (persistence and callers may pass
        # slices or otherwise non-contiguous arrays).
        self._codes = np.ascontiguousarray(codes, dtype=np.uint8)
        self.drift = int(drift)
        self.trained_on = int(trained_on if trained_on is not None else len(codes))

    @classmethod
    def train(cls, metric: MetricSpace, points: Any) -> "SQ8Store":
        params = train_sq8(points)
        return cls(metric, params, encode_sq8(params, points))

    # -- traversal ------------------------------------------------------

    def bind(self, Q: Any) -> _SQ8View:
        return _SQ8View(self.metric, self.params, self._codes, Q)

    # -- collection lifecycle ------------------------------------------

    def refresh(self, dataset: Any, added: int) -> "SQ8Store":
        fresh = _coords(dataset.points, "sq8 storage")[len(self._codes) :]
        if len(fresh) != added:
            raise StorageConfigError(
                f"store holds {len(self._codes)} codes but the dataset "
                f"grew to {len(dataset.points)} points (expected +{added})"
            )
        self._codes = np.concatenate([self._codes, encode_sq8(self.params, fresh)])
        self.metric = dataset.metric
        self.drift += added
        return self

    def retrained(self, dataset: Any) -> "SQ8Store":
        return SQ8Store.train(dataset.metric, dataset.points)

    # -- accounting -----------------------------------------------------

    @property
    def n(self) -> int:
        return len(self._codes)

    def traversal_bytes_per_vector(self) -> float:
        return float(self._codes.shape[1])

    def aux_bytes(self) -> int:
        return self.params.nbytes()

    # -- wire form ------------------------------------------------------

    @property
    def codes(self) -> np.ndarray:
        """The ``(n, d)`` uint8 code matrix, C-contiguous (the layout
        the compiled accel kernels consume without copying)."""
        return self._codes

    def param_arrays(self) -> dict[str, np.ndarray]:
        return {"minv": self.params.minv, "scale": self.params.scale}

    def spec(self) -> dict[str, Any]:
        return {
            "kind": "sq8",
            "trained_on": int(self.trained_on),
            "drift": int(self.drift),
            "constant_dims": self.params.constant_dims,
        }

    def summary(self) -> dict[str, Any]:
        out = super().summary()
        out["constant_dims"] = self.params.constant_dims
        return out
