"""Seeded input generators and the harness's own brute-force oracle.

Everything the program under test receives is made here from ``--seed``
(never by ``repro.workloads``), and every answer is judged against
numpy arithmetic written here (never against ``repro``'s own distance
code).
"""

from __future__ import annotations

import itertools

import numpy as np

CLUSTER_BITS = 5  # 2**5 = 32 clusters
CLUSTER_HALF_SIDE = 1.5


def rng_for(seed: int, stream: str) -> np.random.Generator:
    """An independent generator per named stream of one run, so adding a
    stream never shifts the numbers another stream draws."""
    return np.random.default_rng([int(seed), *stream.encode("ascii")])


def uniform_cube(seed: int, stream: str, n: int, d: int) -> np.ndarray:
    return rng_for(seed, stream).uniform(size=(n, d))


def hardcore_cube(seed: int, stream: str, n: int, d: int, delta: float) -> np.ndarray:
    """``n`` uniform points in the unit cube with a fixed closest pair.

    Uniform darts are kept only when farther than ``1.02 * delta`` from
    every kept point; point 0 is the cube centre and point 1 sits at
    distance exactly ``delta`` from it.  The minimum inter-point distance
    is therefore ``delta`` for every seed and the diameter that of the
    cube, so the aspect ratio — which the G-net's height, edge count and
    build time depend on, and which for plain uniform points is set by an
    extreme statistic (build time moved by 50 % from seed to seed) — is
    the same for every seed and every ``n``.
    """
    rng = rng_for(seed, stream)
    centre = np.full(d, 0.5)
    direction = rng.normal(size=d)
    kept = [centre, centre + delta * direction / np.linalg.norm(direction)]
    margin = 1.02 * delta
    cells: dict[tuple[int, ...], list[np.ndarray]] = {}
    offsets = list(itertools.product((-1, 0, 1), repeat=d))

    def cell_of(p: np.ndarray) -> tuple[int, ...]:
        return tuple(int(c) for c in np.floor(p / margin))

    for p in kept:
        cells.setdefault(cell_of(p), []).append(p)
    while len(kept) < n:
        for p in rng.uniform(size=(n, d)):
            home = cell_of(p)
            near = (
                q
                for off in offsets
                for q in cells.get(tuple(h + o for h, o in zip(home, off)), ())
            )
            if all(np.dot(p - q, p - q) >= margin * margin for q in near):
                kept.append(p)
                cells.setdefault(home, []).append(p)
                if len(kept) == n:
                    break
    return np.array(kept[:n])


class ClusterModel:
    """32 unit-variance Gaussian clusters in ``d`` dimensions.

    The centres are the vertices of a 5-cube of half-side 1.5 under a
    seed-drawn rotation: every seed has the same cluster geometry (so
    seeds differ in the sample, not in how hard the data set is — with
    freely drawn centres the evaluations per query moved by 6 % from
    seed to seed) while no coordinate axis is special.  Adjacent
    clusters overlap (centres 3 sigma apart), which keeps a single
    random-start beam search navigable; see README "not covered".
    """

    def __init__(self, seed: int, d: int) -> None:
        if d < CLUSTER_BITS:
            raise ValueError(f"need at least {CLUSTER_BITS} dimensions")
        rot, _ = np.linalg.qr(rng_for(seed, "rotation").normal(size=(d, d)))
        corners = np.array(
            [[(i >> b) & 1 for b in range(CLUSTER_BITS)] for i in range(2**CLUSTER_BITS)],
            dtype=np.float64,
        )
        centres = np.zeros((len(corners), d))
        centres[:, :CLUSTER_BITS] = (2.0 * corners - 1.0) * CLUSTER_HALF_SIDE
        self.centres = centres @ rot.T
        self.seed = int(seed)
        self.d = int(d)

    def sample(self, stream: str, n: int) -> np.ndarray:
        rng = rng_for(self.seed, stream)
        which = rng.integers(len(self.centres), size=n)
        return self.centres[which] + rng.normal(size=(n, self.d))


def exact_knn(queries: np.ndarray, points: np.ndarray, k: int, chunk: int = 256) -> np.ndarray:
    """Ids of the ``k`` nearest points per query, ascending by distance
    (ties by id) — brute force, chunked to bound memory."""
    queries = np.asarray(queries, dtype=np.float64)
    points = np.asarray(points, dtype=np.float64)
    out = np.empty((len(queries), k), dtype=np.int64)
    sq = (points * points).sum(axis=1)
    for lo in range(0, len(queries), chunk):
        q = queries[lo : lo + chunk]
        # |p|^2 - 2 q.p ranks like |q - p|^2; the shortlist is then
        # re-ranked with the exact difference form below.
        approx = sq[None, :] - 2.0 * (q @ points.T)
        take = min(len(points), k + 8)
        short = np.argpartition(approx, take - 1, axis=1)[:, :take]
        exact = np.sqrt(((points[short] - q[:, None, :]) ** 2).sum(axis=2))
        order = np.lexsort((short, exact), axis=1)[:, :k]
        out[lo : lo + chunk] = np.take_along_axis(short, order, axis=1)
    return out


def distances(queries: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Row-wise Euclidean distance ``|queries[i] - points[i]|``; the last
    axis is the coordinate axis, leading axes broadcast."""
    diff = np.asarray(points, dtype=np.float64) - np.asarray(queries, dtype=np.float64)
    return np.sqrt((diff * diff).sum(axis=-1))


def recall_at_k(found: np.ndarray, truth: np.ndarray) -> float:
    """Mean share of each truth row recovered in the matching found row."""
    found = np.asarray(found)
    truth = np.asarray(truth)
    if found.shape[0] != truth.shape[0]:
        raise ValueError("found and truth must have one row per query")
    hits = (found[:, :, None] == truth[:, None, :]).any(axis=1).sum()
    return float(hits) / float(truth.size)
