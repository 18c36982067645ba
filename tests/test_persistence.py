"""Index persistence round-trip tests.

The contract (ISSUE 2): ``save()``/``load()`` must round-trip every
registered builder exactly — a loaded index answers greedy and beam
``search`` calls with identical ids, distances, and stats — and
non-coordinate metrics must refuse to serialize with a clear error
rather than silently pickling.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core import ProximityGraphIndex, SearchParams, available_builders
from repro.core.persistence import (
    FORMAT_VERSION,
    metric_from_spec,
    metric_to_spec,
)
from repro.graphs import GNetParameters
from repro.metrics import EuclideanMetric, MetricSpace, ScaledMetric
from repro.metrics.counting import CountingMetric
from repro.metrics.euclidean import ChebyshevMetric, MinkowskiMetric
from repro.metrics.tree_metric import TreeMetric

N = 90


@pytest.fixture(scope="module")
def points():
    return np.random.default_rng(6).uniform(size=(N, 2))


@pytest.fixture(scope="module")
def query_batch():
    rng = np.random.default_rng(17)
    return rng.uniform(size=(25, 2)), list(range(25))


def _assert_round_trip(index, loaded, queries, starts):
    assert loaded.graph == index.graph
    assert np.array_equal(
        np.asarray(loaded.dataset.points), np.asarray(index.dataset.points)
    )
    assert loaded.scale == index.scale
    assert loaded.built.name == index.built.name
    assert loaded.built.epsilon == index.built.epsilon
    assert loaded.built.guaranteed == index.built.guaranteed
    # Queries are answered identically: same ids, same distances (exact).
    for k, params in [
        (1, SearchParams(mode="greedy", starts=starts)),
        (5, SearchParams(mode="beam", starts=starts)),
    ]:
        got = loaded.search(queries, k=k, params=params)
        want = index.search(queries, k=k, params=params)
        assert np.array_equal(got.ids, want.ids)
        assert np.array_equal(got.distances, want.distances)
    assert loaded.stats() == index.stats()


class TestRoundTrip:
    @pytest.mark.parametrize("method", available_builders())
    def test_every_registered_builder(self, method, points, query_batch, tmp_path):
        queries, starts = query_batch
        index = ProximityGraphIndex.build(points, epsilon=1.0, method=method, seed=3)
        path = tmp_path / f"{method}.npz"
        index.save(path)
        loaded = ProximityGraphIndex.load(path)
        _assert_round_trip(index, loaded, queries, starts)

    def test_second_generation_round_trip(self, points, query_batch, tmp_path):
        """save -> load -> save -> load is stable."""
        queries, starts = query_batch
        index = ProximityGraphIndex.build(points, epsilon=1.0, method="gnet", seed=3)
        index.save(tmp_path / "gen1.npz")
        gen1 = ProximityGraphIndex.load(tmp_path / "gen1.npz")
        gen1.save(tmp_path / "gen2.npz")
        gen2 = ProximityGraphIndex.load(tmp_path / "gen2.npz")
        _assert_round_trip(gen1, gen2, queries, starts)

    def test_gnet_params_rehydrated(self, points, tmp_path):
        """GNetParameters survives as a real object so stats() keeps its
        theory columns (h, phi) after a reload."""
        index = ProximityGraphIndex.build(points, epsilon=1.0, method="gnet", seed=3)
        index.save(tmp_path / "g.npz")
        loaded = ProximityGraphIndex.load(tmp_path / "g.npz")
        assert isinstance(loaded.built.meta["params"], GNetParameters)
        assert loaded.built.meta["params"] == index.built.meta["params"]
        assert "h" in loaded.stats() and "phi" in loaded.stats()

    def test_dropped_meta_recorded(self, points, tmp_path):
        index = ProximityGraphIndex.build(points, epsilon=1.0, method="gnet", seed=3)
        assert "hierarchy" in index.built.meta  # unserializable provenance
        index.save(tmp_path / "g.npz")
        loaded = ProximityGraphIndex.load(tmp_path / "g.npz")
        assert "hierarchy" not in loaded.built.meta
        assert "hierarchy" in loaded.built.meta["meta_dropped"]

    def test_seed_round_trips(self, points, tmp_path):
        index = ProximityGraphIndex.build(points, epsilon=1.0, method="knn", seed=11)
        index.save(tmp_path / "k.npz")
        loaded = ProximityGraphIndex.load(tmp_path / "k.npz")
        assert loaded.seed == 11

    @pytest.mark.parametrize("version", [1, 2, 3, 5, 6])
    def test_unsupported_format_version(self, version, points, tmp_path):
        """Every .npz not labelled FORMAT_VERSION meets one error: the
        retired v1/v2 layouts, the two directory versions (which a
        single file can never carry) and a future one alike."""
        index = ProximityGraphIndex.build(points, epsilon=1.0, method="knn", seed=0)
        path = index.save(tmp_path / "k.npz")
        with np.load(path) as data:
            payload = {k: data[k] for k in data.files}
        header = json.loads(bytes(payload["header"].tobytes()).decode())
        assert version != FORMAT_VERSION
        header["format_version"] = version
        payload["header"] = np.frombuffer(
            json.dumps(header).encode(), dtype=np.uint8
        )
        np.savez(tmp_path / "future.npz", **payload)
        with pytest.raises(ValueError, match="format version"):
            ProximityGraphIndex.load(tmp_path / "future.npz")


class TestMetricSpecs:
    @pytest.mark.parametrize("metric", [
        EuclideanMetric(),
        ChebyshevMetric(),
        MinkowskiMetric(3.0),
        ScaledMetric(EuclideanMetric(), 2.5),
        ScaledMetric(MinkowskiMetric(1.5), 0.25),
    ])
    def test_spec_round_trip(self, metric):
        spec = metric_to_spec(metric)
        back = metric_from_spec(spec)
        assert type(back) is type(metric)
        a = np.array([0.0, 0.0])
        b = np.array([[3.0, 4.0], [1.0, 1.0]])
        assert np.array_equal(metric.distances(a, b), back.distances(a, b))

    def test_unknown_spec_rejected(self):
        with pytest.raises(ValueError, match="unknown metric spec"):
            metric_from_spec({"kind": "hyperbolic"})


class TestNonCoordinateMetricsRefuse:
    """Satellite: counting/tree metrics raise a clear NotImplementedError
    from save() instead of silently pickling."""

    def test_tree_metric_message(self, tmp_path):
        leaves = np.arange(32)
        index = ProximityGraphIndex.build(
            leaves, epsilon=1.0, method="gnet",
            metric=TreeMetric(5), normalize=False,
        )
        with pytest.raises(
            NotImplementedError,
            match=r"cannot save an index over TreeMetric: only coordinate "
            r"metrics",
        ):
            index.save(tmp_path / "tree.npz")

    def test_counting_metric_message(self, points, tmp_path):
        index = ProximityGraphIndex.build(
            points, epsilon=1.0, method="knn",
            metric=CountingMetric(EuclideanMetric()), normalize=False,
        )
        with pytest.raises(
            NotImplementedError, match="CountingMetric.*coordinate metrics"
        ):
            index.save(tmp_path / "cnt.npz")

    def test_scaled_wrapper_does_not_mask_inner(self, tmp_path):
        """Normalization wraps the metric in ScaledMetric; the inner
        non-coordinate metric must still be detected and refused."""
        leaves = np.arange(32)
        index = ProximityGraphIndex.build(
            leaves, epsilon=1.0, method="gnet",
            metric=TreeMetric(5), normalize=True,
        )
        with pytest.raises(NotImplementedError, match="TreeMetric"):
            index.save(tmp_path / "tree.npz")

    def test_custom_metric_rejected(self, tmp_path):
        class WeirdMetric(MetricSpace):
            def distance(self, a, b):
                return abs(float(np.asarray(a).ravel()[0]) - float(np.asarray(b).ravel()[0]))

        index = ProximityGraphIndex.build(
            np.arange(16).astype(np.float64)[:, None] * 2.0,
            epsilon=1.0, method="knn", metric=WeirdMetric(), normalize=False,
        )
        with pytest.raises(NotImplementedError, match="WeirdMetric"):
            index.save(tmp_path / "weird.npz")

    def test_no_file_left_behind(self, tmp_path):
        leaves = np.arange(32)
        index = ProximityGraphIndex.build(
            leaves, epsilon=1.0, method="gnet",
            metric=TreeMetric(5), normalize=False,
        )
        target = tmp_path / "tree.npz"
        with pytest.raises(NotImplementedError):
            index.save(target)
        assert not target.exists()
