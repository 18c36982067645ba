"""Tests for distance accounting (CountingMetric) and normalization /
spread estimation (the Section 2.4 remark)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.metrics import (
    ChebyshevMetric,
    CountingMetric,
    Dataset,
    EuclideanMetric,
    MinkowskiMetric,
    ScaledMetric,
    SpreadEstimate,
    TreeMetric,
    estimate_extremes,
    normalize_min_distance,
    spread_parameters,
)


class TestCountingMetric:
    def test_scalar_counts_one(self):
        m = CountingMetric(EuclideanMetric())
        m.distance(np.zeros(2), np.ones(2))
        assert m.count == 1

    def test_batch_counts_length(self, rng):
        m = CountingMetric(EuclideanMetric())
        m.distances(np.zeros(3), rng.normal(size=(17, 3)))
        assert m.count == 17

    def test_pairwise_counts_square(self, rng):
        m = CountingMetric(EuclideanMetric())
        m.pairwise(rng.normal(size=(5, 2)))
        assert m.count == 25

    def test_reset_returns_previous(self, rng):
        m = CountingMetric(EuclideanMetric())
        m.distances(np.zeros(2), rng.normal(size=(4, 2)))
        assert m.reset() == 4
        assert m.count == 0

    def test_values_pass_through(self, rng):
        pts = rng.normal(size=(6, 2))
        inner = EuclideanMetric()
        counting = CountingMetric(inner)
        assert np.allclose(
            counting.distances(pts[0], pts), inner.distances(pts[0], pts)
        )


class TestNormalization:
    def test_min_distance_becomes_two(self, rng):
        pts = rng.uniform(size=(40, 2))
        ds = Dataset(EuclideanMetric(), pts)
        scaled, factor = normalize_min_distance(ds)
        assert scaled.min_interpoint_distance() == pytest.approx(2.0)
        assert factor == pytest.approx(2.0 / ds.min_interpoint_distance())

    def test_aspect_ratio_preserved(self, rng):
        pts = rng.uniform(size=(25, 3))
        ds = Dataset(EuclideanMetric(), pts)
        scaled, _ = normalize_min_distance(ds)
        assert scaled.aspect_ratio() == pytest.approx(ds.aspect_ratio())

    def test_duplicates_rejected(self):
        pts = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0]])
        with pytest.raises(ValueError, match="duplicate"):
            normalize_min_distance(Dataset(EuclideanMetric(), pts))

    def test_with_spread_estimate_lands_in_band(self, rng):
        pts = rng.uniform(size=(30, 2))
        ds = Dataset(EuclideanMetric(), pts)
        est = estimate_extremes(ds)
        scaled, _ = normalize_min_distance(ds, spread=est)
        got = scaled.min_interpoint_distance()
        assert 2.0 - 1e-9 <= got <= 4.0 + 1e-9


_LP = {
    "l2": EuclideanMetric,
    "linf": ChebyshevMetric,
    "l3": lambda: MinkowskiMetric(3.0),
}


class TestSortedSweep:
    """normalize_min_distance's exact d_min for (n, d) points under an
    L_p metric: a sorted sweep, bit-equal to scanning every row."""

    @pytest.mark.parametrize("metric", sorted(_LP))
    @pytest.mark.parametrize("dim", [1, 2, 3, 5])
    @pytest.mark.parametrize("seed", range(4))
    def test_bit_equal_to_the_row_loop(self, metric, dim, seed):
        rng = np.random.default_rng(seed)
        pts = rng.uniform(-30, 30, size=(int(rng.integers(2, 160)), dim))
        ds = Dataset(_LP[metric](), pts)
        scaled, factor = normalize_min_distance(ds)
        assert factor == (2.0 / ds.min_interpoint_distance()) * (1.0 + 1e-12)
        # A wrapped metric: the gap is read in the metric's own units.
        wrapped = Dataset(CountingMetric(ScaledMetric(_LP[metric](), 3.7)), pts)
        want = 2.0 / wrapped.min_interpoint_distance() * (1.0 + 1e-12)
        assert normalize_min_distance(wrapped)[1] == want

    @pytest.mark.parametrize("metric", sorted(_LP))
    @pytest.mark.parametrize("shape", [(7, 5), (4, 4, 3), (40,)])
    def test_integer_grids_with_ties(self, metric, shape):
        """Every axis equally wide and many pairs at exactly d_min."""
        grid = np.stack(np.meshgrid(*[np.arange(k) for k in shape]), axis=-1)
        pts = grid.reshape(-1, len(shape))[::-1].astype(np.int64)
        ds = Dataset(_LP[metric](), pts)
        assert normalize_min_distance(ds)[1] == 2.0 / ds.min_interpoint_distance() * (1.0 + 1e-12)

    def test_sweep_evaluates_fewer_pairs_than_the_rows(self, rng):
        counting = CountingMetric(EuclideanMetric())
        ds = Dataset(counting, rng.uniform(size=(500, 3)))
        normalize_min_distance(ds)
        assert 0 < counting.count < ds.n * (ds.n - 1) // 2

    def test_other_metrics_take_the_row_loop(self, rng):
        counting = CountingMetric(TreeMetric(height=8))
        leaves = rng.choice(256, size=40, replace=False).astype(np.int64)
        ds = Dataset(counting, leaves)
        _, factor = normalize_min_distance(ds)
        assert counting.count == ds.n * ds.n
        assert factor == 2.0 / 2.0 * (1.0 + 1e-12)  # leaves are >= 2 apart

    @pytest.mark.parametrize("metric", sorted(_LP))
    def test_duplicates_far_apart_in_the_sort_order_raise(self, metric):
        # Same first coordinate as two other points: the copies are not
        # neighbours along the sweep axis.
        pts = np.array([[0.0, 0.0], [0.0, 5.0], [0.0, 0.0], [9.0, 1.0], [0.0, 9.0]])
        with pytest.raises(ValueError, match="duplicate"):
            normalize_min_distance(Dataset(_LP[metric](), pts))
        with pytest.raises(ValueError, match="duplicate"):
            normalize_min_distance(Dataset(_LP[metric](), pts[:, ::-1].copy()))

    def test_one_dimensional_duplicates_raise(self):
        pts = np.array([[3.0], [1.0], [3.0], [7.0]])
        with pytest.raises(ValueError, match="duplicate"):
            normalize_min_distance(Dataset(EuclideanMetric(), pts))


class TestSpreadEstimate:
    @given(
        arrays(
            np.float64,
            (12, 2),
            elements=st.floats(-50, 50, allow_nan=False, allow_infinity=False),
            unique=True,
        )
    )
    @settings(max_examples=25, deadline=None)
    def test_remark_contracts(self, pts):
        """d_min_hat in [d_min/2, d_min], d_max_hat in [d_max, 2*d_max],
        hence aspect-ratio overestimate of factor at most 4 (footnote 1)."""
        ds = Dataset(EuclideanMetric(), pts)
        d_min, d_max = ds.min_interpoint_distance(), ds.diameter()
        if d_min <= 0:
            return  # duplicates after rounding; contract requires distinct
        est = estimate_extremes(ds)
        assert d_min / 2 - 1e-9 <= est.d_min_hat <= d_min + 1e-9
        assert d_max - 1e-9 <= est.d_max_hat <= 2 * d_max + 1e-9
        true_ar = d_max / d_min
        assert true_ar / (1 + 1e-9) <= est.aspect_ratio_hat <= 4 * true_ar * (1 + 1e-9)

    def test_custom_second_nearest_hook(self, rng):
        pts = rng.uniform(size=(15, 2))
        ds = Dataset(EuclideanMetric(), pts)
        calls = []

        def hook(i):
            calls.append(i)
            row = ds.distances_from_index_to_all(i)
            row[i] = np.inf
            return float(row.min())

        estimate_extremes(ds, second_nearest=hook)
        assert calls == list(range(15))

    def test_validation(self):
        with pytest.raises(ValueError):
            SpreadEstimate(0.0, 1.0)
        with pytest.raises(ValueError):
            SpreadEstimate(2.0, 1.0)


class TestSpreadParameters:
    def test_height_formula(self):
        h, delta = spread_parameters(diameter=100.0)
        assert h == 7  # ceil(log2 100)
        assert delta == 50.0

    def test_minimum_diameter(self):
        h, delta = spread_parameters(diameter=2.0)
        assert h == 1
        assert delta == 1.0

    def test_rejects_tiny_diameter(self):
        with pytest.raises(ValueError):
            spread_parameters(diameter=1.0)
