"""Unit + property tests for the coordinate metrics (L2, L_inf, Lp)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.metrics import (
    ChebyshevMetric,
    CountingMetric,
    EuclideanMetric,
    MinkowskiMetric,
    ScaledMetric,
    TreeMetric,
    lp_decompose,
)

finite_floats = st.floats(
    min_value=-100.0, max_value=100.0, allow_nan=False, allow_infinity=False
)


class TestEuclidean:
    def test_known_value(self):
        assert EuclideanMetric().distance(
            np.array([0.0, 0.0]), np.array([3.0, 4.0])
        ) == pytest.approx(5.0)

    def test_batch_matches_scalar(self, rng):
        m = EuclideanMetric()
        pts = rng.normal(size=(20, 4))
        q = rng.normal(size=4)
        batch = m.distances(q, pts)
        for i in range(20):
            assert batch[i] == pytest.approx(m.distance(q, pts[i]))

    def test_pairwise_matches_batch(self, rng):
        m = EuclideanMetric()
        pts = rng.normal(size=(15, 3))
        pw = m.pairwise(pts)
        for i in range(15):
            assert np.allclose(pw[i], m.distances(pts[i], pts), atol=1e-9)

    def test_pairwise_zero_diagonal(self, rng):
        pw = EuclideanMetric().pairwise(rng.normal(size=(10, 5)))
        assert np.all(np.diag(pw) == 0.0)

    def test_single_row_batch(self):
        m = EuclideanMetric()
        out = m.distances(np.array([0.0, 0.0]), np.array([1.0, 0.0]))
        assert out.shape == (1,)
        assert out[0] == pytest.approx(1.0)

    @given(
        arrays(np.float64, (6, 3), elements=finite_floats),
    )
    @settings(max_examples=30, deadline=None)
    # Two points 1e-6 apart next to norms of ~65: the Gram expansion
    # cancels to D = 0 there unless the entry is evaluated directly.
    @example(np.array([[1e-6, 46.0, 46.0], [0.0, 46.0, 46.0]] + [[46.0] * 3] * 4))
    def test_axioms_property(self, pts):
        EuclideanMetric().check_axioms(pts, rtol=1e-8)


class TestChebyshev:
    def test_known_value(self):
        assert ChebyshevMetric().distance(
            np.array([0.0, 0.0]), np.array([3.0, -4.0])
        ) == pytest.approx(4.0)

    def test_batch_matches_scalar(self, rng):
        m = ChebyshevMetric()
        pts = rng.normal(size=(12, 3))
        q = rng.normal(size=3)
        batch = m.distances(q, pts)
        for i in range(12):
            assert batch[i] == pytest.approx(m.distance(q, pts[i]))

    def test_dominated_by_euclidean(self, rng):
        pts = rng.normal(size=(10, 4))
        linf = ChebyshevMetric().distances(pts[0], pts)
        l2 = EuclideanMetric().distances(pts[0], pts)
        assert np.all(linf <= l2 + 1e-12)

    @given(arrays(np.float64, (6, 2), elements=finite_floats))
    @settings(max_examples=30, deadline=None)
    def test_axioms_property(self, pts):
        ChebyshevMetric().check_axioms(pts, rtol=1e-8)


class TestMinkowski:
    def test_p1_is_manhattan(self):
        m = MinkowskiMetric(1.0)
        assert m.distance(np.array([0.0, 0.0]), np.array([1.0, 2.0])) == pytest.approx(3.0)

    def test_p2_matches_euclidean(self, rng):
        pts = rng.normal(size=(8, 3))
        got = MinkowskiMetric(2.0).distances(pts[0], pts)
        want = EuclideanMetric().distances(pts[0], pts)
        assert np.allclose(got, want)

    def test_rejects_p_below_one(self):
        with pytest.raises(ValueError):
            MinkowskiMetric(0.5)

    def test_monotone_in_p(self, rng):
        # Lp norms are non-increasing in p.
        pts = rng.normal(size=(10, 4))
        d1 = MinkowskiMetric(1.0).distances(pts[0], pts)
        d3 = MinkowskiMetric(3.0).distances(pts[0], pts)
        assert np.all(d3 <= d1 + 1e-12)

    @given(arrays(np.float64, (5, 2), elements=finite_floats))
    @settings(max_examples=20, deadline=None)
    def test_axioms_property(self, pts):
        MinkowskiMetric(3.0).check_axioms(pts, rtol=1e-8)


class TestLpDecompose:
    def test_sees_through_scaled_and_counted_wrappers(self, rng):
        inner = MinkowskiMetric(3.0)
        wrapped = ScaledMetric(CountingMetric(ScaledMetric(inner, 4.0)), 2.5)
        got = lp_decompose(wrapped)
        assert got is not None and got[0] is inner and got[1] == 10.0
        a, b = rng.normal(size=(2, 3))
        assert wrapped.distance(a, b) == pytest.approx(10.0 * inner.distance(a, b))
        for plain in (EuclideanMetric(), ChebyshevMetric(), inner):
            assert lp_decompose(plain) == (plain, 1.0)

    def test_other_metrics_are_not_coordinate_metrics(self):
        assert lp_decompose(TreeMetric(height=3)) is None
        assert lp_decompose(ScaledMetric(CountingMetric(TreeMetric(height=3)), 2.0)) is None
