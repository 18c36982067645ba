"""Tests for the analysis toolkit and the command-line interface."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.analysis import fit_linear, fit_power_law, gnet_theory_report
from repro.cli import main
from repro.core.persistence import load_any
from repro.graphs import build_gnet
from repro.workloads import make_dataset, uniform_cube


class TestPowerLawFit:
    def test_recovers_exact_exponent(self):
        x = np.array([1.0, 2.0, 4.0, 8.0])
        fit = fit_power_law(x, 3.0 * x**2)
        assert fit.exponent == pytest.approx(2.0)
        assert fit.constant == pytest.approx(3.0)
        assert fit.r_squared == pytest.approx(1.0)

    def test_predict(self):
        fit = fit_power_law([1, 2, 4], [5, 10, 20])
        assert fit.predict(8) == pytest.approx(40.0)

    def test_leave_one_out_range_contains_estimate(self, rng):
        x = np.array([1.0, 2.0, 4.0, 8.0, 16.0])
        y = 2.0 * x**1.5 * np.exp(rng.normal(0, 0.05, size=5))
        fit = fit_power_law(x, y)
        lo, hi = fit.exponent_range
        assert lo <= fit.exponent <= hi
        assert hi - lo < 0.5

    def test_two_points_degenerate_range(self):
        fit = fit_power_law([1.0, 2.0], [1.0, 4.0])
        assert fit.exponent_range == (fit.exponent, fit.exponent)

    def test_validation(self):
        with pytest.raises(ValueError):
            fit_power_law([1.0], [1.0])
        with pytest.raises(ValueError):
            fit_power_law([1.0, -2.0], [1.0, 2.0])
        with pytest.raises(ValueError, match="identical"):
            fit_power_law([2.0, 2.0], [1.0, 2.0])


class TestLinearFit:
    def test_recovers_line(self):
        fit = fit_linear([0, 1, 2, 3], [1, 3, 5, 7])
        assert fit.slope == pytest.approx(2.0)
        assert fit.intercept == pytest.approx(1.0)
        assert fit.r_squared == pytest.approx(1.0)

    def test_r_squared_degrades_with_noise(self, rng):
        x = np.linspace(0, 10, 30)
        clean = fit_linear(x, 2 * x)
        noisy = fit_linear(x, 2 * x + rng.normal(0, 5, size=30))
        assert noisy.r_squared < clean.r_squared


class TestTheoryReport:
    def test_bounds_dominate_measurements(self, rng):
        ds = make_dataset(uniform_cube(150, 2, rng))
        res = build_gnet(ds, epsilon=1.0)
        report = gnet_theory_report(res, doubling_dimension=2.0)
        assert report.edges_measured <= report.edges_bound
        assert report.max_degree_measured <= report.max_degree_bound
        assert report.edge_slack >= 1.0
        assert len(report.rows()) == 2

    def test_per_level_accounting(self, rng):
        ds = make_dataset(uniform_cube(100, 2, rng))
        res = build_gnet(ds, epsilon=1.0)
        report = gnet_theory_report(res, doubling_dimension=2.0)
        assert sum(report.per_level_edges) == report.edges_measured
        assert report.per_level_sizes[0] == 100


@pytest.fixture
def points_file(tmp_path, rng):
    pts = uniform_cube(80, 2, rng)
    path = tmp_path / "points.npy"
    np.save(path, pts)
    return path


class TestCli:
    def test_builders_lists_registry(self, capsys):
        assert main(["builders"]) == 0
        out = capsys.readouterr().out
        assert "gnet" in out and "hnsw" in out

    def test_save_index_writes_a_loadable_index(
        self, points_file, tmp_path, capsys
    ):
        index_path = tmp_path / "idx.npz"
        code = main(
            ["save-index", str(points_file), str(index_path), "--method",
             "gnet", "--epsilon", "1.0"]
        )
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["builder"] == "gnet" and out["edges"] > 0
        assert out["index_file"] == str(index_path)
        assert load_any(index_path).n == 80

    def test_query_roundtrip(self, points_file, tmp_path, capsys):
        index_path = tmp_path / "idx.npz"
        main(["save-index", str(points_file), str(index_path),
              "--epsilon", "1.0"])
        capsys.readouterr()
        code = main(["load-index", str(index_path), "--q", "0.5", "0.5"])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        (hit,) = out["query"]
        assert 0 <= hit["point_id"] < 80
        assert hit["distance"] >= 0
        assert out["evals"] > 0 and out["hops"] >= 0

    def test_stats(self, points_file, tmp_path, capsys):
        index_path = tmp_path / "idx.npz"
        main(["save-index", str(points_file), str(index_path)])
        capsys.readouterr()
        assert main(["load-index", str(index_path)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["n"] == 80

    def test_validate_clean_graph(self, points_file, tmp_path, capsys):
        index_path = tmp_path / "idx.npz"
        main(["save-index", str(points_file), str(index_path),
              "--epsilon", "1.0"])
        capsys.readouterr()
        code = main(["validate", str(index_path), "--queries", "40"])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["violations"] == 0
        assert out["epsilon"] == 1.0  # taken from the index

    def test_validate_flags_bad_graph(self, points_file, tmp_path, capsys, rng):
        # Two clusters + knn graph: validation must exit nonzero.
        a = rng.normal(0, 0.01, size=(30, 2))
        b = rng.normal(0, 0.01, size=(30, 2)) + 7.0
        pts_path = tmp_path / "two.npy"
        np.save(pts_path, np.vstack([a, b]))
        index_path = tmp_path / "bad.npz"
        main(["save-index", str(pts_path), str(index_path), "--method", "knn",
              "--epsilon", "0.5"])
        capsys.readouterr()
        code = main(["validate", str(index_path), "--queries", "60"])
        assert code == 1

    def test_validate_refuses_a_sharded_index(self, points_file, tmp_path):
        out = tmp_path / "sharded"
        main(["save-index", str(points_file), str(out), "--method", "vamana",
              "--shards", "2"])
        with pytest.raises(SystemExit, match="flat index"):
            main(["validate", str(out)])


class TestTraceReport:
    def test_annotations_and_log_drop(self, rng):
        from repro.analysis import trace_report
        from repro.graphs import build_gnet

        ds = make_dataset(uniform_cube(120, 2, rng))
        res = build_gnet(ds, epsilon=0.5)
        pts = np.asarray(ds.points)
        q = pts[17] + 1e-7  # near-data: demanding target
        dists = np.linalg.norm(pts - q, axis=1)
        start = int(np.argmax(dists))
        report = trace_report(res.graph, ds, start, q, epsilon=0.5)
        assert report.first_ann_hop is not None
        assert report.first_ann_hop <= res.params.height + 1
        assert report.log_drops_strict()
        # distances to q strictly decrease along the trace
        dq = [r.distance_to_query for r in report.records]
        assert all(a > b for a, b in zip(dq, dq[1:]))

    def test_render_contains_every_hop(self, rng):
        from repro.analysis import trace_report
        from repro.graphs import build_gnet

        ds = make_dataset(uniform_cube(60, 2, rng))
        res = build_gnet(ds, epsilon=1.0)
        report = trace_report(res.graph, ds, 0, rng.uniform(0, 20, size=2), 1.0)
        text = report.render()
        assert text.count("hop ") == report.hops
        assert "distance evals" in text

    def test_budgeted_trace(self, rng):
        from repro.analysis import trace_report
        from repro.graphs import build_gnet

        ds = make_dataset(uniform_cube(60, 2, rng))
        res = build_gnet(ds, epsilon=1.0)
        report = trace_report(
            res.graph, ds, 0, rng.uniform(0, 20, size=2), 1.0, budget=5
        )
        assert report.distance_evals <= 5
