"""Edge-path coverage: branches exercised nowhere else (theory budgets
driving real queries, CLI start pinning, top-level re-exports)."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.graphs import build_gnet, build_merged_graph, greedy_batch
from repro.workloads import make_dataset, uniform_cube


class TestTheoryBudgetsDriveQueries:
    def test_gnet_query_budget_suffices(self, rng):
        """The explicit Section 2.3 budget, fed to the paper's budgeted
        query() (greedy_batch with a budget), must always land on a (1+eps)-ANN."""
        eps = 0.5
        ds = make_dataset(uniform_cube(200, 2, rng))
        res = build_gnet(ds, epsilon=eps)
        budget = res.params.query_budget(doubling_dimension=2.0)
        for _ in range(10):
            q = rng.uniform(-5, 40, size=2)
            nn = ds.distances_to_query_all(q).min()
            r = greedy_batch(res.graph, ds, [rng.integers(ds.n)], [q], budget=budget)[0]
            assert r.distance <= (1 + eps) * nn + 1e-9

    def test_merged_query_budget_suffices(self, rng):
        eps = 1.0
        ds = make_dataset(uniform_cube(150, 2, rng))
        merged = build_merged_graph(
            ds, eps, np.random.default_rng(3), theta=0.3
        )
        budget = merged.query_budget(doubling_dimension=2.0)
        for _ in range(8):
            q = rng.uniform(-5, 40, size=2)
            nn = ds.distances_to_query_all(q).min()
            r = greedy_batch(merged.graph, ds, [rng.integers(ds.n)], [q], budget=budget)[0]
            assert r.distance <= (1 + eps) * nn + 1e-9

    def test_hop_bound_value(self, rng):
        ds = make_dataset(uniform_cube(50, 2, rng))
        res = build_gnet(ds, epsilon=1.0)
        assert res.params.hop_bound() == res.params.height + 1


class TestCliStartPinning:
    def test_query_with_explicit_start(self, tmp_path, rng, capsys):
        from repro.cli import main
        from repro.core import SearchParams
        from repro.core.persistence import load_any

        pts = uniform_cube(50, 2, rng)
        pts_path = tmp_path / "p.npy"
        np.save(pts_path, pts)
        idx_path = tmp_path / "idx.npz"
        main(["save-index", str(pts_path), str(idx_path), "--epsilon", "1.0"])
        capsys.readouterr()
        assert main(
            ["load-index", str(idx_path), "--q", "0.1", "0.9", "--start", "7"]
        ) == 0
        out = json.loads(capsys.readouterr().out)
        want = load_any(idx_path).search(
            np.array([0.1, 0.9]), params=SearchParams(starts=[7])
        )
        assert out["query"] == [
            {"point_id": pid, "distance": dist} for pid, dist in want.pairs(0)
        ]
        assert (out["evals"], out["hops"]) == (
            int(want.evals[0]), int(want.hops[0])
        )


class TestCliSaveIndex:
    """``save-index`` passes ``batch_size`` only when ``--batch-size`` is
    given: the builders without an insertion loop reject the keyword."""

    @pytest.mark.parametrize(
        "method, extra",
        [("gnet", []), ("knn", []), ("vamana", []), ("vamana", ["--batch-size", "16"])],
    )
    def test_save_then_reload(self, tmp_path, rng, capsys, method, extra):
        from repro.cli import main
        from repro.core.persistence import load_any

        pts = uniform_cube(60, 2, rng)
        pts_path = tmp_path / "p.npy"
        np.save(pts_path, pts)
        idx_path = tmp_path / "idx.npz"
        assert main(
            ["save-index", str(pts_path), str(idx_path), "--method", method,
             "--epsilon", "1.0", *extra]
        ) == 0
        out = json.loads(capsys.readouterr().out)
        assert ("batch_size" in out) == bool(extra)
        index = load_any(idx_path)
        assert index.n == 60 and index.built.name == method
        assert index.search(pts[7]).top1() == (7, 0.0)
        assert main(["load-index", str(idx_path), "--q", "0.3", "0.3"]) == 0

    def test_batch_size_on_a_non_wave_builder_is_named(self, tmp_path, rng):
        from repro.cli import main

        pts_path = tmp_path / "p.npy"
        np.save(pts_path, uniform_cube(30, 2, rng))
        with pytest.raises(ValueError, match="does not support batched"):
            main(["save-index", str(pts_path), str(tmp_path / "i.npz"),
                  "--method", "gnet", "--batch-size", "8"])


class TestTopLevelExports:
    def test_package_all_importable(self):
        import repro

        for name in repro.__all__:
            assert getattr(repro, name) is not None

    def test_graphs_all_importable(self):
        import repro.graphs as g

        for name in g.__all__:
            assert getattr(g, name) is not None

    def test_metrics_all_importable(self):
        import repro.metrics as m

        for name in m.__all__:
            assert getattr(m, name) is not None
