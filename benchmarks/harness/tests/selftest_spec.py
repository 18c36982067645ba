import json
import re

import numpy as np
import pytest

from benchmarks.harness import env, gen, report

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_benchmark_json_meets_the_contract():
    spec = env.load_spec()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert spec["paths"] == ["benchmarks/harness"]
    assert spec["command"][0] == "python3" and spec["command"][1].startswith("benchmarks/harness/")
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60
    assert [w["name"] for w in spec["workloads"]] == [
        "build_gnet", "query_batch", "query_disk", "serve_mixed",
    ]
    names = []
    for w in spec["workloads"]:
        assert set(w) == {"name", "why"} and "\n" not in w["why"] and len(w["why"]) <= 200
        names.append(w["name"])
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
        names.append(m["name"])
    for m in spec["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
        names.append(m["name"])
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
    assert all(NAME.match(n) for n in names)
    assert len(names) == len(set(names))
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"])
    assert len(spec["per_layer"]) == 31
    runs = 4 + 22 * len(spec["workloads"])
    assert runs * spec["run_seconds"] < 3420


def test_generators_are_deterministic_in_the_seed_and_differ_across_seeds():
    a = gen.ClusterModel(5, 16).sample("points", 200)
    b = gen.ClusterModel(5, 16).sample("points", 200)
    c = gen.ClusterModel(6, 16).sample("points", 200)
    assert np.array_equal(a, b) and not np.array_equal(a, c)
    assert not np.array_equal(a, gen.ClusterModel(5, 16).sample("queries", 200))
    assert np.array_equal(gen.uniform_cube(1, "p", 10, 3), gen.uniform_cube(1, "p", 10, 3))
    h1 = gen.hardcore_cube(2, "pts", 300, 3, 0.02)
    assert np.array_equal(h1, gen.hardcore_cube(2, "pts", 300, 3, 0.02))


def test_hardcore_cube_has_the_planted_closest_pair():
    pts = gen.hardcore_cube(9, "pts", 400, 3, 0.02)
    diff = pts[:, None, :] - pts[None, :, :]
    d = np.sqrt((diff**2).sum(-1))
    np.fill_diagonal(d, np.inf)
    assert d.min() == pytest.approx(0.02, rel=1e-12)
    assert np.unravel_index(d.argmin(), d.shape) in ((0, 1), (1, 0))
    assert np.sort(d, axis=None)[2] >= 0.02 * 1.02 - 1e-12
    assert pts.min() >= 0.0 - 0.02 and pts.max() <= 1.0 + 0.02


def test_cluster_geometry_is_the_same_for_every_seed():
    def centre_gaps(seed):
        c = gen.ClusterModel(seed, 16).centres
        return np.sort(np.sqrt(((c[:, None] - c[None]) ** 2).sum(-1)), axis=None)

    assert np.allclose(centre_gaps(1), centre_gaps(2))


def test_exact_knn_and_recall_against_a_plain_loop():
    rng = np.random.default_rng(0)
    pts, qs = rng.normal(size=(300, 8)), rng.normal(size=(20, 8))
    got = gen.exact_knn(qs, pts, 5)
    for q, row in zip(qs, got):
        d = np.sqrt(((pts - q) ** 2).sum(1))
        assert list(row) == list(np.argsort(d, kind="stable")[:5])
    assert gen.recall_at_k(got, got) == 1.0
    worse = got.copy()
    worse[:, 0] = -1
    assert gen.recall_at_k(worse, got) == pytest.approx(0.8)


def test_compare_refuses_different_fingerprints(tmp_path, capsys):
    doc = {
        "schema": report.SCHEMA, "seed": 1, "seconds": 10.0, "workloads": {},
        "fingerprint": {"nproc": 2, "numpy": "2.4.6", "backend_used": "cffi"},
    }
    other = json.loads(json.dumps(doc))
    other["fingerprint"]["nproc"] = 8
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(doc))
    b.write_text(json.dumps(other))
    assert report.compare_files(str(a), str(b)) == 2
    assert "refusing to compare" in capsys.readouterr().out
    assert report.compare_files(str(a), str(a)) == 0
