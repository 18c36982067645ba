"""Flat indexes into v3 sharded manifest directories, and back out.

Any flat file can be adopted as a shard of a v3 manifest directory,
search answers survive the step bit-for-bit, and a reloaded sharded
index stays fully mutable.  Partial or corrupt v3 directories must fail
loudly with an error naming the problem — never load quietly.  Files
written when vertex ids were int64 still load and answer identically,
and a graph refuses a vertex count its int32 ids cannot number.
"""

from __future__ import annotations

import json
import logging

import numpy as np
import pytest

from repro import ProximityGraphIndex, SearchParams, ShardedIndex, load_any
from repro.core.persistence import (
    DISK_HEADER_NAME,
    MANIFEST_NAME,
    SHARDED_FORMAT_VERSION,
    load_index,
    load_sharded_index,
)
from repro.graphs.base import MAX_VERTICES, ProximityGraph, check_vertex_count
from repro.workloads import uniform_cube


@pytest.fixture
def flat_index() -> ProximityGraphIndex:
    pts = uniform_cube(80, 2, np.random.default_rng(5))
    return ProximityGraphIndex.build(pts, epsilon=1.0, method="vamana", seed=5)


@pytest.fixture
def queries() -> np.ndarray:
    return np.random.default_rng(6).uniform(size=(12, 2))


class TestMigrationChain:
    def test_v2_shard_adopts_into_v3(self, flat_index, queries, tmp_path):
        """A flat file becomes the single shard of a v3 directory."""
        saved = flat_index.save(tmp_path / "flat.npz")
        adopted = ShardedIndex([load_index(saved)], seed=flat_index.seed)
        out = adopted.save(tmp_path / "sharded")
        manifest = json.loads((out / MANIFEST_NAME).read_text())
        assert manifest["format_version"] == SHARDED_FORMAT_VERSION == 3
        loaded = load_any(out)
        assert isinstance(loaded, ShardedIndex)
        p = SearchParams(seed=0)
        a = flat_index.search(queries, k=5, params=p)
        b = loaded.search(queries, k=5, params=p)
        assert np.array_equal(a.ids, b.ids)
        assert np.array_equal(a.distances, b.distances)

    def test_v3_round_trip_preserves_mutation_state(self, tmp_path, queries):
        pts = uniform_cube(90, 2, np.random.default_rng(8))
        sharded = ShardedIndex.build(pts, method="vamana", shards=3, seed=8)
        sharded.delete([1, 2, 3])
        added = sharded.add(np.random.default_rng(9).uniform(size=(5, 2)))
        want = sharded.search(queries, k=5)
        out = sharded.save(tmp_path / "idx")
        loaded = load_any(out)
        got = loaded.search(queries, k=5)
        assert np.array_equal(want.ids, got.ids)
        assert np.array_equal(want.distances, got.distances)
        assert loaded.tombstone_count == 3
        # fresh ids continue past the highest ever assigned
        more = loaded.add(np.random.default_rng(10).uniform(size=(1, 2)))
        assert int(more[0]) == int(added.max()) + 1


class TestCorruptShardedDirectories:
    @pytest.fixture
    def saved(self, tmp_path):
        pts = uniform_cube(60, 2, np.random.default_rng(1))
        sharded = ShardedIndex.build(pts, method="vamana", shards=2, seed=1)
        return sharded.save(tmp_path / "idx")

    def test_missing_manifest(self, saved):
        (saved / MANIFEST_NAME).unlink()
        with pytest.raises(ValueError, match="no manifest.json found"):
            load_sharded_index(saved)

    def test_corrupt_manifest_json(self, saved):
        (saved / MANIFEST_NAME).write_text("{this is not json")
        with pytest.raises(ValueError, match="corrupt sharded-index manifest"):
            load_any(saved)

    def test_wrong_kind(self, saved):
        (saved / MANIFEST_NAME).write_text(json.dumps({"format_version": 3}))
        with pytest.raises(ValueError, match="not a sharded-index manifest"):
            load_any(saved)

    def test_unsupported_version(self, saved):
        manifest = json.loads((saved / MANIFEST_NAME).read_text())
        manifest["format_version"] = 99
        (saved / MANIFEST_NAME).write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="unsupported sharded format version 99"):
            load_any(saved)

    def test_shard_count_mismatch(self, saved):
        manifest = json.loads((saved / MANIFEST_NAME).read_text())
        manifest["shards"] = 5
        (saved / MANIFEST_NAME).write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="declares 5 shards but lists 2"):
            load_any(saved)

    def test_missing_shard_file(self, saved):
        (saved / "shard-001.npz").unlink()
        with pytest.raises(
            ValueError, match="incomplete: missing shard file shard-001.npz"
        ):
            load_any(saved)

    def test_load_index_rejects_directory(self, saved):
        # The error must name the right loader, not just refuse.
        with pytest.raises(
            ValueError, match=r"manifest directory.*load_sharded_index"
        ):
            load_index(saved)

    def test_resave_removes_stale_shard_files(self, saved, tmp_path):
        """Saving a narrower index into a reused directory must not
        leave undeclared shard files behind."""
        pts = uniform_cube(40, 2, np.random.default_rng(2))
        wide = ShardedIndex.build(pts, method="vamana", shards=4, seed=2)
        out = wide.save(tmp_path / "reused")
        assert len(list(out.glob("shard-*.npz"))) == 4
        narrow = ShardedIndex.build(pts, method="vamana", shards=2, seed=2)
        narrow.save(out)
        assert sorted(p.name for p in out.glob("shard-*.npz")) == [
            "shard-000.npz",
            "shard-001.npz",
        ]
        loaded = load_any(out)
        assert loaded.n_shards == 2 and loaded.n == 40


def _widen_targets(path) -> None:
    """Rewrite a saved flat index with int64 CSR targets, as files were
    written before vertex ids were int32: the ``targets`` member of a v4
    ``.npz``, or ``csr_targets.bin`` and its header entry in a v5
    directory."""
    if path.is_dir():
        header = json.loads((path / DISK_HEADER_NAME).read_text())
        entry = header["arrays"]["csr_targets"]
        targets = np.fromfile(path / entry["file"], dtype=entry["dtype"])
        targets.astype(np.int64).tofile(path / entry["file"])
        entry["dtype"] = "int64"
        (path / DISK_HEADER_NAME).write_text(json.dumps(header))
        return
    with np.load(path) as data:
        payload = {k: data[k] for k in data.files}
    payload["targets"] = payload["targets"].astype(np.int64)
    np.savez(path, **payload)


class TestInt64TargetsStillOpen:
    """An index saved with int64 targets loads through one cast to the
    graph's int32, says so once on the ``repro.core.persistence`` logger,
    answers exactly as the index it was saved from (ids, distances,
    evals), and is written back with int32 targets."""

    @pytest.fixture(scope="class")
    def setup(self):
        pts = uniform_cube(300, 4, np.random.default_rng(43))
        queries = np.random.default_rng(44).uniform(size=(9, 4))
        return pts, queries, SearchParams(beam_width=24, seed=0)

    @staticmethod
    def _assert_answers(got, want) -> None:
        for field in ("ids", "distances", "evals"):
            assert np.array_equal(getattr(got, field), getattr(want, field)), field

    @staticmethod
    def _cast_warnings(caplog) -> list[str]:
        return [
            r.getMessage()
            for r in caplog.records
            if r.name == "repro.core.persistence" and r.levelno == logging.WARNING
        ]

    @pytest.mark.parametrize("layout", ["v4", "v5"])
    def test_flat_index(self, setup, tmp_path, caplog, layout):
        pts, queries, p = setup
        index = ProximityGraphIndex.build(
            pts, epsilon=1.0, method="vamana", seed=3, storage="sq8"
        )
        want = index.search(queries, k=5, params=p)
        if layout == "v4":
            path = index.save(tmp_path / "idx.npz")
        else:
            path = index.save(tmp_path / "idx", format="disk")
        _widen_targets(path)
        with caplog.at_level(logging.WARNING, logger="repro.core.persistence"):
            loaded = ProximityGraphIndex.load(path)
        (message,) = self._cast_warnings(caplog)
        assert str(path) in message
        assert "held in memory, not mapped" in message
        assert "writes int32" in message
        offsets, targets = loaded.graph.csr()
        assert targets.dtype == np.int32 and not isinstance(targets, np.memmap)
        assert loaded.graph == index.graph
        self._assert_answers(loaded.search(queries, k=5, params=p), want)

        caplog.clear()
        resaved = loaded.save(tmp_path / "again", format="disk")
        header = json.loads((resaved / DISK_HEADER_NAME).read_text())
        assert header["arrays"]["csr_targets"]["dtype"] == "int32"
        with caplog.at_level(logging.WARNING, logger="repro.core.persistence"):
            again = ProximityGraphIndex.load(resaved)
        assert self._cast_warnings(caplog) == []
        self._assert_answers(again.search(queries, k=5, params=p), want)

    def test_wide_id_is_refused_not_wrapped(self, setup, tmp_path):
        """An int64 target that int32 cannot hold (2**32 + 1 would wrap
        to vertex 1) is refused, though a mapped open skips the deep
        check: the cast reads every target anyway."""
        pts, _, _ = setup
        index = ProximityGraphIndex.build(pts, epsilon=1.0, method="vamana", seed=3)
        path = index.save(tmp_path / "idx", format="disk")
        _widen_targets(path)
        targets = np.fromfile(path / "csr_targets.bin", dtype=np.int64)
        targets[0] = 2**32 + 1
        targets.tofile(path / "csr_targets.bin")
        with pytest.raises(ValueError, match="neighbor id out of range"):
            ProximityGraphIndex.load(path)

    def test_v3_manifest_pooled_search(self, setup, tmp_path, caplog):
        pts, queries, p = setup
        sharded = ShardedIndex.build(
            pts, epsilon=1.0, method="vamana", seed=3, shards=2, workers=2
        )
        try:
            want = sharded.search(queries, k=5, params=p)
            path = sharded.save(tmp_path / "sharded")
        finally:
            sharded.close()
        shard_files = sorted(path.glob("shard-*.npz"))
        for shard_file in shard_files:
            _widen_targets(shard_file)
        with caplog.at_level(logging.WARNING, logger="repro.core.persistence"):
            loaded = ShardedIndex.load(path)
        try:
            messages = self._cast_warnings(caplog)
            assert len(messages) == len(shard_files) == 2
            assert all(str(f) in m for f, m in zip(shard_files, messages))
            assert loaded.workers == 2
            assert all(s.graph.csr()[1].dtype == np.int32 for s in loaded.shards)
            self._assert_answers(loaded.search(queries, k=5, params=p), want)
        finally:
            loaded.close()


class _Rows:
    """Shape-only stand-in for a point array: a length, nothing stored."""

    def __init__(self, n: int) -> None:
        self.n = n

    def __len__(self) -> int:
        return self.n


class TestVertexLimit:
    """Vertex ids are int32, so a graph, and an index build, refuse
    ``n >= 2**31`` by name before allocating anything of that size."""

    def test_limit(self):
        assert MAX_VERTICES == 2**31
        check_vertex_count(MAX_VERTICES - 1)
        with pytest.raises(ValueError, match=r"n=2147483648 vertices: vertex ids are int32"):
            check_vertex_count(MAX_VERTICES)

    def test_graph_refuses(self):
        with pytest.raises(ValueError, match="vertex ids are int32"):
            ProximityGraph(MAX_VERTICES)
        with pytest.raises(ValueError, match="vertex ids are int32"):
            ProximityGraph.from_csr(MAX_VERTICES, None, None)

    def test_build_refuses(self):
        with pytest.raises(ValueError, match="vertex ids are int32"):
            ProximityGraphIndex.build(_Rows(MAX_VERTICES), method="vamana")
