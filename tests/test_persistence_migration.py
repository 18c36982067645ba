"""Flat indexes into v3 sharded manifest directories, and back out.

Any flat file can be adopted as a shard of a v3 manifest directory,
search answers survive the step bit-for-bit, and a reloaded sharded
index stays fully mutable.  Partial or corrupt v3 directories must fail
loudly with an error naming the problem — never load quietly.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro import ProximityGraphIndex, SearchParams, ShardedIndex, load_any
from repro.core.persistence import (
    MANIFEST_NAME,
    SHARDED_FORMAT_VERSION,
    load_index,
    load_sharded_index,
)
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
