"""Structural integrity checks (`repro.core.integrity`) by failure
injection: every invariant is corrupted at least once and must fire
with its name in the violation message, and clean indexes (flat and
sharded, live and reloaded) must pass.  Also pins the CLI surface:
``repro index info --validate`` exits 1 and prints the violated
invariant when the saved artifact is corrupt.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro import ProximityGraphIndex, ShardedIndex
from repro.cli import main
from repro.core.integrity import (
    IntegrityError,
    check_flat_index,
    check_index,
    check_sharded_index,
    check_disk_layout,
    check_sharded_manifest,
    integrity_report,
)
from repro.core.persistence import DISK_HEADER_NAME, MANIFEST_NAME, load_any
from repro.graphs import ProximityGraph


def _points(seed: int = 0, n: int = 80, d: int = 3) -> np.ndarray:
    return np.random.default_rng(seed).uniform(size=(n, d))


@pytest.fixture
def flat_index() -> ProximityGraphIndex:
    return ProximityGraphIndex.build(_points(), method="vamana", seed=0)


# ----------------------------------------------------------------------
# Duck-typed fakes: each one corrupts exactly one invariant, so every
# branch of check_flat_index is reachable without fighting real
# builder internals.
# ----------------------------------------------------------------------


class _Graph:
    def __init__(self, offsets: np.ndarray, targets: np.ndarray) -> None:
        self._offsets = np.asarray(offsets, dtype=np.int64)
        self._targets = np.asarray(targets, dtype=np.intp)

    def csr(self) -> tuple[np.ndarray, np.ndarray]:
        return self._offsets, self._targets


class _IdMap:
    def __init__(self, externals: np.ndarray) -> None:
        self.externals = np.asarray(externals)


class _Store:
    def __init__(self, n: int) -> None:
        self.n = n


class _Fake:
    """Minimal structural double for a flat index (n=3, ring graph)."""

    def __init__(self, **overrides: object) -> None:
        self.n = 3
        self.active_count = 3
        self.graph = _Graph([0, 2, 4, 6], [1, 2, 0, 2, 0, 1])
        self._tombstones = np.zeros(3, dtype=bool)
        self.id_map = _IdMap(np.arange(3))
        self.store = _Store(3)
        for key, value in overrides.items():
            setattr(self, key, value)


def _violation_names(violations: list[str]) -> set[str]:
    return {v.split(":", 1)[0] for v in violations}


class TestFlatInvariants:
    def test_clean_fake_passes(self):
        assert check_flat_index(_Fake()) == []

    def test_csr_offsets_shape(self):
        fake = _Fake(graph=_Graph([0, 2, 4], [1, 2, 0, 2]))
        assert _violation_names(check_flat_index(fake)) == {"csr-offsets-shape"}

    def test_csr_offsets_start(self):
        fake = _Fake(graph=_Graph([1, 2, 4, 6], [1, 2, 0, 2, 0, 1]))
        assert "csr-offsets-start" in _violation_names(check_flat_index(fake))

    def test_csr_offsets_monotone(self):
        fake = _Fake(graph=_Graph([0, 4, 2, 6], [1, 2, 0, 2, 0, 1]))
        assert "csr-offsets-monotone" in _violation_names(
            check_flat_index(fake)
        )

    def test_csr_offsets_span(self):
        fake = _Fake(graph=_Graph([0, 2, 4, 5], [1, 2, 0, 2, 0, 1]))
        assert "csr-offsets-span" in _violation_names(check_flat_index(fake))

    def test_csr_targets_range(self):
        fake = _Fake(graph=_Graph([0, 2, 4, 6], [1, 2, 0, 9, 0, 1]))
        assert "csr-targets-range" in _violation_names(check_flat_index(fake))

    def test_tombstone_shape(self):
        fake = _Fake(_tombstones=np.zeros(5, dtype=bool))
        assert "tombstone-shape" in _violation_names(check_flat_index(fake))

    def test_tombstone_count(self):
        fake = _Fake(active_count=2)
        assert "tombstone-count" in _violation_names(check_flat_index(fake))

    def test_external_id_shape(self):
        fake = _Fake(id_map=_IdMap(np.arange(2)))
        assert "external-id-shape" in _violation_names(check_flat_index(fake))

    def test_external_id_negative(self):
        fake = _Fake(id_map=_IdMap(np.array([0, -1, 2])))
        assert "external-id-negative" in _violation_names(
            check_flat_index(fake)
        )

    def test_external_id_unique(self):
        fake = _Fake(id_map=_IdMap(np.array([0, 1, 1])))
        assert "external-id-unique" in _violation_names(check_flat_index(fake))

    def test_storage_count(self):
        fake = _Fake(store=_Store(7))
        assert "storage-count" in _violation_names(check_flat_index(fake))

    def test_label_prefixes_violations(self):
        fake = _Fake(store=_Store(7))
        (violation,) = check_flat_index(fake, label="shard[1]")
        assert violation.startswith("shard[1]: storage-count")


def _rot_first_target(index: ProximityGraphIndex, value: int) -> None:
    """Install a copy of the index's graph whose first edge points at
    ``value`` (graphs are read-only, so the rot comes in a new graph)."""
    offsets, targets = index.graph.csr()
    rotten = targets.copy()
    rotten[0] = value
    index.built.graph = ProximityGraph.from_csr(index.n, offsets, rotten, validate=False)


class TestRealIndexes:
    def test_built_flat_index_is_clean(self, flat_index):
        assert check_flat_index(flat_index) == []
        report = integrity_report(flat_index)
        assert report["ok"] and report["violations"] == []

    def test_corrupted_targets_fire_on_real_index(self, flat_index):
        _rot_first_target(flat_index, flat_index.n + 5)  # simulated bit-rot
        assert "csr-targets-range" in _violation_names(
            check_flat_index(flat_index)
        )

    def test_strict_mode_raises_with_invariant_name(self, flat_index):
        _rot_first_target(flat_index, -3)
        with pytest.raises(IntegrityError, match="csr-targets-range"):
            integrity_report(flat_index, strict=True)

    def test_built_sharded_index_is_clean(self):
        sharded = ShardedIndex.build(
            _points(), method="vamana", shards=2, seed=0
        )
        assert check_sharded_index(sharded) == []
        assert check_index(sharded) == []

    def test_cross_shard_duplicate_externals(self):
        sharded = ShardedIndex.build(
            _points(), method="vamana", shards=2, seed=0
        )
        # Clone shard 1's external-id array with a value stolen from
        # shard 0 — only the *cross-shard* invariant should fire.
        stolen = int(np.asarray(sharded.shards[0].id_map.externals)[0])
        # ``externals`` is a read-only view; corrupt the backing array.
        sharded.shards[1].id_map._ext[0] = stolen
        names = _violation_names(check_sharded_index(sharded))
        assert "external-id-unique-across-shards" in names


class TestManifestChecks:
    def _saved_sharded(self, tmp_path):
        sharded = ShardedIndex.build(
            _points(), method="vamana", shards=2, seed=0
        )
        out = tmp_path / "sharded_idx"
        sharded.save(out)
        return out

    def test_clean_manifest_passes(self, tmp_path):
        out = self._saved_sharded(tmp_path)
        assert check_sharded_manifest(out) == []

    def test_shard_count_mismatch(self, tmp_path):
        out = self._saved_sharded(tmp_path)
        manifest = json.loads((out / MANIFEST_NAME).read_text())
        manifest["shards"] = 5
        (out / MANIFEST_NAME).write_text(json.dumps(manifest))
        names = _violation_names(check_sharded_manifest(out))
        assert names == {"manifest-shard-count"}

    def test_non_integer_shard_count(self, tmp_path):
        out = self._saved_sharded(tmp_path)
        manifest = json.loads((out / MANIFEST_NAME).read_text())
        manifest["shards"] = "two"
        (out / MANIFEST_NAME).write_text(json.dumps(manifest))
        assert "manifest-shard-count" in _violation_names(
            check_sharded_manifest(out)
        )

    def test_missing_shard_file(self, tmp_path):
        out = self._saved_sharded(tmp_path)
        manifest = json.loads((out / MANIFEST_NAME).read_text())
        victim = manifest["shard_files"][0]
        (out / victim).unlink()
        assert "manifest-shard-files" in _violation_names(
            check_sharded_manifest(out)
        )

    def test_manifest_missing(self, tmp_path):
        empty = tmp_path / "not_an_index"
        empty.mkdir()
        assert "manifest-missing" in _violation_names(
            check_sharded_manifest(empty)
        )

    def test_manifest_unreadable(self, tmp_path):
        out = self._saved_sharded(tmp_path)
        (out / MANIFEST_NAME).write_text("{not json")
        assert "manifest-unreadable" in _violation_names(
            check_sharded_manifest(out)
        )


class TestCliValidate:
    def test_flat_validate_clean(self, tmp_path, flat_index, capsys):
        saved = flat_index.save(tmp_path / "flat.npz")
        assert main(["index", "info", str(saved), "--validate"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["integrity"]["ok"] is True

    def test_sharded_validate_clean(self, tmp_path, capsys):
        sharded = ShardedIndex.build(
            _points(), method="vamana", shards=2, seed=0
        )
        out = tmp_path / "sharded_idx"
        sharded.save(out)
        assert main(["index", "info", str(out), "--validate"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["integrity"]["ok"] is True

    def test_corrupt_manifest_fails_loud(self, tmp_path, capsys):
        sharded = ShardedIndex.build(
            _points(), method="vamana", shards=2, seed=0
        )
        out = tmp_path / "sharded_idx"
        sharded.save(out)
        manifest = json.loads((out / MANIFEST_NAME).read_text())
        manifest["shards"] = 5
        (out / MANIFEST_NAME).write_text(json.dumps(manifest))
        assert main(["index", "info", str(out), "--validate"]) == 1
        err = capsys.readouterr().err
        assert "INTEGRITY VIOLATION" in err
        assert "manifest-shard-count" in err

    @pytest.mark.parametrize("fault, invariant", [
        (None, None),
        ("truncate-vectors", "disk-array-size"),
        ("target-out-of-range", "csr-targets-range"),
    ])
    def test_disk_directory_validate(
        self, tmp_path, flat_index, capsys, fault, invariant
    ):
        """A v5 directory: a layout the loader refuses is reported by the
        loader's own invariant names; a layout it attaches (its CSR is
        not read on open) still fails on the live-graph CSR checks."""
        out = flat_index.save(tmp_path / "v5", format="disk")
        if fault == "truncate-vectors":
            data = (out / "vectors.bin").read_bytes()
            (out / "vectors.bin").write_bytes(data[: len(data) // 2])
        elif fault == "target-out-of-range":
            entry = json.loads((out / DISK_HEADER_NAME).read_text())["arrays"]
            dtype = entry["csr_targets"]["dtype"]
            targets = np.fromfile(out / "csr_targets.bin", dtype=dtype)
            targets[0] = flat_index.n + 5
            targets.tofile(out / "csr_targets.bin")
        code = main(["index", "info", str(out), "--validate"])
        err = capsys.readouterr().err
        if fault is None:
            assert code == 0 and err == ""
        else:
            assert code == 1 and f"INTEGRITY VIOLATION: {invariant}" in err

    def test_info_without_validate_still_works(self, tmp_path, flat_index, capsys):
        saved = flat_index.save(tmp_path / "flat.npz")
        assert main(["index", "info", str(saved)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "integrity" not in payload


class TestCsrArrayDtype:
    """A CSR array saved or labelled with a width the graph cannot adopt
    is refused by name (``disk-array-dtype``), by the loader, by
    ``check_disk_layout`` and by ``repro index info --validate``; read as
    ids, a float array would pass as a graph of wrong edges.  The label
    keeps the saved item size, so every array-size check still passes.
    A header dtype that is no dtype at all is named the same way instead
    of escaping as a ``TypeError``."""

    @staticmethod
    def _float_of_width(dtype: str) -> str:
        return {4: "float32", 8: "float64"}[np.dtype(dtype).itemsize]

    @pytest.mark.parametrize("stem", ["csr_offsets", "csr_targets"])
    def test_v5_header_dtype(self, tmp_path, flat_index, capsys, stem):
        out = flat_index.save(tmp_path / "v5", format="disk")
        header = json.loads((out / DISK_HEADER_NAME).read_text())
        entry = header["arrays"][stem]
        entry["dtype"] = self._float_of_width(entry["dtype"])
        (out / DISK_HEADER_NAME).write_text(json.dumps(header))
        with pytest.raises(ValueError, match=f"disk-array-dtype: .*{stem}"):
            load_any(out)
        assert any(
            v.startswith("disk-array-dtype") and stem in v
            for v in check_disk_layout(out)
        )
        assert main(["index", "info", str(out), "--validate"]) == 1
        err = capsys.readouterr().err
        assert "INTEGRITY VIOLATION: disk-array-dtype" in err

    def test_v5_header_unknown_dtype(self, tmp_path, flat_index, capsys):
        out = flat_index.save(tmp_path / "v5", format="disk")
        header = json.loads((out / DISK_HEADER_NAME).read_text())
        header["arrays"]["tombstones"]["dtype"] = "nonsense"
        (out / DISK_HEADER_NAME).write_text(json.dumps(header))
        with pytest.raises(ValueError, match="disk-array-dtype: .*'nonsense'"):
            load_any(out)
        assert main(["index", "info", str(out), "--validate"]) == 1
        assert "INTEGRITY VIOLATION: disk-array-dtype" in capsys.readouterr().err

    @pytest.mark.parametrize("member", ["offsets", "targets"])
    def test_v4_member_dtype(self, tmp_path, flat_index, capsys, member):
        path = flat_index.save(tmp_path / "v4.npz")
        with np.load(path) as data:
            payload = {k: data[k] for k in data.files}
        payload[member] = payload[member].astype(np.float64)
        np.savez(path, **payload)
        with pytest.raises(ValueError, match="disk-array-dtype: .*csr_"):
            load_any(path)
        assert main(["index", "info", str(path), "--validate"]) == 1
        assert "INTEGRITY VIOLATION: disk-array-dtype" in capsys.readouterr().err
