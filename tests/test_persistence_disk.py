"""Format v5: the disk directory and its mmap-backed two-tier index.

The contract (PR 9 tentpole): ``save(format="disk")`` writes a
directory of raw binary array files committed by a trailing
``header.json``; ``load(path)`` lazily attaches them read-only via
``np.memmap`` and wraps the store in a
:class:`~repro.storage.disk.DiskTierStore` so graph traversal touches
only the hot tier (codes + CSR) while ``vectors.bin`` — the cold tier
— is paged in solely by the exact-rerank gather.  Everything must be
bit-identical to the in-RAM index; mutation is copy-on-write (the
mapping is never written through); torn or mislabeled directories fail
loudly with the violated invariant named.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np
import pytest

from repro import (
    ProximityGraphIndex,
    SearchParams,
    ShardedIndex,
    load_any,
)
from repro.accel.dispatch import _plan
from repro.core import persistence
from repro.core.integrity import check_disk_layout
from repro.core.persistence import (
    DISK_FORMAT_VERSION,
    DISK_HEADER_NAME,
    FORMAT_VERSION,
    MANIFEST_NAME,
    load_index,
    save_index,
)
from repro.serve.state import IndexHolder
from repro.storage import StorageConfigError
from repro.storage.disk import DiskTierStore, advise_memmap
from repro.workloads import uniform_cube

N = 110
D = 3
STORAGES = ["flat", "sq8"]


def _build(storage: str = "sq8", n: int = N, seed: int = 3) -> ProximityGraphIndex:
    pts = uniform_cube(n, D, np.random.default_rng(seed))
    return ProximityGraphIndex.build(
        pts, epsilon=1.0, method="vamana", seed=seed, storage=storage
    )


@pytest.fixture(scope="module")
def queries() -> np.ndarray:
    return np.random.default_rng(7).uniform(size=(16, D))


def _edit_npz_header(path, edit) -> None:
    """Rewrite a v4 ``.npz`` in place with ``edit(header)`` applied."""
    with np.load(path) as data:
        payload = {k: data[k] for k in data.files}
    header = json.loads(bytes(payload["header"].tobytes()).decode())
    edit(header)
    payload["header"] = np.frombuffer(
        json.dumps(header).encode(), dtype=np.uint8
    )
    np.savez(path, **payload)


def _search(index, queries, k: int = 5):
    return index.search(queries, k=k, params=SearchParams(seed=0))


def _assert_identical(a, b) -> None:
    assert np.array_equal(a.ids, b.ids)
    assert np.array_equal(a.distances, b.distances)


# ----------------------------------------------------------------------
# Round trips
# ----------------------------------------------------------------------


class TestV5RoundTrip:
    @pytest.mark.parametrize("storage", STORAGES)
    def test_bit_identical_search(self, storage, queries, tmp_path):
        index = _build(storage)
        want = _search(index, queries)
        out = index.save(tmp_path / "idx", format="disk")
        loaded = load_index(out)
        assert isinstance(loaded.store, DiskTierStore)
        assert loaded.store.kind == storage
        _assert_identical(want, _search(loaded, queries))

    def test_mmap_is_the_default_and_lazily_attaches(self, tmp_path):
        out = _build("sq8").save(tmp_path / "idx", format="disk")
        loaded = ProximityGraphIndex.load(out)
        # Cold tier and hot-tier codes are mapped, not read: the codes
        # come back as a zero-copy view over the mapping (the store's
        # ``np.asarray`` strips the subclass but not the backing file).
        assert isinstance(loaded.dataset.points, np.memmap)
        assert isinstance(loaded.store.codes.base, np.memmap)
        assert not loaded.dataset.points.flags.writeable
        # Mutable state is always eagerly owned: delete() writes the
        # tombstone mask in place and must never touch the mapping.
        assert not isinstance(loaded._tombstones, np.memmap)
        assert not isinstance(loaded.id_map.externals, np.memmap)

    def test_layout_on_disk(self, tmp_path):
        out = _build("sq8").save(tmp_path / "idx", format="disk")
        names = sorted(p.name for p in out.iterdir())
        assert names == [
            "codes.bin", "csr_offsets.bin", "csr_targets.bin",
            "external_ids.bin", "header.json", "store_minv.bin",
            "store_scale.bin", "tombstones.bin", "vectors.bin",
        ]
        header = json.loads((out / DISK_HEADER_NAME).read_text())
        assert header["format_version"] == DISK_FORMAT_VERSION == 5
        assert header["kind"] == "disk-index"
        # Every declared array is exactly dtype * prod(shape) bytes.
        for entry in header["arrays"].values():
            expected = np.dtype(entry["dtype"]).itemsize * int(
                np.prod(entry["shape"])
            )
            assert (out / entry["file"]).stat().st_size == expected

    def test_second_generation_disk_round_trip(self, queries, tmp_path):
        index = _build("sq8")
        index.save(tmp_path / "gen1", format="disk")
        gen1 = load_any(tmp_path / "gen1")
        gen1.save(tmp_path / "gen2", format="disk")
        gen2 = load_any(tmp_path / "gen2")
        _assert_identical(_search(gen1, queries), _search(gen2, queries))

    def test_migration_v5_to_v4_and_back(self, queries, tmp_path):
        """The chain extends both ways: a mapped v5 index re-saves as a
        v4 .npz, and that .npz re-saves as v5 — answers survive."""
        index = _build("sq8")
        want = _search(index, queries)
        index.save(tmp_path / "v5", format="disk")
        mapped = load_any(tmp_path / "v5")
        back = mapped.save(tmp_path / "flat.npz")  # defaults to npz v4
        with np.load(back) as data:
            header = json.loads(bytes(data["header"].tobytes()).decode())
        assert header["format_version"] == FORMAT_VERSION == 4
        again = load_any(back)
        again.save(tmp_path / "v5b", format="disk")
        final = load_any(tmp_path / "v5b")
        _assert_identical(want, _search(final, queries))

    def test_resave_into_its_own_directory(self, queries, tmp_path):
        """A mapped index re-saved into the directory it is mapped from
        must not read its own arrays back truncated: every file is
        replaced by rename, never rewritten in place.  (n = 600 makes
        ``csr_offsets.bin`` larger than a stdio buffer, so an in-place
        rewrite fails with an error rather than a bus error.)"""
        index = _build("sq8", n=600)
        out = index.save(tmp_path / "idx", format="disk")
        mapped = load_any(out)
        assert isinstance(mapped.store, DiskTierStore)
        index.delete([3])
        mapped.delete([3])
        mapped.save(out, format="disk")
        reloaded = load_any(out)
        _assert_identical(_search(index, queries), _search(reloaded, queries))
        assert np.array_equal(reloaded._tombstones, index._tombstones)
        assert check_disk_layout(out) == []

    def test_mutation_state_round_trips(self, queries, tmp_path):
        index = _build("sq8")
        index.delete([1, 2, 3])
        added = index.add(np.random.default_rng(9).uniform(size=(4, D)))
        want = _search(index, queries)
        index.save(tmp_path / "idx", format="disk")
        loaded = load_any(tmp_path / "idx")
        _assert_identical(want, _search(loaded, queries))
        assert loaded.tombstone_count == 3
        more = loaded.add(np.random.default_rng(10).uniform(size=(1, D)))
        assert int(more[0]) == int(added.max()) + 1


class TestUncompressedNpz:
    """Satellite: ``compress=False`` writes a plain (uncompressed) v4
    .npz that loads identically — the fast-save option for large
    indexes staying on the npz path."""

    def test_round_trip_and_size(self, queries, tmp_path):
        index = _build("sq8")
        fast = save_index(index, tmp_path / "fast.npz", compress=False)
        small = save_index(index, tmp_path / "small.npz", compress=True)
        assert fast.stat().st_size >= small.stat().st_size
        _assert_identical(
            _search(load_index(fast), queries),
            _search(load_index(small), queries),
        )

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unknown save format"):
            save_index(_build("flat"), tmp_path / "x", format="tar")


class TestStoredBackendIsIgnored:
    """Headers written while ``build()`` still recorded the accel
    backend name one (here: one this library no longer knows).  It was
    an execution choice of the box that built the index, not
    provenance: it must neither stop ``compact()`` nor change what
    ``compact()`` builds."""

    def _plant(self, path, fmt: str) -> None:
        def stale(header):
            header["options"]["backend"] = "numba"

        if fmt == "npz":
            _edit_npz_header(path, stale)
            return
        header = json.loads((path / DISK_HEADER_NAME).read_text())
        stale(header)
        (path / DISK_HEADER_NAME).write_text(json.dumps(header))

    @pytest.mark.parametrize("fmt", ["npz", "disk"])
    def test_stale_backend_loads_and_compacts_identically(self, fmt, tmp_path):
        pts = uniform_cube(N, D, np.random.default_rng(3))
        index = ProximityGraphIndex.build(
            pts, epsilon=1.0, method="vamana", seed=3,
            batch_size=16, backend="auto",
        )
        assert index.built.options == {"batch_size": 16}
        clean = index.save(tmp_path / "clean", format=fmt)
        stale = index.save(tmp_path / "stale", format=fmt)
        self._plant(stale, fmt)
        compacted = []
        for path in (clean, stale):
            loaded = load_any(path)
            assert loaded.built.options == {"batch_size": 16}
            loaded.delete([0, 1, 2])
            loaded.compact()
            compacted.append([np.asarray(a) for a in loaded.graph.csr()])
        for want, got in zip(*compacted):
            assert np.array_equal(want, got) and want.dtype == got.dtype


# ----------------------------------------------------------------------
# Precise wrong-loader errors
# ----------------------------------------------------------------------


class TestPreciseLoaderErrors:
    def test_manifest_dir_fed_to_load_index(self, tmp_path):
        pts = uniform_cube(60, D, np.random.default_rng(1))
        out = ShardedIndex.build(pts, method="vamana", shards=2, seed=1).save(
            tmp_path / "sharded"
        )
        with pytest.raises(
            ValueError, match=r"manifest directory.*load_sharded_index"
        ):
            load_index(out)

    def test_directory_without_either_marker(self, tmp_path):
        (tmp_path / "junk").mkdir()
        with pytest.raises(
            ValueError, match=rf"{DISK_HEADER_NAME}.*{MANIFEST_NAME}"
        ):
            load_index(tmp_path / "junk")

    @pytest.mark.parametrize("form", ["v4", "v5", "sharded"])
    def test_a_stored_pq_index_names_the_way_back(self, form, tmp_path):
        """Product quantization is gone: an index saved with it fails in
        every loader with one error naming the kind and the recovery."""

        def to_pq(header):
            header["storage"]["kind"] = "pq"

        if form == "sharded":
            pts = uniform_cube(90, D, np.random.default_rng(2))
            out = ShardedIndex.build(
                pts, method="vamana", shards=2, seed=2, storage="sq8"
            ).save(tmp_path / "sharded")
            manifest = json.loads((out / MANIFEST_NAME).read_text())
            _edit_npz_header(out / manifest["shard_files"][0], to_pq)
        elif form == "v4":
            out = _build("sq8").save(tmp_path / "idx.npz")
            _edit_npz_header(out, to_pq)
        else:
            out = _build("sq8").save(tmp_path / "idx", format="disk")
            header = json.loads((out / DISK_HEADER_NAME).read_text())
            to_pq(header)
            (out / DISK_HEADER_NAME).write_text(json.dumps(header))
        with pytest.raises(StorageConfigError) as exc:
            load_any(out)
        message = str(exc.value)
        assert "'pq'" in message and "no longer supported" in message
        assert 'set_storage("sq8")' in message and "save it again" in message


# ----------------------------------------------------------------------
# Torn / mislabeled directories fail loudly (satellite: mmap robustness)
# ----------------------------------------------------------------------


class TestDiskRobustness:
    @pytest.fixture
    def saved(self, tmp_path):
        return _build("sq8").save(tmp_path / "idx", format="disk")

    def test_clean_directory_validates(self, saved):
        assert check_disk_layout(saved) == []

    def test_truncated_vectors(self, saved):
        data = (saved / "vectors.bin").read_bytes()
        (saved / "vectors.bin").write_bytes(data[: len(data) // 2])
        with pytest.raises(ValueError, match="disk-array-size"):
            load_any(saved)
        assert any("disk-array-size" in v for v in check_disk_layout(saved))

    def test_missing_tier_file(self, saved):
        (saved / "codes.bin").unlink()
        with pytest.raises(ValueError, match="disk-file-missing"):
            load_any(saved)
        assert any("disk-file-missing" in v for v in check_disk_layout(saved))

    def test_header_row_count_mismatch(self, saved):
        header = json.loads((saved / DISK_HEADER_NAME).read_text())
        # Shrinking n leaves every per-point shape (still truthful about
        # its file) disagreeing with the header's row count.
        header["n"] = int(header["n"]) - 1
        (saved / DISK_HEADER_NAME).write_text(json.dumps(header))
        with pytest.raises(ValueError, match="disk-array-rows"):
            load_any(saved)
        assert any("disk-array-rows" in v for v in check_disk_layout(saved))

    def test_interrupted_save_has_no_commit_marker(self, saved):
        """header.json is written last; a save that died mid-way leaves
        a directory the loader refuses by name."""
        (saved / DISK_HEADER_NAME).unlink()
        with pytest.raises(ValueError, match=DISK_HEADER_NAME):
            load_index(saved)
        violations = check_disk_layout(saved)
        assert len(violations) == 1 and "disk-header-missing" in violations[0]

    def test_corrupt_header_json(self, saved):
        (saved / DISK_HEADER_NAME).write_text("{not json")
        with pytest.raises(ValueError, match="corrupt disk-index header"):
            load_any(saved)
        assert any(
            "disk-header-unreadable" in v for v in check_disk_layout(saved)
        )

    def test_wrong_header_version(self, saved):
        header = json.loads((saved / DISK_HEADER_NAME).read_text())
        header["format_version"] = 99
        (saved / DISK_HEADER_NAME).write_text(json.dumps(header))
        with pytest.raises(ValueError, match="not a v5 disk-index header"):
            load_any(saved)
        assert any(
            "disk-header-version" in v for v in check_disk_layout(saved)
        )

    def test_required_array_dropped_from_manifest(self, saved):
        header = json.loads((saved / DISK_HEADER_NAME).read_text())
        del header["arrays"]["external_ids"]
        (saved / DISK_HEADER_NAME).write_text(json.dumps(header))
        with pytest.raises(ValueError, match="disk-array-missing"):
            load_any(saved)
        assert any(
            "disk-array-missing" in v for v in check_disk_layout(saved)
        )

    @staticmethod
    def _truncate_vectors(saved):
        data = (saved / "vectors.bin").read_bytes()
        (saved / "vectors.bin").write_bytes(data[: len(data) // 2])

    @staticmethod
    def _edit_header(saved, edit):
        header = json.loads((saved / DISK_HEADER_NAME).read_text())
        edit(header)
        (saved / DISK_HEADER_NAME).write_text(json.dumps(header))

    @pytest.mark.parametrize("invariant, fault", [
        ("disk-array-size", lambda s: TestDiskRobustness._truncate_vectors(s)),
        ("disk-file-missing", lambda s: (s / "codes.bin").unlink()),
        ("disk-array-rows", lambda s: TestDiskRobustness._edit_header(
            s, lambda h: h.update(n=h["n"] - 1))),
        ("disk-array-missing", lambda s: TestDiskRobustness._edit_header(
            s, lambda h: h["arrays"].pop("external_ids"))),
        ("disk-header-version", lambda s: TestDiskRobustness._edit_header(
            s, lambda h: h.update(format_version=99))),
    ], ids=lambda v: v if isinstance(v, str) else "")
    def test_loader_and_checker_name_the_same_invariant(
        self, saved, invariant, fault
    ):
        """One layout check serves both: whatever the loader refuses a
        directory for, ``check_disk_layout`` reports under the same
        invariant names (plus its deep CSR checks, which the mmap open
        skips)."""
        fault(saved)
        with pytest.raises(ValueError) as exc:
            load_index(saved)
        refused = {line.split(":", 1)[0] for line in str(exc.value).splitlines()}
        checked = {v.split(":", 1)[0] for v in check_disk_layout(saved)}
        assert invariant in refused
        assert refused == {name for name in checked if not name.startswith("csr-")}

    def test_interrupted_resave_is_refused_by_name(self, saved, monkeypatch):
        """A re-save that dies after replacing its first array must leave
        no ``header.json`` behind, so the directory is refused by name
        instead of attaching a mix of old and new arrays."""
        index = _build("sq8")
        index.delete([3])
        real_replace = os.replace
        calls = []

        def replace_once(src, dst):
            calls.append(dst)
            if len(calls) > 1:
                raise OSError("simulated crash mid-save")
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", replace_once)
        with pytest.raises(ValueError, match="disk-dir-unwritable"):
            index.save(saved, format="disk")
        monkeypatch.undo()
        assert len(calls) == 2 and not list(saved.glob("*.tmp"))
        with pytest.raises(ValueError, match=DISK_HEADER_NAME):
            load_any(saved)
        violations = check_disk_layout(saved)
        assert len(violations) == 1 and "disk-header-missing" in violations[0]

    def test_resave_removes_the_files_its_header_drops(self, saved, capsys):
        """An sq8 directory re-saved as flat keeps no ``codes.bin`` or
        ``store_*.bin``; a ``.bin`` the header does not list is reported
        by name, by ``repro index info --validate`` too, and the loader
        still opens the directory."""
        from repro.cli import main

        index = _build("sq8")
        index.set_storage("flat")
        index.save(saved, format="disk")
        header = json.loads((saved / DISK_HEADER_NAME).read_text())
        listed = {entry["file"] for entry in header["arrays"].values()}
        assert {p.name for p in saved.iterdir()} == listed | {DISK_HEADER_NAME}
        assert check_disk_layout(saved) == []
        (saved / "codes.bin").write_bytes(bytes(8))
        violations = check_disk_layout(saved)
        assert len(violations) == 1
        assert violations[0].startswith("disk-file-unlisted") and "codes.bin" in violations[0]
        assert main(["index", "info", str(saved), "--validate"]) == 1
        assert "INTEGRITY VIOLATION: disk-file-unlisted" in capsys.readouterr().err
        assert load_any(saved).n == index.n

    def test_unwritable_target_named_at_save_time(self, tmp_path):
        # A file where a path component should be a directory trips the
        # same OSError funnel as a read-only filesystem, and does so
        # even when the suite runs as root (chmod is advisory there).
        blocker = tmp_path / "blocker"
        blocker.write_text("in the way")
        with pytest.raises(ValueError, match="disk-dir-unwritable"):
            _build("flat").save(blocker / "idx", format="disk")

    def test_save_refuses_existing_file_target(self, tmp_path):
        target = tmp_path / "taken"
        target.write_text("already a file")
        with pytest.raises(ValueError, match="not a directory"):
            _build("flat").save(target, format="disk")


# ----------------------------------------------------------------------
# DiskTierStore behavior
# ----------------------------------------------------------------------


class TestDiskTierStore:
    @pytest.fixture
    def mapped(self, tmp_path):
        out = _build("sq8").save(tmp_path / "idx", format="disk")
        return load_any(out)

    def test_rejects_nesting(self, mapped):
        with pytest.raises(ValueError, match="cannot wrap another"):
            DiskTierStore(mapped.store, mapped.dataset.points)

    def test_rejects_row_count_mismatch(self, mapped):
        with pytest.raises(ValueError, match="cold tier holds"):
            DiskTierStore(mapped.store.inner, mapped.dataset.points[:-1])

    def test_rerank_gather_is_bit_identical(self, mapped, queries):
        """The ascending-offset gather must scatter distances back in
        candidate order, bit-identical to the in-RAM store's direct
        fancy-index."""
        cand = np.array([17, 3, 99, 3, 42, 0], dtype=np.intp)  # unsorted, dup
        for q in queries[:4]:
            got = mapped.store.rerank_distances(mapped.dataset, q, cand)
            want = mapped.store.inner.rerank_distances(mapped.dataset, q, cand)
            assert np.array_equal(got, want)

    def test_clone_shares_the_mapping(self, mapped):
        clone = mapped.store.clone()
        assert clone is not mapped.store
        assert clone.inner is not mapped.store.inner
        assert np.shares_memory(clone.vectors, mapped.store.vectors)

    def test_summary_reports_disk_backing(self, mapped):
        assert mapped.store.summary()["disk_backed"] is True
        assert "disk_backed" not in mapped.store.inner.summary()

    def test_advise_memmap_hints(self, mapped):
        arr = mapped.dataset.points
        assert isinstance(arr, np.memmap)
        # On Linux the mmap handle exposes madvise; a plain ndarray and
        # an unknown pattern are silent no-ops either way.
        assert advise_memmap(np.zeros(4), "random") is False
        assert advise_memmap(arr, "no-such-pattern") is False
        assert advise_memmap(arr, "random") in (True, False)


class TestColdTierIsolation:
    def test_traversal_never_reads_the_vectors(self, queries, tmp_path):
        """The tripwire for the whole tier split: poison ``dataset.points``
        (traversal's only route to full-precision rows outside the
        store) and keep the cold tier only on ``store.vectors`` — a
        quantized index must still answer bit-identically, proving
        traversal runs on codes + CSR and exact rerank goes through
        :meth:`DiskTierStore.rerank_distances` alone."""
        index = _build("sq8")
        want = _search(index, queries)
        out = index.save(tmp_path / "idx", format="disk")
        loaded = load_any(out)
        poison = np.full_like(np.asarray(loaded.dataset.points), np.nan)
        loaded.dataset.points = poison
        got = _search(loaded, queries)
        _assert_identical(want, got)
        assert np.all(np.isfinite(got.distances[got.ids >= 0]))


class TestAccelZeroCopy:
    """Pinned for :mod:`repro.accel.dispatch`: the planner's exports
    adopt mmap-backed arrays without copying, so compiled traversal
    reads straight from the page cache."""

    def test_sq8_codes_pass_through(self, queries, tmp_path):
        out = _build("sq8").save(tmp_path / "idx", format="disk")
        loaded = load_any(out)
        plan = _plan(loaded.dataset, loaded.store, np.asarray(queries))
        assert isinstance(loaded.store.codes.base, np.memmap)
        assert np.shares_memory(plan.codes, loaded.store.codes)

    def test_flat_points_pass_through(self, queries, tmp_path):
        out = _build("flat").save(tmp_path / "idx", format="disk")
        loaded = load_any(out)
        plan = _plan(loaded.dataset, loaded.store, np.asarray(queries))
        assert np.shares_memory(plan.data, loaded.dataset.points)


# ----------------------------------------------------------------------
# Copy-on-write mutation + serving over a mapped index
# ----------------------------------------------------------------------


class TestCopyOnWriteMutation:
    def test_add_materializes_and_never_writes_the_mapping(
        self, queries, tmp_path
    ):
        out = _build("sq8").save(tmp_path / "idx", format="disk")
        before = (out / "vectors.bin").read_bytes()
        loaded = load_any(out)
        assert isinstance(loaded.store, DiskTierStore)
        new_ids = loaded.add(np.random.default_rng(11).uniform(size=(3, D)))
        assert len(new_ids) == 3
        # The collection materialized into RAM and the wrapper unwrapped:
        # the cold tier no longer backs the (now grown) point array.
        assert not isinstance(loaded.dataset.points, np.memmap)
        assert not isinstance(loaded.store, DiskTierStore)
        assert loaded.n == N + 3
        # ... and the file on disk is untouched, byte for byte.
        assert (out / "vectors.bin").read_bytes() == before
        assert _search(loaded, queries) is not None

    def test_delete_stays_off_the_mapping(self, tmp_path):
        out = _build("sq8").save(tmp_path / "idx", format="disk")
        before = (out / "tombstones.bin").read_bytes()
        loaded = load_any(out)
        assert loaded.delete([0, 5]) == 2
        assert isinstance(loaded.store, DiskTierStore)  # still mapped
        assert (out / "tombstones.bin").read_bytes() == before

    def test_snapshot_shares_the_mapping(self, queries, tmp_path):
        out = _build("sq8").save(tmp_path / "idx", format="disk")
        loaded = load_any(out)
        snap = loaded.snapshot()
        assert np.shares_memory(snap.dataset.points, loaded.dataset.points)
        assert np.shares_memory(snap.store.codes, loaded.store.codes)
        _assert_identical(_search(loaded, queries), _search(snap, queries))


class TestServingOverMmap:
    def test_holder_swap_preserves_readers(self, queries, tmp_path):
        """The serving layer's snapshot-swap works unchanged over a
        mapped index: a reader holding the old state keeps bit-identical
        answers across a concurrent ``add``, and the mutation never
        writes through the mapping."""
        out = _build("sq8").save(tmp_path / "idx", format="disk")
        before = (out / "vectors.bin").read_bytes()
        holder = IndexHolder(load_any(out))
        old_index, old_gen = holder.state
        want_old = _search(old_index, queries)
        holder.add(np.random.default_rng(12).uniform(size=(2, D)))
        new_index, new_gen = holder.state
        assert new_gen == old_gen + 1 and new_index is not old_index
        # The retained reader still serves the pre-mutation answers.
        _assert_identical(want_old, _search(old_index, queries))
        assert new_index.n == old_index.n + 2
        assert (out / "vectors.bin").read_bytes() == before


# ----------------------------------------------------------------------
# Sharded indexes save/load v5 shards
# ----------------------------------------------------------------------


class TestShardedDiskFormat:
    @pytest.fixture(scope="class")
    def sharded(self):
        pts = uniform_cube(120, D, np.random.default_rng(4))
        return ShardedIndex.build(
            pts, epsilon=1.0, method="vamana", shards=3, seed=4, storage="sq8"
        )

    def test_round_trip_bit_identical(self, sharded, queries, tmp_path):
        want = sharded.search(queries, k=5)
        out = sharded.save(tmp_path / "idx", format="disk")
        manifest = json.loads((out / MANIFEST_NAME).read_text())
        assert manifest["shard_format"] == "disk"
        assert all(
            (out / name).is_dir() and name.endswith(".disk")
            for name in manifest["shard_files"]
        )
        loaded = load_any(out)
        got = loaded.search(queries, k=5)
        assert np.array_equal(want.ids, got.ids)
        assert np.array_equal(want.distances, got.distances)
        assert all(
            isinstance(s.store, DiskTierStore) for s in loaded.shards
        )

    def test_resave_npz_cleans_stale_disk_shards(self, sharded, tmp_path):
        out = sharded.save(tmp_path / "reused", format="disk")
        assert list(out.glob("shard-*.disk"))
        sharded.save(out)  # back to npz shards in the same directory
        assert not list(out.glob("shard-*.disk"))
        assert len(list(out.glob("shard-*.npz"))) == 3
        assert load_any(out).n == sharded.n

    def test_mutation_on_mapped_shards(self, sharded, tmp_path):
        out = sharded.save(tmp_path / "idx", format="disk")
        loaded = load_any(out)
        loaded.delete([1, 2])
        new = loaded.add(np.random.default_rng(13).uniform(size=(2, D)))
        assert loaded.tombstone_count == 2 and len(new) == 2


class TestShardedResave:
    @pytest.fixture(scope="class")
    def sharded(self):
        pts = uniform_cube(120, D, np.random.default_rng(8))
        return ShardedIndex.build(pts, epsilon=1.0, method="vamana", shards=2, seed=8)

    @pytest.mark.parametrize("fmt", ["npz", "disk"])
    @pytest.mark.parametrize("fail_at", ["shard-000", "shard-001", MANIFEST_NAME])
    def test_interrupted_resave_never_loads_a_mix(
        self, sharded, fmt, fail_at, tmp_path, monkeypatch
    ):
        """A re-save that dies at any shard, or at the manifest, leaves a
        directory the loader refuses by name: never the old manifest over
        a mix of old and new shards."""
        out = sharded.save(tmp_path / "idx", format=fmt)
        index = load_any(out)
        index.delete(np.arange(0, index.n, 2))
        real_save, real_write = persistence.save_index, Path.write_text

        def save_failing(shard, path, **kw):
            if Path(path).name.startswith(fail_at):
                raise OSError("simulated crash mid-save")
            return real_save(shard, path, **kw)

        def write_failing(target, *args, **kw):
            if target.name.startswith(fail_at):
                raise OSError("simulated crash mid-save")
            return real_write(target, *args, **kw)

        monkeypatch.setattr(persistence, "save_index", save_failing)
        monkeypatch.setattr(Path, "write_text", write_failing)
        with pytest.raises(OSError, match="simulated crash"):
            index.save(out, format=fmt)
        monkeypatch.undo()
        assert not list(out.glob("*.tmp"))
        cut_short = (
            f"no {MANIFEST_NAME}: a sharded save was cut short before its "
            "manifest was written. The shards are still there"
        )
        with pytest.raises(ValueError, match=cut_short):
            load_any(out)
        index.save(out, format=fmt)
        again = load_any(out)
        assert [s.tombstone_count for s in again.shards] == [
            s.tombstone_count for s in index.shards
        ]


class TestCliWritesBackInPlace:
    @pytest.mark.parametrize("shards", [1, 2], ids=["flat", "sharded"])
    def test_add_and_delete_keep_the_loaded_layout(
        self, shards, tmp_path, capsys
    ):
        """``repro add`` / ``repro delete`` on a v5 directory (or on a
        manifest of v5 shards) update that directory, in the layout it
        was loaded from — no ``.npz`` sibling, no format switch."""
        from repro.cli import main

        np.save(tmp_path / "p.npy", uniform_cube(N, D, np.random.default_rng(5)))
        np.save(tmp_path / "new.npy", np.random.default_rng(6).uniform(size=(4, D)))
        idx = tmp_path / "idx.v5"
        assert main(
            ["save-index", str(tmp_path / "p.npy"), str(idx), "--method",
             "vamana", "--format", "disk", "--shards", str(shards)]
        ) == 0
        capsys.readouterr()
        for command in (
            ["add", str(idx), str(tmp_path / "new.npy")],
            ["delete", str(idx), "--ids", "0", "1"],
        ):
            assert main(command) == 0
            assert json.loads(capsys.readouterr().out)["index_file"] == str(idx)
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "idx.v5", "new.npy", "p.npy"
        ]
        loaded = load_any(idx)
        assert (loaded.n, loaded.tombstone_count) == (N + 4, 2)
        if shards == 1:
            assert (idx / DISK_HEADER_NAME).is_file()
            assert isinstance(loaded.store, DiskTierStore)
        else:
            manifest = json.loads((idx / MANIFEST_NAME).read_text())
            assert manifest["shard_format"] == "disk"
            assert not list(idx.glob("*.npz"))
