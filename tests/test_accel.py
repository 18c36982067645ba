"""Compiled traversal kernels (ISSUE 6).

Contract under test:

* every available accel backend (the cffi C backend when a compiler
  is present, the interpreted ``python`` reference always) returns
  **bit-identical** results to the pinned numpy engines — ids,
  distances, eval counts, hop counts — across
  3 seeds, both engine modes, and all three storages (flat/SQ8/PQ);
* edge semantics survive compilation exactly: ``k > beam_width``,
  allowed masks (subset, empty, fully-masked), and budget truncation;
* an explicitly requested backend that cannot run here raises
  :class:`AccelUnavailableError` with an actionable message, while
  ``backend="auto"`` silently serves numpy (one
  :class:`AccelFallbackWarning` per process from ``warm()``, none from
  searches);
* backends are inert until warmed: ``get_backend()`` is ``"numpy"`` in
  a fresh process, flips after :func:`repro.accel.warm`, and
  ``index.stats()["accel"]`` reports the live status;
* the kernels' ``pairwise_sum`` replicates numpy's pairwise summation
  bit-exactly (the property PQ-ADC bit-identity rests on);
* the sharded fan-out resolves ``backend="auto"`` in the parent and
  ships a concrete backend name to its workers.
"""

from __future__ import annotations

import os
import stat
import tempfile
import warnings

import numpy as np
import pytest

from repro import ProximityGraphIndex, SearchParams, accel
from repro.accel import cbackend, dispatch, kernels
from repro.core.sharded import ShardedIndex
from repro.graphs.engine import beam_search_batch, greedy_batch
from repro.workloads import uniform_cube

#: Backends this environment can actually run (cffi and/or the
#: interpreted reference).  Always non-empty: "python" is available
#: on every box.
BACKENDS = accel.available_backends()
SEEDS = (0, 1, 2)


@pytest.fixture(scope="module")
def points():
    return uniform_cube(300, 4, np.random.default_rng(11))


@pytest.fixture(scope="module", params=["flat", "sq8", "pq"])
def storage_index(request, points):
    index = ProximityGraphIndex.build(
        points, epsilon=1.0, method="vamana", seed=4
    )
    if request.param != "flat":
        index.set_storage(request.param)
    return index


@pytest.fixture(scope="module")
def index(points):
    return ProximityGraphIndex.build(
        points, epsilon=1.0, method="vamana", seed=4
    )


@pytest.fixture(scope="module")
def queries():
    return np.random.default_rng(23).uniform(size=(25, 4))


def _assert_equal(got, ref, ctx):
    __tracebackhide__ = True
    assert np.array_equal(got.ids, ref.ids), ctx
    assert np.array_equal(got.distances, ref.distances), ctx
    assert np.array_equal(got.evals, ref.evals), ctx
    if ref.hops is None:
        assert got.hops is None, ctx
    else:
        assert np.array_equal(got.hops, ref.hops), ctx


class TestBitIdentity:
    """Backends vs numpy through the ``search()`` front door."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("mode,k", [("beam", 10), ("greedy", 1)])
    def test_three_seed_equivalence(self, storage_index, queries, backend, mode, k):
        for seed in SEEDS:
            ref = storage_index.search(
                queries, k=k,
                params=SearchParams(mode=mode, seed=seed, backend="numpy"),
            )
            got = storage_index.search(
                queries, k=k,
                params=SearchParams(mode=mode, seed=seed, backend=backend),
            )
            _assert_equal(got, ref, (backend, mode, seed, storage_index.store.kind))

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_k_larger_than_beam_width(self, index, queries, backend):
        for params in (
            SearchParams(mode="beam", beam_width=4, seed=0),
            SearchParams(mode="beam", beam_width=1, seed=1),
        ):
            ref = index.search(queries, k=16, params=params)
            got = index.search(
                queries, k=16,
                params=SearchParams(**{**params.__dict__, "backend": backend}),
            )
            _assert_equal(got, ref, (backend, params.beam_width))

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_allowed_subset_mask(self, index, queries, backend):
        allowed = list(range(0, 300, 7))
        for seed in SEEDS:
            ref = index.search(
                queries, k=8,
                params=SearchParams(seed=seed, allowed_ids=allowed,
                                    backend="numpy"),
            )
            got = index.search(
                queries, k=8,
                params=SearchParams(seed=seed, allowed_ids=allowed,
                                    backend=backend),
            )
            _assert_equal(got, ref, (backend, seed))
            assert set(ref.ids[ref.ids >= 0].tolist()) <= set(allowed)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_single_member_mask(self, index, queries, backend):
        """A one-id filter: every query must return exactly that id."""
        ref = index.search(
            queries, k=3,
            params=SearchParams(seed=0, allowed_ids=[17], backend="numpy"),
        )
        got = index.search(
            queries, k=3,
            params=SearchParams(seed=0, allowed_ids=[17], backend=backend),
        )
        _assert_equal(got, ref, backend)
        assert (got.ids[:, 0] == 17).all()
        assert (got.ids[:, 1:] == -1).all()

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_empty_and_fully_masked_engine_level(self, index, queries, backend):
        """All-False masks reach the engines when called directly; the
        compiled path must agree (all padding, same eval counts)."""
        graph, dataset = index.graph, index.dataset
        starts = np.zeros(len(queries), dtype=np.int64)
        mask = np.zeros(graph.n, dtype=bool)
        ref = beam_search_batch(
            graph, dataset, starts, queries, beam_width=8, k=4,
            allowed=mask, backend=None,
        )
        got = beam_search_batch(
            graph, dataset, starts, queries, beam_width=8, k=4,
            allowed=mask, backend=backend,
        )
        assert got == ref
        assert all(pairs == [] for pairs, _evals in got)
        gref = greedy_batch(graph, dataset, starts, queries, allowed=mask)
        ggot = greedy_batch(
            graph, dataset, starts, queries, allowed=mask, backend=backend
        )
        assert ggot == gref
        assert all(r.point == -1 and r.distance == np.inf for r in ggot)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_budget_truncation(self, index, queries, backend):
        for budget in (1, 5, 37):
            for mode, k in (("beam", 4), ("greedy", 1)):
                params = dict(mode=mode, budget=budget, seed=0)
                ref = index.search(
                    queries, k=k, params=SearchParams(**params, backend="numpy")
                )
                got = index.search(
                    queries, k=k, params=SearchParams(**params, backend=backend)
                )
                _assert_equal(got, ref, (backend, mode, budget))
                assert (got.evals <= budget).all()


class TestBackendSelection:
    def test_unavailable_backend_raises_clear_error(
        self, index, queries, monkeypatch
    ):
        accel.reset()
        monkeypatch.setattr(cbackend, "_find_compiler", lambda: None)
        with pytest.raises(accel.AccelUnavailableError, match="cffi"):
            index.search(
                queries, k=4, params=SearchParams(seed=0, backend="cffi")
            )

    def test_unknown_backend_name_rejected_early(self):
        # "numba" is a name like any other the library never heard of.
        for name in ("cuda", "numba"):
            with pytest.raises(ValueError, match="unknown accel backend"):
                SearchParams(backend=name)

    def test_python_reference_is_available_everywhere(self, monkeypatch):
        assert "python" in accel.available_backends()
        assert "python" in accel.BACKEND_CHOICES
        monkeypatch.setattr(cbackend, "_find_compiler", lambda: None)
        assert accel.available_backends() == ["python"]

    def test_auto_is_inert_until_warmed(self, index, queries):
        accel.reset()
        try:
            assert accel.get_backend() == "numpy"
            ref = index.search(
                queries, k=4, params=SearchParams(seed=0, backend="numpy")
            )
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # auto must never warn
                got = index.search(
                    queries, k=4, params=SearchParams(seed=0, backend="auto")
                )
            _assert_equal(got, ref, "auto-unwarmed")
        finally:
            accel.reset()

    def test_auto_serves_warmed_backend(self, index, queries):
        accel.reset()
        try:
            rec = accel.warm(BACKENDS[0])
            assert rec["backend"] == BACKENDS[0]
            assert rec["compile_seconds"] >= 0.0
            # "auto" only ever resolves to the compiled backend.
            assert accel.get_backend() == (
                "cffi" if BACKENDS[0] == "cffi" else "numpy"
            )
            ref = index.search(
                queries, k=4, params=SearchParams(seed=0, backend="numpy")
            )
            got = index.search(
                queries, k=4, params=SearchParams(seed=0, backend="auto")
            )
            _assert_equal(got, ref, "auto-warmed")
        finally:
            accel.reset()

    def test_warm_is_idempotent(self):
        accel.reset()
        try:
            first = accel.warm(BACKENDS[0])
            again = accel.warm(BACKENDS[0])
            assert again["backend"] == BACKENDS[0]
            assert again["compile_seconds"] == first["compile_seconds"]
        finally:
            accel.reset()

    def test_warm_auto_without_compiled_warns_once(self, monkeypatch):
        """No compiled backend anywhere: ``warm()`` falls back to numpy
        with exactly one AccelFallbackWarning per process."""
        accel.reset()
        monkeypatch.setattr(dispatch, "available_backends", lambda: [])
        try:
            with pytest.warns(accel.AccelFallbackWarning):
                rec = accel.warm()
            assert rec == {"backend": "numpy", "compile_seconds": 0.0}
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # second call: silent
                rec = accel.warm("auto")
            assert rec["backend"] == "numpy"
        finally:
            accel.reset()

    def test_python_backend_never_auto_selected(self, monkeypatch):
        """The interpreted reference is opt-in only: with no C compiler,
        ``warm(auto)`` prefers numpy over it, and once warmed by name it
        still is not what ``"auto"`` resolves to."""
        accel.reset()
        monkeypatch.setattr(dispatch, "available_backends", lambda: ["python"])
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", accel.AccelFallbackWarning)
                assert accel.warm()["backend"] == "numpy"
            assert accel.warm("python")["backend"] == "python"
            assert accel.get_backend() == "numpy"
            assert accel.resolve_backend("auto") == "numpy"
            assert accel.backend_status()["active"] == "numpy"
        finally:
            accel.reset()


    def test_cli_search_rejects_an_unknown_backend(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as exc:
            main(["search", "unused.npz", "--q", "0.5", "--backend", "numba"])
        assert exc.value.code == 2
        assert "invalid choice: 'numba'" in capsys.readouterr().err


@pytest.mark.skipif(
    cbackend._find_compiler() is None, reason="no C compiler here"
)
class TestCompileCache:
    """``ensure_compiled`` loads what it finds in the cache, so the cache
    must be this user's own: a real directory and a regular file."""

    def test_refuses_a_symlinked_directory(self, tmp_path, monkeypatch):
        (tmp_path / "real").mkdir()
        link = tmp_path / "link"
        link.symlink_to(tmp_path / "real")
        monkeypatch.setenv("REPRO_ACCEL_CACHE", str(link))
        with pytest.raises(accel.AccelUnavailableError, match=str(link)):
            cbackend.ensure_compiled()

    def test_refuses_a_directory_of_another_uid(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_ACCEL_CACHE", str(tmp_path))
        monkeypatch.setattr(os, "getuid", lambda: tmp_path.stat().st_uid + 1)
        with pytest.raises(accel.AccelUnavailableError, match=str(tmp_path)):
            cbackend.ensure_compiled()
        assert not list(tmp_path.iterdir())  # nothing was written into it

    def test_accepts_its_own_group_writable_directory(
        self, tmp_path, monkeypatch
    ):
        cache = tmp_path / "cache"
        cache.mkdir()
        cache.chmod(0o775)
        monkeypatch.setenv("REPRO_ACCEL_CACHE", str(cache))
        so_path = cbackend.ensure_compiled()
        assert so_path.parent == cache and so_path.is_file()
        assert cbackend.ensure_compiled() == so_path  # reused, not rebuilt
        # The same name as a symlink to someone else's object: refused.
        elsewhere = tmp_path / "planted.so"
        so_path.rename(elsewhere)
        so_path.symlink_to(elsewhere)
        with pytest.raises(accel.AccelUnavailableError, match=so_path.name):
            cbackend.ensure_compiled()

    def test_default_directory_is_created_private(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_ACCEL_CACHE", raising=False)
        monkeypatch.setattr(tempfile, "gettempdir", lambda: str(tmp_path))
        cache = cbackend.ensure_compiled().parent
        assert cache.parent == tmp_path
        assert stat.S_IMODE(cache.stat().st_mode) == 0o700


class TestStatusReporting:
    def test_stats_reports_backend_status(self, index):
        accel.reset()
        try:
            status = index.stats()["accel"]
            assert status["active"] == "numpy"
            assert status["backends"]["numpy"]["warm"] is True
            for name in BACKENDS:
                assert status["backends"][name]["available"] is True
                assert status["backends"][name]["warm"] is False
            accel.warm(BACKENDS[0])
            status = index.stats()["accel"]
            assert status["active"] == (
                "cffi" if BACKENDS[0] == "cffi" else "numpy"
            )
            assert set(status["backends"]) == {"numpy", "cffi", "python"}
            assert status["backends"][BACKENDS[0]]["warm"] is True
            assert status["backends"][BACKENDS[0]]["compile_seconds"] >= 0.0
        finally:
            accel.reset()

    def test_status_reports_the_row_split(self, index, monkeypatch):
        """The thread count a large call is split over: the usable cores
        when the active backend's kernels release the GIL, else one."""
        monkeypatch.setattr(dispatch, "_usable_cores", lambda: 5)
        accel.reset()
        try:
            threads = index.stats()["accel"]["threads"]
            assert threads == {"split": 1, "releases_gil": False}
            for name in BACKENDS:
                accel.reset()
                accel.warm(name)
                threads = accel.backend_status()["threads"]
                assert threads["releases_gil"] is (name == "cffi")
                assert threads["split"] == (5 if name == "cffi" else 1)
        finally:
            accel.reset()

    def test_status_is_json_safe(self, index):
        import json

        json.dumps(accel.backend_status())


class TestPairwiseSum:
    def test_matches_numpy_bit_exactly(self):
        rng = np.random.default_rng(99)
        for m in list(range(1, 33)) + [48, 63, 64, 65, 100, 127, 128]:
            a = rng.standard_normal(m) * rng.uniform(0.1, 1e6)
            got = kernels.pairwise_sum(a, 0, m)
            assert got == np.sum(a), m

    def test_respects_offset(self):
        a = np.arange(20, dtype=np.float64) * np.pi
        assert kernels.pairwise_sum(a, 5, 10) == np.sum(a[5:15])


class TestSharded:
    @pytest.fixture(scope="class")
    def sharded(self, points):
        return ShardedIndex.build(
            points, epsilon=1.0, method="vamana", shards=2, seed=4
        )

    @pytest.mark.parametrize("backend", BACKENDS[:1])
    def test_fanout_bit_identity(self, sharded, queries, backend):
        ref = sharded.search(
            queries, k=8, params=SearchParams(seed=0, backend="numpy")
        )
        got = sharded.search(
            queries, k=8, params=SearchParams(seed=0, backend=backend)
        )
        _assert_equal(got, ref, backend)

    def test_auto_resolved_before_fanout(self, sharded, queries):
        """The parent pins ``"auto"`` to a concrete backend name so
        workers never re-resolve against their own (cold) warm state."""
        accel.reset()
        try:
            accel.warm(BACKENDS[0])
            ref = sharded.search(
                queries, k=8, params=SearchParams(seed=0, backend="numpy")
            )
            got = sharded.search(
                queries, k=8, params=SearchParams(seed=0, backend="auto")
            )
            _assert_equal(got, ref, "sharded-auto")
        finally:
            accel.reset()

    def test_sharded_stats_report_accel(self, sharded):
        assert sharded.stats()["accel"]["backends"]["numpy"]["warm"] is True
