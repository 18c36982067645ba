"""Front-door input validation — the bugfix satellites of the serving PR.

Before these fixes: NaN queries traversed silently and returned
arbitrary ids with NaN distances; wrong-dimension queries died in a raw
numpy broadcast error; a misspelled build kwarg (``builder=`` instead
of ``method=``) surfaced as ``build_gnet() got an unexpected keyword
argument`` three frames deep.  A network front door receives exactly
these inputs first, so they must all fail at the boundary with errors
that name the problem.

A batch that is not 2-D (``(2, 3, d)``) used to die deep inside a store
or backend with an einsum or shape error, and complex queries skipped the
finiteness check and were cut to their real part; both are now front-door
errors that name the shape or dtype.  Real queries of another dtype
(float32, ints, bools) are cast to float64 once, at the front door, so
they run on the compiled kernels like any other query and answer exactly
like their cast (before, ``"auto"`` silently ran them on the numpy
engines and an explicit ``"cffi"`` raised on a flat index).

A search budget below 1 is refused by both batch engines before they
pick a backend.  Before, the numpy engines returned the start after one
eval while the compiled kernels read a negative budget as no budget and
walked on.

Also pins two contracts that were true but untested: ``delete()`` batch
atomicity (an unknown id raises ``KeyError`` and leaves zero partial
tombstones) and the ``k > live`` padding tail (``ids == -1``,
``distances == inf``).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import ProximityGraphIndex, SearchParams, ShardedIndex, accel
from repro.core.builders import (
    BUILDER_OPTIONS,
    available_builders,
    builder_options,
    validate_builder_options,
)
from repro.graphs import beam_search_batch, greedy_batch
from repro.workloads import uniform_cube

KINDS = ["flat", "sharded"]
STORAGES = ["flat", "sq8"]
needs_cffi = pytest.mark.skipif(
    "cffi" not in accel.available_backends(), reason="no compiled backend here"
)


def _build(kind: str, storage: str = "flat", n: int = 80, seed: int = 3):
    pts = uniform_cube(n, 4, np.random.default_rng(seed))
    if kind == "flat":
        return ProximityGraphIndex.build(
            pts, epsilon=1.0, method="vamana", seed=seed, storage=storage
        )
    return ShardedIndex.build(
        pts, epsilon=1.0, method="vamana", seed=seed, shards=2, storage=storage
    )


# ----------------------------------------------------------------------
# Non-finite queries
# ----------------------------------------------------------------------


class TestNonFiniteQueries:
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("storage", STORAGES)
    def test_nan_query_raises(self, kind, storage):
        index = _build(kind, storage)
        q = np.zeros(4)
        q[2] = np.nan
        with pytest.raises(ValueError, match="query contains non-finite values"):
            index.search(q, k=3)

    @pytest.mark.parametrize("kind", KINDS)
    def test_inf_query_raises(self, kind):
        index = _build(kind)
        with pytest.raises(ValueError, match="non-finite"):
            index.search(np.full(4, np.inf), k=1)

    @pytest.mark.parametrize("kind", KINDS)
    def test_one_bad_row_fails_the_batch(self, kind):
        index = _build(kind)
        Q = np.zeros((3, 4))
        Q[1, 0] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            index.search(Q, k=2)

    @pytest.mark.parametrize("kind", KINDS)
    def test_finite_queries_unaffected(self, kind):
        index = _build(kind)
        result = index.search(np.full(4, 0.5), k=3)
        assert (result.ids >= 0).all()
        assert np.isfinite(result.distances).all()


# ----------------------------------------------------------------------
# Dimension mismatch
# ----------------------------------------------------------------------


class TestDimensionMismatch:
    @pytest.mark.parametrize("kind", KINDS)
    def test_wrong_dim_names_both_dims(self, kind):
        index = _build(kind)
        with pytest.raises(
            ValueError, match=r"query dim 6 does not match index dim 4"
        ):
            index.search(np.zeros(6), k=1)

    @pytest.mark.parametrize("kind", KINDS)
    def test_wrong_dim_batch(self, kind):
        index = _build(kind)
        with pytest.raises(ValueError, match="query dim 2"):
            index.search(np.zeros((5, 2)), k=1)


# ----------------------------------------------------------------------
# Batch shape and query dtype
# ----------------------------------------------------------------------


INDEXES = [("flat", "flat"), ("sharded", "flat"), ("flat", "sq8")]


class TestBatchShapeAndDtype:
    @pytest.mark.parametrize("kind,storage", INDEXES)
    def test_a_3d_batch_names_its_shape(self, kind, storage):
        index = _build(kind, storage)
        with pytest.raises(ValueError, match=r"shape \(2, 3, 4\)"):
            index.search(np.zeros((2, 3, 4)), k=1)

    @pytest.mark.parametrize("kind,storage", INDEXES)
    def test_complex_queries_name_their_dtype(self, kind, storage):
        index = _build(kind, storage)
        with pytest.raises(ValueError, match="complex128"):
            index.search(np.full(4, 0.5 + 0j), k=1)
        q = np.full(4, 0.5 + 0j)
        q[1] = complex(np.nan, 0.0)  # the real part of it is NaN too
        with pytest.raises(ValueError, match="complex128"):
            index.search(q[None], k=1)


class TestQueryDtypes:
    """Real queries of another dtype answer like their float64 cast, on
    every engine and storage: ids, distances and eval counts."""

    @pytest.mark.parametrize("backend", ["numpy", pytest.param("cffi", marks=needs_cffi)])
    @pytest.mark.parametrize("storage", STORAGES)
    @pytest.mark.parametrize("dtype", [np.float32, np.int64, np.bool_])
    def test_a_real_query_answers_like_its_float64_cast(self, dtype, storage, backend):
        index = _build("flat", storage)
        Q = (uniform_cube(6, 4, np.random.default_rng(8)) * 2).astype(dtype)
        for params in (
            SearchParams(beam_width=16, backend=backend),
            SearchParams(mode="greedy", backend=backend),
        ):
            k = 1 if params.mode == "greedy" else 3
            got = index.search(Q, k=k, params=params)
            want = index.search(Q.astype(np.float64), k=k, params=params)
            for field in ("ids", "distances", "evals"):
                assert np.array_equal(getattr(got, field), getattr(want, field)), field
            one = index.search(Q[2], k=k, params=params)
            assert np.array_equal(one.ids, want.ids[2:3])

    @needs_cffi
    @pytest.mark.parametrize("storage", STORAGES)
    def test_float32_on_the_numpy_engine_equals_auto_on_the_kernels(
        self, storage, monkeypatch
    ):
        index = _build("flat", storage)
        Q = uniform_cube(6, 4, np.random.default_rng(9)).astype(np.float32)
        want = index.search(Q, k=3, params=SearchParams(beam_width=16, backend="numpy"))
        accel.warm()
        compiled = []
        run_beam = accel.run_beam

        def counted(*args, **kwargs):
            out = run_beam(*args, **kwargs)  # raises where the kernels refuse
            compiled.append(len(out))
            return out

        monkeypatch.setattr(accel, "run_beam", counted)
        try:
            got = index.search(Q, k=3, params=SearchParams(beam_width=16, backend="auto"))
        finally:
            accel.reset()
        assert compiled == [6]
        for field in ("ids", "distances", "evals"):
            assert np.array_equal(getattr(got, field), getattr(want, field)), field


class TestEngineBudget:
    """Both batch engines, and the compiled entry points they dispatch to,
    refuse a budget below 1 on every backend, with the message
    ``SearchParams`` uses.  The accel entry points check it before any
    plan or compile, so they raise even where no compiled backend is
    warm or installed."""

    @pytest.mark.parametrize("backend", [None, "auto"])
    @pytest.mark.parametrize("budget", [0, -3])
    @pytest.mark.parametrize("engine", ["greedy", "beam", "run_greedy", "run_beam"])
    def test_budget_below_one_raises(self, engine, budget, backend):
        index = _build("flat")
        Q = uniform_cube(3, 4, np.random.default_rng(4))
        args = (index.graph, index.dataset, [0, 1, 2], Q)
        if backend == "auto" and "cffi" in accel.available_backends():
            accel.warm()
        try:
            with pytest.raises(ValueError, match="budget must be at least 1"):
                if engine == "greedy":
                    greedy_batch(*args, budget=budget, backend=backend)
                elif engine == "beam":
                    beam_search_batch(*args, beam_width=8, k=2, budget=budget, backend=backend)
                elif engine == "run_greedy":
                    accel.run_greedy(*args, budget=budget)
                else:
                    accel.run_beam(*args, beam_width=8, k=2, budget=budget)
        finally:
            accel.reset()


# ----------------------------------------------------------------------
# Unknown build options
# ----------------------------------------------------------------------


class TestBuildOptionValidation:
    def test_builder_kwarg_typo_is_a_front_door_error(self):
        pts = uniform_cube(40, 3, np.random.default_rng(0))
        with pytest.raises(ValueError) as exc:
            ProximityGraphIndex.build(pts, builder="vamana")
        msg = str(exc.value)
        assert "unknown build option" in msg and "'builder'" in msg
        # The error teaches the fix: method= and the registered names.
        assert "method=" in msg
        assert "vamana" in msg

    def test_sharded_build_validates_before_partitioning(self):
        pts = uniform_cube(40, 3, np.random.default_rng(0))
        with pytest.raises(ValueError, match="unknown build option"):
            ShardedIndex.build(pts, shards=2, builder="vamana")

    def test_unknown_method_lists_builders(self):
        pts = uniform_cube(40, 3, np.random.default_rng(0))
        with pytest.raises(ValueError, match="unknown builder 'hnsww'"):
            ProximityGraphIndex.build(pts, method="hnsww")

    def test_batch_size_on_sequential_builder_keeps_its_message(self):
        pts = uniform_cube(40, 3, np.random.default_rng(0))
        with pytest.raises(
            ValueError, match="does not support batched construction"
        ):
            ProximityGraphIndex.build(pts, method="knn", k=4, batch_size=8)

    def test_backend_on_diskann_is_refused_by_name(self):
        """``diskann``'s quadratic scan has no inner loop for the accel
        kernels, so its signature takes no ``backend`` and every front
        door refuses one, naming the builder and the option."""
        pts = uniform_cube(40, 3, np.random.default_rng(0))
        lacking = "builder 'diskann' has no accelerated construction path; backend applies to"
        with pytest.raises(ValueError, match=lacking):
            ProximityGraphIndex.build(pts, method="diskann", backend="numpy")
        with pytest.raises(ValueError, match=lacking):
            ShardedIndex.build(pts, shards=2, method="diskann", backend="auto")
        with pytest.raises(ValueError, match=lacking):
            validate_builder_options("diskann", {"backend": "cffi"})
        assert "backend" not in builder_options("diskann")
        assert "backend" in builder_options("vamana")

    def test_valid_options_still_pass(self):
        pts = uniform_cube(40, 3, np.random.default_rng(0))
        index = ProximityGraphIndex.build(
            pts, method="vamana", seed=1, max_degree=8
        )
        assert index.n == 40

    def test_every_registered_builder_has_an_allow_list(self):
        for name in available_builders():
            assert BUILDER_OPTIONS.get(name) is not None, name

    def test_builder_options_helper(self):
        assert "k" in builder_options("knn")
        assert "max_degree" in builder_options("vamana")
        with pytest.raises(ValueError, match="unknown builder"):
            builder_options("nope")

    def test_validate_rejects_mixed_valid_and_invalid(self):
        with pytest.raises(ValueError, match=r"\['zap'\]"):
            validate_builder_options("vamana", {"max_degree": 8, "zap": 1})


# ----------------------------------------------------------------------
# delete() batch atomicity
# ----------------------------------------------------------------------


class TestDeleteAtomicity:
    @pytest.mark.parametrize("kind", KINDS)
    def test_unknown_id_raises_keyerror_and_deletes_nothing(self, kind):
        index = _build(kind)
        with pytest.raises(KeyError):
            index.delete([0, 1, 99999])
        # Atomic: the known ids of the failed batch were NOT tombstoned
        # — deleting them afterwards still counts both as fresh.
        assert index.tombstone_count == 0
        assert index.delete([0, 1]) == 2

    @pytest.mark.parametrize("kind", KINDS)
    def test_double_delete_is_a_counted_noop(self, kind):
        index = _build(kind)
        assert index.delete([3, 5]) == 2
        assert index.delete([3, 5]) == 0
        assert index.tombstone_count == 2


# ----------------------------------------------------------------------
# k > live padding contract
# ----------------------------------------------------------------------


class TestPaddingContract:
    @pytest.mark.parametrize("kind", KINDS)
    def test_k_exceeding_live_pads_with_sentinels(self, kind):
        index = _build(kind, n=24)
        live = [int(e) for e in range(4)]
        result = index.search(
            np.full(4, 0.5), k=9, params=SearchParams(allowed_ids=live)
        )
        row_ids, row_d = result.ids[0], result.distances[0]
        found = (row_ids >= 0).sum()
        assert found == len(live)
        # The tail is all sentinels, contiguously at the end.
        assert (row_ids[found:] == -1).all()
        assert np.isinf(row_d[found:]).all()
        assert np.isfinite(row_d[:found]).all()

    @pytest.mark.parametrize("kind", KINDS)
    def test_fully_tombstoned_collection_pads_everything(self, kind):
        index = _build(kind, n=20)
        index.delete(list(range(20)))
        result = index.search(np.full(4, 0.5), k=3)
        assert (result.ids == -1).all()
        assert np.isinf(result.distances).all()
