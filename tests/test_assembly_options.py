"""AssemblyOptions plumbing, the memory-budget guard, the cached scatter
structure, the cached band factory and the bounded NewtonStats rings."""

import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp

from repro.amr import landau_mesh
from repro.core import (
    AssemblyOptions,
    ImplicitLandauSolver,
    LandauOperator,
    NewtonStats,
    PairTableMemoryError,
    SpeciesSet,
    deuterium,
    electron,
)
from repro.core import operator as operator_module
from repro.core.maxwellian import species_maxwellian
from repro.core.options import DEFAULT_MEMORY_BUDGET, ONTHEFLY_BYTES_PER_PAIR
from repro.fem import FunctionSpace
from repro.fem.assembly import (
    ScatterMap,
    _scatter,
    element_mass_blocks,
    get_scatter_map,
)
from repro.sparse import BandSolver, CachedBandSolverFactory


class TestOptionsParsing:
    def test_defaults(self):
        o = AssemblyOptions()
        assert [f.name for f in dataclasses.fields(o)] == [
            "memory_budget",
            "cache_pair_tables",
        ]
        assert o.memory_budget == DEFAULT_MEMORY_BUDGET
        assert o.cache_pair_tables is None

    def test_invalid_values_raise(self):
        with pytest.raises(ValueError):
            AssemblyOptions(memory_budget=0)

    @pytest.mark.parametrize(
        "value, expected",
        [
            (3, 3),
            (2.0, 2),
            (2e9, 2_000_000_000),
            (np.int64(7), 7),
            (123456789012345678, 123456789012345678),
        ],
    )
    def test_integral_budget_accepted(self, value, expected):
        """An integral budget written as a float is taken as its int, so
        it compares (and keys a plan) like the int it equals."""
        o = AssemblyOptions(memory_budget=value)
        assert o.memory_budget == expected and type(o.memory_budget) is int
        assert o == AssemblyOptions(memory_budget=expected)

    @pytest.mark.parametrize(
        "value",
        [1.9, 2.5, float("inf"), float("-inf"), float("nan"), "four", True, None],
    )
    def test_non_integral_budget_rejected(self, value):
        """A fractional, non-finite or non-numeric budget is rejected,
        never truncated or let escape as an ``OverflowError``."""
        with pytest.raises(ValueError, match="memory_budget must be an integer"):
            AssemblyOptions(memory_budget=value)


class TestMemoryBudget:
    def test_forced_cache_over_budget_raises(self, fs_q3, electron_species):
        opts = AssemblyOptions(memory_budget=1024, cache_pair_tables=True)
        with pytest.raises(PairTableMemoryError) as err:
            LandauOperator(fs_q3, electron_species, options=opts)
        # the guard must be actionable, not a bare MemoryError
        assert "AssemblyOptions.memory_budget" in str(err.value)

    def test_auto_falls_back_to_chunked(self, fs_q3, electron_species, electron_maxwellian):
        opts = AssemblyOptions(memory_budget=1024)
        op = LandauOperator(fs_q3, electron_species, options=opts)
        assert not op.pair_tables_cached
        ref = LandauOperator(fs_q3, electron_species).fields([electron_maxwellian])
        got = op.fields([electron_maxwellian])
        for a, b in zip(got, ref):
            assert np.allclose(a, b, atol=1e-12 * max(np.abs(b).max(), 1))

    def test_row_chunk_regression(self):
        """The chunk heuristic must scale with the budget and never hit 0
        (the seed's hard-coded ``5e7`` pair constant is gone)."""
        o = AssemblyOptions(memory_budget=1)
        assert o.row_chunk(10_000) == 1
        assert AssemblyOptions().row_chunk(896) > 896  # default: one block
        n = 896
        per_row_bytes = AssemblyOptions(memory_budget=10**6).row_chunk(n)
        assert 1 <= per_row_bytes < n

    def test_build_bytes_accounts_for_the_streamed_build(self):
        """The response tables, at most a quarter of the ``5 N^2`` pair
        entries owed as mirror images, and one row block: the widest
        block's scratch and its eight N-wide rows of operands per row."""
        o = AssemblyOptions()
        pairs = operator_module.ROW_BLOCK_BYTES // ONTHEFLY_BYTES_PER_PAIR
        rows = int(np.sqrt(pairs))
        for N, n in ((100, 40), (666, 287), (20_000, 9_000)):
            block = ONTHEFLY_BYTES_PER_PAIR * pairs + 8 * 8 * rows * N
            assert o.cached_build_bytes(N, n) == (
                5 * N * n * 8 + 5 * N * N * 8 // 4 + block
            )
            # the upper half's tables and half the mirror images owed:
            # 2 halves x 5 (N/2)^2 / 4 entries
            M = N // 2
            assert o.cached_build_bytes(N, n, reflected=True) == (
                8 * (5 * M * n + 2 * 5 * M * M // 4) + block
            )
        # at scale the (5, N, N) pair tables the build no longer holds
        # are what it saves
        N, n = 2_000, 1_000
        assert o.cached_build_bytes(N, n) < 0.6 * (5 * N * N * 8 + 5 * N * n * 8)

    def test_budget_covers_the_build_peak(self, fs_q3, electron_species):
        """The budget guards the build's peak, not the response alone: a
        budget that fits the response but not the build leaves the
        operator on the fly (auto) or raises (forced).  The space has a
        z-reflection, so the tables and the build charged are the upper
        half's."""
        N, n = fs_q3.n_integration_points, fs_q3.ndofs
        peak = AssemblyOptions().cached_build_bytes(N, n, reflected=True)
        op = LandauOperator(
            fs_q3, electron_species, options=AssemblyOptions(memory_budget=peak)
        )
        assert op.pair_tables_cached
        R_D, R_K = op.response_tables
        response = R_D.nbytes + R_K.nbytes
        assert response == 5 * (N // 2) * n * 8 < peak
        # no (N, N) table stays resident
        assert not any(
            tuple(getattr(v, "shape", ()))[-2:] == (N, N) for v in vars(op).values()
        )
        over = AssemblyOptions(memory_budget=response)
        op = LandauOperator(fs_q3, electron_species, options=over)
        assert not op.pair_tables_cached
        forced = AssemblyOptions(memory_budget=peak - 1, cache_pair_tables=True)
        with pytest.raises(PairTableMemoryError, match="field-response.*upper half"):
            LandauOperator(fs_q3, electron_species, options=forced)

    def test_tables_off_ignores_an_existing_build(
        self, electron_operator, fs_q3, electron_species
    ):
        """Each operator decides from its own options: the space's shared
        build does not put a ``cache_pair_tables=False`` operator on it."""
        assert electron_operator.pair_tables_cached
        off = AssemblyOptions(cache_pair_tables=False)
        op = LandauOperator(fs_q3, electron_species, options=off)
        assert not op.pair_tables_cached and op.response_tables is None


class TestRowBlocks:
    """The O(N^2) kernels run in cache-sized row blocks: the block size
    is an implementation constant, so results must not depend on it and
    the scratch must stay bounded by it."""

    @pytest.fixture(scope="class")
    def big_fs(self):
        """Electron+deuterium Q2: N = 504 integration points."""
        spc = SpeciesSet([electron(), deuterium()])
        fs = FunctionSpace(
            landau_mesh([s.thermal_velocity for s in spc]), order=2
        )
        assert fs.n_integration_points >= 500
        return fs, spc

    @staticmethod
    def _states(fs, spc, B=16):
        return np.random.default_rng(7).standard_normal((B, len(spc), fs.ndofs))

    def test_blocks_are_cache_sized_and_cover_all_rows(self, big_fs):
        """A block [i0, i1) evaluates the pairs [i0, i1) x [i0, N): the
        cache bound and the balance are in pairs per block, not rows."""
        fs, spc = big_fs
        op = LandauOperator(fs, spc, options=AssemblyOptions(cache_pair_tables=False))
        N = op.N

        def pairs(blocks):
            return [(i1 - i0) * (N - i0) for i0, i1 in blocks]

        blocks = op._row_blocks(N)
        assert [b[0] for b in blocks[1:]] == [b[1] for b in blocks[:-1]]
        assert blocks[0][0] == 0 and blocks[-1][1] == N
        assert len(blocks) > 1  # no longer every row at once
        budget = operator_module.ROW_BLOCK_BYTES // ONTHEFLY_BYTES_PER_PAIR
        assert max(pairs(blocks)) <= budget
        # equal work: all but the last block fill the budget to within a row
        assert min(pairs(blocks)[:-1]) > budget - N
        # a launch evaluates about half of the N^2 ordered pairs
        assert sum(pairs(blocks)) < 0.6 * N * N
        # a tighter memory budget still wins
        tight = LandauOperator(
            fs, spc, options=AssemblyOptions(memory_budget=50_000)
        )
        assert max(pairs(tight._row_blocks(N))) < max(pairs(blocks))

    def test_pair_tables_bitwise_independent_of_block_size(
        self, fs_q3, electron_species, monkeypatch
    ):
        """The packed tables the response build assembles a block's rows
        from, over the operator's blocks at three block sizes."""
        from .test_pair_symmetry import block_tables

        options = AssemblyOptions(cache_pair_tables=False)
        op = LandauOperator(fs_q3, electron_species, options=options)
        ref = block_tables(op.r, op.z, op._row_blocks(op.N, step=fs_q3.nq))
        assert ref.shape == (5, op.N, op.N) and np.isfinite(ref).all()
        for block_bytes in (64 * 1024, 1 << 40):  # 1-row blocks, one block
            monkeypatch.setattr(operator_module, "ROW_BLOCK_BYTES", block_bytes)
            blocks = op._row_blocks(op.N)
            assert min(i1 - i0 for i0, i1 in blocks) == 1 or len(blocks) == 1
            assert np.array_equal(block_tables(op.r, op.z, blocks), ref)

    def test_on_the_fly_fields_independent_of_block_size(
        self, big_fs, monkeypatch
    ):
        fs, spc = big_fs
        options = AssemblyOptions(cache_pair_tables=False)
        op = LandauOperator(fs, spc, options=options)
        states = self._states(fs, spc)
        G_D, G_K = op.fields_batch(states)
        monkeypatch.setattr(operator_module, "ROW_BLOCK_BYTES", 1 << 40)
        assert len(op._row_blocks(op.N)) == 1
        G_D1, G_K1 = op.fields_batch(states)
        assert np.abs(G_D - G_D1).max() <= 1e-13 * np.abs(G_D1).max()
        assert np.abs(G_K - G_K1).max() <= 1e-13 * np.abs(G_K1).max()

    def test_on_the_fly_scratch_is_bounded(self, big_fs):
        """One block at a time: a few ROW_BLOCK_BYTES of temporaries
        plus the outputs — evaluating all N = 504 rows at once took
        53 MB."""
        import tracemalloc

        fs, spc = big_fs
        op = LandauOperator(fs, spc, options=AssemblyOptions(cache_pair_tables=False))
        states = self._states(fs, spc)
        values = op.point_values_batch(states)
        op.fields_batch(states, values)  # warm lazily built state
        tracemalloc.start()
        try:
            op.fields_batch(states, values)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 4 * operator_module.ROW_BLOCK_BYTES


class TestScatterMap:
    def test_matches_coo_scatter(self, fs_q3):
        rng = np.random.default_rng(7)
        Ce = rng.standard_normal((fs_q3.nelem, fs_q3.nb, fs_q3.nb))
        ref = _scatter(fs_q3, Ce)
        sm = ScatterMap(fs_q3)
        got = sm.assemble(Ce)
        assert abs(got - ref).max() < 1e-13 * max(abs(ref).max(), 1)

    def test_structure_shared_between_builds(self, fs_q3):
        sm = ScatterMap(fs_q3)
        A = sm.assemble(element_mass_blocks(fs_q3))
        B = sm.assemble(2.0 * element_mass_blocks(fs_q3))
        assert np.shares_memory(A.indices, sm.indices)
        assert np.shares_memory(B.indices, sm.indices)
        assert abs(B - 2.0 * A).max() < 1e-14
        assert sm.builds == 2

    def test_gather_is_the_constrained_cell_node_map(self, fs_q3):
        dm = fs_q3.dofmap
        assert dm.n_full > dm.n_free  # hanging-node weights are exercised
        sm = ScatterMap(fs_q3)
        ref = dm.P.tocsr()[dm.cell_nodes.ravel()].T.toarray()
        assert np.array_equal(sm.gather.toarray(), ref)
        assert np.array_equal(sm.gather_pair.toarray(), np.hstack([ref, ref]))

    def test_get_scatter_map_is_cached_per_space(self, fs_q3):
        assert get_scatter_map(fs_q3) is get_scatter_map(fs_q3)


class TestCachedBandFactory:
    def _random_banded(self, n=40, seed=3):
        rng = np.random.default_rng(seed)
        A = sp.diags(
            [rng.uniform(1, 2, n), rng.standard_normal(n - 1) * 0.1,
             rng.standard_normal(n - 1) * 0.1],
            [0, 1, -1],
        ).tocsr()
        return A

    def test_matches_band_solver(self):
        """One matrix through the batched, pivoted LAPACK factors solves
        as the paper's unpivoted band LU does."""
        A = self._random_banded()
        b = np.arange(A.shape[0], dtype=float)
        x = CachedBandSolverFactory().factor_batch(A, A.data[None]).solve(0, b)
        ref = BandSolver(A)(b)
        assert np.allclose(x, ref, atol=1e-12)

    def test_symbolic_setup_reused_for_same_pattern(self):
        A = self._random_banded(seed=3)
        B = self._random_banded(seed=4)  # same pattern, different values
        fac = CachedBandSolverFactory()
        b = np.ones(A.shape[0])
        fac.factor_batch(A, A.data[None])
        x = fac.factor_batch(B, B.data[None]).solve(0, b)
        assert fac.symbolic_setups == 1
        assert fac.symbolic_reuses == 1
        assert np.allclose(x, BandSolver(B)(b), atol=1e-12)

    def test_pattern_change_triggers_new_setup(self):
        """Same size, one more stored diagonal: a new pattern, so a new
        RCM ordering and band scatter, and both solve."""
        A = self._random_banded(n=30)
        C = (A + sp.diags(np.full(28, 0.05), 2)).tocsr()
        assert C.shape == A.shape and C.nnz > A.nnz
        fac = CachedBandSolverFactory()
        b = np.ones(30)
        xa = fac.factor_batch(A, A.data[None]).solve(0, b)
        xc = fac.factor_batch(C, C.data[None]).solve(0, b)
        assert fac.symbolic_setups == 2
        assert fac.symbolic_reuses == 0
        assert np.allclose(xa, BandSolver(A)(b), atol=1e-12)
        assert np.allclose(xc, BandSolver(C)(b), atol=1e-12)


class TestBoundedNewtonStats:
    def test_events_ring_keeps_last_k(self):
        stats = NewtonStats(max_events=4)
        for i in range(10):
            stats.record_event("fallback", step=i)
        assert len(stats.events) == 4
        assert stats.events_dropped == 6
        assert [e["step"] for e in stats.events] == [6, 7, 8, 9]

    def test_residual_ring_keeps_last_k(self):
        stats = NewtonStats(max_residuals=3)
        for i in range(8):
            stats.record_residual(float(i))
        assert stats.residual_history == [5.0, 6.0, 7.0]
        assert stats.residuals_dropped == 5

    def test_merge_of_bounded_stats(self):
        a = NewtonStats(max_events=4, max_residuals=4)
        b = NewtonStats(max_events=4, max_residuals=4)
        for i in range(6):
            a.record_event("guard", step=i)
            b.record_event("retry", step=i)
            a.record_residual(float(i))
            b.record_residual(10.0 + i)
        a.structure_reuses, b.structure_reuses = 3, 4
        dropped_before = a.events_dropped + b.events_dropped
        a.merge(b)
        assert len(a.events) == 4
        assert len(a.residual_history) == 4
        # everything that ever fell off either ring is accounted for
        assert a.events_dropped == 12 - 4
        assert a.residuals_dropped == 12 - 4
        assert a.events_dropped >= dropped_before
        assert a.structure_reuses == 7
        # the survivors are the tail of the concatenation
        assert [e["kind"] for e in a.events] == ["retry"] * 4
        assert a.residual_history == [12.0, 13.0, 14.0, 15.0]

    def test_solver_surfaces_structure_counters(self, fs_q3, electron_species, electron_maxwellian):
        op = LandauOperator(fs_q3, electron_species)
        solver = ImplicitLandauSolver(op, rtol=1e-8)
        solver.step([electron_maxwellian.copy()], 0.05)
        assert solver.stats.structure_reuses > 0

    def test_report_shows_counters_and_drops(self):
        from repro.report import resilience_summary, solver_stats_table

        stats = NewtonStats(max_events=4, structure_reuses=5)
        for i in range(10):
            stats.record_event("fallback", step=i)
        table = solver_stats_table(stats)
        assert "struct-reuse" in table
        summary = resilience_summary(stats, max_events=2)
        assert "last 2 of 10" in summary
