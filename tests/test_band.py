"""The custom RCM band LU solver (section III-G)."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.amr import landau_mesh
from repro.core import AssemblyOptions, LandauOperator, SpeciesSet, deuterium, electron
from repro.fem import FunctionSpace
from repro.sparse.band import (
    BandMatrix,
    BandSolver,
    BlockDiagonalBandSolver,
    MAX_PATTERNS,
    CachedBandSolverFactory,
    band_factor,
    band_solve,
    bandwidth,
    rcm_permutation,
)


def random_banded(n: int, B: int, seed: int = 0) -> sp.csr_matrix:
    rng = np.random.default_rng(seed)
    A = sp.lil_matrix((n, n))
    for i in range(n):
        for j in range(max(0, i - B), min(n, i + B + 1)):
            if rng.random() < 0.7 or i == j:
                A[i, j] = rng.normal()
    A = A.tocsr()
    return (A + A.T + sp.eye(n) * (2 * B + 5)).tocsr()


class TestBandStorage:
    def test_roundtrip(self):
        A = random_banded(20, 3)
        bm = BandMatrix.from_sparse(A)
        assert np.allclose(bm.to_dense(), A.toarray())

    def test_bandwidth(self):
        A = random_banded(20, 3)
        assert bandwidth(A) <= 3

    def test_outside_band_raises(self):
        A = sp.csr_matrix(np.eye(5))
        A = A.tolil()
        A[0, 4] = 1.0
        with pytest.raises(ValueError):
            BandMatrix.from_sparse(A.tocsr(), B=2)

    def test_rectangular_rejected(self):
        with pytest.raises(ValueError):
            BandMatrix.from_sparse(sp.csr_matrix(np.ones((2, 3))))


class TestFactorization:
    def test_matches_dense_lu(self):
        A = random_banded(25, 4, seed=1)
        bm = band_factor(BandMatrix.from_sparse(A))
        # reconstruct L and U from the band storage and compare products
        n, B = bm.n, bm.B
        dense = bm.to_dense()
        L = np.tril(dense, -1) + np.eye(n)
        U = np.triu(dense)
        assert np.allclose(L @ U, A.toarray(), atol=1e-10)

    def test_flop_counter(self):
        A = random_banded(30, 3, seed=2)
        counter: dict = {}
        band_factor(BandMatrix.from_sparse(A), counter)
        # 2 n B^2-ish
        assert 0 < counter["flops"] < 4 * 30 * 9 + 30 * 3 + 100

    def test_zero_pivot_raises(self):
        A = sp.csr_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
        with pytest.raises(ZeroDivisionError):
            band_factor(BandMatrix.from_sparse(A))

    def test_only_an_exact_zero_pivot_raises(self):
        """No pivot threshold: a tiny nonzero pivot factors (with the
        growth an unpivoted LU allows) and L U still reproduces A."""
        a = np.array([[1e-14, 1.0], [1.0, 1.0]])
        bm = band_factor(BandMatrix.from_sparse(sp.csr_matrix(a)))
        dense = bm.to_dense()
        L = np.tril(dense, -1) + np.eye(2)
        U = np.triu(dense)
        assert abs(U[1, 1]) > 1e13
        assert np.allclose(L @ U, a, rtol=0, atol=1e-12)

    @settings(max_examples=15, deadline=None)
    @given(
        n=st.integers(min_value=3, max_value=40),
        B=st.integers(min_value=1, max_value=6),
        seed=st.integers(min_value=0, max_value=1000),
    )
    def test_solve_property(self, n, B, seed):
        """A x = b round-trips for random diagonally dominant band systems."""
        A = random_banded(n, min(B, n - 1), seed=seed)
        rng = np.random.default_rng(seed + 1)
        x_true = rng.normal(size=n)
        b = A @ x_true
        bm = band_factor(BandMatrix.from_sparse(A))
        x = band_solve(bm, b)
        assert np.allclose(x, x_true, atol=1e-8)

    def test_rhs_size_checked(self):
        A = random_banded(10, 2)
        bm = band_factor(BandMatrix.from_sparse(A))
        with pytest.raises(ValueError):
            band_solve(bm, np.ones(5))


class TestRcmSolver:
    def test_rcm_reduces_bandwidth(self):
        rng = np.random.default_rng(4)
        n = 60
        perm0 = rng.permutation(n)
        A = random_banded(n, 2, seed=4)
        A_scrambled = A[perm0][:, perm0]
        p = rcm_permutation(A_scrambled)
        Ap = A_scrambled[p][:, p]
        assert bandwidth(Ap) < bandwidth(A_scrambled)

    def test_rcm_orders_the_stored_pattern(self):
        """Explicit zeros are part of the pattern (a later matrix on it
        fills them): the ordering is the one of the same pattern with
        nonzero values, and the band holds every stored entry."""
        rng = np.random.default_rng(5)
        perm0 = rng.permutation(60)
        A = random_banded(60, 3, seed=5)[perm0][:, perm0].tocsr()
        Z = A.copy()
        row = np.repeat(np.arange(60), np.diff(Z.indptr))
        Z.data[(row != Z.indices) & ((row + Z.indices) % 2 == 0)] = 0.0
        assert Z.nnz == A.nnz and np.count_nonzero(Z.data == 0.0) > 20
        assert (Z + Z.T).nnz < Z.nnz  # the symmetrizing sum drops them
        p = rcm_permutation(Z)
        assert np.array_equal(p, rcm_permutation(A))
        assert bandwidth(Z[p][:, p]) == bandwidth(A[p][:, p])

    def test_ed_q2_step_half_bandwidth(self):
        """The e+D Q2 mass matrix stores 156 exact zeros that ``M - dt
        L`` fills; ordered on its stored pattern the step's band is 45
        wide (67 when the zeros were dropped before ordering)."""
        spc = SpeciesSet([electron(), deuterium()])
        fs = FunctionSpace(landau_mesh([s.thermal_velocity for s in spc]), order=2)
        op = LandauOperator(fs, spc, options=AssemblyOptions(cache_pair_tables=False))
        M = op.mass_matrix
        assert (M.nnz, np.count_nonzero(M.data == 0.0)) == (3313, 156)
        p = rcm_permutation(M)
        assert bandwidth(M[p][:, p]) == 45
        assert CachedBandSolverFactory()._structure(M).B == 45

    def test_solver_correct(self):
        A = random_banded(80, 5, seed=6)
        rng = np.random.default_rng(7)
        perm = rng.permutation(80)
        A = A[perm][:, perm]
        b = rng.normal(size=80)
        x = BandSolver(A)(b)
        assert np.linalg.norm(A @ x - b) / np.linalg.norm(b) < 1e-10

    def test_on_landau_system(self, electron_operator, electron_maxwellian):
        """The band solver solves the real implicit Landau system."""
        op = electron_operator
        L = op.jacobian([electron_maxwellian])[0]
        A = (op.mass_matrix - 0.1 * L).tocsr()
        rng = np.random.default_rng(8)
        b = rng.normal(size=A.shape[0])
        x = BandSolver(A)(b)
        assert np.linalg.norm(A @ x - b) / np.linalg.norm(b) < 1e-9


class TestBlockDiagonal:
    def test_discovers_species_blocks(self):
        A = random_banded(30, 3, seed=9)
        big = sp.block_diag([A, 2.0 * A, 0.5 * A]).tocsr()
        solver = BlockDiagonalBandSolver(big)
        assert solver.nblocks == 3

    def test_solution_matches_monolithic(self):
        A = random_banded(25, 3, seed=10)
        big = sp.block_diag([A, 3.0 * A]).tocsr()
        rng = np.random.default_rng(11)
        b = rng.normal(size=50)
        x = BlockDiagonalBandSolver(big)(b)
        assert np.linalg.norm(big @ x - b) / np.linalg.norm(b) < 1e-10


class TestFactorMany:
    """Batched factorization against one shared symbolic setup (the
    batched-vertex / serve hot path)."""

    def _batch(self, n=40, B=3, X=5, seed=12):
        A = random_banded(n, B, seed=seed)
        rng = np.random.default_rng(seed + 1)
        data = np.stack(
            [A.data + 0.05 * rng.normal(size=A.nnz) for _ in range(X)]
        )
        # keep every member diagonally dominant like the template
        return A, data

    def test_matches_per_matrix_solves(self):
        from repro.sparse.band import CachedBandSolverFactory

        A, data = self._batch()
        factory = CachedBandSolverFactory()
        solver = factory.factor_batch(A, data)
        rng = np.random.default_rng(13)
        rhs = rng.normal(size=(data.shape[0], A.shape[0]))
        x = solver.solve_many(rhs)
        for k in range(data.shape[0]):
            Ak = sp.csr_matrix((data[k], A.indices, A.indptr), shape=A.shape)
            r = np.linalg.norm(Ak @ x[k] - rhs[k]) / np.linalg.norm(rhs[k])
            assert r < 1e-10
            xk = solver.solve(k, rhs[k])
            np.testing.assert_array_equal(xk, x[k])

    def test_band_wider_than_the_matrix_takes_the_dense_form(self):
        """LAPACK factors live in the smaller of the band (3B+1 rows) and
        dense (n rows) arrays; same solutions either way."""
        from repro.sparse.band import CachedBandSolverFactory

        n = 40
        for B, dense in ((3, False), (14, True)):
            A, data = self._batch(n=n, B=B)
            solver = CachedBandSolverFactory().factor_batch(A, data)
            st = solver._st
            assert st.lapack_rows(n) == (n if dense else 3 * st.B + 1)
            rhs = np.random.default_rng(16).normal(size=(data.shape[0], n))
            x = solver.solve_many(rhs)
            for k in range(data.shape[0]):
                Ak = sp.csr_matrix((data[k], A.indices, A.indptr), shape=A.shape)
                np.testing.assert_allclose(
                    x[k], np.linalg.solve(Ak.toarray(), rhs[k]), rtol=1e-10
                )
                np.testing.assert_array_equal(solver.solve(k, rhs[k]), x[k])

    def test_one_symbolic_setup_per_pattern(self):
        from repro.sparse.band import CachedBandSolverFactory

        A, data = self._batch(X=6)
        factory = CachedBandSolverFactory()
        factory.factor_batch(A, data)
        assert factory.symbolic_setups == 1
        assert factory.symbolic_reuses == 5  # X - 1 within the batch
        factory.factor_batch(A, data)  # second batch reuses across calls
        assert factory.symbolic_setups == 1
        assert factory.symbolic_reuses == 11

    def test_two_patterns_two_symbolic_setups(self):
        A, data = self._batch(n=20)
        C, data_c = self._batch(n=30)
        factory = CachedBandSolverFactory()
        factory.factor_batch(A, data)
        factory.factor_batch(C, data_c)
        assert factory.symbolic_setups == 2
        factory.factor_batch(A, data)
        assert factory.symbolic_setups == 2  # both still cached

    def test_symbolics_lru_holds_max_patterns(self):
        """One factory keeps the symbolics of at most ``MAX_PATTERNS``
        patterns, evicting the least recently used."""
        batches = [self._batch(n=10 + k, X=1) for k in range(MAX_PATTERNS + 1)]
        factory = CachedBandSolverFactory()
        for A, data in batches[:MAX_PATTERNS]:
            factory.factor_batch(A, data)
        factory.factor_batch(*batches[0])  # now the most recently used
        factory.factor_batch(*batches[MAX_PATTERNS])  # evicts batches[1]
        assert len(factory._cache) == MAX_PATTERNS
        assert factory.symbolic_setups == MAX_PATTERNS + 1
        factory.factor_batch(*batches[0])
        assert factory.symbolic_setups == MAX_PATTERNS + 1
        factory.factor_batch(*batches[1])
        assert factory.symbolic_setups == MAX_PATTERNS + 2
        assert len(factory._cache) == MAX_PATTERNS

    def test_resident_slots_filled_blockwise_and_solved_by_subset(self):
        from repro.sparse.band import CachedBandSolverFactory

        A, data = self._batch(X=5)
        factory = CachedBandSolverFactory()
        ref = factory.factor_batch(A, data)
        solver = factory.factor_batch(A, data[:2], rows=[4, 2], capacity=5)
        factory.factor_batch(A, data[2:], into=solver, rows=[0, 1, 3])
        rhs = np.random.default_rng(14).normal(size=(5, A.shape[0]))
        slot_of = np.array([4, 2, 0, 1, 3])  # matrix k lives in slot_of[k]
        np.testing.assert_array_equal(
            solver.solve_many(rhs[[3, 0]], rows=slot_of[[3, 0]]),
            ref.solve_many(rhs)[[3, 0]],
        )
        # one symbolic setup served all three calls
        assert factory.symbolic_setups == 1
        assert factory.symbolic_reuses == 4 + 2 + 3

    def test_into_must_share_the_pattern(self):
        from repro.sparse.band import CachedBandSolverFactory

        A, data = self._batch()
        other = random_banded(A.shape[0], 2, seed=20)
        factory = CachedBandSolverFactory()
        solver = factory.factor_batch(A, data)
        with pytest.raises(ValueError, match="pattern"):
            factory.factor_batch(
                other, np.tile(other.data, (2, 1)), into=solver, rows=[0, 1]
            )

    def test_nnz_mismatch_rejected(self):
        from repro.sparse.band import CachedBandSolverFactory

        A, data = self._batch()
        with pytest.raises(ValueError):
            CachedBandSolverFactory().factor_batch(A, data[:, :-1])

    def test_singular_member_raises_naming_its_entry(self):
        """LAPACK's ``info > 0`` on one batch member is an error naming
        that member, never a silently bad factor."""
        from repro.sparse.band import CachedBandSolverFactory

        A, data = self._batch(X=4)
        rows = np.repeat(np.arange(A.shape[0]), np.diff(A.indptr))
        data[2, rows == 7] = 0.0  # member 2: row 7 is zero
        with pytest.raises(np.linalg.LinAlgError, match="batch entry 2"):
            CachedBandSolverFactory().factor_batch(A, data)

    def test_singular_member_in_the_dense_form_raises_naming_its_entry(self):
        """The same on a band wider than the matrix, where the factors
        are LAPACK's dense LU."""
        from repro.sparse.band import CachedBandSolverFactory

        A, data = self._batch(n=12, B=5, X=3)
        rows = np.repeat(np.arange(A.shape[0]), np.diff(A.indptr))
        data[1, rows == 4] = 0.0  # member 1: row 4 is zero
        factory = CachedBandSolverFactory()
        with pytest.raises(np.linalg.LinAlgError, match="batch entry 1"):
            factory.factor_batch(A, data)
        assert factory.factor_batch(A, data[[0, 2]])._st.lapack_rows(12) == 12

    @pytest.mark.parametrize(
        "n, B, dense",
        [
            pytest.param(5, 0, False, id="diagonal"),
            pytest.param(30, 1, False, id="tridiagonal"),
            pytest.param(12, 5, True, id="dense-form"),
            pytest.param(16, 5, True, id="dense-form-at-3B+1"),
            pytest.param(20, 2, False, id="band-form"),
            pytest.param(80, 6, False, id="wide-band-form"),
        ],
    )
    def test_unsymmetric_members_match_splu(self, n, B, dense):
        """Members with unsymmetric, not diagonally dominant values (so
        the pivots move) on a band pattern, on both sides of the band /
        dense switch, against scipy's sparse LU of each member."""
        import scipy.sparse.linalg as spla

        from repro.sparse.band import CachedBandSolverFactory

        A = random_banded(n, B, seed=n + B)
        rng = np.random.default_rng(n)
        data = rng.standard_normal((4, A.nnz))
        solver = CachedBandSolverFactory().factor_batch(A, data)
        st = solver._st
        assert st.lapack_rows(n) == (n if dense else 3 * st.B + 1)
        rhs = rng.standard_normal((4, n))
        x = solver.solve_many(rhs)
        for k in range(4):
            Ak = sp.csr_matrix((data[k], A.indices, A.indptr), shape=A.shape)
            ref = spla.splu(Ak.tocsc()).solve(rhs[k])
            np.testing.assert_allclose(
                x[k], ref, rtol=1e-9, atol=1e-12 * np.abs(ref).max()
            )
            assert np.linalg.norm(Ak @ x[k] - rhs[k]) <= 1e-12 * (
                abs(Ak).max() * np.abs(x[k]).sum()
            )

    def test_landau_step_systems_match_splu(self, electron_operator, electron_maxwellian):
        """Backward-Euler systems ``M - dt J`` of the real electron Q3
        operator at three step sizes, factored as one batch on their
        shared pattern, solve as SuperLU does."""
        import scipy.sparse.linalg as spla

        op = electron_operator
        J = op.jacobian([electron_maxwellian])[0]
        systems = [(op.mass_matrix - dt * J).tocsr() for dt in (0.05, 0.5, 5.0)]
        for A in systems:
            A.sort_indices()
            assert np.array_equal(A.indices, systems[0].indices)
            assert np.array_equal(A.indptr, systems[0].indptr)
        data = np.stack([A.data for A in systems])
        solver = CachedBandSolverFactory().factor_batch(systems[0], data)
        rhs = np.random.default_rng(21).normal(size=(len(systems), systems[0].shape[0]))
        x = solver.solve_many(rhs)
        for k, A in enumerate(systems):
            ref = spla.splu(A.tocsc()).solve(rhs[k])
            np.testing.assert_allclose(x[k], ref, rtol=1e-8, atol=1e-12 * np.abs(ref).max())

    def test_zero_diagonal_needs_the_pivoted_lu(self):
        """The batched factors are LAPACK's partially pivoted LU: a zero
        on the diagonal, which the unpivoted :func:`band_factor` rejects,
        factors and solves."""
        from repro.sparse.band import CachedBandSolverFactory

        n = 6  # even: the zero-diagonal tridiagonal matrix is invertible
        A = sp.diags([1.0, 2.0], [-1, 1], shape=(n, n), format="csr")
        with pytest.raises(ZeroDivisionError):
            BandSolver(A)
        solver = CachedBandSolverFactory().factor_batch(A, A.data[None])
        b = np.arange(1.0, n + 1)
        np.testing.assert_allclose(
            solver.solve(0, b), np.linalg.solve(A.toarray(), b), rtol=1e-12
        )
