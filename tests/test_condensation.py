"""Static condensation of cell-interior dofs in the batched band layer.

The resident condensed factors are checked against ``np.linalg.solve`` on
the assembled dense matrix — an oracle that shares no band code — on a
hanging-node Q3 mesh, a conforming Q3 mesh, the two-species Q3 mesh and a
Q4 space; then one batched step on the hanging-node mesh is held to
exact density conservation of every update and to the sequential Picard
oracle.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.amr import landau_mesh
from repro.core import ImplicitLandauSolver, LandauOperator, electron
from repro.core.batch import CONDENSE_MIN_INTERIOR, BatchedVertexSolver
from repro.core.maxwellian import species_maxwellian
from repro.fem import FunctionSpace, get_scatter_map
from repro.fem.assembly import element_mass_blocks
from repro.sparse.band import CachedBandSolverFactory
from tests.test_factor_once import AGREEMENT, RTOL, _states

TOL = 1e-13


def _dense(template, data):
    return sp.csr_matrix(
        (data, template.indices, template.indptr), shape=template.shape
    ).toarray()


def _assert_solves(solver, template, data, rhs, rows, label):
    """``solver.solve_many(rhs, rows)`` against the dense solve of the
    matrix each slot was factored from (``data[k]`` for ``rows[k]``)."""
    got = solver.solve_many(rhs, rows=rows)
    for k in range(len(rows)):
        ref = np.linalg.solve(_dense(template, data[k]), rhs[k])
        err = np.abs(got[k] - ref).max() / np.abs(ref).max()
        assert err <= TOL, f"{label}: system {k} rel err {err:.2e}"


def _perturbed_mass(fs, X, seed):
    """``X`` nonsymmetric systems ``M + 0.1 * noise`` scattered from
    element blocks (so hanging-node folding shapes their pattern)."""
    sm = get_scatter_map(fs)
    Me = element_mass_blocks(fs)
    rng = np.random.default_rng(seed)
    scale = np.abs(Me).max(axis=(1, 2))[:, None, None]
    Ce = Me[None] + 0.1 * scale * rng.standard_normal((X,) + Me.shape)
    return sm.matrix(sm.scatter_data(Me)), sm.scatter_data_batch(Ce)


@pytest.fixture(scope="module")
def q4_fs():
    return FunctionSpace(landau_mesh([electron().thermal_velocity]), order=4)


@pytest.fixture(scope="module")
def systems(fs_q3, structured_fs, ed_fs, q4_fs, electron_operator, ed_operator,
            electron_species, ed_maxwellians):
    """name -> (space, template, data rows): physics Jacobians
    ``M - dt L`` on the hanging-node Q3 mesh and per species on the
    two-species mesh, perturbed mass systems on the conforming Q3 mesh
    and on Q4."""
    out = {}
    M = electron_operator.mass_matrix
    f = fs_q3.interpolate(species_maxwellian(electron_species[0]))
    (L,) = electron_operator.jacobian([f])
    A = (M - 0.2 * L).tocsr()
    out["fs_q3"] = (fs_q3, M, np.stack([A.data * (1 + 0.01 * x) for x in range(5)]))
    M = ed_operator.mass_matrix
    Ls = ed_operator.jacobian(ed_maxwellians)
    out["ed_fs"] = (
        ed_fs,
        M,
        np.stack([(M - dt * L).tocsr().data for dt in (0.1, 0.5) for L in Ls]),
    )
    out["structured_fs"] = (structured_fs,) + _perturbed_mass(structured_fs, 4, 1)
    out["q4"] = (q4_fs,) + _perturbed_mass(q4_fs, 4, 2)
    return out


NAMES = ["fs_q3", "structured_fs", "ed_fs", "q4"]


class TestCondensedSolve:
    @pytest.mark.parametrize("name", NAMES)
    def test_matches_dense_solve(self, systems, name):
        fs, M, data = systems[name]
        interior = get_scatter_map(fs).interior
        assert interior.shape[1] >= CONDENSE_MIN_INTERIOR
        solver = CachedBandSolverFactory().factor_batch(M, data, interior=interior)
        # only the skeleton is factored
        assert solver._band_n == fs.ndofs - interior.size
        rhs = np.random.default_rng(3).standard_normal((len(data), fs.ndofs))
        _assert_solves(solver, M, data, rhs, np.arange(len(data)), name)
        one = solver.solve(1, rhs[1])
        np.testing.assert_array_equal(one, solver.solve_many(rhs[1:2], rows=[1])[0])

    @pytest.mark.parametrize("name", NAMES)
    def test_subset_slots_and_single_slot_refill(self, systems, name):
        """Slots filled in two calls, one refilled alone (the divergence
        guard's refresh), then solved as a subset in arbitrary order."""
        fs, M, data = systems[name]
        interior = get_scatter_map(fs).interior
        X = len(data)
        factory = CachedBandSolverFactory()
        slots = np.arange(X)[::-1] + 2  # slots X+1 .. 2
        solver = factory.factor_batch(
            M, data[:2], rows=slots[:2], capacity=X + 2, interior=interior
        )
        kw = dict(into=solver, interior=interior)
        factory.factor_batch(M, data[2:], rows=slots[2:], **kw)
        # refill: slot of system 0 now holds system X-1's matrix
        factory.factor_batch(M, data[-1:], rows=slots[:1], **kw)
        assert factory.symbolic_setups == 1
        resident = data.copy()
        resident[0] = data[-1]
        pick = np.array([X - 1, 0, 1])
        rhs = np.random.default_rng(4).standard_normal((pick.size, fs.ndofs))
        _assert_solves(solver, M, resident[pick], rhs, slots[pick], name)
        with pytest.raises(ValueError, match="pattern"):
            factory.factor_batch(M, data[:1], into=solver, rows=[0])  # uncondensed

    def test_q2_has_nothing_to_condense(self, fs_q2, electron_species):
        """One interior node per cell: the batched step keeps the full
        system, so the skeleton is all ``n`` dofs."""
        assert get_scatter_map(fs_q2).interior.shape[1] < CONDENSE_MIN_INTERIOR
        bs = BatchedVertexSolver(fs_q2, electron_species)
        states = _states(fs_q2, electron_species, 2)
        G_D, G_K = bs.op.fields_batch(states)
        resident = bs._factor(None, np.arange(2), G_D, G_K, 0.2)
        assert resident._cond is None
        assert resident._band_n == fs_q2.ndofs

    def test_singular_interior_block_names_slot_and_cell(self, systems):
        fs, M, data = systems["fs_q3"]
        interior = get_scatter_map(fs).interior
        cell = 7
        rows_of = np.repeat(np.arange(M.shape[0]), np.diff(M.indptr))
        block = np.isin(rows_of, interior[cell]) & np.isin(M.indices, interior[cell])
        assert block.sum() == interior.shape[1] ** 2
        bad = data[:2].copy()
        bad[1, block] = 0.0
        factory = CachedBandSolverFactory()
        with pytest.raises(np.linalg.LinAlgError, match=f"cell {cell} of slot 5"):
            factory.factor_batch(M, bad, rows=[4, 5], capacity=6, interior=interior)


class TestCondensedStep:
    def test_step_conserves_density_and_matches_oracle(
        self, fs_q3, electron_species
    ):
        states = _states(fs_q3, electron_species, 3)
        dt = 0.2
        bs = BatchedVertexSolver(fs_q3, electron_species, rtol=RTOL, accel_m=2)
        M = bs.op.mass_matrix
        ones_M = np.ones(fs_q3.ndofs) @ M
        density = states[:, 0] @ ones_M
        real_solve = bs._solve
        checked = []

        def solve(resident, rows, rhs):
            out = real_solve(resident, rows, rhs)
            assert resident._cond is not None
            # 1^T A0 = 1^T M, so the update's density change is 1^T rhs
            # (the residual's density deficit): exact up to round-off
            err = np.abs(out[:, 0] @ ones_M - rhs[:, 0].sum(axis=1))
            assert np.all(err <= 1e-13 * density[rows]), err / density[rows]
            checked.append(rows.size)
            return out

        bs._solve = solve
        out = bs.step(states, dt)
        assert np.all(bs.last_converged)
        assert sum(checked) == bs.stats.equivalent_unbatched_launches
        assert bs.stats.refactorizations == 0
        drift = np.abs(out[:, 0] @ ones_M - density) / density
        assert drift.max() <= 1e-13

        oracle = ImplicitLandauSolver(
            LandauOperator(fs_q3, electron_species), rtol=RTOL, max_newton=400
        )
        for x, state in enumerate(states):
            ref = np.stack(oracle.step([r.copy() for r in state], dt))
            err = np.abs(out[x] - ref).max() / np.abs(ref).max()
            assert err <= AGREEMENT[dt], (x, err)
