"""Cross-backend conformance matrix for the Algorithm-1 hot path.

Every registered backend is exercised against the numpy reference on a
two-species quench vertex, stage by stage: the pair tensors over each
backend's row partition, on-the-fly row-block field tensors, the cached
field-response tables and their batched GEMMs, the two batched
element-contraction specs, the CSR scatter-apply, the banded
factor/solve and the resident factor stack with subset solves, plain and
with the Q3 cell interiors statically condensed — each to <= 1e-12
(relative to the stage's max magnitude).
"""

import numpy as np
import pytest

from repro.backend import BACKEND_NAMES, NumpyBackend, get_backend
from repro.core import LandauOperator
from repro.core.maxwellian import maxwellian_rz, species_maxwellian
from repro.core.options import AssemblyOptions
from repro.fem import FunctionSpace
from repro.fem.assembly import assemble_coefficient_operator, get_scatter_map
from repro.sparse.band import CachedBandSolverFactory

TOL = 1e-12

#: the assembly contraction specs every backend must reproduce
SPEC_D = "eq,eqad,xeqdc,eqbc->xeab"
SPEC_K = "eq,eqad,xeqd,qb->xeab"

def _assert_close(got, ref, label):
    scale = max(np.abs(ref).max(), 1e-300)
    err = np.abs(np.asarray(got) - np.asarray(ref)).max() / scale
    assert err <= TOL, f"{label}: max scaled error {err:.3e} > {TOL}"


@pytest.fixture(scope="module")
def quench_fields(ed_fs, ed_species):
    """Thermal-quench vertex: cooled, slightly drifting electrons over an
    unperturbed cold deuterium bulk."""
    e, d = ed_species[0], ed_species[1]
    fe = ed_fs.interpolate(
        lambda r, z: maxwellian_rz(r, z - 0.1, 1.0, 0.7 * e.thermal_velocity)
    )
    fd = ed_fs.interpolate(species_maxwellian(d))
    return [fe, fd]


@pytest.fixture(scope="module")
def quench_op(ed_fs, ed_species):
    """A numpy-reference operator on the quench discretization, used only
    as a source of geometry (r, z, weights, scatter structure)."""
    return LandauOperator(
        ed_fs, ed_species, options=AssemblyOptions.from_env(backend="numpy")
    )


def _backend(name):
    return get_backend(name, num_threads=2 if name != "numpy" else 0)


class TestStageConformance:
    """Backend x stage matrix on the two-species quench vertex."""

    @pytest.mark.parametrize("name", BACKEND_NAMES)
    def test_pair_table_build(self, quench_op, name):
        """The pair tensors the response build assembles its rows from,
        over each backend's row partition, against one block."""
        from .test_pair_symmetry import block_tables

        N = quench_op.N
        r, z = quench_op.r, quench_op.z
        ref = block_tables(r, z, [(0, N)])
        out = block_tables(r, z, _backend(name).batch_blocks(N))
        _assert_close(out, ref, f"{name} pair tables")

    @pytest.mark.parametrize("name", BACKEND_NAMES)
    def test_field_row_blocks(self, quench_op, quench_fields, name):
        op = quench_op
        N = op.N
        pairs = list(zip(op.species, quench_fields))
        T_D = sum(s.charge**2 * op.fs.eval(x).reshape(N) for s, x in pairs)
        T_K = sum(
            s.charge**2 / s.mass * op.fs.eval_grad(x).reshape(N, 2) for s, x in pairs
        )
        cTD = (op.w * T_D)[:, None]
        cTKr = (op.w * T_K[:, 0])[:, None]
        cTKz = (op.w * T_K[:, 1])[:, None]
        ref_D = np.zeros((1, N, 2, 2))
        ref_K = np.zeros((1, N, 2))
        NumpyBackend().field_rows(
            ref_D, ref_K, op.r, op.z, cTD, cTKr, cTKz, 0, N
        )
        out_D = np.zeros((1, N, 2, 2))
        out_K = np.zeros((1, N, 2))
        be = _backend(name)
        for i0, i1 in be.batch_blocks(N):
            be.field_rows(out_D, out_K, op.r, op.z, cTD, cTKr, cTKz, i0, i1)
        _assert_close(out_D, ref_D, f"{name} field G_D rows")
        _assert_close(out_K, ref_K, f"{name} field G_K rows")

    @pytest.mark.parametrize("name", BACKEND_NAMES)
    def test_field_response(self, ed_fs, ed_species, quench_fields, name):
        """The cached operator's fields: pair tables built through the
        backend, contracted into the response tables, and the two
        batched GEMMs on dof vectors through ``backend.matmul``.  The
        reference is built on a new space of the same mesh, so the two
        sides never share one build (not even on the numpy leg)."""
        states = np.stack(
            [np.stack(quench_fields) * (1.0 + 0.1 * x) for x in range(3)]
        )
        states[1, 0] = quench_fields[1]  # the electrons swapped for a cold bulk
        ops = [
            LandauOperator(
                fs,
                ed_species,
                options=AssemblyOptions.from_env(
                    backend=be, num_threads=2, cache_pair_tables=True
                ),
            )
            for be, fs in (("numpy", FunctionSpace(ed_fs.mesh, order=3)), (name, ed_fs))
        ]
        for ref, got in zip(*(op.response_tables for op in ops)):
            assert not np.shares_memory(ref, got)
        ref, got = (op.fields_batch(states) for op in ops)
        _assert_close(got[0], ref[0], f"{name} response G_D")
        _assert_close(got[1], ref[1], f"{name} response G_K")

    @pytest.mark.parametrize("name", BACKEND_NAMES)
    def test_element_contraction_specs(self, ed_fs, name):
        sm = get_scatter_map(ed_fs)
        w = ed_fs.qweights
        gphys = sm.gphys
        ne, nq = w.shape
        rng = np.random.default_rng(17)
        X = 3
        GD = rng.standard_normal((X, ne, nq, 2, 2))
        GD = GD + np.swapaxes(GD, -1, -2)  # symmetric like the real D_q
        GK = rng.standard_normal((X, ne, nq, 2))
        ref = NumpyBackend()
        be = _backend(name)
        _assert_close(
            be.contract(SPEC_D, w, gphys, GD, gphys),
            ref.contract(SPEC_D, w, gphys, GD, gphys),
            f"{name} D-spec contraction",
        )
        _assert_close(
            be.contract(SPEC_K, w, gphys, GK, ed_fs.B),
            ref.contract(SPEC_K, w, gphys, GK, ed_fs.B),
            f"{name} K-spec contraction",
        )

    @pytest.mark.parametrize("name", BACKEND_NAMES)
    def test_scatter_apply(self, ed_fs, name):
        sm = get_scatter_map(ed_fs)
        rng = np.random.default_rng(23)
        flat = rng.standard_normal((4, sm.T.shape[1]))
        ref = NumpyBackend().scatter_apply(sm.T, flat)
        out = _backend(name).scatter_apply(sm.T, flat)
        _assert_close(out, ref, f"{name} scatter-apply")

    @pytest.mark.parametrize("name", BACKEND_NAMES)
    def test_element_jacobian_assembly(
        self, ed_fs, ed_species, quench_op, quench_fields, name
    ):
        """The full coefficient-operator assembly routed through the
        backend seam matches the inline-einsum reference."""
        G_D, G_K = quench_op.fields(quench_fields)
        D_q = G_D.reshape(ed_fs.qweights.shape + (2, 2))
        K_q = G_K.reshape(ed_fs.qweights.shape + (2,))
        sm = get_scatter_map(ed_fs)
        ref = assemble_coefficient_operator(ed_fs, D_q, K_q, structure=sm)
        got = assemble_coefficient_operator(
            ed_fs, D_q, K_q, structure=sm, backend=_backend(name)
        )
        _assert_close(
            got.toarray(), ref.toarray(), f"{name} element Jacobian"
        )

    @pytest.mark.parametrize("name", BACKEND_NAMES)
    def test_band_factor_solve(self, quench_op, quench_fields, name):
        M = quench_op.mass_matrix.tocsr()
        L = quench_op.jacobian(quench_fields)[0].tocsr()
        template = (M - 0.05 * L).tocsr()
        X = 3
        data = np.stack(
            [template.data * (1.0 + 0.01 * x) for x in range(X)]
        )
        rng = np.random.default_rng(3)
        rhs = rng.standard_normal((X, template.shape[0]))
        ref = CachedBandSolverFactory().factor_batch(
            template, data, backend=NumpyBackend()
        )
        got = CachedBandSolverFactory().factor_batch(
            template, data, backend=_backend(name)
        )
        out_ref = ref.solve_many(rhs)
        _assert_close(got.solve_many(rhs), out_ref, f"{name} band solve_many")
        _assert_close(got.solve(1, rhs[1]), out_ref[1], f"{name} band solve")

    @pytest.mark.parametrize("name", BACKEND_NAMES)
    def test_resident_factors_subset_solve(self, quench_op, quench_fields, name):
        """Resident factors, subset solve: slots of one preallocated
        stack are filled in two calls, one is refilled with a different
        matrix, and a subset is solved in arbitrary slot order — the
        batched solver's sweep-0 blocks, divergence-guard refresh and
        active-set solves."""
        M = quench_op.mass_matrix.tocsr()
        L = quench_op.jacobian(quench_fields)[0].tocsr()
        template = (M - 0.05 * L).tocsr()
        data = np.stack([template.data * (1.0 + 0.01 * x) for x in range(6)])
        rng = np.random.default_rng(4)
        rhs = rng.standard_normal((6, template.shape[0]))
        # reference: each matrix factored on its own, serial numpy
        ref = CachedBandSolverFactory().factor_batch(
            template, data, backend=NumpyBackend()
        ).solve_many(rhs)

        factory = CachedBandSolverFactory()
        slots = np.array([5, 0, 3, 7, 1])
        solver = factory.factor_batch(
            template, data[:3], backend=_backend(name), rows=slots[:3], capacity=8
        )
        assert solver.batch_size == 8
        factory.factor_batch(template, data[3:5], into=solver, rows=slots[3:])
        factory.factor_batch(template, data[5:], into=solver, rows=[3])  # refill
        # matrices now resident: slot 5 <- 0, 0 <- 1, 3 <- 5, 7 <- 3, 1 <- 4
        pick_slots = np.array([3, 7, 5, 1])
        pick_mats = np.array([5, 3, 0, 4])
        got = solver.solve_many(rhs[pick_mats], rows=pick_slots)
        _assert_close(got, ref[pick_mats], f"{name} resident solve_many")
        _assert_close(solver.solve(7, rhs[3]), ref[3], f"{name} resident solve")
        with pytest.raises(IndexError):
            solver.solve_many(rhs[:1], rows=[8])
        with pytest.raises(ValueError):
            solver.solve_many(rhs[:2], rows=[0])

    @pytest.mark.parametrize("name", BACKEND_NAMES)
    def test_condensed_resident_factors_subset_solve(
        self, ed_fs, quench_op, quench_fields, name
    ):
        """The same slot choreography with the Q3 cell interiors
        condensed out: only the skeleton Schur complements go through the
        backend's factor/solve hooks."""
        interior = get_scatter_map(ed_fs).interior
        M = quench_op.mass_matrix.tocsr()
        L = quench_op.jacobian(quench_fields)[0].tocsr()
        template = (M - 0.05 * L).tocsr()
        data = np.stack([template.data * (1.0 + 0.01 * x) for x in range(6)])
        rng = np.random.default_rng(5)
        rhs = rng.standard_normal((6, template.shape[0]))
        ref = CachedBandSolverFactory().factor_batch(
            template, data, backend=NumpyBackend(), interior=interior
        ).solve_many(rhs)

        factory = CachedBandSolverFactory()
        slots = np.array([5, 0, 3, 7, 1])
        solver = factory.factor_batch(
            template,
            data[:3],
            backend=_backend(name),
            rows=slots[:3],
            capacity=8,
            interior=interior,
        )
        factory.factor_batch(
            template, data[3:5], into=solver, rows=slots[3:], interior=interior
        )
        factory.factor_batch(
            template, data[5:], into=solver, rows=[3], interior=interior
        )  # refill
        pick_slots = np.array([3, 7, 5, 1])
        pick_mats = np.array([5, 3, 0, 4])
        got = solver.solve_many(rhs[pick_mats], rows=pick_slots)
        _assert_close(got, ref[pick_mats], f"{name} condensed solve_many")
        _assert_close(solver.solve(7, rhs[3]), ref[3], f"{name} condensed solve")

    @pytest.mark.parametrize("name", BACKEND_NAMES)
    def test_full_jacobian(self, ed_fs, ed_species, quench_fields, name):
        """End-to-end: the whole Jacobian build on each backend.  The
        reference runs on a new space of the same mesh, so no leg
        compares a field-response build with itself."""
        ref_op = LandauOperator(
            FunctionSpace(ed_fs.mesh, order=3),
            ed_species,
            options=AssemblyOptions.from_env(backend="numpy"),
        )
        op = LandauOperator(
            ed_fs,
            ed_species,
            options=AssemblyOptions.from_env(backend=name, num_threads=2),
        )
        assert not np.shares_memory(op.response_tables[0], ref_op.response_tables[0])
        J_ref = ref_op.jacobian(quench_fields)
        J = op.jacobian(quench_fields)
        for a in range(len(ed_species)):
            _assert_close(
                J[a].toarray(),
                J_ref[a].toarray(),
                f"{name} Jacobian species {a}",
            )
