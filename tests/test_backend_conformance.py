"""Cross-backend conformance matrix for the JIT'd Algorithm-1 hot path.

Every registered backend is exercised against the numpy reference on a
two-species quench vertex, stage by stage: packed pair-table build,
on-the-fly row-block field tensors, the two batched element-contraction
specs, the CSR scatter-apply, the banded factor/solve and the resident
factor stack with subset solves — each to <= 1e-12 (relative to the
stage's max magnitude).  The numba legs are
*explicit skip-marked parameters* when numba is absent, so a container
without numba reports visible skips instead of silently shrinking the
matrix.

The ``nopython`` kernel *math* (AGM elliptic integrals, the scalar
pair-component transliteration, the element-block loops) is additionally
unit-tested as plain python — numba_kernels imports cleanly without
numba — so the kernel numerics are pinned even on hosts that can never
run the compiled legs.

The ``numba.cuda.jit`` element-Jacobian kernel is conformance-tested
against the instruction-counting simulator driver (same launch geometry,
identical launch counters, <= 1e-12 values) wherever the CUDA simulator
or a real device is usable.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.backend import (
    BackendUnavailable,
    NumbaBackend,
    NumpyBackend,
    available_backends,
    get_backend,
)
from repro.backend import numba_kernels as nk
from repro.backend.cuda_jit import CudaJitLandauJacobian, cuda_jit_available
from repro.backend.kernel_spec import DeviceKernelData, KernelData
from repro.core import LandauOperator
from repro.core import landau_tensor as lt
from repro.core.maxwellian import maxwellian_rz, species_maxwellian
from repro.core.options import AssemblyOptions
from repro.fem.assembly import assemble_coefficient_operator, get_scatter_map
from repro.sparse.band import CachedBandSolverFactory

TOL = 1e-12

#: the assembly contraction specs every backend must reproduce
SPEC_D = "eq,eqad,xeqdc,eqbc->xeab"
SPEC_K = "eq,eqad,xeqd,qb->xeab"

needs_numba = pytest.mark.skipif(
    not NumbaBackend.available(),
    reason="numba is not installed in this container",
)
needs_cuda_jit = pytest.mark.skipif(
    not cuda_jit_available(),
    reason="needs numba plus a CUDA device or NUMBA_ENABLE_CUDASIM=1",
)

#: every backend appears in the matrix; unavailable ones are *visible*
#: skips, never silently dropped
BACKEND_PARAMS = [
    pytest.param("numpy", id="numpy"),
    pytest.param("threaded", id="threaded"),
    pytest.param("numba", id="numba", marks=needs_numba),
]


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
    as a source of geometry (r, z, beta sums, scatter structure)."""
    return LandauOperator(
        ed_fs, ed_species, options=AssemblyOptions.from_env(backend="numpy")
    )


def _backend(name):
    return get_backend(name, num_threads=2 if name != "numpy" else 0)


class TestStageConformance:
    """Backend x stage matrix on the two-species quench vertex."""

    @pytest.mark.parametrize("name", BACKEND_PARAMS)
    def test_pair_table_build(self, quench_op, name):
        N = quench_op.N
        r, z = quench_op.r, quench_op.z
        ref = np.empty((5, N, N))
        NumpyBackend().pair_table_rows(ref, r, z, 0, N)
        out = np.empty((5, N, N))
        be = _backend(name)
        # fill through the same disjoint row blocks the operator uses
        for i0, i1 in be.batch_blocks(N):
            be.pair_table_rows(out, r, z, i0, i1)
        _assert_close(out, ref, f"{name} pair tables")

    @pytest.mark.parametrize("name", BACKEND_PARAMS)
    def test_field_row_blocks(self, quench_op, quench_fields, name):
        op = quench_op
        T_D, T_K = op.beta_sums(quench_fields)
        cTD = (op.w * T_D)[:, None]
        cTKr = (op.w * T_K[0])[:, None]
        cTKz = (op.w * T_K[1])[:, None]
        N = op.N
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

    @pytest.mark.parametrize("name", BACKEND_PARAMS)
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

    @pytest.mark.parametrize("name", BACKEND_PARAMS)
    def test_scatter_apply(self, ed_fs, name):
        sm = get_scatter_map(ed_fs)
        rng = np.random.default_rng(23)
        flat = rng.standard_normal((4, sm.T.shape[1]))
        ref = NumpyBackend().scatter_apply(sm.T, flat)
        out = _backend(name).scatter_apply(sm.T, flat)
        _assert_close(out, ref, f"{name} scatter-apply")

    @pytest.mark.parametrize("name", BACKEND_PARAMS)
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

    @pytest.mark.parametrize("name", BACKEND_PARAMS)
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

    @pytest.mark.parametrize("name", BACKEND_PARAMS)
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

    @pytest.mark.parametrize("name", BACKEND_PARAMS)
    def test_full_jacobian(self, ed_fs, ed_species, quench_fields, name):
        """End-to-end: the whole Jacobian build on each backend."""
        ref_op = LandauOperator(
            ed_fs,
            ed_species,
            options=AssemblyOptions.from_env(backend="numpy"),
        )
        op = LandauOperator(
            ed_fs,
            ed_species,
            options=AssemblyOptions.from_env(backend=name, num_threads=2),
        )
        J_ref = ref_op.jacobian(quench_fields)
        J = op.jacobian(quench_fields)
        for a in range(len(ed_species)):
            _assert_close(
                J[a].toarray(),
                J_ref[a].toarray(),
                f"{name} Jacobian species {a}",
            )


class TestKernelMathPython:
    """The nopython kernels run (slowly) as plain python without numba;
    their numerics are pinned here against the vectorized references."""

    @pytest.fixture(scope="class")
    def points(self):
        rng = np.random.default_rng(20260808)
        N = 48
        r = rng.uniform(0.01, 3.0, N)
        z = rng.uniform(-2.0, 2.0, N)
        # exercise the coincident mask and a near-coincident pair
        r[5], z[5] = r[3], z[3]
        r[7], z[7] = r[6] * (1 + 1e-16), z[6]
        return r, z

    def test_agm_elliptic_vs_scipy(self):
        from scipy.special import ellipe, ellipk

        ms = np.concatenate(
            [np.linspace(1e-12, 2.5e-3, 40), np.linspace(2.5e-3, 0.999, 200)]
        )
        for m in ms:
            K, E = nk.ellip_ke(m)
            assert abs(K - ellipk(m)) <= 1e-13 * ellipk(m)
            assert abs(E - ellipe(m)) <= 1e-13 * ellipe(m)
        K0, E0 = nk.ellip_ke(0.0)
        assert K0 == E0 == 0.5 * np.pi

    def test_pair_rows_matches_reference(self, points):
        r, z = points
        N = r.size
        ref = np.empty((5, N, N))
        lt.packed_pair_rows(ref, r, z, 0, N)
        out = np.empty((5, N, N))
        nk.pair_rows(out, r, z, 0, N)
        for c in range(5):
            _assert_close(out[c], ref[c], f"pair component {c}")

    def test_pair_rows_series_crossover(self):
        """Pairs engineered around the m = 2e-3 series switch — the
        regime where the T1/T2 cancellations are worst."""
        rng = np.random.default_rng(1)
        N = 50
        rs, zs = [], []
        for _ in range(N):
            m_t = 10 ** rng.uniform(-3.4, -1.0)
            ri = rng.uniform(0.05, 2.0)
            rj = rng.uniform(0.05, 2.0)
            B = 2 * ri * rj
            dz2 = 2 * B / m_t - B - ri * ri - rj * rj
            rs.append(ri)
            zs.append(np.sqrt(max(dz2, 0.01)))
        r, z = np.array(rs), np.array(zs)
        ref = np.empty((5, N, N))
        lt.packed_pair_rows(ref, r, z, 0, N)
        out = np.empty((5, N, N))
        nk.pair_rows(out, r, z, 0, N)
        for c in range(5):
            _assert_close(out[c], ref[c], f"crossover component {c}")

    def test_field_rows_matches_reference(self, points):
        r, z = points
        N, S = r.size, 3
        rng = np.random.default_rng(2)
        cTD = rng.standard_normal((N, S))
        cTKr = rng.standard_normal((N, S))
        cTKz = rng.standard_normal((N, S))
        ref_D = np.zeros((S, N, 2, 2))
        ref_K = np.zeros((S, N, 2))
        lt.field_rows(ref_D, ref_K, r, z, cTD, cTKr, cTKz, 0, N)
        out_D = np.zeros((S, N, 2, 2))
        out_K = np.zeros((S, N, 2))
        nk.field_rows(out_D, out_K, r, z, cTD, cTKr, cTKz, 0, N)
        _assert_close(out_D, ref_D, "field G_D")
        _assert_close(out_K, ref_K, "field G_K")
        assert np.array_equal(out_D[:, :, 1, 0], out_D[:, :, 0, 1])

    def test_element_blocks_vs_einsum(self):
        rng = np.random.default_rng(7)
        ne, nq, nb, X = 6, 4, 5, 3
        w = rng.standard_normal((ne, nq))
        g = rng.standard_normal((ne, nq, nb, 2))
        GD = rng.standard_normal((X, ne, nq, 2, 2))
        GK = rng.standard_normal((X, ne, nq, 2))
        Bq = rng.standard_normal((nq, nb))
        refD = np.einsum(SPEC_D, w, g, GD, g, optimize=True)
        outD = np.zeros((X, ne, nb, nb))
        nk.element_blocks_D(w, g, GD, outD, 0, X)
        _assert_close(outD, refD, "element D blocks")
        refK = np.einsum(SPEC_K, w, g, GK, Bq, optimize=True)
        outK = np.zeros((X, ne, nb, nb))
        nk.element_blocks_K(w, g, GK, Bq, outK, 0, X)
        _assert_close(outK, refK, "element K blocks")

    def test_csr_scatter_rows(self):
        rng = np.random.default_rng(9)
        T = sp.random(60, 90, density=0.15, random_state=0, format="csr")
        flat = rng.standard_normal((4, 90))
        ref = (T @ flat.T).T
        out = np.zeros((4, 60))
        nk.csr_scatter_rows(T.indptr, T.indices, T.data, flat, out, 0, 4)
        _assert_close(out, ref, "csr scatter rows")

    def test_constants_stay_in_sync(self):
        """The scalar kernels hard-code the mask/crossover constants
        (numba constant-folds literals); they must track the reference."""
        assert nk.SINGULAR_REL_TOL == lt.SINGULAR_REL_TOL == 1e-14
        assert nk.SMALL_M == lt.SMALL_M == 2.0e-3

    def test_warm_all_runs_every_kernel(self):
        # plain-python smoke of the compile-warming entry point
        nk.warm_all()


class TestDeviceKernelData:
    """The CSR-style flattening the cuda.jit kernel consumes."""

    def test_pack_roundtrip(self, ed_fs, ed_species):
        kd = KernelData.build(ed_fs, ed_species)
        dev = DeviceKernelData.pack(kd)
        nelem = kd.nelem
        assert dev.targets_off.shape == (nelem + 1,)
        assert dev.P_off.shape == (nelem + 1,)
        for e in range(nelem):
            tgt = kd.elem_targets[e]
            k0, k1 = dev.targets_off[e], dev.targets_off[e + 1]
            assert np.array_equal(dev.targets_flat[k0:k1], tgt)
            Pe = kd.elem_P[e]
            p0, p1 = dev.P_off[e], dev.P_off[e + 1]
            assert np.array_equal(
                dev.P_flat[p0:p1].reshape(kd.nb, tgt.size), Pe
            )


@needs_cuda_jit
class TestCudaJitConformance:
    """Compiled numba.cuda kernel vs the counting-simulator driver."""

    @pytest.fixture(scope="class")
    def small_problem(self, ed_species):
        from repro.fem.function_space import FunctionSpace
        from repro.fem.mesh import Mesh

        fs = FunctionSpace(Mesh.structured(2, 3, 1.6, -1.6, 1.6), order=2)
        e, d = ed_species[0], ed_species[1]
        fields = [
            fs.interpolate(
                lambda r, z: maxwellian_rz(
                    r, z - 0.1, 1.0, 0.7 * e.thermal_velocity
                )
            ),
            fs.interpolate(species_maxwellian(d)),
        ]
        return fs, fields

    def test_matches_simulator_driver(self, ed_species, small_problem):
        from repro.core.kernel_cuda import CudaLandauJacobian

        fs, fields = small_problem
        sim = CudaLandauJacobian(fs, ed_species)
        jit = CudaJitLandauJacobian(fs, ed_species)
        assert jit.block == sim.block
        assert jit.grid == sim.kd.nelem
        J_sim = sim.build(fields)
        J_jit = jit.build(fields)
        _assert_close(J_jit, J_sim, "cuda.jit element Jacobian")
        # identical launch accounting: one launch per build on both paths
        assert jit.counters["kernel_launches"] == 1
        assert sim.machine.counters.kernel_launches == 1
        jit.build(fields)
        assert jit.counters["kernel_launches"] == 2


class TestUnavailableGuards:
    @pytest.mark.skipif(
        NumbaBackend.available(), reason="numba installed in this container"
    )
    def test_numba_backend_refuses_construction(self):
        with pytest.raises(BackendUnavailable, match="numba"):
            NumbaBackend()

    @pytest.mark.skipif(
        cuda_jit_available(), reason="cuda.jit usable in this container"
    )
    def test_cuda_jit_refuses_construction(self, ed_fs, ed_species):
        with pytest.raises(BackendUnavailable, match="CUDA"):
            CudaJitLandauJacobian(ed_fs, ed_species)

    def test_matrix_lists_every_backend(self):
        """The conformance matrix must always contain all three backends —
        a skipped numba leg is visible, never silently dropped."""
        ids = {p.id for p in BACKEND_PARAMS}
        assert ids == {"numpy", "threaded", "numba"}
        assert set(available_backends()) <= ids
