"""Cross-backend equivalence: every execution path of the operator must
produce the same matrices and updates.

The CPU reference (``LandauOperator.jacobian``), the CUDA-sim kernel
(:class:`CudaLandauJacobian`), the Kokkos-sim kernel
(:class:`KokkosLandauJacobian`) and the batched per-vertex path
(:class:`BatchedVertexSolver`) are four implementations of the same
discrete operator; any drift between them is a bug.  The grid covers a
conforming structured mesh and the AMR mesh (hanging-node constraints),
with single- and two-species sets, plus the CPU path with cached and
on-the-fly pair tables, the latter in the row blocks of several memory
budgets.  The operator's fields, Jacobian, action and mass matrix are also
checked against an independent build that shares none of its fast path:
dense tensor tables contracted in plain numpy, matrices from the
element-level COO scatter.
"""

import numpy as np
import pytest

from repro.amr import landau_mesh
from repro.core import (
    AssemblyOptions,
    BatchedVertexSolver,
    ImplicitLandauSolver,
    LandauOperator,
    SpeciesSet,
    deuterium,
    electron,
)
from repro.core.kernel_cuda import CudaLandauJacobian
from repro.core.kernel_kokkos import KokkosLandauJacobian
from repro.core.landau_tensor import landau_tensors_cyl
from repro.core.maxwellian import maxwellian_rz, species_maxwellian
from repro.fem import FunctionSpace, Mesh
from repro.fem.assembly import assemble_coefficient_operator, assemble_mass
from repro.kokkos import KOKKOS_OPENMP
from repro.kokkos.backends import fresh_backend


def _make_fs(kind: str) -> FunctionSpace:
    if kind == "structured":
        return FunctionSpace(Mesh.structured(3, 3, 4.0, -4.0, 4.0), order=2)
    # the paper's AMR mesh: exercises hanging-node constraint folding
    return FunctionSpace(landau_mesh([electron().thermal_velocity]), order=3)


def _make_species(kind: str) -> SpeciesSet:
    if kind == "e":
        return SpeciesSet([electron()])
    return SpeciesSet([electron(), deuterium()])


def _perturbed_fields(fs: FunctionSpace, spc: SpeciesSet) -> list[np.ndarray]:
    """Slightly shifted Maxwellians, so cross-species terms are nonzero."""
    return [
        fs.interpolate(
            lambda r, z, s=s, a=0.05 * (i + 1): maxwellian_rz(
                r, z - a, s.density, s.thermal_velocity
            )
        )
        for i, s in enumerate(spc)
    ]


@pytest.fixture(scope="module", params=["structured", "amr"])
def mesh_fs(request):
    return _make_fs(request.param)


@pytest.fixture(scope="module", params=["e", "ed"])
def system(mesh_fs, request):
    spc = _make_species(request.param)
    op = LandauOperator(mesh_fs, spc)
    return mesh_fs, spc, op, _perturbed_fields(mesh_fs, spc)


def _assert_matches(dense_backend, ref_sparse, label):
    for s, ref in enumerate(ref_sparse):
        dense = ref.toarray()
        tol = 1e-12 * max(np.abs(dense).max(), 1.0)
        assert np.allclose(dense_backend[s], dense, atol=tol), (
            f"{label}: species {s} deviates by "
            f"{np.abs(dense_backend[s] - dense).max():.3e}"
        )


class TestKernelBackends:
    def test_cuda_matches_reference(self, system):
        fs, spc, op, fields = system
        ref = op.jacobian(fields)
        J = CudaLandauJacobian(fs, spc).build(fields)
        _assert_matches(J, ref, "cuda-sim")

    def test_kokkos_matches_reference(self, system):
        fs, spc, op, fields = system
        ref = op.jacobian(fields)
        bk = fresh_backend(KOKKOS_OPENMP)
        J = KokkosLandauJacobian(fs, spc, backend=bk).build(fields)
        _assert_matches(J, ref, "kokkos-sim")

    def test_cuda_matches_kokkos(self, system):
        fs, spc, op, fields = system
        J_cuda = CudaLandauJacobian(fs, spc).build(fields)
        bk = fresh_backend(KOKKOS_OPENMP)
        J_kk = KokkosLandauJacobian(fs, spc, backend=bk).build(fields)
        scale = max(np.abs(J_cuda).max(), 1.0)
        assert np.allclose(J_cuda, J_kk, atol=1e-12 * scale)


class TestBatchedVertexPath:
    def test_batched_fields_match_reference(self, system):
        fs, spc, op, fields = system
        G_D, G_K = op.fields(fields)
        bvs = BatchedVertexSolver(fs, spc)
        states = np.stack([np.stack(fields)] * 3)  # three identical vertices
        bG_D, bG_K = bvs.op.fields_batch(states)
        for b in range(3):
            assert np.allclose(bG_D[b], G_D, atol=1e-12 * max(np.abs(G_D).max(), 1))
            assert np.allclose(bG_K[b], G_K, atol=1e-12 * max(np.abs(G_K).max(), 1))

    def test_batched_matrices_match_reference(self, system):
        fs, spc, op, fields = system
        G_D, G_K = op.fields(fields)
        ref = [
            assemble_coefficient_operator(fs, *op.species_coefficients(s, G_D, G_K))
            for s in range(len(spc))
        ]
        bvs = BatchedVertexSolver(fs, spc)
        mats = bvs.op.species_matrices(G_D, G_K)
        for a, b in zip(mats, ref):
            scale = max(abs(b).max(), 1.0)
            assert abs(a - b).max() < 1e-12 * scale

    def test_batched_step_matches_implicit_solver(self, system):
        fs, spc, op, fields = system
        dt, rtol = 0.05, 1e-10
        solver = ImplicitLandauSolver(
            LandauOperator(fs, spc), rtol=rtol, max_newton=50
        )
        ref = solver.step([x.copy() for x in fields], dt)
        bvs = BatchedVertexSolver(fs, spc, rtol=rtol, max_newton=50)
        out = bvs.step(np.stack(fields)[None], dt)
        for s in range(len(spc)):
            scale = max(np.abs(ref[s]).max(), 1.0)
            assert np.allclose(out[0, s], ref[s], atol=1e-8 * scale)


# every AssemblyOptions variant must reproduce the default matrices
OPTION_VARIANTS = [
    pytest.param(AssemblyOptions(), id="all-on"),
    pytest.param(AssemblyOptions(cache_pair_tables=False), id="tables-off"),
    # a budget the cached build does not fit: on-the-fly fields, in the
    # smaller row blocks the budget allows
    pytest.param(AssemblyOptions(memory_budget=200_000), id="budget-chunked"),
    pytest.param(
        AssemblyOptions(cache_pair_tables=False, memory_budget=50_000),
        id="tables-off-small-blocks",
    ),
]


class TestOptionsEquivalence:
    @pytest.mark.parametrize("options", OPTION_VARIANTS)
    def test_jacobian_invariant_under_options(self, system, options):
        """The variant runs on a new space of the same mesh: a cached
        numpy variant would otherwise reuse the reference's build."""
        fs, spc, op, fields = system
        ref = op.jacobian(fields)
        fresh = FunctionSpace(fs.mesh, order=fs.element.order)
        J = LandauOperator(fresh, spc, options=options).jacobian(fields)
        for a, b in zip(J, ref):
            scale = max(abs(b).max(), 1.0)
            assert abs(a - b).max() < 1e-12 * scale

    @pytest.mark.parametrize("budget", [20_000, 50_000, 200_000])
    def test_uncached_chunked_fields_invariant(self, mesh_fs, budget):
        """The chunked on-the-fly fields path (tables too big to cache)
        must match the cached path, whatever row blocks the budget
        cuts."""
        spc = _make_species("ed")
        fields = [mesh_fs.interpolate(species_maxwellian(s)) for s in spc]
        ref_op = LandauOperator(mesh_fs, spc)
        G_D, G_K = ref_op.fields(fields)
        opts = AssemblyOptions(memory_budget=budget)
        op = LandauOperator(mesh_fs, spc, options=opts)
        assert not op.pair_tables_cached
        assert len(op._row_blocks(op.N)) > 1
        G_D2, G_K2 = op.fields(fields)
        assert np.allclose(G_D2, G_D, atol=1e-12 * max(np.abs(G_D).max(), 1))
        assert np.allclose(G_K2, G_K, atol=1e-12 * max(np.abs(G_K).max(), 1))


@pytest.fixture(scope="module")
def oracle_fields(system):
    """``G_D (N, 2, 2)`` / ``G_K (N, 2)`` without the operator's fast
    path: :func:`landau_tensors_cyl` over all ordered point pairs,
    contracted in plain numpy against the sources at the integration
    points — neither the row-block kernel nor the response tables."""
    fs, spc, op, fields = system
    N = fs.n_integration_points
    r = fs.qpoints[:, :, 0].reshape(N)
    z = fs.qpoints[:, :, 1].reshape(N)
    w = fs.qweights.reshape(N)
    T_D = sum(s.charge**2 * fs.eval(x).reshape(N) for s, x in zip(spc, fields))
    T_K = sum(
        s.charge**2 / s.mass * fs.eval_grad(x).reshape(N, 2)
        for s, x in zip(spc, fields)
    )
    UD, UK = landau_tensors_cyl(r[:, None], z[:, None], r[None, :], z[None, :])
    G_D = np.einsum("ijab,j->iab", UD, w * T_D)
    G_K = np.einsum("ijab,jb->ia", UK, w[:, None] * T_K)
    return G_D, G_K


@pytest.fixture(scope="module")
def oracle(system, oracle_fields):
    """Per-species collision matrices built without the operator's fast
    path: :func:`oracle_fields` and matrices from the element-level COO
    scatter (``structure=None``) — not the cached scatter structure."""
    fs, spc, op, fields = system
    return [
        assemble_coefficient_operator(fs, *op.species_coefficients(a, *oracle_fields))
        for a in range(len(spc))
    ]


def _field_error(got, ref):
    return max(
        np.abs(g - r).max() / np.abs(r).max() for g, r in zip(got, ref)
    )


class TestIndependentOracle:
    def test_grid_has_hanging_nodes(self):
        fs = _make_fs("amr")
        assert fs.dofmap.n_full > fs.dofmap.n_free

    def test_response_fields_match_dense_tensors(self, system, oracle_fields):
        """The cached operator's fields come from the response tables
        alone (the pair tables are contracted with the basis and dropped
        at build); checked against the plain tensor contraction at the
        integration points."""
        fs, spc, op, fields = system
        assert op.pair_tables_cached
        G_D, G_K = op.fields_batch(np.stack(fields)[None])
        assert _field_error((G_D[0], G_K[0]), oracle_fields) <= 1e-13

    def test_perturbed_response_fails_the_oracle(self, system, oracle_fields):
        """The bound above is tight enough to see a 1e-12 relative error
        in either response table."""
        fs, spc, op, fields = system
        R_D, R_K = op.response_tables
        states = np.stack(fields)[None]
        for bad in ((R_D * (1 + 1e-12), R_K), (R_D, R_K * (1 + 1e-12))):
            op._response = bad
            try:
                G_D, G_K = op.fields_batch(states)
            finally:
                op._response = (R_D, R_K)
            assert _field_error((G_D[0], G_K[0]), oracle_fields) > 1e-13

    def test_jacobian_matches_dense_tensor_coo_build(self, system, oracle):
        fs, spc, op, fields = system
        for a, (L, ref) in enumerate(zip(op.jacobian(fields), oracle)):
            assert abs(L - ref).max() <= 1e-12 * abs(ref).max(), a

    def test_apply_matches_dense_tensor_coo_build(self, system, oracle):
        """The matrix-free action ``(psi, C_a(f))`` against the oracle
        matrices applied to the state.  The action nearly cancels (it
        conserves density), so the bound is scaled by ``|L| |f|``, the
        rounding scale of the product, not by ``|L f|``."""
        fs, spc, op, fields = system
        for a, (got, L) in enumerate(zip(op.apply(fields), oracle)):
            ref = L @ fields[a]
            scale = (abs(L) @ np.abs(fields[a])).max()
            assert np.abs(got - ref).max() <= 1e-13 * scale, a

    def test_mass_matrix_matches_coo_build(self, mesh_fs):
        op = LandauOperator(mesh_fs, _make_species("e"))
        ref = assemble_mass(mesh_fs)
        assert abs(op.mass_matrix - ref).max() <= 1e-14 * abs(ref).max()
