"""The executor's hot-path kernels against independent references.

On a two-species quench vertex: the on-the-fly Algorithm-1 field rows
over several row partitions against one whole block, and the batched
band factor/solve — plain, with resident slots refilled and solved in
subsets, and with the Q3 cell interiors statically condensed — against
scipy's sparse LU of each matrix.  On small spaces: the field rows
against the Landau tensors of every ordered point pair contracted in
plain numpy, and the batched CSR scatter-apply and the cached-structure
coefficient assembly against the element-level COO scatter.  Each to
<= 1e-12 (relative to the stage's max magnitude).
"""

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro.backend import NumpyBackend
from repro.core import LandauOperator
from repro.core.landau_tensor import landau_tensors_cyl
from repro.core.maxwellian import maxwellian_rz, species_maxwellian
from repro.core.options import AssemblyOptions
from repro.fem.assembly import _scatter, assemble_coefficient_operator, get_scatter_map
from repro.sparse.band import CachedBandSolverFactory

TOL = 1e-12


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
    """An operator on the quench discretization, used as a source of
    geometry (r, z, weights, scatter structure) and matrices."""
    return LandauOperator(ed_fs, ed_species)


@pytest.fixture(scope="module")
def step_matrices(quench_op, quench_fields):
    """Six backward-Euler matrices ``M - dt L`` sharing one pattern, as
    ``(template, data (6, nnz))``, and scipy's LU of each."""
    M = quench_op.mass_matrix.tocsr()
    L = quench_op.jacobian(quench_fields)[0].tocsr()
    template = (M - 0.05 * L).tocsr()
    data = np.stack([template.data * (1.0 + 0.01 * x) for x in range(6)])
    lus = []
    for row in data:
        A = template.copy()
        A.data = row
        lus.append(spla.splu(A.tocsc()))
    return template, data, lus


def _splu_solve(lus, rhs, mats):
    return np.stack([lus[m].solve(b) for m, b in zip(mats, rhs)])


class TestFieldRows:
    @pytest.mark.parametrize(
        "cuts",
        [
            pytest.param((0.5,), id="halves"),
            pytest.param((0.1, 0.35, 0.9), id="uneven"),
            pytest.param(None, id="operator-blocks"),
            pytest.param(50_000, id="budget-blocks"),
        ],
    )
    def test_any_partition_gives_the_whole_block(
        self, quench_op, quench_fields, cuts
    ):
        """Calls over any partition of the rows turn zero outputs into
        the fields one call over every row gives."""
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
        be = NumpyBackend()
        ref_D = np.zeros((1, N, 2, 2))
        ref_K = np.zeros((1, N, 2))
        be.field_rows(ref_D, ref_K, op.r, op.z, cTD, cTKr, cTKz, 0, N)
        if cuts is None:
            blocks = op._row_blocks(N)
        elif isinstance(cuts, int):
            # the smaller blocks an on-the-fly operator under this memory
            # budget (bytes) launches
            small = AssemblyOptions(cache_pair_tables=False, memory_budget=cuts)
            blocks = LandauOperator(op.fs, op.species, options=small)._row_blocks(N)
            assert len(blocks) > len(op._row_blocks(N))
        else:
            edges = [0, *(int(c * N) for c in cuts), N]
            blocks = list(zip(edges[:-1], edges[1:]))
        assert len(blocks) > 1
        out_D = np.zeros((1, N, 2, 2))
        out_K = np.zeros((1, N, 2))
        for i0, i1 in blocks:
            be.field_rows(out_D, out_K, op.r, op.z, cTD, cTKr, cTKz, i0, i1)
        _assert_close(out_D, ref_D, "field G_D rows")
        _assert_close(out_K, ref_K, "field G_K rows")
        assert np.array_equal(out_D[..., 1, 0], out_D[..., 0, 1])

    @pytest.mark.parametrize("B", [1, 3])
    @pytest.mark.parametrize("space", ["fs_q2", "structured_fs"])
    def test_whole_block_matches_dense_tensors(
        self, request, electron_species, space, B
    ):
        """One call over every row against :func:`landau_tensors_cyl`
        over all ordered point pairs, contracted with ``B`` source
        columns in plain numpy — no pair symmetry, no mirror."""
        op = LandauOperator(request.getfixturevalue(space), electron_species)
        N = op.N
        rng = np.random.default_rng(B)
        cTD = rng.uniform(0.5, 1.5, (N, B))
        cTKr, cTKz = rng.standard_normal((2, N, B))
        G_D = np.zeros((B, N, 2, 2))
        G_K = np.zeros((B, N, 2))
        NumpyBackend().field_rows(G_D, G_K, op.r, op.z, cTD, cTKr, cTKz, 0, N)
        r, z = op.r, op.z
        UD, UK = landau_tensors_cyl(r[:, None], z[:, None], r[None, :], z[None, :])
        ref_D = np.einsum("ijac,jb->biac", UD, cTD)
        ref_K = np.einsum("ija,jb->bia", UK[..., 0], cTKr) + np.einsum(
            "ija,jb->bia", UK[..., 1], cTKz
        )
        _assert_close(G_D, ref_D, "field G_D rows")
        _assert_close(G_K, ref_K, "field G_K rows")


SPACES = ["fs_q2", "fs_q3", "structured_fs"]


class TestScatterApply:
    @pytest.mark.parametrize("X", [1, 4])
    @pytest.mark.parametrize("space", SPACES)
    def test_batch_matches_coo_scatter(self, request, space, X):
        """Each row of the batched scatter-apply is the CSR data of the
        matrix the element-level COO scatter (hanging-node constraints
        folded by the dofmap) builds from that member's blocks."""
        fs = request.getfixturevalue(space)
        sm = get_scatter_map(fs)
        rng = np.random.default_rng(X)
        Ce = rng.standard_normal((X, fs.nelem, fs.nb, fs.nb))
        data = NumpyBackend().scatter_apply(sm.T, Ce.reshape(X, -1))
        assert data.shape == (X, sm.nnz) and data.flags.c_contiguous
        for x in range(X):
            got = sp.csr_matrix(
                (data[x], sm.indices, sm.indptr), shape=(sm.n_free, sm.n_free)
            )
            ref = _scatter(fs, Ce[x])
            _assert_close(got.toarray(), ref.toarray(), f"member {x}")


class TestCoefficientAssembly:
    @pytest.mark.parametrize("space", SPACES)
    def test_cached_structure_matches_coo_build(self, request, space):
        """The weak-form assembly on the cached scatter structure and its
        cached physical gradients against the plain COO build, for
        random symmetric diffusion tensors and friction vectors."""
        fs = request.getfixturevalue(space)
        ne, nq = fs.qweights.shape
        rng = np.random.default_rng(29)
        D_q = rng.standard_normal((ne, nq, 2, 2))
        D_q = D_q + np.swapaxes(D_q, -1, -2)
        K_q = rng.standard_normal((ne, nq, 2))
        got = assemble_coefficient_operator(
            fs, D_q, K_q, structure=get_scatter_map(fs)
        )
        ref = assemble_coefficient_operator(fs, D_q, K_q)
        _assert_close(got.toarray(), ref.toarray(), "coefficient operator")


class TestBandFactorSolve:
    def test_band_factor_solve(self, step_matrices):
        template, data, lus = step_matrices
        X = 3
        rhs = np.random.default_rng(3).standard_normal((X, template.shape[0]))
        ref = _splu_solve(lus, rhs, range(X))
        got = CachedBandSolverFactory().factor_batch(template, data[:X])
        _assert_close(got.solve_many(rhs), ref, "band solve_many")
        _assert_close(got.solve(1, rhs[1]), ref[1], "band solve")

    @pytest.mark.parametrize("condensed", [False, True], ids=["plain", "condensed"])
    def test_resident_factors_subset_solve(self, ed_fs, step_matrices, condensed):
        """Resident factors, subset solve: slots of one preallocated
        stack are filled in two calls, one is refilled with a different
        matrix, and a subset is solved in arbitrary slot order — the
        batched solver's sweep-0 blocks, divergence-guard refresh and
        active-set solves.  Condensed, only the skeleton Schur
        complements go through the executor's factor/solve kernels."""
        template, data, lus = step_matrices
        kw = {"interior": get_scatter_map(ed_fs).interior} if condensed else {}
        rhs = np.random.default_rng(4).standard_normal((6, template.shape[0]))
        factory = CachedBandSolverFactory()
        slots = np.array([5, 0, 3, 7, 1])
        solver = factory.factor_batch(
            template, data[:3], rows=slots[:3], capacity=8, **kw
        )
        assert solver.batch_size == 8
        factory.factor_batch(template, data[3:5], into=solver, rows=slots[3:], **kw)
        factory.factor_batch(template, data[5:], into=solver, rows=[3], **kw)
        # matrices now resident: slot 5 <- 0, 0 <- 1, 3 <- 5, 7 <- 3, 1 <- 4
        pick_slots = np.array([3, 7, 5, 1])
        pick_mats = np.array([5, 3, 0, 4])
        got = solver.solve_many(rhs[pick_mats], rows=pick_slots)
        _assert_close(got, _splu_solve(lus, rhs[pick_mats], pick_mats), "solve_many")
        _assert_close(solver.solve(7, rhs[3]), lus[3].solve(rhs[3]), "solve")
        with pytest.raises(IndexError):
            solver.solve_many(rhs[:1], rows=[8])
        with pytest.raises(ValueError):
            solver.solve_many(rhs[:2], rows=[0])
