"""The streamed field-response build.

:meth:`LandauOperator._build_response` contracts each row block's rows as
soon as they are complete and never holds the five ``(N, N)`` pair
tables.  Checked here against code that does: the tables from
:func:`landau_tensors_cyl` over all ordered pairs, contracted with the
chunked full-table contraction the build replaced — bitwise, at the
operator's own block size and with blocks of one cell — and its traced peak
against :meth:`AssemblyOptions.cached_build_bytes` and the full-table
build's.  On a space with a z-reflection the cached operator builds the
upper half's tables; the same oracle, restricted to the upper rows and
contracted over the points in ``upper | lower`` order, checks that build
bitwise.
"""

import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from repro.amr import landau_mesh
from repro.core import LandauOperator, SpeciesSet, deuterium, electron
from repro.core import operator as operator_module
from repro.core.options import ONTHEFLY_BYTES_PER_PAIR, AssemblyOptions
from repro.fem import FunctionSpace

from .test_pair_symmetry import reference_tables


def full_table_response(op, tables, reflected=False):
    """``(R_D, R_K)`` from the whole ``(5, N, N)`` table: rows in chunks
    whose per-cell products fit an ``(n, N)`` temporary, each contracted
    against ``w B``, ``w dB/dr`` and ``w dB/dz`` and gathered onto the
    free dofs — the full-table build's contraction, as it was.

    ``reflected``: the rows of the upper points only, contracted over
    the points in the order ``upper | lower`` (the lower points of a cell
    are those of its mirror cell), each cell's tabulations and gather
    columns taken in that order — the half-table build's contraction."""
    fs, sm = op.fs, op.scatter_map
    N, n = op.N, fs.ndofs
    ne, nq, nb = fs.nelem, fs.nq, fs.nb
    w = fs.qweights[:, None, :]
    wB = w * fs.B.T
    wEr = w * fs.Dref[:, :, 0].T * fs.inv_jac[:, 0, None, None]
    wEz = w * fs.Dref[:, :, 1].T * fs.inv_jac[:, 1, None, None]
    gather, gather_pair = sm.gather, sm.gather_pair
    if reflected:
        points = np.concatenate([op._upper, op._lower])
        tables = tables[:, op._upper][:, :, points]
        cell, q = points[::nq] // nq, points.reshape(ne, nq) % nq
        wB, wEr, wEz = (
            np.stack([t[e][:, qe] for e, qe in zip(cell, q)]) for t in (wB, wEr, wEz)
        )
        gather = gather[:, (cell[:, None] * nb + np.arange(nb)).ravel()]
        gather_pair = sp.hstack([gather, gather], format="csc")
    M = tables.shape[1]
    R_D = np.empty((n, 3, M))
    R_K = np.empty((n, M, 2))
    rows = max(1, n * N // (2 * ne * nb))
    buf = np.empty(2 * ne * nb * min(rows, M))
    for i0 in range(0, M, rows):
        i1 = min(M, i0 + rows)
        Y = buf[: 2 * ne * nb * (i1 - i0)].reshape(2, ne, nb, i1 - i0)

        def cells(k):
            return tables[k, i0:i1].reshape(-1, ne, nq).transpose(1, 2, 0)

        for c in range(3):
            np.matmul(wB, cells(c), out=Y[0])
            R_D[:, c, i0:i1] = gather @ Y[0].reshape(ne * nb, -1)
        for d, (k_r, k_z) in enumerate(((3, 1), (4, 2))):
            np.matmul(wEr, cells(k_r), out=Y[0])
            np.matmul(wEz, cells(k_z), out=Y[1])
            R_K[:, i0:i1, d] = gather_pair @ Y.reshape(2 * ne * nb, -1)
    return R_D.reshape(n, 3 * M), R_K.reshape(n, 2 * M)


@pytest.fixture(scope="module")
def ed_q2():
    """e + D Q2 (N = 504), a mesh with hanging nodes."""
    spc = SpeciesSet([electron(), deuterium()])
    fs = FunctionSpace(landau_mesh([s.thermal_velocity for s in spc]), order=2)
    assert fs.dofmap.n_full > fs.ndofs  # constrained (hanging) nodes
    return fs, spc


@pytest.fixture(params=["e_q2", "e_q3", "ed_q2"])
def space(request, fs_q2, fs_q3, electron_species, ed_q2):
    return {
        "e_q2": (fs_q2, electron_species),
        "e_q3": (fs_q3, electron_species),
        "ed_q2": ed_q2,
    }[request.param]


def _operator(fs, spc):
    return LandauOperator(fs, spc, options=AssemblyOptions(cache_pair_tables=False))


def _reflected(fs, spc):
    """A cached operator: on these spaces it builds the upper half's
    tables (its own build, called again below, is what is checked)."""
    op = LandauOperator(fs, spc, options=AssemblyOptions(cache_pair_tables=True))
    assert op._mirror is not None
    return op


class TestBitwiseOracle:
    def test_equals_the_full_table_contraction(self, space):
        op = _operator(*space)
        assert len(op._row_blocks(op.N, step=op.fs.nq)) > 1
        ref = full_table_response(op, reference_tables(op.r, op.z))
        got = op._build_response()
        assert all(np.array_equal(a, b) for a, b in zip(got, ref))

    def test_one_row_blocks(self, space, monkeypatch):
        """A block budget of one full row: the launch's partition starts
        with one-row blocks; the build's blocks, cut on cell boundaries,
        are one cell of rows each, so most are owed more mirror pieces
        than they contract one by one — and the build stays bitwise."""
        op = _operator(*space)
        ref = full_table_response(op, reference_tables(op.r, op.z))
        monkeypatch.setattr(
            operator_module, "ROW_BLOCK_BYTES", ONTHEFLY_BYTES_PER_PAIR * op.N
        )
        assert op._row_blocks(op.N)[0] == (0, 1)
        nq = op.fs.nq
        build_blocks = op._row_blocks(op.N, step=nq)
        assert build_blocks[0] == (0, nq)
        assert all(i0 % nq == 0 for i0, _ in build_blocks)
        assert len(build_blocks) > operator_module.DIRECT_PIECES + 1
        got = op._build_response()
        assert all(np.array_equal(a, b) for a, b in zip(got, ref))


class TestReflectedBuild:
    """The upper half's tables: the same kernel entries and contraction,
    over half the rows and the points in ``upper | lower`` order."""

    def test_equals_the_reordered_full_table_contraction(self, space):
        op = _reflected(*space)
        M = op.N // 2
        assert len(op._row_blocks(M, step=op.fs.nq, sets=2)) > 1
        got = op._build_response()
        assert got[0].shape == (op.fs.ndofs, 3 * M)
        assert got[1].shape == (op.fs.ndofs, 2 * M)
        ref = full_table_response(op, reference_tables(op.r, op.z), reflected=True)
        assert all(np.array_equal(a, b) for a, b in zip(got, ref))

    def test_one_cell_blocks(self, space, monkeypatch):
        """Blocks of one cell of rows: most are owed more pieces, from
        both halves, than they contract one by one."""
        op = _reflected(*space)
        ref = full_table_response(op, reference_tables(op.r, op.z), reflected=True)
        monkeypatch.setattr(
            operator_module, "ROW_BLOCK_BYTES", ONTHEFLY_BYTES_PER_PAIR * op.N
        )
        nq = op.fs.nq
        blocks = op._row_blocks(op.N // 2, step=nq, sets=2)
        assert blocks[0] == (0, nq)
        assert len(blocks) > 2 * operator_module.DIRECT_PIECES + 1
        got = op._build_response()
        assert all(np.array_equal(a, b) for a, b in zip(got, ref))

    def test_upper_columns_of_the_full_tables(self, space):
        """Each upper point's columns are the full build's, up to the
        contraction order."""
        op = _reflected(*space)
        plain = _operator(op.fs, op.species)
        R_D, R_K = plain._build_response()
        n, N, up = op.fs.ndofs, op.N, op._upper
        half_D, half_K = op.response_tables
        want_D = R_D.reshape(n, 3, N)[:, :, up].reshape(n, -1)
        want_K = R_K.reshape(n, N, 2)[:, up].reshape(n, -1)
        for got, want in ((half_D, want_D), (half_K, want_K)):
            assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


def _traced_peak(build):
    tracemalloc.start()
    try:
        build()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestMemoryBound:
    def test_bound_covers_the_traced_peak(self, space):
        fs, spc = space
        op = _operator(fs, spc)
        peak = _traced_peak(op._build_response)
        assert peak <= op.options.cached_build_bytes(op.N, fs.ndofs)

    def test_reflected_bound_covers_the_traced_peak(self, space):
        fs, spc = space
        op = _reflected(fs, spc)
        peak = _traced_peak(op._build_response)
        bound = op.options.cached_build_bytes(op.N, fs.ndofs, reflected=True)
        assert peak <= bound < op.options.cached_build_bytes(op.N, fs.ndofs)

    def test_no_pair_tables_held(self, ed_fs, ed_species):
        """e + D Q3, N = 896: the traced peak is within the bound and
        well under the full-table build's tables + response."""
        op = _operator(ed_fs, ed_species)
        N, n = op.N, ed_fs.ndofs
        assert N >= 600
        peak = _traced_peak(op._build_response)
        assert peak <= op.options.cached_build_bytes(N, n)
        assert peak < 0.75 * (5 * N * N * 8 + 5 * n * N * 8)
