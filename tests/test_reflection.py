"""The z-reflection of the velocity mesh and the on-the-fly launch that
uses it.

A ``landau_mesh`` space is its own reflection ``(r, z) -> (r, -z)``, so
the launch evaluates the pairs of the upper half against the upper
sources and their reflections and serves the lower rows through ``U(x_a',
x_b') = S U(x_a, x_b) S`` ("Reflection symmetry" in
:mod:`repro.core.landau_tensor`).  Everything here is checked against
code that does not use the reflection: the plain launch over every point
of the same snapped geometry, and :func:`landau_tensors_cyl` at the
operator's own coordinates.
"""

import copy

import numpy as np
import pytest

from repro.amr import landau_mesh
from repro.core import LandauOperator, SpeciesSet, deuterium, electron
from repro.core import landau_tensor as lt
from repro.core.options import AssemblyOptions
from repro.fem import FunctionSpace, Mesh

from .test_factor_once import _states

SPECIES = {
    "e": SpeciesSet([electron()]),
    "ed": SpeciesSet([electron(), deuterium()]),
}


def _space(species, order, h_factor=None):
    spc = SPECIES[species]
    kw = {} if h_factor is None else {"h_factor": h_factor}
    mesh = landau_mesh([s.thermal_velocity for s in spc], **kw)
    return FunctionSpace(mesh, order=order), spc


def _otf(fs, spc, **kw):
    options = AssemblyOptions(cache_pair_tables=False, **kw)
    return LandauOperator(fs, spc, options=options)


def _plain(op):
    """``op`` with its reflection taken away: the launch runs over every
    point of the same (snapped) coordinates, as it does on a space with
    no reflection."""
    plain = copy.copy(op)
    plain._upper, plain._lower = np.arange(op.N), np.arange(0)
    return plain


LANDAU_SPACES = [
    (species, order, h_factor)
    for species in ("e", "ed")
    for h_factor in (None, 1.6)
    for order in (1, 2, 3)
] + [("e", 4, None)]


@pytest.fixture(scope="module")
def ed_q2():
    """The on-the-fly benchmark workload's discretization: N = 504."""
    fs, spc = _space("ed", 2)
    assert fs.n_integration_points == 504
    return fs, spc


@pytest.fixture(scope="module")
def benchmark_spaces(ed_q2, fs_q3, electron_species):
    assert fs_q3.n_integration_points == 320
    return {"ed_q2": ed_q2, "e_q3": (fs_q3, electron_species)}


# ----------------------------------------------------------------------
class TestReflectionMap:
    @pytest.mark.parametrize("species,order,h_factor", LANDAU_SPACES)
    def test_landau_mesh_spaces_pair_up(self, species, order, h_factor):
        fs, spc = _space(species, order, h_factor)
        N = fs.n_integration_points
        r = fs.qpoints[:, :, 0].reshape(N)
        z = fs.qpoints[:, :, 1].reshape(N)
        p = lt.reflection_map(r, z)
        assert p is not None
        assert np.array_equal(p[p], np.arange(N))  # an involution
        assert (p != np.arange(N)).all()  # without fixed points
        assert np.array_equal(r[p], r)
        # the operator's snap moves no z by more than 1 ulp of max |z|
        op = _otf(fs, spc)
        ulp = np.spacing(np.abs(z).max())
        assert np.abs(op.z - z).max() <= ulp
        assert np.array_equal(op.z[op._lower], -op.z[op._upper])
        assert (op.z[op._upper] > 0).all() and op._upper.size == N // 2
        assert np.array_equal(np.sort(np.r_[op._upper, op._lower]), np.arange(N))
        # the space's own coordinates are left alone
        assert np.array_equal(fs.qpoints[:, :, 1].reshape(N), z)

    @pytest.mark.parametrize(
        "mesh,order",
        [
            (Mesh.structured(3, 4, 2.0, -2.0, 1.0), 3),  # not symmetric
            (Mesh.structured(3, 3, 2.0, -2.0, 2.0), 2),  # points on z = 0
        ],
    )
    def test_structured_meshes_without_reflection(self, mesh, order):
        fs = FunctionSpace(mesh, order=order)
        N = fs.n_integration_points
        r = fs.qpoints[:, :, 0].reshape(N)
        z = fs.qpoints[:, :, 1].reshape(N)
        assert lt.reflection_map(r, z) is None
        op = _otf(fs, SPECIES["e"])
        assert op._lower.size == 0 and np.array_equal(op._upper, np.arange(N))
        assert np.array_equal(op.z, z)


# ----------------------------------------------------------------------
class TestReflectedLaunch:
    def test_tensor_identities_hold_bitwise_after_the_snap(self, ed_q2):
        """``U(x_a', x_b') = S U(x_a, x_b) S`` and ``U(x_a', x_b) = S
        U(x_a, x_b') S`` on the reference, for ``U^D`` and ``U^K``."""
        op = _otf(*ed_q2)
        up, low = op._upper, op._lower
        r, z = op.r, op.z

        def tensors(a, b):
            return lt.landau_tensors_cyl(
                r[a][:, None], z[a][:, None], r[b][None, :], z[b][None, :]
            )

        S = np.array([[1.0, -1.0], [-1.0, 1.0]])
        for (a, b), (ra, rb) in (((up, up), (low, low)), ((up, low), (low, up))):
            for U, U_refl in zip(tensors(a, b), tensors(ra, rb)):
                assert np.array_equal(U_refl, S * U)

    @pytest.mark.parametrize("budget", [None, 100_000])
    @pytest.mark.parametrize("space", ["ed_q2", "e_q3"])
    def test_kernel_entries_equal_reference(self, benchmark_spaces, space, budget):
        """Every entry the launch's blocks evaluate, for the upper and
        the reflected column sets, against :func:`landau_tensors_cyl` at
        the operator's coordinates (``DrrT`` with field and source
        exchanged)."""
        kw = {} if budget is None else {"memory_budget": budget}
        op = _otf(*benchmark_spaces[space], **kw)
        up, low = op._upper, op._lower
        n = up.size
        blocks = op._row_blocks(n, sets=2)
        assert len(blocks) > 1
        for i0, i1 in blocks:
            comps = lt.pair_block_tensors(op.r[up], op.z[up], i0, i1, True)
            fields = up[i0:i1]
            for half, sources in enumerate((up[i0:], low[i0:])):
                cols = slice(half * (n - i0), (half + 1) * (n - i0))
                UD, UK = lt.landau_tensors_cyl(
                    op.r[fields][:, None],
                    op.z[fields][:, None],
                    op.r[sources][None, :],
                    op.z[sources][None, :],
                )
                UDT, _ = lt.landau_tensors_cyl(
                    op.r[sources][None, :],
                    op.z[sources][None, :],
                    op.r[fields][:, None],
                    op.z[fields][:, None],
                )
                ref = (
                    UD[..., 0, 0],
                    UD[..., 0, 1],
                    UD[..., 1, 1],
                    UK[..., 0, 0],
                    UK[..., 1, 0],
                    UDT[..., 0, 0],
                )
                for got, want in zip(comps, ref):
                    assert np.array_equal(got[:, cols], want)

    @pytest.mark.parametrize("budget", [None, 100_000])
    @pytest.mark.parametrize("B", [1, 16])
    @pytest.mark.parametrize("space", ["ed_q2", "e_q3"])
    def test_matches_plain_launch(self, benchmark_spaces, space, B, budget):
        kw = {} if budget is None else {"memory_budget": budget}
        fs, spc = benchmark_spaces[space]
        op = _otf(fs, spc, **kw)
        assert op._lower.size == op.N // 2
        plain = _plain(op)
        if budget is not None:
            assert len(op._row_blocks(op.N // 2, sets=2)) > len(
                _otf(fs, spc)._row_blocks(op.N // 2, sets=2)
            )
        states = _states(fs, spc, B, seed=B)
        G_D, G_K = op.fields_batch(states)
        ref_D, ref_K = plain.fields_batch(states)
        assert np.abs(G_D - ref_D).max() <= 1e-14 * np.abs(ref_D).max()
        assert np.abs(G_K - ref_K).max() <= 1e-14 * np.abs(ref_K).max()
        assert np.array_equal(G_D[..., 1, 0], G_D[..., 0, 1])

    @pytest.mark.parametrize("space", ["ed_q2", "e_q3"])
    def test_launch_evaluates_about_a_quarter_of_the_pairs(
        self, benchmark_spaces, space, monkeypatch
    ):
        """Counted as rows x columns over the blocks a launch evaluates,
        against the plain launch's ``[i0, i1) x [i0, N)`` blocks."""
        fs, spc = benchmark_spaces[space]
        op = _otf(fs, spc)
        evaluated = []
        kernel = lt.pair_block_tensors

        def counting(*args, **kw):
            comps = kernel(*args, **kw)
            evaluated.append(comps[0].size)
            return comps

        monkeypatch.setattr(lt, "pair_block_tensors", counting)
        op.fields_batch(_states(fs, spc, 2))
        N = op.N
        plain = sum((i1 - i0) * (N - i0) for i0, i1 in op._row_blocks(N))
        assert sum(evaluated) <= 0.55 * plain
