"""The pair-symmetric row-block kernel behind the response build and the
on-the-fly field launch.

The kernel evaluates each unordered point pair once and serves the
exchanged pair from the same integrals, so everything here is checked
against code that does not: :func:`landau_tensors_cyl` over all ordered
pairs, the 3D azimuthal quadrature of ``test_landau_tensor.py``, and the
cached-table field path.
"""

import numpy as np
import pytest

from repro.amr import landau_mesh
from repro.core import LandauOperator, SpeciesSet, deuterium, electron
from repro.core import landau_tensor as lt
from repro.core.batch import BatchedVertexSolver
from repro.core.options import AssemblyOptions
from repro.fem import FunctionSpace

from . import test_landau_tensor as tensor_tests
from .test_factor_once import _states


def reference_tables(r, z):
    """The packed ``(5, N, N)`` table from :func:`landau_tensors_cyl`
    over all ordered pairs."""
    UD, UK = lt.landau_tensors_cyl(r[:, None], z[:, None], r[None, :], z[None, :])
    return np.stack(
        [UD[..., 0, 0], UD[..., 0, 1], UD[..., 1, 1], UK[..., 0, 0], UK[..., 1, 0]]
    )


def block_tables(r, z, blocks):
    """The packed ``(5, N, N)`` table from :func:`pair_block_tensors`
    over the row blocks ``blocks``: each block's own pairs ``[i0:i1,
    i0:]`` and, from the same integrals, their mirror images ``[i1:,
    i0:i1]`` (``Drr`` from ``DrrT``, ``Drz`` and ``Kzr`` exchanged,
    ``Dzz`` and ``Krr`` as they are) — the entries the response build
    assembles a block's rows from."""
    N = r.size
    out = np.full((5, N, N), np.nan)
    for i0, i1 in blocks:
        comps = lt.pair_block_tensors(r, z, i0, i1)
        for c, k in enumerate((5, 4, 2, 3, 1)):
            out[c, i0:i1, i0:] = comps[c]
            out[c, i1:, i0:i1] = comps[k][:, i1 - i0 :].T
    return out


def point_cloud():
    """Seeded points with everything the fix-ups by index have to get
    right: on-axis points, duplicates (the coincident mask, on and off
    the diagonal), a pair closer than the mask's tolerance, and pairs on
    both sides of the ``m = SMALL_M`` series switch."""
    rng = np.random.default_rng(20)
    N = 150
    r = rng.uniform(0.05, 3.0, N)
    z = rng.uniform(-2.0, 2.0, N)
    r[[3, 70, 149]] = 0.0
    r[40], z[40] = r[10], z[10]
    r[120], z[120] = r[119], z[119]
    r[61], z[61] = r[60] * (1 + 1e-16), z[60]
    for k in range(80, 100):  # m against point 0 spread around the switch
        m = lt.SMALL_M * 10 ** rng.uniform(-0.5, 0.5)
        r[k] = rng.uniform(0.05, 0.5)
        B = 2 * r[0] * r[k]
        z[k] = z[0] + np.sqrt(2 * B / m - B - r[0] ** 2 - r[k] ** 2)
    A = r[0] ** 2 + r[80:100] ** 2 + (z[0] - z[80:100]) ** 2
    m = 4 * r[0] * r[80:100] / (A + 2 * r[0] * r[80:100])
    assert (m < lt.SMALL_M).any() and (m > lt.SMALL_M).any()
    return r, z


@pytest.fixture(scope="module")
def ed_q2():
    """The on-the-fly benchmark workload's discretization: N = 504."""
    spc = SpeciesSet([electron(), deuterium()])
    fs = FunctionSpace(landau_mesh([s.thermal_velocity for s in spc]), order=2)
    assert fs.n_integration_points == 504
    return fs, spc


# ----------------------------------------------------------------------
class TestTableBuild:
    def test_operator_tables_equal_reference(self, ed_q2, fs_q3, electron_species):
        """Both benchmark meshes, through the operator's own blocks."""
        assert fs_q3.n_integration_points == 320
        for fs, spc in (ed_q2, (fs_q3, electron_species)):
            options = AssemblyOptions(cache_pair_tables=False)
            op = LandauOperator(fs, spc, options=options)
            blocks = op._row_blocks(op.N, step=fs.nq)
            assert len(blocks) > 1
            tables = block_tables(op.r, op.z, blocks)
            assert np.array_equal(tables, reference_tables(op.r, op.z))

    @pytest.mark.parametrize("cuts", [(), (1,), (37, 38, 110), (75,)])
    def test_point_cloud_equals_reference_on_any_partition(self, cuts):
        r, z = point_cloud()
        N = r.size
        edges = (0, *cuts, N)
        out = block_tables(r, z, zip(edges[:-1], edges[1:]))
        ref = reference_tables(r, z)
        assert np.array_equal(out, ref)
        assert (ref[:, 40, 10] == 0).all() and (ref[:, 61, 60] == 0).all()

    def test_reference_has_the_identities_the_mirror_relies_on(self, ed_q2):
        """Bitwise, on the *reference*: an edit to ``landau_tensors_cyl``
        that re-associates one of them fails here."""
        fs, spc = ed_q2
        N = fs.n_integration_points
        clouds = [
            (fs.qpoints[:, :, 0].reshape(N), fs.qpoints[:, :, 1].reshape(N)),
            point_cloud(),
        ]
        for r, z in clouds:
            Drr, Drz, Dzz, Krr, Kzr = reference_tables(r, z)
            assert np.array_equal(Dzz, Dzz.T)
            assert np.array_equal(Krr, Krr.T)
            assert np.array_equal(Kzr, Drz.T)
            assert not np.array_equal(Drr, Drr.T)  # the one new component

    def test_mirrored_Drr_against_3d_quadrature(self):
        """``DrrT[i, j]`` is ``U^D_rr`` with x_j as the field point and
        x_i as the source, by quadrature of the 3D tensor."""
        r = np.array([0.3, 1.2, 0.7, 2.1])
        z = np.array([-0.4, 0.5, 1.1, -0.9])
        DrrT = lt.pair_block_tensors(r, z, 0, 2)[5].copy()
        numeric = tensor_tests.TestCylindricalTensors()._numeric
        for i in range(2):
            for j in range(4):
                if i == j:
                    continue
                UD, _ = numeric(r[j], z[j], r[i], z[i])
                assert DrrT[i, j] == pytest.approx(
                    UD[0, 0], abs=1e-7 * max(np.abs(UD).max(), 1.0)
                )


# ----------------------------------------------------------------------
class TestOnTheFlyFields:
    @pytest.fixture(scope="class")
    def cached(self, ed_q2):
        return LandauOperator(*ed_q2)

    @pytest.mark.parametrize("budget", [None, 100_000])
    @pytest.mark.parametrize("B", [1, 16])
    def test_matches_cached_tables(self, ed_q2, cached, B, budget):
        """The on-the-fly launch against the cached response tables, on
        the same FE states, and repeatable launch to launch.  In the
        default row blocks, and in the more, smaller ones a small memory
        budget cuts."""
        kw = {} if budget is None else {"memory_budget": budget}
        op = LandauOperator(
            *ed_q2, options=AssemblyOptions(cache_pair_tables=False, **kw)
        )
        if budget is not None:
            assert len(op._row_blocks(op.N)) > len(cached._row_blocks(op.N)) > 1
        states = _states(*ed_q2, B, seed=B)
        G_D, G_K = op.fields_batch(states)
        ref_D, ref_K = cached.fields_batch(states)
        assert np.abs(G_D - ref_D).max() <= 1e-13 * np.abs(ref_D).max()
        assert np.abs(G_K - ref_K).max() <= 1e-13 * np.abs(ref_K).max()
        assert np.array_equal(G_D[..., 1, 0], G_D[..., 0, 1])
        again_D, again_K = op.fields_batch(states)
        assert np.array_equal(again_D, G_D) and np.array_equal(again_K, G_K)

    def test_scratch_is_shared_within_a_launch_and_released_after(self, ed_q2):
        r, z = np.linspace(0.1, 2.0, 30), np.linspace(-1.0, 1.0, 30)
        with lt.shared_block_scratch():
            first = lt.pair_block_tensors(r, z, 0, 20)[0]
            second = lt.pair_block_tensors(r, z, 20, 30)[0]
            assert first.base is second.base  # one allocation
        alone = lt.pair_block_tensors(r, z, 0, 20)[0]
        assert alone.base is not lt.pair_block_tensors(r, z, 20, 30)[0].base
        op = LandauOperator(*ed_q2, options=AssemblyOptions(cache_pair_tables=False))
        op.fields_batch(_states(*ed_q2, 2))
        assert not hasattr(lt._scratch, "buf")

    def test_step_on_an_on_the_fly_plan_conserves(self, ed_q2):
        """The bounds ``test_factor_once.py`` holds the cached operator
        to, on a served on-the-fly step: density of the update, and the
        weak moments of the operator at the state the step lands on."""
        fs, spc = ed_q2
        states = _states(fs, spc, 2)
        solver = BatchedVertexSolver(
            fs,
            spc,
            rtol=1e-11,
            accel_m=3,
            options=AssemblyOptions(cache_pair_tables=False),
        )
        new = solver.step(states, 0.2)
        assert solver.last_converged.all() and not solver.op.pair_tables_cached
        M = solver.op.mass_matrix
        one = np.ones(fs.ndofs)
        moments = [
            fs.interpolate(lambda r, z: z),
            fs.interpolate(lambda r, z: r * r + z * z),
        ]
        for x in range(len(states)):
            C = solver.op.apply(list(new[x]))
            for a in range(len(spc)):
                update = M @ (new[x, a] - states[x, a])
                assert abs(one @ update) <= 1e-13 * np.abs(update).sum()
                assert abs(one @ C[a]) <= 1e-13 * np.abs(C[a]).sum()
            for psi in moments:
                terms = [s.mass * psi * C[a] for a, s in enumerate(spc)]
                assert abs(sum(t.sum() for t in terms)) <= 1e-13 * sum(
                    np.abs(t).sum() for t in terms
                )
        ref = BatchedVertexSolver(fs, spc, rtol=1e-11, accel_m=3).step(states, 0.2)
        assert np.abs(new - ref).max() <= 1e-11 * np.abs(ref).max()
