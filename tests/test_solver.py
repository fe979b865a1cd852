"""Implicit quasi-Newton integrator: conservation over steps, convergence,
linear-solver equivalence, advection, sources, and the backward-Euler
residual of the returned state."""

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from repro.amr import landau_mesh
from repro.core import ImplicitLandauSolver, LandauOperator, NewtonStats
from repro.core.maxwellian import maxwellian_rz, shifted_maxwellian_rz
from repro.fem import FunctionSpace
from repro.fem.assembly import assemble_z_advection


class TestNewtonStatsMerge:
    def test_merge_sums_counters(self):
        a = NewtonStats(time_steps=1, newton_iterations=5, jacobian_builds=5,
                        factorizations=5, solves=5)
        b = NewtonStats(time_steps=2, newton_iterations=7, jacobian_builds=7,
                        factorizations=6, solves=6)
        a.merge(b)
        assert (a.time_steps, a.newton_iterations, a.jacobian_builds,
                a.factorizations, a.solves) == (3, 12, 12, 11, 11)

    def test_merge_keeps_convergence_flag_and_history(self):
        """Regression: merge used to drop converged_last and
        residual_history entirely — a failed partial solve merged into an
        aggregate looked converged and lost its residual trace."""
        ok = NewtonStats(converged_last=True, residual_history=[1e-3, 1e-6])
        bad = NewtonStats(converged_last=False, residual_history=[1e-2])
        ok.merge(bad)
        assert ok.converged_last is False
        assert ok.residual_history == [1e-3, 1e-6, 1e-2]
        # merging a converged run into a failed one must not clear the flag
        bad2 = NewtonStats(converged_last=False)
        bad2.merge(NewtonStats(converged_last=True))
        assert bad2.converged_last is False

    def test_merge_resilience_counters(self):
        a = NewtonStats(step_rejections=1, dt_backoffs=1)
        b = NewtonStats(step_rejections=2, dt_backoffs=3)
        b.record_event("step_rejected", t=0.5, dt=0.25)
        a.merge(b)
        assert a.step_rejections == 3 and a.dt_backoffs == 4
        assert a.events == [{"kind": "step_rejected", "t": 0.5, "dt": 0.25}]


def _weak_source(fs, density_rate, vth):
    """``(psi, S)`` of a Maxwellian source, reduced to free dofs."""
    vals = maxwellian_rz(fs.qpoints[:, :, 0], fs.qpoints[:, :, 1], density_rate, vth)
    b_full = np.zeros(fs.dofmap.n_full)
    np.add.at(
        b_full,
        fs.dofmap.cell_nodes,
        np.einsum("eq,qb->eb", fs.qweights * vals, fs.B),
    )
    return fs.dofmap.reduce_vector(b_full)


@pytest.fixture()
def aniso_state(fs_q3):
    def aniso(r, z):
        vr, vz = 0.6, 1.2
        return np.exp(-((r / vr) ** 2) - (z / vz) ** 2) / (np.pi**1.5 * vr * vr * vz)

    return fs_q3.interpolate(aniso)


class TestStep:
    def test_conservation_over_step(
        self, electron_operator, electron_moments, aniso_state
    ):
        solver = ImplicitLandauSolver(electron_operator, rtol=1e-10)
        m0 = electron_moments.summary([aniso_state])
        f1 = solver.step([aniso_state], dt=0.5)
        m1 = electron_moments.summary(f1)
        assert m1["n_e"] == pytest.approx(m0["n_e"], rel=1e-12)
        assert m1["p_z"] == pytest.approx(m0["p_z"], abs=1e-8)
        assert m1["energy"] == pytest.approx(m0["energy"], rel=1e-7)

    def test_anisotropy_relaxes(self, electron_operator, fs_q3, aniso_state):
        solver = ImplicitLandauSolver(electron_operator, rtol=1e-8)
        f = [aniso_state]
        r, z = fs_q3.qpoints[:, :, 0], fs_q3.qpoints[:, :, 1]

        def anisotropy(x):
            fq = fs_q3.eval(x)
            Tr = fs_q3.integrate(r**2 * fq) / 2.0
            Tz = fs_q3.integrate(z**2 * fq)
            return abs(Tr - Tz) / (Tr + Tz)

        a0 = anisotropy(f[0])
        f = solver.integrate(f, dt=0.5, nsteps=8)
        a1 = anisotropy(f[0])
        assert a1 < 0.35 * a0

    def test_converges_flag_and_stats(self, electron_operator, aniso_state):
        solver = ImplicitLandauSolver(electron_operator, rtol=1e-8)
        solver.step([aniso_state], dt=0.25)
        st = solver.stats
        assert st.converged_last
        assert st.time_steps == 1
        assert st.newton_iterations >= 2
        assert st.factorizations == st.solves
        assert st.residual_history[-1] < 1e-8

    def test_quasi_newton_linear_convergence(self, electron_operator, aniso_state):
        """Residual history decays geometrically (linear convergence)."""
        solver = ImplicitLandauSolver(electron_operator, rtol=1e-12, max_newton=40)
        solver.step([aniso_state], dt=0.5)
        hist = solver.stats.residual_history
        assert len(hist) >= 4
        ratios = [hist[k + 1] / hist[k] for k in range(1, min(len(hist), 8) - 1)]
        assert all(r < 0.9 for r in ratios)

    def test_band_solver_matches_splu(self, electron_operator, aniso_state):
        s1 = ImplicitLandauSolver(electron_operator, rtol=1e-9)
        s2 = ImplicitLandauSolver(electron_operator, linear_solver="band", rtol=1e-9)
        f1 = s1.step([aniso_state], dt=0.5)
        f2 = s2.step([aniso_state], dt=0.5)
        assert np.allclose(f1[0], f2[0], atol=1e-11)

    def test_callable_plug_matches_splu(self, electron_operator, aniso_state):
        """A ``factory(A) -> solve(b)`` callable is called once per
        factorization and, wrapping the same LU, gives the same state."""
        calls = []

        def factory(A):
            calls.append(A.shape)
            return spla.splu(A.tocsc()).solve

        s1 = ImplicitLandauSolver(electron_operator, rtol=1e-9)
        s2 = ImplicitLandauSolver(electron_operator, linear_solver=factory, rtol=1e-9)
        f1 = s1.step([aniso_state], dt=0.5)
        f2 = s2.step([aniso_state], dt=0.5)
        assert np.array_equal(f1[0], f2[0])
        assert len(calls) == s2.stats.factorizations == s1.stats.factorizations
        n = aniso_state.size
        assert set(calls) == {(n, n)}

    def test_nan_plug_stops_iteration(self, electron_operator, aniso_state):
        """A plug that returns NaN ends the step after one iteration,
        unconverged, instead of burning ``max_newton`` iterations."""

        def nan_factory(A):
            return lambda b: np.full_like(np.asarray(b, float), np.nan)

        solver = ImplicitLandauSolver(
            electron_operator, linear_solver=nan_factory, max_newton=30
        )
        solver.step([aniso_state], dt=0.5)
        assert not solver.stats.converged_last
        assert solver.stats.newton_iterations == 1
        assert np.isnan(solver.stats.residual_history[-1])

    def test_invalid_inputs(self, electron_operator, aniso_state):
        solver = ImplicitLandauSolver(electron_operator)
        with pytest.raises(ValueError):
            solver.step([aniso_state], dt=-0.1)
        with pytest.raises(ValueError):
            solver.step([aniso_state, aniso_state], dt=0.1)
        for plug in ("magic", "fallback"):
            with pytest.raises(ValueError) as exc:
                ImplicitLandauSolver(electron_operator, linear_solver=plug)
            msg = str(exc.value)
            assert "'splu'" in msg and "'band'" in msg and "callable" in msg

    def test_rejects_no_iteration(self, electron_operator):
        """``max_newton=0`` used to return the input state unchanged with
        ``converged_last`` False; ``rtol <= 0`` can never be met."""
        with pytest.raises(ValueError, match="max_newton"):
            ImplicitLandauSolver(electron_operator, max_newton=0)
        for rtol in (0.0, -1e-9):
            with pytest.raises(ValueError, match="rtol"):
                ImplicitLandauSolver(electron_operator, rtol=rtol)


@pytest.fixture(scope="module")
def ed_q2_operator(ed_species):
    mesh = landau_mesh([s.thermal_velocity for s in ed_species])
    return LandauOperator(FunctionSpace(mesh, order=2), ed_species)


class TestBackwardEulerResidual:
    """The returned state solves the backward-Euler equations

        M (f_s - f_s^n) = dt (C_s(f)[f_s] - a_s A f_s + b_s)

    to the stopping tolerance — checked with the nonlinear operator
    (``op.apply``), not the frozen-coefficient matrices the iteration
    factors, so the check is independent of how the iteration got there."""

    @staticmethod
    def residual(solver, fn, f, dt, efield=0.0, sources=None):
        op = solver.op
        M = op.mass_matrix
        A = assemble_z_advection(op.fs)
        Cf = op.apply(f)
        worst = 0.0
        for s_idx, s in enumerate(op.species):
            rhs = Cf[s_idx] - (s.charge * efield / s.mass) * (A @ f[s_idx])
            if sources is not None:
                rhs = rhs + sources[s_idx]
            r = M @ (f[s_idx] - fn[s_idx]) - dt * rhs
            worst = max(worst, np.linalg.norm(r) / np.linalg.norm(M @ fn[s_idx]))
        return worst

    def test_electron_q3(self, electron_operator, aniso_state):
        solver = ImplicitLandauSolver(electron_operator, rtol=1e-11)
        fn = [aniso_state]
        f = solver.step(fn, dt=0.5)
        assert solver.stats.converged_last
        assert self.residual(solver, fn, f, 0.5) <= 1e-10

    @pytest.mark.parametrize("driven", [False, True], ids=["relax", "efield-sources"])
    def test_ed_q2(self, ed_q2_operator, driven):
        fs = ed_q2_operator.fs
        fn = [
            fs.interpolate(
                lambda r, z, s=s, k=k: shifted_maxwellian_rz(
                    r, z, s.density, (0.8 + 0.4 * k) * s.thermal_velocity,
                    0.2 * s.thermal_velocity,
                )
            )
            for k, s in enumerate(ed_q2_operator.species)
        ]
        efield, sources = 0.0, None
        if driven:
            efield = 0.02
            sources = [
                _weak_source(fs, 0.1, s.thermal_velocity)
                for s in ed_q2_operator.species
            ]
        solver = ImplicitLandauSolver(ed_q2_operator, rtol=1e-11)
        f = solver.step(fn, dt=0.5, efield=efield, sources=sources)
        assert solver.stats.converged_last
        assert self.residual(solver, fn, f, 0.5, efield, sources) <= 1e-10


class TestEfieldAndSources:
    def test_efield_drives_current(
        self, electron_operator, electron_moments, electron_maxwellian
    ):
        solver = ImplicitLandauSolver(electron_operator, rtol=1e-8)
        f = solver.integrate([electron_maxwellian], dt=0.5, nsteps=3, efield=0.05)
        J = electron_moments.current_z(f)
        assert J > 1e-4  # electrons accelerate against -z, J_z > 0

    def test_efield_sign(self, electron_operator, electron_moments, electron_maxwellian):
        solver = ImplicitLandauSolver(electron_operator, rtol=1e-8)
        f = solver.integrate([electron_maxwellian], dt=0.5, nsteps=3, efield=-0.05)
        assert electron_moments.current_z(f) < -1e-4

    def test_source_injects_density(
        self, electron_operator, fs_q3, electron_moments, electron_maxwellian
    ):
        solver = ImplicitLandauSolver(electron_operator, rtol=1e-8)
        b = _weak_source(fs_q3, 1.0, 0.8)  # unit density rate
        n0 = electron_moments.summary([electron_maxwellian])["n_e"]
        f1 = solver.step([electron_maxwellian], dt=0.5, sources=[b])
        n1 = electron_moments.summary(f1)["n_e"]
        # dn/dt = source rate = 1 (up to interpolation error of the shape)
        assert n1 - n0 == pytest.approx(0.5, rel=2e-2)
