"""Resilience integration: fault-injected Spitzer ramps, checkpoint ->
restart bitwise reproducibility, and driver input validation.

The quench configurations here use a coarse mesh (``h_factor=1.6``) — the
physics is not under test, the recovery machinery is."""

import numpy as np
import pytest

from repro.quench import ThermalQuenchModel, measure_resistivity
from repro.report import resilience_summary
from repro.resilience import (
    CheckpointError,
    FaultInjector,
    FaultPlan,
    TimeStepController,
)
from repro.sparse.band import CachedBandSolverFactory

QUICK = dict(dt=0.5, rtol=1e-6, mesh_kwargs={"h_factor": 1.6})


class TestFaultedSpitzerRamp:
    """Acceptance scenario: under injected faults the ramp completes,
    conserves density, and the recovery is visible in the stats."""

    def test_retry_under_faults(self):
        inj = FaultInjector(
            FaultPlan(
                fail_first_solves=2,       # transient: first two solves die
                factorization_failures=(5,),
                nan_solve_indices=(8,),    # NaN residual mid-run
            )
        )
        res = measure_resistivity(
            Z=1.0,
            dt=0.5,
            max_steps=8,
            settle_tol=0.005,
            mesh_kwargs={"h_factor": 1.6},
            linear_solver=inj.wrap_factory(CachedBandSolverFactory(), name="band"),
        )
        stats = res["stats"]
        assert res["converged_last"]
        assert inj.n_injected >= 3
        # every fault cost one rejected substep and one dt backoff
        assert stats.step_rejections >= 2
        assert stats.step_rejections == inj.n_injected
        assert stats.dt_backoffs == stats.step_rejections
        kinds = [e["kind"] for e in stats.events]
        assert "step_rejected" in kinds
        # the run still produced a physical resistivity
        assert np.isfinite(res["eta"]) and res["J"] > 0
        assert "step_rejected" in resilience_summary(stats)

    def test_ramp_density_conserved_under_nan_retry(self):
        """A NaN corruption on the raw splu plug (no chain) must be caught
        by the guard and recovered by dt backoff; density — the only
        invariant under E-field drive — survives to guard tolerance."""
        from repro.core.solver import _splu_factory

        inj = FaultInjector(FaultPlan(nan_solve_indices=(3,)))
        res = measure_resistivity(
            Z=1.0,
            dt=0.5,
            max_steps=6,
            settle_tol=0.005,
            mesh_kwargs={"h_factor": 1.6},
            linear_solver=inj.wrap_factory(_splu_factory),
        )
        assert inj.n_injected == 1
        assert res["step_rejections"] >= 1
        assert res["converged_last"]
        assert np.isfinite(res["eta"])


class TestCheckpointRestart:
    def test_restart_bitwise_matches_uninterrupted(self, tmp_path):
        """Kill a quench run mid-flight (stop_after), resume from the
        checkpoint, and require the full QuenchHistory to bitwise-match an
        uninterrupted run — clock, moments, field, phases, everything."""
        loop = dict(ramp_steps=3, quench_steps=3, post_steps=2)
        full = ThermalQuenchModel(**QUICK).run(**loop)

        path = str(tmp_path / "quench.ckpt.npz")
        partial = ThermalQuenchModel(**QUICK).run(
            **loop, checkpoint_path=path, stop_after=4
        )
        assert len(partial.t) < len(full.t)

        resumed_model = ThermalQuenchModel(**QUICK)
        resumed = resumed_model.resume(path)
        a, b = full.as_arrays(), resumed.as_arrays()
        for col in a:
            assert np.array_equal(a[col], b[col]), f"column {col} diverged"
        assert full.phase == resumed.phase

    def test_periodic_checkpoints_resume_from_quench_phase(self, tmp_path):
        """checkpoint_every overwrites as the run progresses; the last one
        (written inside the quench phase) must resume cleanly, including
        the source turn-on time."""
        path = str(tmp_path / "periodic.ckpt.npz")
        loop = dict(ramp_steps=2, quench_steps=3, post_steps=1)
        m = ThermalQuenchModel(**QUICK)
        full = m.run(**loop, checkpoint_path=path, checkpoint_every=2, stop_after=5)
        resumed = ThermalQuenchModel(**QUICK).resume(path)
        assert resumed.t[: len(full.t)] == full.t
        assert len(resumed.t) == 1 + 2 + 3 + 1  # initial + all macro steps
        assert resumed.phase[0] == "ramp" and resumed.phase[-1] in ("quench", "post")

    def test_fingerprint_mismatch_refused(self, tmp_path):
        path = str(tmp_path / "mismatch.ckpt.npz")
        ThermalQuenchModel(**QUICK).run(
            ramp_steps=1, quench_steps=1, post_steps=0,
            checkpoint_path=path, stop_after=1,
        )
        other = ThermalQuenchModel(dt=0.25, rtol=1e-6, mesh_kwargs={"h_factor": 1.6})
        with pytest.raises(CheckpointError) as exc:
            other.resume(path)
        assert "saved" in exc.value.diagnostics


class TestValidation:
    def test_measure_resistivity_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            measure_resistivity(dt=-0.5)
        with pytest.raises(ValueError):
            measure_resistivity(dt=float("nan"))
        with pytest.raises(ValueError):
            measure_resistivity(max_steps=0)
        with pytest.raises(ValueError):
            measure_resistivity(efield=float("inf"))
        with pytest.raises(ValueError):
            measure_resistivity(settle_tol=0.0)

    def test_quench_model_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            ThermalQuenchModel(dt=0.0)
        with pytest.raises(ValueError):
            ThermalQuenchModel(dt=float("inf"))
        with pytest.raises(ValueError):
            ThermalQuenchModel(Z=0.5)
        with pytest.raises(ValueError):
            ThermalQuenchModel(E0_over_Ec=-1.0)
        with pytest.raises(ValueError):
            ThermalQuenchModel(settle_tol=-1e-3)
        with pytest.raises(ValueError):
            ThermalQuenchModel(order=0)

    def test_run_rejects_bad_loop_params(self):
        m = ThermalQuenchModel(**QUICK)
        with pytest.raises(ValueError):
            m.run(ramp_steps=0)
        with pytest.raises(ValueError):
            m.run(quench_steps=0)
        with pytest.raises(ValueError):
            m.run(post_steps=-1)

    def test_controller_dt_matches_model_dt(self):
        m = ThermalQuenchModel(**QUICK)
        assert m.controller.dt == m.dt
        custom = TimeStepController(dt_init=0.5, dt_min=0.01)
        m2 = ThermalQuenchModel(**QUICK, controller=custom)
        assert m2.controller is custom
