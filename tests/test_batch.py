"""Batched vertex solves (section VI future work): correctness vs the
per-vertex solver, early-exit masking, launch-reduction accounting."""

import numpy as np
import pytest

from repro.core import ImplicitLandauSolver, LandauOperator
from repro.core.batch import BatchedVertexSolver
from repro.core.maxwellian import maxwellian_rz


@pytest.fixture()
def batch_states(fs_q3):
    """Three vertex states: cool, reference, drifting."""
    def make(vth, drift):
        return fs_q3.interpolate(
            lambda r, z: maxwellian_rz(r, z - drift, 1.0, vth)
        )

    return np.stack(
        [
            make(0.7, 0.0)[None, :],
            make(0.886, 0.0)[None, :],
            make(0.886, 0.15)[None, :],
        ]
    )


class TestBatchedSolve:
    def test_matches_unbatched(self, fs_q3, electron_species, batch_states):
        bs = BatchedVertexSolver(fs_q3, electron_species, rtol=1e-9)
        out = bs.step(batch_states, dt=0.4)
        op = LandauOperator(fs_q3, electron_species)
        ref_solver = ImplicitLandauSolver(op, rtol=1e-9)
        for b in range(batch_states.shape[0]):
            ref = ref_solver.step([batch_states[b, 0]], 0.4)[0]
            assert np.allclose(out[b, 0], ref, atol=1e-7 * np.abs(ref).max())

    def test_launch_reduction(self, fs_q3, electron_species, batch_states):
        """B vertices share each G-field 'launch': the counter shows the
        B-fold reduction the paper's batching proposal targets."""
        bs = BatchedVertexSolver(fs_q3, electron_species, rtol=1e-7)
        bs.step(batch_states, dt=0.4)
        assert bs.stats.field_launches < bs.stats.equivalent_unbatched_launches
        assert bs.stats.launch_reduction > 1.5

    def test_early_exit(self, fs_q3, electron_species):
        """A vertex already at equilibrium converges in ~1 sweep and is
        masked out while others keep iterating."""
        eq = fs_q3.interpolate(lambda r, z: maxwellian_rz(r, z, 1.0, 0.886))
        far = fs_q3.interpolate(
            lambda r, z: maxwellian_rz(r, z - 0.4, 1.0, 0.6)
        )
        states = np.stack([eq[None, :], far[None, :]])
        bs = BatchedVertexSolver(fs_q3, electron_species, rtol=1e-8)
        bs.step(states, dt=0.5)
        assert bs.last_sweeps[0] < bs.last_sweeps[1]
        # the converged vertex dropped out of the later sweeps' launches
        assert (
            bs.stats.equivalent_unbatched_launches < 2 * bs.stats.newton_sweeps
        )

    def test_validation(self, fs_q3, electron_species, batch_states):
        bs = BatchedVertexSolver(fs_q3, electron_species)
        with pytest.raises(ValueError):
            bs.step(batch_states[:, 0], dt=0.1)  # missing species axis
        with pytest.raises(ValueError):
            bs.step(batch_states, dt=0.0)

    def test_rejects_no_iteration(self, fs_q3, electron_species):
        """``max_newton=0`` used to return the input batch unchanged with
        every vertex unconverged; ``rtol <= 0`` can never be met."""
        with pytest.raises(ValueError, match="max_newton"):
            BatchedVertexSolver(fs_q3, electron_species, max_newton=0)
        for rtol in (0.0, -1e-8):
            with pytest.raises(ValueError, match="rtol"):
                BatchedVertexSolver(fs_q3, electron_species, rtol=rtol)

    def test_batched_fields_match_single(self, fs_q3, electron_species, batch_states):
        bs = BatchedVertexSolver(fs_q3, electron_species)
        op = bs.op
        G_D, G_K = op.fields_batch(batch_states)
        for b in range(batch_states.shape[0]):
            gd, gk = op.fields([batch_states[b, 0]])
            assert np.allclose(G_D[b], gd, atol=1e-12)
            assert np.allclose(G_K[b], gk, atol=1e-12)


class TestBatchStatsAccounting:
    """The work counters under partial convergence: launch-equivalents
    count only active vertices, and every factorization of a step rides
    one shared band symbolic setup."""

    def test_equivalent_launches_exclude_frozen_vertices(
        self, fs_q3, electron_species
    ):
        eq = fs_q3.interpolate(lambda r, z: maxwellian_rz(r, z, 1.0, 0.886))
        far = fs_q3.interpolate(
            lambda r, z: maxwellian_rz(r, z - 0.4, 1.0, 0.65)
        )
        states = np.stack([eq[None, :], eq[None, :], far[None, :]])
        bs = BatchedVertexSolver(fs_q3, electron_species, rtol=1e-9)
        bs.step(states, dt=0.5)
        st = bs.stats
        assert st.vertices == 3
        # one batched launch per sweep
        assert st.field_launches == st.newton_sweeps
        # partial convergence: equivalents are bounded by B * sweeps and,
        # since the two equilibrium vertices froze early, strictly below
        assert st.newton_sweeps < st.equivalent_unbatched_launches
        assert st.equivalent_unbatched_launches < 3 * st.newton_sweeps
        # sum over sweeps of the active count == sum of per-vertex sweeps
        assert st.equivalent_unbatched_launches == int(bs.last_sweeps.sum())
        assert 1.0 < st.launch_reduction <= 3.0

    def test_symbolic_setup_shared_across_batch(
        self, fs_q3, electron_species, batch_states
    ):
        bs = BatchedVertexSolver(fs_q3, electron_species, rtol=1e-8)
        bs.step(batch_states, dt=0.4)
        st = bs.stats
        assert st.symbolic_setups == 1
        # every factorization after the first reused the RCM/scatter setup
        assert st.symbolic_reuses == st.factorizations - 1
        # factor once per step: one LU per (vertex, species), none rebuilt
        assert st.newton_sweeps > 1
        assert st.factorizations == batch_states.shape[0]
        assert st.refactorizations == 0

    def test_counters_accumulate_across_steps(
        self, fs_q3, electron_species, batch_states
    ):
        bs = BatchedVertexSolver(fs_q3, electron_species, rtol=1e-7)
        bs.step(batch_states, dt=0.4)
        first = (bs.stats.newton_sweeps, bs.stats.factorizations)
        bs.step(batch_states, dt=0.4)
        assert bs.stats.newton_sweeps == 2 * first[0]
        assert bs.stats.factorizations == 2 * first[1]
        assert bs.stats.symbolic_setups == 1  # pattern unchanged
