"""The factor-once sweep of :class:`BatchedVertexSolver`.

Three things are pinned here, each against something that shares no code
with it: the matrix-free operator action against the assembled matrices,
the lagged-factor (chord) iteration against the sequential Picard solver
— which refactors every iteration and is deliberately left that way as
the oracle — and the divergence guard against a deliberately wrong
resident factor.
"""

import numpy as np
import pytest

from repro.amr import landau_mesh
from repro.core import (
    ImplicitLandauSolver,
    LandauOperator,
    SpeciesSet,
    deuterium,
    electron,
)
from repro.core.batch import BatchedVertexSolver
from repro.core.maxwellian import shifted_maxwellian_rz
from repro.fem import FunctionSpace

RTOL = 1e-11


def _states(fs, species, X, seed=5):
    """``X`` cool/warm, drifting Maxwellian vertices from a seeded Latin
    hypercube over (temperature, drift) — the benchmark's input family."""
    rng = np.random.default_rng(seed)
    u = (rng.permutation(X) + rng.uniform(size=X)) / X
    v = (rng.permutation(X) + rng.uniform(size=X)) / X
    return np.stack(
        [
            np.stack(
                [
                    fs.interpolate(
                        lambda r, z, s=s, i=i: shifted_maxwellian_rz(
                            r,
                            z,
                            1.0,
                            (0.75 + 0.4 * u[i]) * s.thermal_velocity,
                            (-0.15 + 0.3 * v[i]) * s.thermal_velocity,
                        )
                    )
                    for s in species
                ]
            )
            for i in range(X)
        ]
    )


@pytest.fixture(scope="module")
def systems(fs_q3, electron_species):
    """S -> (space, species, vertex states): the paper's Q3 electron mesh
    (8 vertices) and a Q2 electron+deuterium mesh (4 vertices); both have
    2:1 hanging nodes."""
    ed = SpeciesSet([electron(), deuterium()])
    fs_ed = FunctionSpace(landau_mesh([s.thermal_velocity for s in ed]), order=2)
    return {
        1: (fs_q3, electron_species, _states(fs_q3, electron_species, 8)),
        2: (fs_ed, ed, _states(fs_ed, ed, 4)),
    }


# ----------------------------------------------------------------------
class TestMatrixFreeAction:
    @pytest.mark.parametrize("S", [1, 2])
    def test_matches_assembled_matrices(self, systems, S):
        fs, species, states = systems[S]
        assert fs.dofmap.n_full > fs.dofmap.n_free  # hanging nodes present
        op = LandauOperator(fs, species)
        got = op.apply_batch(states)
        for x, state in enumerate(states):
            G_D, G_K = op.fields(list(state))
            for a, L in enumerate(op.species_matrices(G_D, G_K)):
                ref = L @ state[a]
                assert np.abs(got[x, a] - ref).max() <= 1e-12 * np.abs(ref).max()

    @pytest.mark.parametrize("S", [1, 2])
    def test_apply_is_the_single_state_slice(self, systems, S):
        """One state's field GEMM runs as a BLAS matrix-vector product,
        the batch's as a matrix-matrix product, and the two sum in
        different orders.  The action nearly cancels (it conserves
        density), so the bound is scaled by ``|L| |f|``, the rounding
        scale of the product, not by ``|L f|``."""
        fs, species, states = systems[S]
        op = LandauOperator(fs, species)
        state = list(states[1])
        got = op.apply(state)
        ref = op.apply_batch(states)[1]
        for a, L in enumerate(op.jacobian(state)):
            scale = (abs(L) @ np.abs(state[a])).max()
            assert np.abs(got[a] - ref[a]).max() <= 1e-13 * scale

    @pytest.mark.parametrize("S", [1, 2])
    def test_conserves_density_momentum_energy(self, systems, S):
        """1, z and r^2 + z^2 are in the space, so the weak moments of
        ``apply`` vanish (summed over species, mass-weighted) to
        round-off of the terms that cancel."""
        fs, species, states = systems[S]
        C = LandauOperator(fs, species).apply(list(states[0]))
        one = np.ones(fs.ndofs)
        psi_z = fs.interpolate(lambda r, z: z)
        psi_e = fs.interpolate(lambda r, z: r * r + z * z)
        for a in range(S):
            assert abs(one @ C[a]) <= 1e-13 * np.abs(C[a]).sum()
        for psi in (psi_z, psi_e):
            terms = [s.mass * psi * C[a] for a, s in enumerate(species)]
            assert abs(sum(t.sum() for t in terms)) <= 1e-13 * sum(
                np.abs(t).sum() for t in terms
            )


# ----------------------------------------------------------------------
#: total sweeps of the per-sweep-refactoring Picard iteration this solver
#: replaced, recorded at its last commit on exactly these inputs:
#: (S, dt, accel_m) -> BatchStats.newton_sweeps at rtol = 1e-11
PICARD_SWEEPS = {
    (1, 0.2, 0): 26, (1, 0.2, 2): 12,
    (1, 0.5, 0): 48, (1, 0.5, 2): 18,
    (1, 2.0, 0): 50, (1, 2.0, 2): 22,
    (2, 0.2, 0): 20, (2, 0.2, 2): 11,
    (2, 0.5, 0): 33, (2, 0.5, 2): 13,
    (2, 2.0, 0): 50, (2, 2.0, 2): 17,
}  # fmt: skip

#: vertices Picard left unconverged at its 50-sweep limit (plain
#: iteration, dt = 2.0): everything else converged
PICARD_UNCONVERGED = {(1, 2.0, 0): set(range(8)), (2, 2.0, 0): {1, 2, 3}}

#: served-vs-oracle agreement.  Both iterations stop on an update norm
#: below rtol, which leaves each within rtol * rho / (1 - rho) of the
#: fixed point; the contraction rate rho approaches 1 with dt (the oracle
#: needs 126 iterations at dt = 2), so the bound is looser there.
AGREEMENT = {0.2: 1e-10, 0.5: 1e-10, 2.0: 3e-10}


class TestChordIterationAgainstPicard:
    @pytest.fixture(scope="class")
    def oracle(self, systems):
        """The sequential solver's states, per (S, dt), computed once."""
        cache = {}

        def get(S, dt):
            if (S, dt) not in cache:
                fs, species, states = systems[S]
                solver = ImplicitLandauSolver(
                    LandauOperator(fs, species), rtol=RTOL, max_newton=400
                )
                out = []
                for state in states:
                    out.append(np.stack(solver.step([r.copy() for r in state], dt)))
                    assert solver.stats.converged_last
                cache[S, dt] = np.stack(out)
            return cache[S, dt]

        return get

    @pytest.mark.parametrize("accel_m", [0, 2])
    @pytest.mark.parametrize("dt", [0.2, 0.5, 2.0])
    @pytest.mark.parametrize("S", [1, 2])
    def test_same_fixed_point_same_sweeps_one_factorization(
        self, systems, oracle, S, dt, accel_m
    ):
        fs, species, states = systems[S]
        X = len(states)
        bs = BatchedVertexSolver(
            fs, species, rtol=RTOL, max_newton=50, accel_m=accel_m
        )
        out = bs.step(states, dt)
        st = bs.stats
        key = (S, dt, accel_m)

        assert st.newton_sweeps <= PICARD_SWEEPS[key] + 1
        unconverged = set(np.nonzero(~bs.last_converged)[0])
        assert unconverged == PICARD_UNCONVERGED.get(key, set())
        if not unconverged:
            # one LU per (vertex, species) for the whole step
            assert st.factorizations == S * X
            assert st.refactorizations == 0
        ref = oracle(S, dt)
        for x in np.nonzero(bs.last_converged)[0]:
            err = np.abs(out[x] - ref[x]).max() / np.abs(ref[x]).max()
            assert err <= AGREEMENT[dt], (x, err)


# ----------------------------------------------------------------------
class TestDivergenceGuard:
    def test_wrong_factor_is_refreshed(self, systems):
        """One vertex's resident factors are built with dt/10: they
        understate the stiff modes tenfold, so its chord update
        overshoots them by ~9x per sweep and its update norm grows past
        its first one.  The guard rebuilds that vertex's factors — and
        only that vertex's — at its current iterate, and the step
        converges to the same state.  (The opposite error, 10 dt,
        over-damps: the norm still contracts, slowly, and a *divergence*
        guard rightly stays silent.)"""
        fs, species, states = systems[1]
        states = states[:3]
        kw = dict(rtol=1e-10, max_newton=50, accel_m=0)
        good = BatchedVertexSolver(fs, species, **kw)
        ref = good.step(states, 0.5)
        assert good.stats.refactorizations == 0

        bs = BatchedVertexSolver(fs, species, **kw)
        real_factor = bs._factor
        refreshed = []

        def factor(resident, rows, G_D, G_K, dt):
            if resident is not None:
                refreshed.append(list(rows))
                return real_factor(resident, rows, G_D, G_K, dt)
            resident = real_factor(None, rows, G_D, G_K, dt)
            real_factor(resident, rows[1:2], G_D[1:2], G_K[1:2], dt / 10.0)
            bs.stats.factorizations -= 1  # the sabotage is not a factorization
            return resident

        bs._factor = factor
        out = bs.step(states, 0.5)
        assert np.all(bs.last_converged)
        assert refreshed == [[1]]
        assert bs.stats.refactorizations == 1
        assert bs.stats.factorizations == len(states) + 1
        assert np.abs(out - ref).max() <= 100 * kw["rtol"] * np.abs(ref).max()
        # the healthy vertices never noticed (round-off: the active set
        # shrinks at a different sweep, which reshapes the batch GEMMs)
        healthy = [0, 2]
        assert np.abs(out[healthy] - ref[healthy]).max() <= 1e-13 * np.abs(ref).max()

    def test_guard_is_silent_on_mixed_iterates(self, systems):
        """Anderson-mixed iterates bump the update norm for a sweep or
        two (S = 2, dt = 2 does, twice); that is not divergence."""
        fs, species, states = systems[2]
        bs = BatchedVertexSolver(fs, species, rtol=RTOL, accel_m=2)
        bs.step(states, 2.0)
        assert np.all(bs.last_converged)
        assert bs.stats.refactorizations == 0
