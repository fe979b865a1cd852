"""The Landau operator: conservation laws, equilibrium, H-theorem behaviour.

These are the discretization's headline properties (Hirvijoki & Adams):
density conserved to round-off by construction; momentum and energy to
quadrature/projection accuracy for Q2+; Maxwellians are (approximate) fixed
points; anisotropic distributions relax.
"""

import numpy as np
import pytest

from repro.core import AssemblyOptions, LandauOperator, Moments, SpeciesSet, electron
from repro.core.maxwellian import maxwellian_rz, species_maxwellian


class TestStructure:
    def test_pair_table_caching_flag(self, electron_operator):
        assert electron_operator.pair_tables_cached

    def test_uncached_path_matches(self, fs_q3, electron_species, electron_maxwellian):
        cached = AssemblyOptions(cache_pair_tables=True)
        op1 = LandauOperator(fs_q3, electron_species, options=cached)
        uncached = AssemblyOptions(cache_pair_tables=False)
        op2 = LandauOperator(fs_q3, electron_species, options=uncached)
        G1 = op1.fields([electron_maxwellian])
        G2 = op2.fields([electron_maxwellian])
        assert np.allclose(G1[0], G2[0], atol=1e-12)
        assert np.allclose(G1[1], G2[1], atol=1e-12)

    def test_species_count_checked(self, electron_operator):
        with pytest.raises(ValueError):
            electron_operator.fields([])

    def test_jacobian_block_diagonal_structure(self, ed_operator, ed_maxwellians):
        """S species -> S independent blocks with a common pattern
        (the I_S (x) A_1 nonzero structure)."""
        blocks = ed_operator.jacobian(ed_maxwellians)
        assert len(blocks) == 2
        p0 = set(zip(*blocks[0].nonzero()))
        p1 = set(zip(*blocks[1].nonzero()))
        # patterns agree up to entries that cancel numerically
        assert len(p0 ^ p1) <= 0.05 * len(p0)

    def test_apply_matches_matrix(self, electron_operator, electron_maxwellian):
        op = electron_operator
        L = op.jacobian([electron_maxwellian])[0]
        C = op.apply([electron_maxwellian])[0]
        assert np.allclose(C, L @ electron_maxwellian)


class TestConservation:
    def _weak_moment(self, fs, weight, vec):
        """psi-weighted weak moment: int r * weight(r,z) * (C f) via duality."""
        return weight @ vec

    def test_density_conserved_to_roundoff(self, electron_operator, fs_q3, electron_maxwellian):
        """Test function 1: grad(1)=0 kills both terms exactly."""
        op = electron_operator
        C = op.apply([electron_maxwellian])[0]
        ones = np.ones(fs_q3.ndofs)
        scale = np.abs(op.mass_matrix @ electron_maxwellian).max()
        assert abs(ones @ C) < 1e-12 * max(scale, 1.0) * fs_q3.ndofs

    def test_density_conserved_anisotropic(self, electron_operator, fs_q3):
        def aniso(r, z):
            return np.exp(-(r / 0.7) ** 2 - (z / 1.2) ** 2)

        f = fs_q3.interpolate(aniso)
        C = electron_operator.apply([f])[0]
        ones = np.ones(fs_q3.ndofs)
        assert abs(ones @ C) < 1e-10

    def test_momentum_energy_conserved_single_species(
        self, electron_operator, fs_q3
    ):
        """z-momentum and energy weak moments of C(f) vanish to
        discretization accuracy for a shifted/heated state."""

        def state(r, z):
            return maxwellian_rz(r, z, 1.0, 0.9) + 0.3 * maxwellian_rz(
                r, z - 0.4, 0.5, 0.6
            )

        f = fs_q3.interpolate(state)
        C = electron_operator.apply([f])[0]
        psi_z = fs_q3.interpolate(lambda r, z: z)
        psi_e = fs_q3.interpolate(lambda r, z: r * r + z * z)
        # normalize by the operator magnitude
        scale = np.abs(C).sum()
        assert abs(psi_z @ C) < 1e-6 * scale
        assert abs(psi_e @ C) < 1e-5 * scale

    def test_cross_species_momentum_exchange_cancels(
        self, ed_operator, ed_fs, ed_species
    ):
        """Sum over species of the momentum moment (with mass weights)
        vanishes: what electrons lose, deuterium gains."""
        f_e = ed_fs.interpolate(
            lambda r, z: maxwellian_rz(r, z - 0.05, 1.0, ed_species[0].thermal_velocity)
        )
        f_d = ed_fs.interpolate(species_maxwellian(ed_species[1]))
        C = ed_operator.apply([f_e, f_d])
        psi_z = ed_fs.interpolate(lambda r, z: z)
        p_dot = sum(
            s.mass * (psi_z @ C[a]) for a, s in enumerate(ed_species)
        )
        individual = max(abs(s.mass * (psi_z @ C[a])) for a, s in enumerate(ed_species))
        assert individual > 0  # there IS momentum exchange
        assert abs(p_dot) < 1e-4 * individual


class TestEquilibrium:
    def test_maxwellian_near_fixed_point(self, electron_operator, electron_maxwellian):
        """C(f_M) ~ 0 relative to a genuinely non-equilibrium (anisotropic)
        state; any isotropic Maxwellian is itself near-stationary, so the
        comparison state must be anisotropic."""
        op = electron_operator

        def aniso(r, z):
            vr, vz = 0.6, 1.2
            return np.exp(-((r / vr) ** 2) - (z / vz) ** 2) / (
                np.pi**1.5 * vr * vr * vz
            )

        C_eq = op.apply([electron_maxwellian])[0]
        C_ne = op.apply([op.fs.interpolate(aniso)])[0]
        assert np.linalg.norm(C_eq) < 0.05 * np.linalg.norm(C_ne)

    def test_G_fields_isotropic_at_origin(self, electron_operator, electron_maxwellian):
        """For an isotropic f, G_K at the origin-adjacent IPs points along
        -v (friction toward the origin): z-component changes sign with z."""
        G_D, G_K = electron_operator.fields([electron_maxwellian])
        z = electron_operator.z
        corr = np.sum(G_K[:, 1] * z)
        assert corr < 0.0  # friction opposes velocity

    def test_D_positive_semidefinite_on_maxwellian(
        self, electron_operator, electron_maxwellian
    ):
        G_D, _ = electron_operator.fields([electron_maxwellian])
        tr = G_D[:, 0, 0] + G_D[:, 1, 1]
        det = G_D[:, 0, 0] * G_D[:, 1, 1] - G_D[:, 0, 1] ** 2
        assert np.all(tr > -1e-12)
        assert np.all(det > -1e-10 * np.maximum(tr, 1.0) ** 2)


class TestMultiSpecies:
    def test_charge_scaling_of_nu(self, fs_q2):
        """Doubling a species' charge quadruples its self-collision matrix."""
        s1 = SpeciesSet([electron()])
        from repro.core.species import Species

        s2 = SpeciesSet([Species("e2", charge=-2.0, mass=1.0)])
        op1 = LandauOperator(fs_q2, s1)
        op2 = LandauOperator(fs_q2, s2)
        f = fs_q2.interpolate(lambda r, z: np.exp(-(r**2) - z**2))
        L1 = op1.jacobian([f])[0]
        L2 = op2.jacobian([f])[0]
        # nu ~ z_a^2 z_b^2 -> factor 16
        assert abs(L2 - 16.0 * L1).max() < 1e-8 * abs(L1).max() * 16
