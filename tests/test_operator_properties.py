"""Structural properties of the Landau tensors and the assembled fields.

These are the invariants the packed-table fast path relies on (shared
``Krz == Drz`` / ``Kzz == Dzz`` components, tensor symmetry), plus the
physical conservation laws of the weak-form operator and the equality of
the cached and chunked-on-the-fly field evaluations.
"""

import numpy as np
import pytest

from repro.core import (
    AssemblyOptions,
    LandauOperator,
    SpeciesSet,
    deuterium,
    electron,
)
from repro.core.landau_tensor import landau_tensors_cyl
from repro.core.maxwellian import maxwellian_rz, species_maxwellian


@pytest.fixture(scope="module")
def point_pairs():
    """A deterministic scatter of distinct (x, y) point pairs."""
    rng = np.random.default_rng(20260806)
    n = 40
    r1 = rng.uniform(0.05, 3.0, n)
    z1 = rng.uniform(-3.0, 3.0, n)
    r2 = rng.uniform(0.05, 3.0, n)
    z2 = rng.uniform(-3.0, 3.0, n)
    # keep the pairs clearly separated so no singular masking kicks in
    keep = (r1 - r2) ** 2 + (z1 - z2) ** 2 > 1e-4
    return r1[keep], z1[keep], r2[keep], z2[keep]


class TestTensorSymmetry:
    def test_ud_is_matrix_symmetric(self, point_pairs):
        r1, z1, r2, z2 = point_pairs
        UD, _ = landau_tensors_cyl(r1, z1, r2, z2)
        assert np.allclose(UD[..., 0, 1], UD[..., 1, 0], atol=1e-14)

    def test_shared_components_krz_drz_kzz_dzz(self, point_pairs):
        """The packed 5-table layout rests on these identities."""
        r1, z1, r2, z2 = point_pairs
        UD, UK = landau_tensors_cyl(r1, z1, r2, z2)
        assert np.allclose(UK[..., 0, 1], UD[..., 0, 1], atol=1e-14)
        assert np.allclose(UK[..., 1, 1], UD[..., 1, 1], atol=1e-14)

    def test_point_swap_transposes_uk(self, point_pairs):
        """U^K(x, y) == U^K(y, x)^T under swapping field/source points."""
        r1, z1, r2, z2 = point_pairs
        _, UK = landau_tensors_cyl(r1, z1, r2, z2)
        _, UK_swap = landau_tensors_cyl(r2, z2, r1, z1)
        assert np.allclose(UK, np.swapaxes(UK_swap, -1, -2), atol=1e-12)

    def test_point_swap_invariant_components(self, point_pairs):
        """``Dzz`` and ``Krr`` are unchanged under a point swap."""
        r1, z1, r2, z2 = point_pairs
        UD, UK = landau_tensors_cyl(r1, z1, r2, z2)
        UD_swap, UK_swap = landau_tensors_cyl(r2, z2, r1, z1)
        assert np.allclose(UD[..., 1, 1], UD_swap[..., 1, 1], atol=1e-12)
        assert np.allclose(UK[..., 0, 0], UK_swap[..., 0, 0], atol=1e-12)


@pytest.fixture(scope="module")
def shifted_state(ed_fs, ed_species):
    """A shifted/heated two-species state with nonzero flows."""
    return [
        ed_fs.interpolate(
            lambda r, z, s=s, a=0.1 * (i + 1): maxwellian_rz(
                r, z - a, s.density, s.thermal_velocity
            )
        )
        for i, s in enumerate(ed_species)
    ]


class TestFieldProperties:
    def test_gd_is_symmetric(self, ed_operator, shifted_state):
        G_D, _ = ed_operator.fields(shifted_state)
        assert np.array_equal(G_D[:, 0, 1], G_D[:, 1, 0])

    @pytest.mark.parametrize("budget", [50_000, 200_000, 1_000_000])
    def test_chunked_fields_match_cached(self, ed_fs, ed_species, ed_operator, shifted_state, budget):
        """On-the-fly evaluation must not depend on the row-chunk size."""
        G_D, G_K = ed_operator.fields(shifted_state)
        opts = AssemblyOptions(memory_budget=budget)
        op = LandauOperator(ed_fs, ed_species, options=opts)
        assert not op.pair_tables_cached  # budgets above force chunking
        G_D2, G_K2 = op.fields(shifted_state)
        assert np.allclose(G_D2, G_D, atol=1e-12 * max(np.abs(G_D).max(), 1))
        assert np.allclose(G_K2, G_K, atol=1e-12 * max(np.abs(G_K).max(), 1))

    def test_chunk_sizes_differ_across_budgets(self, ed_operator):
        N = ed_operator.N
        small = AssemblyOptions(memory_budget=50_000).row_chunk(N)
        large = AssemblyOptions(memory_budget=1_000_000).row_chunk(N)
        assert 1 <= small < large


class TestConservation:
    """Weak moments of ``apply()``: density exactly, momentum/energy to
    discretization accuracy (1, z, r^2+z^2 are in the Q3 space)."""

    def test_density_conserved_per_species(self, ed_fs, ed_operator, shifted_state):
        C = ed_operator.apply(shifted_state)
        ones = np.ones(ed_fs.ndofs)
        for a in range(len(C)):
            scale = max(np.abs(C[a]).sum(), 1e-300)
            assert abs(ones @ C[a]) < 1e-10 * scale

    def test_momentum_conserved_summed(self, ed_fs, ed_species, ed_operator, shifted_state):
        C = ed_operator.apply(shifted_state)
        psi_z = ed_fs.interpolate(lambda r, z: z)
        contributions = [
            s.mass * (psi_z @ C[a]) for a, s in enumerate(ed_species)
        ]
        individual = max(abs(c) for c in contributions)
        assert individual > 0  # momentum IS exchanged
        assert abs(sum(contributions)) < 1e-4 * individual

    def test_energy_conserved_summed(self, ed_fs, ed_species, ed_operator, shifted_state):
        C = ed_operator.apply(shifted_state)
        psi_e = ed_fs.interpolate(lambda r, z: r * r + z * z)
        contributions = [
            0.5 * s.mass * (psi_e @ C[a]) for a, s in enumerate(ed_species)
        ]
        scale = max(np.abs(C[a]).sum() for a in range(len(C)))
        assert abs(sum(contributions)) < 1e-4 * scale

    def test_maxwellian_equilibrium_is_stationary(self, ed_fs, ed_species):
        """Same-temperature Maxwellians are a fixed point of the operator."""
        op = LandauOperator(ed_fs, ed_species)
        # any isotropic Maxwellian is near-stationary, so the comparison
        # state must be anisotropic (T_perp != T_par)
        def aniso(s):
            vr, vz = 0.6 * s.thermal_velocity, 1.2 * s.thermal_velocity

            def f(r, z):
                return (
                    s.density
                    * np.exp(-((r / vr) ** 2) - (z / vz) ** 2)
                    / (np.pi**1.5 * vr * vr * vz)
                )

            return f

        f_eq = [ed_fs.interpolate(species_maxwellian(s)) for s in ed_species]
        f_ne = [ed_fs.interpolate(aniso(s)) for s in ed_species]
        C_eq = op.apply(f_eq)
        C_ne = op.apply(f_ne)
        drift = max(np.linalg.norm(c) for c in C_eq)
        drive = max(np.linalg.norm(c) for c in C_ne)
        assert drift < 0.05 * drive


# ----------------------------------------------------------------------
# Property-based randomized conservation: seeded Maxwellian mixtures, the
# moment residuals and the entropy-production sign, the same from the
# cached and the chunked on-the-fly fields.

SEEDS = [0, 1, 2]


def _random_maxwellian_mix(fs, species, seed):
    """A seeded random multi-Maxwellian state per species: 1-3 shifted,
    heated/cooled components with random weights."""
    rng = np.random.default_rng(20260808 + 1000 * seed)
    fields = []
    for s in species:
        f = np.zeros(fs.ndofs)
        for _ in range(int(rng.integers(1, 4))):
            dens = float(rng.uniform(0.3, 1.2))
            vth = float(s.thermal_velocity * rng.uniform(0.6, 1.3))
            shift = float(rng.uniform(-0.25, 0.25))
            f = f + fs.interpolate(
                lambda r, z, d=dens, v=vth, a=shift: maxwellian_rz(
                    r, z - a, d, v
                )
            )
        fields.append(f)
    return fields


def _apply_on(fs, species, fields, **options):
    return LandauOperator(
        fs, species, options=AssemblyOptions.from_env(**options)
    ).apply(fields)


def _invariants(fs, species, fields, C):
    """(per-species density, summed momentum, summed energy, entropy
    production) weak moments of the collision output ``C``."""
    ones = np.ones(fs.ndofs)
    psi_z = fs.interpolate(lambda r, z: z)
    psi_e = fs.interpolate(lambda r, z: r * r + z * z)
    dens = np.array([ones @ C[a] for a in range(len(C))])
    mom = sum(s.mass * (psi_z @ C[a]) for a, s in enumerate(species))
    eng = sum(0.5 * s.mass * (psi_e @ C[a]) for a, s in enumerate(species))
    # Boltzmann H production: dH/dt = sum_a <log f_a, C_a> (<= 0 up to
    # discretization error); f is clipped away from zero under the log
    ent = sum(
        np.log(np.maximum(fields[a], 1e-300)) @ C[a] for a in range(len(C))
    )
    return dens, mom, eng, ent


class TestRandomizedConservation:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_invariants_hold(self, ed_fs, ed_species, seed):
        fields = _random_maxwellian_mix(ed_fs, ed_species, seed)
        C = _apply_on(ed_fs, ed_species, fields)
        dens, mom, eng, _ = _invariants(ed_fs, ed_species, fields, C)
        scale = max(np.abs(C[a]).sum() for a in range(len(C)))
        assert np.abs(dens).max() < 1e-10 * scale
        assert abs(mom) < 1e-4 * scale
        assert abs(eng) < 1e-4 * scale

    @pytest.mark.parametrize("seed", SEEDS)
    def test_invariants_identical_on_the_fly(self, ed_fs, ed_species, seed):
        """Moment residuals and the entropy-production value (hence its
        sign) of the chunked on-the-fly fields agree with the cached
        response tables' to 1e-12 of the output's scale."""
        fields = _random_maxwellian_mix(ed_fs, ed_species, seed)
        C_ref = _apply_on(ed_fs, ed_species, fields)
        C = _apply_on(
            ed_fs, ed_species, fields, cache_pair_tables=False, memory_budget=200_000
        )
        ref = _invariants(ed_fs, ed_species, fields, C_ref)
        got = _invariants(ed_fs, ed_species, fields, C)
        scale = max(np.abs(C_ref[a]).sum() for a in range(len(C_ref)))
        assert np.abs(got[0] - ref[0]).max() <= 1e-12 * scale
        for g, r in zip(got[1:], ref[1:]):
            assert abs(g - r) <= 1e-12 * max(scale, abs(r))
        assert np.sign(got[3]) == np.sign(ref[3])

    @pytest.mark.parametrize("seed", SEEDS)
    def test_entropy_production_sign(self, ed_fs, ed_species, seed):
        """H-theorem: clearly non-equilibrium mixtures produce entropy
        (negative dH/dt)."""
        fields = _random_maxwellian_mix(ed_fs, ed_species, seed)
        C = _apply_on(ed_fs, ed_species, fields)
        _, _, _, ent = _invariants(ed_fs, ed_species, fields, C)
        scale = max(np.abs(C[a]).sum() for a in range(len(C)))
        assert ent < 1e-8 * scale  # <= 0 up to discretization noise
