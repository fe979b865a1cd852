"""Shared fixtures: small meshes/spaces/operators reused across the suite.

Session-scoped where construction is expensive (pair tables are O(N^2));
tests must not mutate fixture state.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

from repro.amr import landau_mesh
from repro.core import (
    ImplicitLandauSolver,
    LandauOperator,
    Moments,
    SpeciesSet,
    deuterium,
    electron,
)
from repro.core.maxwellian import species_maxwellian
from repro.fem import FunctionSpace, Mesh

# Tier-1 is a gate, so its property tests draw the same examples on every
# run and keep no example database (a failing case found once must not
# make a later run of an unchanged tree red, or hide on a fresh clone).
settings.register_profile("tier1", derandomize=True, database=None)
settings.load_profile("tier1")


@pytest.fixture(scope="session")
def electron_species() -> SpeciesSet:
    return SpeciesSet([electron()])


@pytest.fixture(scope="session")
def ed_species() -> SpeciesSet:
    return SpeciesSet([electron(), deuterium()])


@pytest.fixture(scope="session")
def small_mesh() -> Mesh:
    """The paper's 20-cell single-species AMR mesh."""
    return landau_mesh([electron().thermal_velocity])


@pytest.fixture(scope="session")
def fs_q3(small_mesh) -> FunctionSpace:
    return FunctionSpace(small_mesh, order=3)


@pytest.fixture(scope="session")
def fs_q2(small_mesh) -> FunctionSpace:
    return FunctionSpace(small_mesh, order=2)


@pytest.fixture(scope="session")
def structured_fs() -> FunctionSpace:
    """Conforming structured mesh (no hanging nodes)."""
    return FunctionSpace(Mesh.structured(3, 4, 2.0, -2.0, 2.0), order=3)


@pytest.fixture(scope="session")
def electron_operator(fs_q3, electron_species) -> LandauOperator:
    return LandauOperator(fs_q3, electron_species)


@pytest.fixture(scope="session")
def ed_fs() -> FunctionSpace:
    spc = SpeciesSet([electron(), deuterium()])
    mesh = landau_mesh([s.thermal_velocity for s in spc])
    return FunctionSpace(mesh, order=3)


@pytest.fixture(scope="session")
def ed_operator(ed_fs, ed_species) -> LandauOperator:
    return LandauOperator(ed_fs, ed_species)


@pytest.fixture(scope="session")
def ed_maxwellians(ed_fs, ed_species) -> list[np.ndarray]:
    return [ed_fs.interpolate(species_maxwellian(s)) for s in ed_species]


@pytest.fixture()
def electron_maxwellian(fs_q3, electron_species) -> np.ndarray:
    return fs_q3.interpolate(species_maxwellian(electron_species[0]))


@pytest.fixture(scope="session")
def electron_moments(fs_q3, electron_species) -> Moments:
    return Moments(fs_q3, electron_species)
