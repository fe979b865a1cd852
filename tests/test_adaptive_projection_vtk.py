"""Conservative projection and VTK output."""

import numpy as np
import pytest

from repro.core.maxwellian import maxwellian_rz
from repro.core.projection import conservative_projection, moment_functionals
from repro.fem.vtk import field_to_vtk, mesh_to_vtk


@pytest.fixture()
def aniso(fs_q3):
    def f(r, z):
        vr, vz = 0.6, 1.2
        return np.exp(-((r / vr) ** 2) - (z / vz) ** 2) / (np.pi**1.5 * vr * vr * vz)

    return fs_q3.interpolate(f)


class TestConservativeProjection:
    def test_identity_when_moments_match(self, fs_q3, aniso):
        f = conservative_projection(fs_q3, aniso)
        assert np.allclose(f, aniso, atol=1e-12)

    def test_enforces_target_moments(self, fs_q3, aniso):
        C = moment_functionals(fs_q3)
        target = C @ aniso * np.array([1.01, 1.0, 0.98])
        f = conservative_projection(fs_q3, aniso, target_moments=target)
        assert np.allclose(C @ f, target, rtol=1e-10)

    def test_minimal_perturbation(self, fs_q3, aniso):
        """The correction is small when the moment error is small."""
        C = moment_functionals(fs_q3)
        m = C @ aniso
        f = conservative_projection(fs_q3, aniso, target_moments=m * 1.001)
        rel = np.linalg.norm(f - aniso) / np.linalg.norm(aniso)
        assert rel < 0.05

    def test_repairs_interpolation_density_error(self, fs_q3, electron_moments):
        """Nodal interpolation of a Maxwellian misses density by ~1e-3;
        the conservative projection restores it exactly."""
        g = fs_q3.interpolate(lambda r, z: maxwellian_rz(r, z, 1.0, 0.886))
        n_raw = electron_moments.species_moments(0, g).density
        assert abs(n_raw - 1.0) > 1e-7  # there is an error to repair
        C = moment_functionals(fs_q3)
        m = C @ g
        m[0] = 1.0 / (2 * np.pi)  # exact density (C omits the 2 pi)
        f = conservative_projection(fs_q3, g, target_moments=m)
        n_fixed = electron_moments.species_moments(0, f).density
        assert n_fixed == pytest.approx(1.0, abs=1e-12)

    def test_validation(self, fs_q3, aniso):
        with pytest.raises(ValueError):
            conservative_projection(fs_q3, aniso[:-1])
        with pytest.raises(ValueError):
            conservative_projection(fs_q3, aniso, target_moments=np.ones(4))


class TestVtk:
    def test_mesh_roundtrip_header(self, small_mesh):
        txt = mesh_to_vtk(small_mesh)
        assert txt.startswith("# vtk DataFile")
        assert f"CELLS {small_mesh.nelem}" in txt
        assert txt.count("\n9") >= small_mesh.nelem - 1  # VTK_QUAD tags

    def test_mesh_cell_data(self, small_mesh):
        level = np.log2(small_mesh.size[:, 0].max() / small_mesh.size[:, 0])
        txt = mesh_to_vtk(small_mesh, {"level": level})
        assert "SCALARS level double 1" in txt
        with pytest.raises(ValueError):
            mesh_to_vtk(small_mesh, {"bad": np.ones(3)})

    def test_field_output_values(self, fs_q3, aniso):
        txt = field_to_vtk(fs_q3, {"f_e": aniso})
        assert "SCALARS f_e double 1" in txt
        # number of points: ne * (k+1)^2 with k = order
        npts = fs_q3.nelem * (fs_q3.element.order + 1) ** 2
        assert f"POINTS {npts} double" in txt

    def test_field_refine_validation(self, fs_q3, aniso):
        with pytest.raises(ValueError):
            field_to_vtk(fs_q3, {"f": aniso}, refine=0)
        with pytest.raises(ValueError):
            field_to_vtk(fs_q3, {"f": aniso[:-2]})
