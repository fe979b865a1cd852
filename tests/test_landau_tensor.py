"""Landau tensors: 3D definition, elliptic-integral axisymmetric reduction.

The key property test checks the closed-form U^D/U^K against direct
numerical quadrature of the 3D tensor over the source azimuth.
"""

import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import IntegrationWarning, quad

from repro.core.landau_tensor import (
    azimuthal_integrals,
    landau_tensor_3d,
    landau_tensors_cyl,
)

coords = st.floats(min_value=0.05, max_value=3.0)
zcoords = st.floats(min_value=-3.0, max_value=3.0)


class TestTensor3D:
    def test_projects_out_u(self):
        """U . u = 0: the tensor projects onto the plane normal to u."""
        rng = np.random.default_rng(0)
        v = rng.normal(size=3)
        vp = rng.normal(size=3)
        U = landau_tensor_3d(v, vp)
        assert np.allclose(U @ (v - vp), 0.0, atol=1e-12)

    def test_symmetric_and_psd(self):
        rng = np.random.default_rng(1)
        for _ in range(5):
            v, vp = rng.normal(size=3), rng.normal(size=3)
            U = landau_tensor_3d(v, vp)
            assert np.allclose(U, U.T)
            assert np.linalg.eigvalsh(U).min() >= -1e-14

    def test_trace(self):
        """tr U = 2/|u|."""
        v = np.array([1.0, 0.0, 0.5])
        vp = np.array([0.0, 1.0, -0.5])
        U = landau_tensor_3d(v, vp)
        assert np.trace(U) == pytest.approx(2.0 / np.linalg.norm(v - vp))

    def test_exchange_symmetry(self):
        rng = np.random.default_rng(2)
        v, vp = rng.normal(size=3), rng.normal(size=3)
        assert np.allclose(landau_tensor_3d(v, vp), landau_tensor_3d(vp, v))

    def test_singular_raises(self):
        v = np.array([1.0, 2.0, 3.0])
        with pytest.raises(ZeroDivisionError):
            landau_tensor_3d(v, v)


class TestAzimuthalIntegrals:
    @settings(max_examples=25, deadline=None)
    @given(A=st.floats(min_value=0.1, max_value=10.0), frac=st.floats(min_value=0.0, max_value=0.95))
    # found by hypothesis: quad over [0, 2 pi] at default tolerance was
    # only good to 4.7e-8 here while the code is exact to the last digit
    @example(A=1.0, frac=0.8402930427447406)
    def test_against_quadrature(self, A, frac):
        B = frac * A
        I10, I11, I30, I31, I32 = (
            float(v) for v in azimuthal_integrals(np.array(A), np.array(B))
        )

        def num(n, p):
            # the reference must be more accurate than the code under
            # test: integrate the even integrand over the half period
            # (its peak at phi = 0 is then an endpoint, which the
            # adaptive rule resolves) to near machine precision, and
            # refuse to judge against a reference that did not get there
            # (quad's own round-off warning fires on the cancelling
            # cos-weighted integrals; its error estimate is checked here)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", IntegrationWarning)
                val, err = quad(
                    lambda phi: np.cos(phi) ** n
                    / (A - B * np.cos(phi)) ** (p / 2.0),
                    0.0,
                    np.pi,
                    limit=200,
                    epsabs=1e-13,
                    epsrel=1e-13,
                )
            assert err <= 1e-11 * abs(val) + 1e-12
            return 2.0 * val

        # rel 1e-7 on the cos-weighted integrals is the accuracy of the
        # code itself, not of the reference: near the m = 2e-3 switch
        # between the Maclaurin series and the cancelling closed forms
        # they are good to a few 1e-8 relative (hypothesis finds
        # frac ~ 1e-3 cases)
        assert I10 == pytest.approx(num(0, 1), rel=1e-9, abs=1e-12)
        assert I11 == pytest.approx(num(1, 1), rel=1e-7, abs=1e-9)
        assert I30 == pytest.approx(num(0, 3), rel=1e-9, abs=1e-12)
        assert I31 == pytest.approx(num(1, 3), rel=1e-7, abs=1e-9)
        assert I32 == pytest.approx(num(2, 3), rel=1e-7, abs=1e-9)

    def test_B_zero_limits(self):
        """On-axis: cos-weighted integrals vanish, others are elementary."""
        A = np.array(2.0)
        I10, I11, I30, I31, I32 = azimuthal_integrals(A, np.array(0.0))
        assert I10 == pytest.approx(2 * np.pi / np.sqrt(2.0))
        assert I11 == pytest.approx(0.0, abs=1e-14)
        assert I30 == pytest.approx(2 * np.pi / 2.0**1.5)
        assert I31 == pytest.approx(0.0, abs=1e-14)
        assert I32 == pytest.approx(np.pi / 2.0**1.5)

    def test_series_branch_continuity(self):
        """The small-m series and the direct formula join smoothly at the
        2e-3 switch: a 0.1% step in m moves every integral by < 0.5%."""
        A = np.ones(2) * 3.0
        m = np.array([1.999e-3, 2.001e-3])  # straddles the branch switch
        B = m * 3.0 / (2 - m)
        out = azimuthal_integrals(A, B)
        for comp in out:
            base = max(abs(comp[0]), 1e-30)
            assert abs(comp[0] - comp[1]) / base < 5e-3


class TestCylindricalTensors:
    def _numeric(self, r, z, rp, zp):
        basis0 = [np.array([1.0, 0.0, 0.0]), np.array([0.0, 0.0, 1.0])]

        def u(phi):
            return np.array([r - rp * np.cos(phi), -rp * np.sin(phi), z - zp])

        def bj(j, phi):
            if j == 0:
                return np.array([np.cos(phi), np.sin(phi), 0.0])
            return np.array([0.0, 0.0, 1.0])

        UD = np.zeros((2, 2))
        UK = np.zeros((2, 2))
        for i in range(2):
            for j in range(2):
                UD[i, j] = quad(
                    lambda phi: (basis0[i] @ basis0[j]) / np.linalg.norm(u(phi))
                    - (u(phi) @ basis0[i]) * (u(phi) @ basis0[j]) / np.linalg.norm(u(phi)) ** 3,
                    0,
                    2 * np.pi,
                    limit=200,
                )[0]
                UK[i, j] = quad(
                    lambda phi: (basis0[i] @ bj(j, phi)) / np.linalg.norm(u(phi))
                    - (u(phi) @ basis0[i]) * (u(phi) @ bj(j, phi)) / np.linalg.norm(u(phi)) ** 3,
                    0,
                    2 * np.pi,
                    limit=200,
                )[0]
        return UD, UK

    @settings(max_examples=10, deadline=None)
    @given(r=coords, z=zcoords, rp=coords, zp=zcoords)
    def test_against_3d_quadrature(self, r, z, rp, zp):
        if (r - rp) ** 2 + (z - zp) ** 2 < 1e-4:
            return  # skip near-coincident pairs (masked in production)
        UDn, UKn = self._numeric(r, z, rp, zp)
        UDa, UKa = landau_tensors_cyl(r, z, rp, zp)
        scale = max(np.abs(UDn).max(), 1.0)
        assert np.allclose(UDa, UDn, atol=1e-7 * scale)
        assert np.allclose(UKa, UKn, atol=1e-7 * scale)

    def test_on_axis_field_point(self):
        UDn, UKn = self._numeric(0.0, 0.5, 1.0, -0.3)
        UDa, UKa = landau_tensors_cyl(0.0, 0.5, 1.0, -0.3)
        assert np.allclose(UDa, UDn, atol=1e-10)
        assert np.allclose(UKa, UKn, atol=1e-10)

    def test_on_axis_source_point(self):
        UDn, UKn = self._numeric(1.0, 0.5, 0.0, -0.3)
        UDa, UKa = landau_tensors_cyl(1.0, 0.5, 0.0, -0.3)
        assert np.allclose(UDa, UDn, atol=1e-10)
        assert np.allclose(UKa, UKn, atol=1e-10)

    def test_UD_symmetric(self):
        UD, _ = landau_tensors_cyl(1.2, 0.3, 0.7, -0.8)
        assert UD[0, 1] == UD[1, 0]

    def test_coincident_masked(self):
        UD, UK = landau_tensors_cyl(1.0, 0.5, 1.0, 0.5)
        assert np.all(UD == 0.0)
        assert np.all(UK == 0.0)

    def test_coincident_raises_when_unmasked(self):
        with pytest.raises(ZeroDivisionError):
            landau_tensors_cyl(1.0, 0.5, 1.0, 0.5, mask_singular=False)

    def test_broadcasting(self):
        r = np.linspace(0.1, 2.0, 4)[:, None]
        rp = np.linspace(0.2, 1.5, 3)[None, :]
        UD, UK = landau_tensors_cyl(r, 0.0 * r, rp, 0.0 * rp + 1.0)
        assert UD.shape == (4, 3, 2, 2)
        assert UK.shape == (4, 3, 2, 2)

    def test_exchange_symmetry_of_D(self):
        """U^D(x, x') = U^D(x', x) with indices at their own frames: the
        (rr, zz) components are exchange-symmetric, (rz) flips with dz."""
        UD1, _ = landau_tensors_cyl(1.2, 0.4, 0.6, -0.2)
        UD2, _ = landau_tensors_cyl(0.6, -0.2, 1.2, 0.4)
        assert UD1[1, 1] == pytest.approx(UD2[1, 1], rel=1e-12)
