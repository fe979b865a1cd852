"""Nondimensionalization of the Vlasov-Maxwell-Landau system (Appendix A).

The paper normalizes with:

* reference mass ``m0`` — the electron mass,
* reference velocity ``v0 = sqrt(8 k T_e / (pi m_e))``,
* reference density ``n0`` (``1e20 m^-3`` for a typical fusion plasma),
* reference time ``t0 = 8 pi m0^2 eps0^2 v0^3 / (e^4 ln(Lambda) n0)``,

so that the electron-electron collision frequency ``nu_ee`` is exactly 1 in
code units.  Distribution functions are scaled by ``v0^3 / n0`` and electric
fields by ``E~ = e E t0 / (m0 v0)`` so the acceleration term in eq. (1)
becomes ``(z_a m0/m_a) E~ d f/d x_z``.

All solver code works exclusively in these units; this module is the single
place where SI enters or leaves the system.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from . import constants as c


@dataclass(frozen=True)
class UnitSystem:
    """Nondimensional unit system anchored at a reference temperature/density.

    Parameters
    ----------
    T0_ev:
        Reference (electron) temperature in eV; sets ``v0``.
    n0:
        Reference number density in ``m^-3``.
    m0:
        Reference mass in kg (electron mass by default).
    coulomb_log:
        Coulomb logarithm; the paper uses 10 for every pair.
    """

    T0_ev: float = 1000.0
    n0: float = c.DEFAULT_DENSITY
    m0: float = c.ELECTRON_MASS
    coulomb_log: float = c.COULOMB_LOG
    v0: float = field(init=False)
    t0: float = field(init=False)

    def __post_init__(self) -> None:
        v0 = c.thermal_speed(self.T0_ev, self.m0)
        e4 = c.ELECTRON_CHARGE**4
        t0 = (
            8.0
            * math.pi
            * self.m0**2
            * c.VACUUM_PERMITTIVITY**2
            * v0**3
            / (e4 * self.coulomb_log * self.n0)
        )
        object.__setattr__(self, "v0", v0)
        object.__setattr__(self, "t0", t0)

    # --- conversions: SI -> code units --------------------------------------
    def velocity_to_code(self, v_si: float) -> float:
        return v_si / self.v0

    def time_to_code(self, t_si: float) -> float:
        return t_si / self.t0

    def efield_to_code(self, E_si: float) -> float:
        """``E~ = e E t0 / (m0 v0)`` (acceleration in code units per unit charge)."""
        return c.ELECTRON_CHARGE * E_si * self.t0 / (self.m0 * self.v0)

    # --- conversions: code units -> SI --------------------------------------
    def velocity_to_si(self, v_code: float) -> float:
        return v_code * self.v0

    def time_to_si(self, t_code: float) -> float:
        return t_code * self.t0

    def efield_to_si(self, E_code: float) -> float:
        return E_code * self.m0 * self.v0 / (c.ELECTRON_CHARGE * self.t0)

    def resistivity_to_si(self, eta_code: float) -> float:
        """Convert ``eta~ = E~/J~`` to ohm-metres.

        ``J_si = n0 e v0 J~`` and ``E_si`` per :meth:`efield_to_si`, hence
        ``eta_si = eta~ * m0 / (n0 e^2 t0)``.
        """
        return eta_code * self.m0 / (self.n0 * c.ELECTRON_CHARGE**2 * self.t0)

    def resistivity_to_code(self, eta_si: float) -> float:
        return eta_si * self.n0 * c.ELECTRON_CHARGE**2 * self.t0 / self.m0

    # --- derived quantities ---------------------------------------------------
    @property
    def kT0(self) -> float:
        """Reference thermal energy in joules: ``k T0 = (pi/8) m0 v0^2``."""
        return self.T0_ev * c.EV

    @property
    def c_code(self) -> float:
        """Speed of light in code (v0) units — needed for Connor-Hastie E_c."""
        return c.SPEED_OF_LIGHT / self.v0


#: module-level default used by examples and benchmarks (1 keV, 1e20 m^-3)
DEFAULT_UNITS = UnitSystem()
