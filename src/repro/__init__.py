"""repro — a reproduction of "Landau collision operator in the CUDA
programming model applied to thermal quench plasmas" (Adams, Brennan,
Knepley, Wang — IPDPS 2022).

The package implements, from scratch and in pure NumPy/SciPy Python:

* a conservative high-order finite-element discretization of the Landau
  collision operator in axisymmetric (r, z) velocity space with adaptive
  mesh refinement and hanging-node constraints (:mod:`repro.fem`,
  :mod:`repro.amr`, :mod:`repro.core`),
* the paper's Algorithm 1 expressed against a functional, fully counted
  simulator of the CUDA programming model (:mod:`repro.gpu`,
  :mod:`repro.core.kernel_cuda`); the Kokkos rows of the performance
  tables are modelled from the same counts,
* the PETSc-style sparse-matrix substrate, including the custom RCM band
  LU solver (:mod:`repro.sparse`),
* the Vlasov-Poisson-Landau thermal quench model with Spitzer-resistivity
  verification (:mod:`repro.quench`),
* the performance models that regenerate the paper's throughput,
  component-time and roofline tables (:mod:`repro.perf`).

Quick start::

    from repro.fem import FunctionSpace
    from repro.amr import landau_mesh
    from repro.core import (SpeciesSet, electron, deuterium,
                            LandauOperator, ImplicitLandauSolver, Moments)
    from repro.core.maxwellian import species_maxwellian

    species = SpeciesSet([electron(), deuterium()])
    mesh = landau_mesh([s.thermal_velocity for s in species])
    fs = FunctionSpace(mesh, order=3)
    op = LandauOperator(fs, species)
    solver = ImplicitLandauSolver(op)
    f = [fs.interpolate(species_maxwellian(s)) for s in species]
    f = solver.integrate(f, dt=0.5, nsteps=10, efield=0.01)
    print(Moments(fs, species).summary(f))
"""

__version__ = "1.0.0"

from . import constants, units  # noqa: F401

__all__ = ["constants", "units", "__version__"]
