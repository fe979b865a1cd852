"""The paper's primary contribution: the conservative finite-element Landau
collision operator, its CUDA-programming-model kernel (Algorithm 1), the
quasi-Newton implicit time advance, and the multi-species grid machinery.
"""

from .species import Species, SpeciesSet, electron, deuterium, tungsten_states
from .maxwellian import maxwellian_rz, shifted_maxwellian_rz
from .landau_tensor import (
    landau_tensor_3d,
    landau_tensors_cyl,
    azimuthal_integrals,
)
from .operator import LandauOperator
from .options import AssemblyOptions, PairTableMemoryError
from .moments import Moments
from .solver import ImplicitLandauSolver, NewtonStats
from .grids import GridSet, MultiGridImplicitSolver, plan_grids, grid_cost_table
from .batch import BatchedVertexSolver
from .projection import conservative_projection, moment_functionals

__all__ = [
    "Species",
    "SpeciesSet",
    "electron",
    "deuterium",
    "tungsten_states",
    "maxwellian_rz",
    "shifted_maxwellian_rz",
    "landau_tensor_3d",
    "landau_tensors_cyl",
    "azimuthal_integrals",
    "LandauOperator",
    "AssemblyOptions",
    "PairTableMemoryError",
    "Moments",
    "ImplicitLandauSolver",
    "NewtonStats",
    "GridSet",
    "MultiGridImplicitSolver",
    "plan_grids",
    "grid_cost_table",
    "BatchedVertexSolver",
    "conservative_projection",
    "moment_functionals",
]
