"""Sparse matrix substrate: a PETSc-style CSR matrix with ``MatSetValues``
semantics, a GPU-style COO assembly path, graph-coloring contention-free
assembly, and the RCM-ordered band LU of section III-G.

The band LU the solvers run is the batched one,
:meth:`CachedBandSolverFactory.factor_batch`: resident LAPACK factors of
many same-pattern systems.  The pure-Python :class:`BandSolver`,
:class:`BlockDiagonalBandSolver` and :class:`GpuBandSolver` reproduce the
paper's own kernel for the performance model and its generators.  The
§VI iterative solver was measured on the paper problem and deleted
(EXPERIMENTS.md, "GMRES on the paper problem").
"""

from .csr import PetscLikeMat
from .coo import CooAssembler
from .coloring import color_elements, colored_assembly_plan
from .band import (
    BandMatrix,
    BandSolver,
    CachedBandSolverFactory,
    band_factor,
    band_solve,
    BlockDiagonalBandSolver,
    rcm_permutation,
    bandwidth,
)
from .band_gpu import GpuBandSolver

__all__ = [
    "PetscLikeMat",
    "CooAssembler",
    "color_elements",
    "colored_assembly_plan",
    "BandMatrix",
    "BandSolver",
    "CachedBandSolverFactory",
    "band_factor",
    "band_solve",
    "BlockDiagonalBandSolver",
    "rcm_permutation",
    "bandwidth",
    "GpuBandSolver",
]
