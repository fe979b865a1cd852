"""The Landau kernel's data layout and instruction mix (Algorithm 1).

The SoA mesh/state packing (:class:`KernelData` / :class:`FieldData`)
that the simulated kernel in :mod:`repro.core.kernel_cuda` consumes, and
the per-pair instruction-mix constants it counts.  The constants describe
a production ``LandauTensor2D`` (polynomial elliptic-integral
approximations as in PETSc); they stand in for counting the real device
instructions and feed the Table IV analysis and the performance tables.

This module is deliberately *not* re-exported from
:mod:`repro.backend`'s package root: the executor knows nothing
about the FEM layers, and the kernel spec imports them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.species import SpeciesSet
from ..fem.function_space import FunctionSpace

__all__ = [
    "ACCUM_FMA",
    "ACCUM_MUL",
    "BETA_FMA_PER_SPECIES",
    "TENSOR_ADD",
    "TENSOR_FMA",
    "TENSOR_MUL",
    "TENSOR_SPECIAL",
    "FieldData",
    "KernelData",
]

# --- per-pair instruction mix of LandauTensor2D (counted per (i, j) pair) ----
#: FMA instructions: elliptic polynomial evaluations (two 10th-order Horner
#: chains), the I-integral combinations and the tensor component assembly.
TENSOR_FMA = 38
#: plain multiplies (coordinate products, scalings)
TENSOR_MUL = 30
#: plain adds/subtracts
TENSOR_ADD = 20
#: special-function ops: sqrt, log, reciprocals
TENSOR_SPECIAL = 4

#: per (pair, species) cost of the beta-sum accumulation (Alg. 1 lines 5-8):
#: two FMAs for T_K components, one for T_D.
BETA_FMA_PER_SPECIES = 3

#: per-pair G accumulation (lines 9-10): G_K += w U_K.T_K (4 FMA + 2 MUL),
#: G_D += w T_D U_D (3 unique FMA + 1 MUL for w*T_D).
ACCUM_FMA = 7
ACCUM_MUL = 3


@dataclass
class KernelData:
    """Immutable per-mesh data consumed by the kernels (SoA packing)."""

    nq: int
    nb: int
    nelem: int
    N: int
    r: np.ndarray  # (N,)
    z: np.ndarray  # (N,)
    w: np.ndarray  # (N,) combined weights (quad * detJ * r)
    B: np.ndarray  # (nq, nb) basis table
    Dref: np.ndarray  # (nq, nb, 2) reference gradients
    inv_jac: np.ndarray  # (nelem, 2)
    elem_targets: list[np.ndarray]  # per element: free-dof targets
    elem_P: list[np.ndarray]  # per element: (nb, K_e) distribution weights
    charges: np.ndarray  # (S,)
    masses: np.ndarray  # (S,)
    n_free: int

    @classmethod
    def build(cls, fs: FunctionSpace, species: SpeciesSet) -> "KernelData":
        dm = fs.dofmap
        P = dm.P.tocsr()
        elem_targets: list[np.ndarray] = []
        elem_P: list[np.ndarray] = []
        for e in range(fs.nelem):
            nodes = dm.cell_nodes[e]
            sub = P[nodes]  # (nb, n_free) sparse, few nonzero columns
            cols = np.unique(sub.indices)
            dense = np.asarray(sub[:, cols].todense())
            elem_targets.append(cols.astype(np.int64))
            elem_P.append(dense)
        N = fs.n_integration_points
        return cls(
            nq=fs.nq,
            nb=fs.nb,
            nelem=fs.nelem,
            N=N,
            r=fs.qpoints[:, :, 0].reshape(N).copy(),
            z=fs.qpoints[:, :, 1].reshape(N).copy(),
            w=fs.qweights.reshape(N).copy(),
            B=fs.B,
            Dref=fs.Dref,
            inv_jac=fs.inv_jac,
            elem_targets=elem_targets,
            elem_P=elem_P,
            charges=species.charges,
            masses=species.masses,
            n_free=dm.n_free,
        )


@dataclass
class FieldData:
    """Per-state data: distribution values/gradients at all IPs (SoA)."""

    f: np.ndarray  # (S, N)
    df: np.ndarray  # (2, S, N)

    @classmethod
    def build(cls, fs: FunctionSpace, fields: list[np.ndarray]) -> "FieldData":
        packed = fs.pack_ip_data(list(fields))
        return cls(f=packed["f"], df=packed["df"])
