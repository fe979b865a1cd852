"""The shared Landau-kernel specification (Algorithm 1 + SoA layout).

The paper expresses the same kernel twice — raw CUDA (§III-B) and Kokkos
league/team/vector (§III-C) — over one shared data layout, and stresses
that this is what makes new architectures cheap.  This module is that
shared part for the simulators: the SoA mesh/state packing
(:class:`KernelData` / :class:`FieldData`), the per-pair instruction-mix
constants, and the full Algorithm-1 element loop
(:func:`element_jacobian`), written once against a small
:class:`KernelMapping` seam.

:mod:`repro.core.kernel_cuda` and :mod:`repro.core.kernel_kokkos` each
provide a mapping — how chunks are staged, how lane partials are
reduced, where barriers fall — so the two "programming models" differ
*only* in their mapping objects, exactly like the paper's two source
files over one ``LandauTensor2D``.  The mapping hooks are also where the
models' counter signatures diverge (CUDA counts explicit warp shuffles
and a pre-transform shared-memory replay; Kokkos allocates variable-
length team scratch and reduces through ``vector_reduce``), so each
model's instruction/byte accounting is preserved bit-for-bit.

This module is deliberately *not* re-exported from
:mod:`repro.backend`'s package root: the executor knows nothing
about the FEM layers, and the kernel spec imports them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.landau_tensor import landau_tensors_cyl
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
    "KernelMapping",
    "element_jacobian",
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


class KernelMapping:
    """How one programming model maps the shared kernel onto its machine.

    A mapping owns the simulator :class:`~repro.gpu.machine.ThreadBlock`
    (``tb``), the inner-integral ``chunk`` width (block x-dimension /
    vector length), and the model-specific hooks below.  The default
    implementations are no-ops so a mapping only spells out where its
    model actually differs.
    """

    tb = None
    chunk: int = 1

    def stage_prologue(self, S: int, N: int) -> None:
        """Before the chunk loop (e.g. Kokkos' team-scratch allocation)."""

    def barrier(self) -> None:
        """Block-wide barrier after staging / before consuming shared data."""
        raise NotImplementedError

    def reduce_chunk(
        self,
        UK: np.ndarray,
        UD: np.ndarray,
        wj: np.ndarray,
        T_K: np.ndarray,
        T_D: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """One chunk's contribution ``(gk (nq, 2), gd (nq, 2, 2))`` to the
        integrals — lane partials reduced the model's way."""
        raise NotImplementedError

    def finalize_integrals(self, nq: int) -> None:
        """After the chunk loop: combine lane partials across the block
        (CUDA's counted warp-shuffle butterfly; Kokkos already reduced
        inside ``vector_reduce`` and only needs its barrier)."""
        raise NotImplementedError

    def pre_transform_reads(self, S: int, nq: int, nb: int) -> None:
        """Shared-memory traffic charged when basis rows re-read the
        staged KK/DD coefficients (the CUDA model's explicit replay)."""


def element_jacobian(
    mapping: KernelMapping,
    e: int,
    kd: KernelData,
    fd: FieldData,
    nu0: float,
    out: np.ndarray,
) -> None:
    """Build one element's Jacobian contribution — Algorithm 1, shared by
    every programming model.

    The structure is the paper's: stage a chunk of SoA source data into
    shared memory (lines 2-3), per-pair Landau tensors in registers
    (line 4), species-summed beta terms (lines 5-8), integral
    accumulation with the model's lane reduction (lines 9-12), per-species
    scaling (lines 13-16), and transform & assemble with constrained-
    vertex interpolation (lines 18-23).  ``out`` is the global
    ``(S, n_free, n_free)`` matrix accumulated with atomic adds.
    """
    tb = mapping.tb
    nq, nb, N = kd.nq, kd.nb, kd.N
    S = kd.charges.size
    chunk = mapping.chunk

    # registers: this element's integration point coordinates and weights
    gi0 = e * nq
    ri = kd.r[gi0 : gi0 + nq]
    zi = kd.z[gi0 : gi0 + nq]
    wi = kd.w[gi0 : gi0 + nq]
    tb.global_read(3 * nq)

    # per-species constant factors (registers)
    z2 = kd.charges**2
    z2om = z2 / kd.masses

    mapping.stage_prologue(S, N)
    # accumulators in registers: G_K (nq, 2), G_D (nq, 2, 2)
    G_K = np.zeros((nq, 2))
    G_D = np.zeros((nq, 2, 2))

    for j0 in range(0, N, chunk):
        j1 = min(j0 + chunk, N)
        m = j1 - j0
        # --- prefetch the chunk's beta terms into shared memory ---------
        rj = kd.r[j0:j1]
        zj = kd.z[j0:j1]
        wj = kd.w[j0:j1]
        fj = fd.f[:, j0:j1]  # (S, m)
        dfj = fd.df[:, :, j0:j1]  # (2, S, m)
        tb.global_read((3 + 3 * S) * m)
        tb.shared_write((3 + 3 * S) * m)
        mapping.barrier()

        # --- per-pair Landau tensors in registers (line 4) --------------
        UD, UK = landau_tensors_cyl(
            ri[:, None], zi[:, None], rj[None, :], zj[None, :]
        )
        tb.count(
            fma=TENSOR_FMA * nq * m,
            mul=TENSOR_MUL * nq * m,
            add=TENSOR_ADD * nq * m,
            special=TENSOR_SPECIAL * nq * m,
        )
        # staged chunk values are consumed as warp broadcasts: one shared
        # transaction per value, served to all integration-point threads
        tb.shared_read((3 + 3 * S) * m)

        # --- beta sums (lines 5-8); shared across i in the simulator ----
        T_D = z2 @ fj  # (m,)
        T_K = np.einsum("s,dsm->dm", z2om, dfj)  # (2, m)
        tb.count(fma=BETA_FMA_PER_SPECIES * S * nq * m)

        # --- accumulate the integrals (lines 9-11) ----------------------
        gk, gd = mapping.reduce_chunk(UK, UD, wj, T_K, T_D)
        G_K += gk
        G_D += gd
        tb.count(fma=ACCUM_FMA * nq * m, mul=ACCUM_MUL * nq * m)

    # --- combine lane partials across the block (line 12) ---------------
    mapping.finalize_integrals(nq)

    # --- per-species scaling (lines 13-16) ------------------------------
    # K_i[a] = nu z_a^2 (m0/m_a) G_K ;  D_i[a] = -nu z_a^2 (m0/m_a)^2 G_D
    fac_k = nu0 * z2om  # (S,)
    fac_d = -nu0 * z2 / kd.masses**2
    KK = fac_k[:, None, None] * G_K[None] * wi[None, :, None]
    DD = fac_d[:, None, None, None] * G_D[None] * wi[None, :, None, None]
    tb.count(mul=2 * S * nq * 6)
    tb.shared_write(S * nq * 6)
    mapping.barrier()

    # --- Transform & Assemble (line 23) ---------------------------------
    # physical gradients of the basis at this element's IPs
    invJ = kd.inv_jac[e]
    gphys = kd.Dref * invJ[None, None, :]  # (nq, nb, 2)
    tb.count(mul=nq * nb * 2)
    mapping.pre_transform_reads(S, nq, nb)
    # C[s, a, b] = sum_i gphys[i,a,:] . DD[s,i] . gphys[i,b,:]
    #            + sum_i gphys[i,a,:] . KK[s,i] B[i,b]
    C = np.einsum("iax,sixy,iby->sab", gphys, DD, gphys, optimize=True)
    C += np.einsum("iax,six,ib->sab", gphys, KK, kd.B, optimize=True)
    tb.count(fma=S * nq * nb * nb * 6, mul=S * nq * nb * nb)
    # basis-table operands stream through L1 for every (i, a, b) term
    tb.shared_read(S * nq * nb * nb * 3)

    # --- global assembly with constrained-vertex interpolation ----------
    Pe = kd.elem_P[e]  # (nb, K_e)
    tgt = kd.elem_targets[e]
    Cfree = np.einsum("ak,sab,bl->skl", Pe, C, Pe, optimize=True)
    # constrained faces inflate the scatter footprint (the paper's source
    # of warp load imbalance in the assembly phase)
    tb.count(fma=2 * S * nb * nb * Pe.shape[1])
    idx = np.ix_(range(S), tgt, tgt)
    tb.atomic_add(out, idx, Cfree)
