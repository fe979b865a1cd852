"""Algorithm 1: the Landau Jacobian kernel in the CUDA programming model.

One element per thread block (SM); the y thread dimension indexes the
element's integration points; the x dimension strides the inner integral
over all N global integration points in chunks, with the chunk's
structure-of-arrays data (r, z, w, f, df) prefetched into shared memory;
per-pair Landau tensors live in registers; partial integrals are combined
with warp-shuffle reductions; all threads then transform to the global
basis and assemble the element matrix with atomic adds — including the
interpolation of constrained (hanging) vertices to their up-to-four target
degrees of freedom.

Execution uses :class:`repro.gpu.machine.CudaMachine` (SIMT with vectorized
lanes), so the result is identical to the CPU reference up to floating-
point reassociation, while every instruction and byte is counted.  The SoA
packing and the per-pair instruction mix constants (``TENSOR_*``) live in
:mod:`repro.backend.kernel_spec`; they are the simulator's stand-in for
counting the real device instructions and feed the Table IV analysis.
"""

from __future__ import annotations

import numpy as np

from ..backend.kernel_spec import (
    ACCUM_FMA,
    ACCUM_MUL,
    BETA_FMA_PER_SPECIES,
    TENSOR_ADD,
    TENSOR_FMA,
    TENSOR_MUL,
    TENSOR_SPECIAL,
    FieldData,
    KernelData,
)
from ..fem.function_space import FunctionSpace
from ..gpu.machine import CudaMachine, ThreadBlock
from .landau_tensor import landau_tensors_cyl
from .species import SpeciesSet


def landau_jacobian_kernel(
    tb: ThreadBlock,
    e: int,
    kd: KernelData,
    fd: FieldData,
    nu0: float,
    out: np.ndarray,
) -> None:
    """Build one element's Jacobian contribution (Algorithm 1) on one SM.

    The structure is the paper's: stage a chunk of SoA source data into
    shared memory (lines 2-3), per-pair Landau tensors in registers
    (line 4), species-summed beta terms (lines 5-8), integral
    accumulation over the chunk's lanes (lines 9-11), the warp-shuffle
    combination of lane partials (line 12), per-species scaling
    (lines 13-16), and transform & assemble with constrained-vertex
    interpolation (lines 18-23).  ``out`` is the global
    ``(S, n_free, n_free)`` matrix accumulated with atomic adds.
    """
    nq, nb, N = kd.nq, kd.nb, kd.N
    S = kd.charges.size
    chunk = tb.dim_x

    # registers: this element's integration point coordinates and weights
    gi0 = e * nq
    ri = kd.r[gi0 : gi0 + nq]
    zi = kd.z[gi0 : gi0 + nq]
    wi = kd.w[gi0 : gi0 + nq]
    tb.global_read(3 * nq)

    # per-species constant factors (registers)
    z2 = kd.charges**2
    z2om = z2 / kd.masses

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
        tb.syncthreads()

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
        # lanes are vectorized in the simulator: the einsum sums the chunk
        # axis directly, matching the in-register lane accumulation
        G_K += np.einsum("imxy,ym->ix", UK, wj * T_K)
        G_D += np.einsum("imxy,m->ixy", UD, wj * T_D)
        tb.count(fma=ACCUM_FMA * nq * m, mul=ACCUM_MUL * nq * m)

    # --- warp-shuffle reduction of the x-partials (line 12) -------------
    # the simulator accumulated lanes in-line, so only the butterfly
    # rounds over the 6 unique G components are counted
    rounds = int(np.ceil(np.log2(chunk))) if chunk > 1 else 0
    tb.counters.warp_shuffles += rounds * nq * 6
    tb.counters.add += rounds * nq * 6
    tb.syncthreads()

    # --- per-species scaling (lines 13-16) ------------------------------
    # K_i[a] = nu z_a^2 (m0/m_a) G_K ;  D_i[a] = -nu z_a^2 (m0/m_a)^2 G_D
    fac_k = nu0 * z2om  # (S,)
    fac_d = -nu0 * z2 / kd.masses**2
    KK = fac_k[:, None, None] * G_K[None] * wi[None, :, None]
    DD = fac_d[:, None, None, None] * G_D[None] * wi[None, :, None, None]
    tb.count(mul=2 * S * nq * 6)
    tb.shared_write(S * nq * 6)
    tb.syncthreads()

    # --- Transform & Assemble (line 23) ---------------------------------
    # physical gradients of the basis at this element's IPs
    invJ = kd.inv_jac[e]
    gphys = kd.Dref * invJ[None, None, :]  # (nq, nb, 2)
    tb.count(mul=nq * nb * 2)
    # every basis row re-reads the staged KK/DD coefficients
    tb.shared_read(S * nq * 6 * nb)
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


def landau_mass_kernel(
    tb: ThreadBlock,
    e: int,
    kd: KernelData,
    shift: float,
    out: np.ndarray,
) -> None:
    """The scaled mass-matrix kernel: Algorithm 1 reduced to
    ``C <- Transform&Assemble(w[gi]*s, 0, 0, B, 0)`` (section V-A1)."""
    nq, nb = kd.nq, kd.nb
    S = kd.charges.size
    gi0 = e * nq
    wi = kd.w[gi0 : gi0 + nq]
    tb.global_read(nq)
    ws = wi * shift
    tb.count(mul=nq)
    C = np.einsum("i,ia,ib->ab", ws, kd.B, kd.B)
    tb.count(fma=nq * nb * nb, mul=nq * nb)
    # the two basis-table operands stream through L1 per (i, a, b) term
    tb.shared_read(nq * nb * nb * 2)

    Pe = kd.elem_P[e]
    tgt = kd.elem_targets[e]
    Cfree = np.einsum("ak,ab,bl->kl", Pe, C, Pe, optimize=True)
    tb.count(fma=2 * nb * nb * Pe.shape[1])
    # the mass term is identical for every species block
    idx = np.ix_(range(S), tgt, tgt)
    tb.atomic_add(out, idx, np.broadcast_to(Cfree, (S,) + Cfree.shape))


class CudaLandauJacobian:
    """Driver: build the (block-diagonal) Landau Jacobian on the simulator.

    Mirrors the PETSc flow: data is packed into SoA vectors, one kernel
    launch builds all element Jacobians (one element per block, 16x16
    blocks for Q3), a second launch adds the time-integrator's shifted
    mass matrix.
    """

    def __init__(
        self,
        fs: FunctionSpace,
        species: SpeciesSet,
        machine: CudaMachine | None = None,
        nu0: float = 1.0,
        block_x: int | None = None,
    ):
        self.fs = fs
        self.species = species
        self.machine = machine if machine is not None else CudaMachine()
        self.nu0 = float(nu0)
        self.kd = KernelData.build(fs, species)
        # block: y = integration points; x = power of two with <= 256 total
        if block_x is None:
            block_x = 1
            while block_x * 2 * self.kd.nq <= 256:
                block_x *= 2
        self.block = (block_x, self.kd.nq)

    def build(self, fields: list[np.ndarray]) -> np.ndarray:
        """Launch the Jacobian kernel; returns dense (S, n, n) blocks."""
        fd = FieldData.build(self.fs, fields)
        S = len(self.species)
        out = np.zeros((S, self.kd.n_free, self.kd.n_free))
        self.machine.launch(
            landau_jacobian_kernel,
            self.kd.nelem,
            self.block,
            self.kd,
            fd,
            self.nu0,
            out,
        )
        return out

    def build_mass(self, shift: float = 1.0) -> np.ndarray:
        S = len(self.species)
        out = np.zeros((S, self.kd.n_free, self.kd.n_free))
        self.machine.launch(
            landau_mass_kernel, self.kd.nelem, self.block, self.kd, shift, out
        )
        return out
