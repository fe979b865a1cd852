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

The kernel body itself — data staging, tensor evaluation, beta sums,
integral accumulation, transform & assemble — is the shared specification
in :mod:`repro.backend.kernel_spec`; this module contributes only the
CUDA *mapping*: x-dimension chunking, ``__syncthreads`` barriers, the
hand-rolled warp-shuffle butterfly that combines lane partials, and the
shared-memory replay of the staged KK/DD coefficients by every basis row.

Execution uses :class:`repro.gpu.machine.CudaMachine` (SIMT with vectorized
lanes), so the result is identical to the CPU reference up to floating-
point reassociation, while every instruction and byte is counted.  The
per-pair instruction mix constants (``TENSOR_*`` in the kernel spec)
describe a production ``LandauTensor2D`` (polynomial elliptic-integral
approximations as in PETSc); they are the simulator's stand-in for
counting the real device instructions and feed the Table IV analysis.
"""

from __future__ import annotations

import numpy as np

from ..backend.kernel_spec import (
    FieldData,
    KernelData,
    KernelMapping,
    element_jacobian,
)
from ..fem.function_space import FunctionSpace
from ..gpu.machine import CudaMachine, ThreadBlock
from .species import SpeciesSet


class CudaWarpMapping(KernelMapping):
    """The raw-CUDA mapping of the shared kernel spec (section III-B).

    The inner integral strides in chunks of the block's x dimension; lane
    partials are accumulated in registers and combined at the end with an
    explicit warp-shuffle butterfly (log2(dim_x) rounds over the 6 unique
    G components); the staged per-species coefficients are re-read from
    shared memory by every basis row during the transform.
    """

    def __init__(self, tb: ThreadBlock):
        self.tb = tb
        self.chunk = tb.dim_x

    def barrier(self) -> None:
        self.tb.syncthreads()

    def reduce_chunk(self, UK, UD, wj, T_K, T_D):
        # lanes are vectorized in the simulator: the einsum sums the chunk
        # axis directly, matching the in-register lane accumulation
        wTD = wj * T_D
        gk = np.einsum("imxy,ym->ix", UK, wj * T_K)
        gd = np.einsum("imxy,m->ixy", UD, wTD)
        return gk, gd

    def finalize_integrals(self, nq: int) -> None:
        # warp-shuffle reduction of the x-partials (Alg. 1 line 12); the
        # simulator accumulated lanes in-line, so only the butterfly
        # rounds are counted
        tb = self.tb
        rounds = max(int(np.ceil(np.log2(tb.dim_x))), 0) if tb.dim_x > 1 else 0
        tb.counters.warp_shuffles += rounds * nq * 6  # 6 unique G components
        tb.counters.add += rounds * nq * 6
        tb.syncthreads()

    def pre_transform_reads(self, S: int, nq: int, nb: int) -> None:
        self.tb.shared_read(S * nq * 6 * nb)  # every basis row consumes KK/DD


def landau_jacobian_kernel(
    tb: ThreadBlock,
    e: int,
    kd: KernelData,
    fd: FieldData,
    nu0: float,
    out: np.ndarray,
) -> None:
    """Build one element's Jacobian contribution (Algorithm 1) on one SM.

    ``out`` is the global (S, n_free, n_free) matrix accumulated with
    atomic adds.
    """
    element_jacobian(CudaWarpMapping(tb), e, kd, fd, nu0, out)


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
