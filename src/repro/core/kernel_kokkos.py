"""The Kokkos version of the Landau Jacobian kernel (section III-D).

Same mathematics as :mod:`repro.core.kernel_cuda` — both are mappings of
the single kernel specification in :mod:`repro.backend.kernel_spec` —
expressed through the Kokkos hierarchical-parallelism API: one element per
league member, the team dimension over integration points, and the inner
integral reduced over a ThreadVectorRange with ``vector_reduce`` (Kokkos'
parallel_reduce on a small struct of G components) instead of the
hand-rolled warp shuffles.  Kokkos' variable-length team scratch replaces
the fixed-size CUDA shared buffers.

Results are identical; the backend's ``kernel_overhead`` (and, for the
OpenMP space, the device's vectorization efficiency) is what separates the
performance of the two versions in the model.
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
from ..kokkos.api import TeamMember, TeamPolicy, parallel_for
from ..kokkos.backends import KokkosBackend, KOKKOS_CUDA
from .species import SpeciesSet


class KokkosTeamMapping(KernelMapping):
    """The Kokkos mapping of the shared kernel spec (section III-C).

    The inner integral strides in chunks of the vector length; a
    variable-length team-scratch pad stages each chunk's beta terms; lane
    partials are combined *inside* the chunk loop by ``vector_reduce``
    (Kokkos' reducer hides the warp-shuffle butterfly), so finalizing the
    integrals needs only a team barrier; no shared-memory replay precedes
    the transform.
    """

    def __init__(self, member: TeamMember):
        self.member = member
        self.tb = member.tb
        self.chunk = member.vector_length

    def stage_prologue(self, S: int, N: int) -> None:
        # Kokkos scratch pad for the staged beta terms of each pass
        self.member.team_scratch(3 + 3 * S, min(self.chunk, N))

    def barrier(self) -> None:
        self.member.team_barrier()

    def reduce_chunk(self, UK, UD, wj, T_K, T_D):
        # the vector-range reduction: Kokkos' parallel_reduce over a
        # G-struct; the lane sum happens here instead of at the end
        gk_part = np.einsum("imxy,ym->imx", UK, wj * T_K)
        gd_part = np.einsum("imxy,m->imxy", UD, wj * T_D)
        gk = self.member.vector_reduce(gk_part, axis=1)
        gd = self.member.vector_reduce(gd_part, axis=1)
        return gk, gd

    def finalize_integrals(self, nq: int) -> None:
        self.member.team_barrier()


class KokkosLandauJacobian:
    """Driver for the Kokkos-language Landau Jacobian."""

    def __init__(
        self,
        fs: FunctionSpace,
        species: SpeciesSet,
        backend: KokkosBackend = KOKKOS_CUDA,
        nu0: float = 1.0,
        vector_length: int | None = None,
    ):
        self.fs = fs
        self.species = species
        self.backend = backend
        self.nu0 = float(nu0)
        self.kd = KernelData.build(fs, species)
        if vector_length is None:
            if backend.maps_to_blocks:
                vector_length = 1
                while vector_length * 2 * self.kd.nq <= 256:
                    vector_length *= 2
            else:
                vector_length = backend.device.warp_size  # SIMD lanes
        self.policy = TeamPolicy(
            league_size=self.kd.nelem,
            team_size=self.kd.nq,
            vector_length=vector_length,
        )

    def build(self, fields: list[np.ndarray]) -> np.ndarray:
        """Dispatch the league; returns dense (S, n_free, n_free) blocks."""
        kd = self.kd
        fd = FieldData.build(self.fs, fields)
        S = kd.charges.size
        nu0 = self.nu0
        out = np.zeros((S, kd.n_free, kd.n_free))

        def functor(member: TeamMember) -> None:
            element_jacobian(
                KokkosTeamMapping(member), member.league_rank, kd, fd, nu0, out
            )

        parallel_for(self.policy, functor, self.backend)
        return out
