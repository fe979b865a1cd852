"""Node models for the paper's three machines.

The CPU-side model is deliberately simple: a core executes the band LU
factor/solve and the Landau metadata at ``effective_gflops`` with an SMT
slowdown curve (running 2-4 hardware threads per core shares its issue
ports; the paper's Tables II/III show a ~25% gain from the second thread
and ~2-3% from the third, which pins the curve).  Effective GFLOP/s values
are calibrated so the single-rank component times reproduce Table VII, and
documented here.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..gpu.device import A64FX, MI100, V100, DeviceSpec


@dataclass(frozen=True)
class CoreSpec:
    """One CPU core of the host processor.

    ``effective_gflops`` is the sustained FP64 rate on the small, bandwidth-
    ugly band-LU/solve/metadata work — far below peak by design.
    ``smt_slowdown`` gives the per-thread work inflation when 1..4 hardware
    threads share the core.
    """

    name: str
    effective_gflops: float
    smt_levels: int = 4
    smt_slowdown: tuple[float, ...] = (1.0, 1.7, 2.49, 3.6)

    def slowdown(self, threads_per_core: int) -> float:
        if not (1 <= threads_per_core <= self.smt_levels):
            raise ValueError(
                f"{self.name}: threads/core {threads_per_core} out of 1..{self.smt_levels}"
            )
        return self.smt_slowdown[threads_per_core - 1]


#: Kernel-time multiplier of the portable Kokkos path (Kokkos-CUDA,
#: Kokkos-HIP) over hand-written CUDA.  Table VII times the kernel at 2.9 s
#: in CUDA and 3.2 s in Kokkos-CUDA (~1.10), while the measured end-to-end
#: throughput ratio is 0.88 ("not unexpected nor unreasonable").  The
#: A64FX's poor auto-vectorization is carried by that device's
#: ``software_efficiency`` instead, so Kokkos-OpenMP takes no multiplier.
KOKKOS_KERNEL_OVERHEAD = 1.10

#: IBM POWER9 core (Summit): calibrated so the 10-species band factor over
#: the paper's run reproduces Table VII's 8.4 s.
POWER9 = CoreSpec(name="POWER9", effective_gflops=12.0, smt_levels=4)

#: AMD EPYC 7662 core (Spock): the paper observes the EPYC roughly 1.4-2x
#: faster than the P9 on the factor/solve (Table VII: 5.9 s vs 8.4 s).
EPYC = CoreSpec(name="EPYC-7662", effective_gflops=17.0, smt_levels=2, smt_slowdown=(1.0, 1.7))

#: Fujitsu A64FX core: strong SVE peak but weak scalar/unvectorized rate.
A64FX_CORE = CoreSpec(name="A64FX-core", effective_gflops=6.3, smt_levels=1, smt_slowdown=(1.0,))


@dataclass(frozen=True)
class NodeSpec:
    """One node: GPUs + host cores (+ MPS behaviour).

    Attributes
    ----------
    gpus:
        number of devices (0 for Fugaku).
    cores_per_gpu:
        host cores available to drive each GPU (7 on Summit, 8 on Spock).
    gpu_concurrency:
        how many ranks' kernels the device can genuinely co-schedule
        (MPS + multi-block residency); V100 SMs fit several 256-thread
        blocks so ~6 concurrent 80-block kernels overlap well.
    mps_contention:
        extra per-rank GPU service inflation per rank beyond
        ``gpu_concurrency`` — small under a healthy MPS, large when the
        vendor equivalent "is not functioning well" (Spock, section V-D1:
        throughput rolls over at 16 processes per GPU).
    """

    name: str
    device: DeviceSpec | None
    core: CoreSpec
    gpus: int
    cores_per_gpu: int
    total_cores: int
    gpu_concurrency: int = 6
    mps_contention: float = 0.02


#: Summit node: 2 POWER9 (42 usable cores, 7 per GPU), 6 V100, SMT4, MPS on.
SUMMIT = NodeSpec(
    name="Summit",
    device=V100,
    core=POWER9,
    gpus=6,
    cores_per_gpu=7,
    total_cores=42,
    gpu_concurrency=6,
    mps_contention=0.02,
)

#: Spock node: 64-core EPYC "Rome", 4 MI100, SMT2; the MPS equivalent is
#: not functioning well -> heavy contention beyond the co-schedule limit.
SPOCK = NodeSpec(
    name="Spock",
    device=MI100,
    core=EPYC,
    gpus=4,
    cores_per_gpu=8,
    total_cores=64,
    gpu_concurrency=8,
    mps_contention=0.6,
)

#: Fugaku node: one A64FX, 48 cores (32 used in the paper), no GPU.
FUGAKU = NodeSpec(
    name="Fugaku",
    device=A64FX,
    core=A64FX_CORE,
    gpus=0,
    cores_per_gpu=0,
    total_cores=48,
    gpu_concurrency=0,
    mps_contention=0.0,
)
