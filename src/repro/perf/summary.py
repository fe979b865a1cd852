"""Table VIII: throughput and normalized kernel performance summary.

The "kernel (% CUDA)" column normalizes each machine's Landau kernel time
by its hardware peak relative to the V100:

    %CUDA = (t_kernel_CUDA / t_kernel_X) / (peak_X / peak_V100) * 100

so 100% means "as efficient as the hand-written CUDA kernel given the
hardware" — Kokkos-CUDA lands ~90%, Kokkos-HIP ~20% (immature ROCm + no
FP64 atomics), Kokkos-OpenMP ~low tens (no effective auto-vectorization).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..gpu.device import V100
from .nodes import FUGAKU, KOKKOS_KERNEL_OVERHEAD, SPOCK, SUMMIT
from .throughput import (
    fugaku_table,
    spock_hip_table,
    summit_cuda_table,
    summit_kokkos_table,
)
from .workload import LandauWorkload


@dataclass
class SummaryRow:
    machine_language: str
    throughput: float
    hardware: str
    kernel_pct_cuda: float

    def format(self) -> str:
        return (
            f"{self.machine_language:<22} {self.throughput:>8,.0f} "
            f"{self.hardware:<22} {self.kernel_pct_cuda:>8.0f}"
        )


def summary_table(wl: LandauWorkload) -> list[SummaryRow]:
    t_cuda = wl.kernel_time(V100)
    rows: list[SummaryRow] = []

    t2 = summit_cuda_table(wl)
    rows.append(
        SummaryRow(
            "Summit / CUDA",
            t2.best,
            f"{SUMMIT.gpus} V100 + {SUMMIT.total_cores} P9",
            100.0,
        )
    )

    t3 = summit_kokkos_table(wl)
    tk = wl.kernel_time(V100, overhead=KOKKOS_KERNEL_OVERHEAD)
    rows.append(
        SummaryRow(
            "Summit / Kokkos-CUDA",
            t3.best,
            f"{SUMMIT.gpus} V100 + {SUMMIT.total_cores} P9",
            100.0 * t_cuda / tk,
        )
    )

    t5 = spock_hip_table(wl)
    th = wl.kernel_time(SPOCK.device, overhead=KOKKOS_KERNEL_OVERHEAD)
    norm = SPOCK.device.peak_fp64_tflops / V100.peak_fp64_tflops
    rows.append(
        SummaryRow(
            "Spock / Kokkos-HIP",
            t5.best,
            f"{SPOCK.gpus} MI100 + {SPOCK.total_cores // 2} EPYC",
            100.0 * (t_cuda / th) / norm,
        )
    )

    t6 = fugaku_table(wl)
    tf = wl.host_kernel_time(FUGAKU.core, 8, FUGAKU.device) / 4.0  # node-level: 4 procs
    normf = FUGAKU.device.peak_fp64_tflops / V100.peak_fp64_tflops
    rows.append(
        SummaryRow(
            "Fugaku / Kokkos-OMP",
            t6.throughput_best,
            "NA + 32 A64FX",
            100.0 * (t_cuda / tf) / normf,
        )
    )
    return rows


def format_summary_table(rows: list[SummaryRow]) -> str:
    head = f"{'Machine / language':<22} {'N/sec':>8} {'hardware':<22} {'% CUDA':>8}"
    return "\n".join([head] + [r.format() for r in rows])
