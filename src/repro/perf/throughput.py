"""Throughput experiments: Tables II, III, V (GPU machines) and VI (Fugaku).

Each generator builds the per-iteration component times from the workload's
counters + the node model, feeds them to the MPS pipeline, and returns the
table in the paper's layout.  Throughput is the paper's figure of merit:
"total number of Newton iterations times the number of instances of the
problem run in parallel, divided by the simulation time".
"""

from __future__ import annotations

from dataclasses import dataclass

from ..gpu.device import DeviceSpec
from .mps import MpsPipelineModel
from .nodes import FUGAKU, KOKKOS_KERNEL_OVERHEAD, SPOCK, SUMMIT, NodeSpec
from .workload import LandauWorkload


@dataclass
class ThroughputTable:
    """One machine/language throughput table."""

    title: str
    cores_options: list[int]
    procs_options: list[int]
    values: list[list[float]]  # [proc_row][core_col], node its/sec

    @property
    def best(self) -> float:
        return max(max(row) for row in self.values)

    def format(self) -> str:
        head = "procs/core \\ cores/GPU " + "".join(
            f"{c:>9}" for c in self.cores_options
        )
        lines = [self.title, head]
        for p, row in zip(self.procs_options, self.values):
            lines.append(f"{p:>22} " + "".join(f"{v:>9,.0f}" for v in row))
        return "\n".join(lines)


def _cpu_time_per_iteration(wl: LandauWorkload, node: NodeSpec) -> float:
    """factor + solve + metadata + other, one thread per core."""
    return wl.cpu_time(node.core)


def throughput_table(
    wl: LandauWorkload,
    node: NodeSpec,
    title: str,
    cores_options: list[int],
    procs_options: list[int],
    kernel_overhead: float = 1.0,
) -> ThroughputTable:
    """Generic GPU-machine table (rows = procs/core, cols = cores/GPU)."""
    if node.device is None or node.gpus == 0:
        raise ValueError(f"{node.name} has no GPUs; use fugaku_table")
    t_gpu = wl.kernel_time(node.device, overhead=kernel_overhead)
    t_cpu = _cpu_time_per_iteration(wl, node)
    model = MpsPipelineModel(node=node, t_gpu=t_gpu, t_cpu_base=t_cpu)
    return ThroughputTable(
        title=title,
        cores_options=list(cores_options),
        procs_options=list(procs_options),
        values=model.table(list(cores_options), list(procs_options)),
    )


def summit_cuda_table(wl: LandauWorkload) -> ThroughputTable:
    """Table II: CUDA on Summit's V100s."""
    return throughput_table(
        wl, SUMMIT, "CUDA, V100 Newton iterations/sec", [1, 2, 3, 5, 7], [1, 2, 3]
    )


def summit_kokkos_table(wl: LandauWorkload) -> ThroughputTable:
    """Table III: Kokkos-CUDA on Summit (portable-path kernel overhead)."""
    return throughput_table(
        wl,
        SUMMIT,
        "Kokkos-CUDA, V100 Newton iterations/sec",
        [1, 2, 3, 5, 7],
        [1, 2, 3],
        kernel_overhead=KOKKOS_KERNEL_OVERHEAD,
    )


def spock_hip_table(wl: LandauWorkload) -> ThroughputTable:
    """Table V: Kokkos-HIP on Spock's MI100s (rollover at 16 procs/GPU)."""
    return throughput_table(
        wl,
        SPOCK,
        "Kokkos-HIP, MI100 Newton iterations/sec",
        [1, 2, 4, 8],
        [1, 2],
        kernel_overhead=KOKKOS_KERNEL_OVERHEAD,
    )


@dataclass
class FugakuTable:
    """Table VI: per-process Jacobian/total times on one A64FX node."""

    procs: list[int]
    threads: list[int]
    jacobian_seconds: dict[tuple[int, int], float]  # (procs, threads) -> sec
    total_seconds: dict[int, float]  # procs (diagonal, 32 cores) -> sec
    throughput_best: float  # its/sec at (4 procs, 8 threads)

    def format(self) -> str:
        head = "#procs \\ threads " + "".join(f"{t:>8}" for t in self.threads)
        lines = ["Fugaku A64FX, 10-step Jacobian construction / total (sec)", head]
        for p in self.procs:
            cells = []
            for t in self.threads:
                v = self.jacobian_seconds.get((p, t))
                cells.append(f"{v:>8.1f}" if v is not None else f"{'-':>8}")
            lines.append(f"{p:>16} " + "".join(cells) + f"  | total {self.total_seconds[p]:>7.1f}")
        lines.append(f"best throughput: {self.throughput_best:.1f} Newton its/sec")
        return "\n".join(lines)


def fugaku_table(
    wl: LandauWorkload,
    time_steps: int = 10,
    total_cores: int = 32,
) -> FugakuTable:
    """Table VI: Kokkos-OpenMP on one Fugaku node.

    Each MPI process runs the whole problem; its Jacobian construction
    thread-scales ideally over its OpenMP threads (vector lanes map to SVE),
    while the factor/solve/other work stays single-threaded per process.
    """
    node = FUGAKU
    its = wl.newton_per_step * time_steps
    procs = [4, 8, 16, 32]
    threads = [8, 4, 2, 1]
    jac: dict[tuple[int, int], float] = {}
    tot: dict[int, float] = {}
    t_rest = wl.cpu_time(node.core)
    for p in procs:
        for t in threads:
            if p * t <= total_cores:
                jac[(p, t)] = its * wl.host_kernel_time(node.core, t, node.device)
        t_diag = total_cores // p
        tot[p] = jac[(p, t_diag)] + its * t_rest
    best_p, best_t = 4, 8
    throughput = best_p * its / tot[best_p]
    return FugakuTable(
        procs=procs,
        threads=threads,
        jacobian_seconds=jac,
        total_seconds=tot,
        throughput_best=throughput,
    )
