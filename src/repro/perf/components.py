"""Table VII: component times per machine/language for one full run.

"Table VII reports timings for the single process per GPU case ... The
Landau matrix construction and the LU factorization and solve are the major
components to the total cost."  Components per run (iterations_per_run x
per-iteration time): Total, Landau (kernel + CPU metadata), (Kernel),
factor, solve.
"""

from __future__ import annotations

from dataclasses import dataclass

from .nodes import FUGAKU, KOKKOS_KERNEL_OVERHEAD, SPOCK, SUMMIT, NodeSpec
from .workload import LandauWorkload


@dataclass
class ComponentRow:
    label: str
    total: float
    landau: float
    kernel: float
    factor: float
    solve: float

    def format(self) -> str:
        return (
            f"{self.label:<22} {self.total:>7.1f} {self.landau:>7.1f} "
            f"{self.kernel:>8.1f} {self.factor:>7.1f} {self.solve:>6.2f}"
        )


def component_times(
    wl: LandauWorkload,
    node: NodeSpec,
    label: str,
    kernel_overhead: float = 1.0,
    host_kernel_threads: int | None = None,
) -> ComponentRow:
    """One machine/language row (seconds for the whole run)."""
    its = wl.iterations_per_run
    if host_kernel_threads is None:
        t_kernel = wl.kernel_time(node.device, overhead=kernel_overhead)
    else:
        t_kernel = wl.host_kernel_time(node.core, host_kernel_threads, node.device)
    t_meta = wl.metadata_time(node.core)
    t_factor = wl.factor_time(node.core)
    t_solve = wl.solve_time(node.core)
    t_other = wl.other_time(node.core)
    total = its * (t_kernel + t_meta + t_factor + t_solve + t_other)
    return ComponentRow(
        label=label,
        total=total,
        landau=its * (t_kernel + t_meta),
        kernel=its * t_kernel,
        factor=its * t_factor,
        solve=its * t_solve,
    )


def component_table(wl: LandauWorkload) -> list[ComponentRow]:
    """All four rows of Table VII.

    The Fugaku row is normalized the way the paper normalizes it: measured
    on a 10-step run and scaled to the 100-step workload (x10).
    """
    rows = [
        component_times(wl, SUMMIT, "CUDA"),
        component_times(
            wl, SUMMIT, "Kokkos-CUDA", kernel_overhead=KOKKOS_KERNEL_OVERHEAD
        ),
        component_times(
            wl, SPOCK, "Kokkos-HIP", kernel_overhead=KOKKOS_KERNEL_OVERHEAD
        ),
        component_times(
            wl, FUGAKU, "Fugaku (normalized)", host_kernel_threads=8
        ),
    ]
    return rows


def format_component_table(rows: list[ComponentRow]) -> str:
    head = (
        f"{'Device':<22} {'Total':>7} {'Landau':>7} {'(Kernel)':>8} "
        f"{'factor':>7} {'solve':>6}"
    )
    return "\n".join([head] + [r.format() for r in rows])
