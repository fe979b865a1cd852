"""Nsight-Compute-style kernel analysis from the simulator's counters.

Given the exact work counts of a kernel and a device description, this
module produces the quantities of Table IV — arithmetic intensity, percent
of roofline, the bottleneck resource and its utilization — and the
predicted device time used by the throughput model of Tables II-VIII.

Time model (three-resource bottleneck):

    t_compute = issue_slots / (peak_slots * pipe_utilization)
    t_dram    = dram_bytes  / (dram_peak * mem_efficiency)
    t_l1      = shared+L1 bytes / (l1_peak * l1_efficiency)
    t_atomic  = atomics * atomic_ns            (serialization tail)
    t_kernel  = max(t_compute, t_dram, t_l1) + t_atomic + launch overhead
    t_kernel /= software_efficiency            (toolchain maturity)

Everything on the left of the max comes from counted work; the efficiency
constants are device calibration documented in :mod:`repro.gpu.device`.
"""

from __future__ import annotations

from dataclasses import dataclass

from .counters import Counters
from .device import DeviceSpec


@dataclass
class KernelProfile:
    """The per-kernel analysis record."""

    name: str
    device: DeviceSpec
    counters: Counters
    time_s: float
    t_compute: float
    t_dram: float
    t_l1: float
    t_atomic: float
    bottleneck: str
    bottleneck_utilization: float

    @property
    def arithmetic_intensity(self) -> float:
        return self.counters.arithmetic_intensity

    @property
    def roofline_fraction(self) -> float:
        """Achieved flops over the roofline ceiling at this kernel's AI."""
        ai = self.arithmetic_intensity
        peak = self.device.peak_fp64_flops
        ceiling = min(peak, ai * self.device.dram_peak_gbs * 1e9)
        return self.counters.flops / self.time_s / ceiling if self.time_s else 0.0


def profile_kernel(
    name: str, counters: Counters, device: DeviceSpec, launches: int | None = None
) -> KernelProfile:
    """Analyze a kernel's counted work on a device."""
    c = counters
    t_compute = c.issue_slots / (device.peak_issue_slots * device.pipe_utilization)
    t_dram = c.dram_bytes / (device.dram_peak_gbs * 1e9 * device.mem_efficiency)
    t_l1 = c.shared_bytes / (device.l1_peak_gbs * 1e9 * device.l1_efficiency)
    if device.fp64_global_atomics:
        t_atomic = c.atomic_adds * device.atomic_ns * 1e-9 / max(device.sm_count, 1)
    else:
        # software (CAS-loop) atomics serialize much harder
        t_atomic = c.atomic_adds * device.atomic_ns * 1e-9 / max(device.sm_count // 8, 1)
    nl = launches if launches is not None else c.kernel_launches
    t_launch = nl * device.kernel_launch_us * 1e-6
    body = max(t_compute, t_dram, t_l1)
    time_s = (body + t_atomic) / device.software_efficiency + t_launch
    if body == t_compute:
        bottleneck = "FP64 pipe"
        util = device.pipe_utilization
    elif body == t_dram:
        bottleneck = "DRAM"
        util = device.mem_efficiency
    else:
        bottleneck = "L1 cache"
        util = device.l1_efficiency
    return KernelProfile(
        name=name,
        device=device,
        counters=c,
        time_s=time_s,
        t_compute=t_compute,
        t_dram=t_dram,
        t_l1=t_l1,
        t_atomic=t_atomic,
        bottleneck=bottleneck,
        bottleneck_utilization=util,
    )


def roofline_report(profiles: list[KernelProfile]) -> str:
    """Format Table IV: AI, % roofline, bottleneck (utilization)."""
    lines = [
        f"{'kernel':<12} {'AI':>6} {'% roofline':>11} {'bottleneck (utilization)':>28}"
    ]
    for p in profiles:
        lines.append(
            f"{p.name:<12} {p.arithmetic_intensity:>6.1f} "
            f"{100.0 * p.roofline_fraction:>10.0f}% "
            f"{p.bottleneck + f' ({100.0 * p.bottleneck_utilization:.1f}%)':>28}"
        )
    return "\n".join(lines)
