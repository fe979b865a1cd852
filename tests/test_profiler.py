"""Roofline profiler: Table IV quantities from counted work."""

import numpy as np
import pytest

from repro.gpu import Counters, V100, MI100, profile_kernel, roofline_report
from repro.gpu.device import DeviceSpec


def compute_bound_counters() -> Counters:
    """A kernel shaped like the Landau Jacobian: high AI, FMA-heavy."""
    return Counters(
        fma=int(6e7),
        mul=int(3e7),
        add=int(2e7),
        special=int(4e6),
        dram_read_bytes=int(1e7),
        dram_write_bytes=int(1e6),
        shared_read_bytes=int(4e7),
        shared_write_bytes=int(1e6),
        kernel_launches=1,
    )


def memory_bound_counters() -> Counters:
    """A kernel shaped like the mass/assembly pass: low AI, L1-heavy."""
    return Counters(
        fma=int(1e6),
        dram_read_bytes=int(3e6),
        dram_write_bytes=int(3e6),
        shared_read_bytes=int(6e7),
        atomic_adds=int(2e5),
        kernel_launches=1,
    )


class TestProfile:
    def test_compute_bound_identified(self):
        p = profile_kernel("jac", compute_bound_counters(), V100)
        assert p.bottleneck == "FP64 pipe"
        assert p.arithmetic_intensity > V100.roofline_knee
        assert 0.2 < p.roofline_fraction < 0.8

    def test_memory_bound_identified(self):
        p = profile_kernel("mass", memory_bound_counters(), V100)
        assert p.bottleneck == "L1 cache"
        assert p.arithmetic_intensity < V100.roofline_knee

    def test_time_components_positive(self):
        p = profile_kernel("jac", compute_bound_counters(), V100)
        assert p.time_s > 0
        assert p.t_compute > 0 and p.t_dram > 0

    def test_mi100_slower_normalized(self):
        """The same counted kernel runs slower on MI100 despite the higher
        peak (atomics + software efficiency), as the paper observed."""
        c = compute_bound_counters()
        c.atomic_adds = int(3e5)
        t_v = profile_kernel("jac", c, V100).time_s
        t_m = profile_kernel("jac", c, MI100).time_s
        assert t_m > t_v

    def test_time_is_bottleneck_plus_atomic_tail(self):
        c = memory_bound_counters()
        p = profile_kernel("mass", c, V100)
        body = max(p.t_compute, p.t_dram, p.t_l1)
        launch = V100.kernel_launch_us * 1e-6
        assert p.t_l1 == body
        assert p.t_atomic > 0
        assert p.time_s == pytest.approx(
            (body + p.t_atomic) / V100.software_efficiency + launch
        )
        assert p.bottleneck_utilization == V100.l1_efficiency

    def test_launches_override_counted_launches(self):
        c = compute_bound_counters()
        p1 = profile_kernel("jac", c, V100)
        p10 = profile_kernel("jac", c, V100, launches=10)
        assert p10.time_s - p1.time_s == pytest.approx(
            9 * V100.kernel_launch_us * 1e-6
        )

    def test_dram_bound_identified(self):
        c = Counters(fma=int(1e5), dram_read_bytes=int(1e9), kernel_launches=1)
        p = profile_kernel("stream", c, V100)
        assert p.bottleneck == "DRAM"
        assert p.bottleneck_utilization == V100.mem_efficiency
        # below the knee the ceiling is bandwidth, and it is not exceeded
        assert 0 < p.roofline_fraction <= 1.0

    def test_report_format(self):
        ps = [
            profile_kernel("Jacobian", compute_bound_counters(), V100),
            profile_kernel("Mass", memory_bound_counters(), V100),
        ]
        txt = roofline_report(ps)
        assert "Jacobian" in txt and "Mass" in txt
        assert "FP64 pipe" in txt and "L1 cache" in txt


class TestTable4EndToEnd:
    """The actual Table IV run: counted kernels on the 9-species problem."""

    @pytest.fixture(scope="class")
    def profiles(self):
        from repro.core.kernel_cuda import CudaLandauJacobian
        from repro.core.maxwellian import species_maxwellian
        from repro.gpu import CudaMachine
        from repro.perf.workload import build_paper_species
        from repro.amr import landau_mesh
        from repro.fem import FunctionSpace

        spc = build_paper_species()
        # a reduced (electron + D scale only) mesh keeps this test quick;
        # AI is insensitive to the cell count
        mesh = landau_mesh([spc[0].thermal_velocity, spc[1].thermal_velocity])
        fs = FunctionSpace(mesh, order=3)
        fields = [fs.interpolate(species_maxwellian(s)) for s in spc]
        mj = CudaMachine(V100)
        CudaLandauJacobian(fs, spc, machine=mj).build(fields)
        mm = CudaMachine(V100)
        CudaLandauJacobian(fs, spc, machine=mm).build_mass()
        return (
            profile_kernel("Jacobian", mj.counters, V100),
            profile_kernel("Mass", mm.counters, V100),
        )

    def test_jacobian_high_ai_compute_bound(self, profiles):
        """Paper: AI = 15.8, FP64-pipe bound."""
        pj, _ = profiles
        assert 10.0 <= pj.arithmetic_intensity <= 22.0
        assert pj.bottleneck == "FP64 pipe"

    def test_mass_low_ai_not_compute_bound(self, profiles):
        """Paper: AI = 1.8, L1-latency bound."""
        _, pm = profiles
        assert pm.arithmetic_intensity <= 4.0
        assert pm.bottleneck in ("L1 cache", "DRAM")

    def test_dfma_fraction_near_paper(self, profiles):
        """Paper: 64% of FP64 instructions were DFMA."""
        pj, _ = profiles
        assert 0.5 <= pj.counters.dfma_fraction <= 0.75

    def test_jacobian_roofline_fraction(self, profiles):
        """Paper: 53% of roofline; ours lands in the same regime."""
        pj, _ = profiles
        assert 0.25 <= pj.roofline_fraction <= 0.70
