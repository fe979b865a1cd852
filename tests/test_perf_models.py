"""Performance models: MPS pipeline shapes, node specs, table generators.

The workload fixture is session-scoped (one functional kernel simulation of
the 9-species/80-cell problem per test run).
"""

import pytest

from repro.gpu.device import MI100, V100
from repro.perf import (
    FUGAKU,
    SPOCK,
    SUMMIT,
    MpsPipelineModel,
    build_paper_workload,
    component_table,
    fugaku_table,
    spock_hip_table,
    summit_cuda_table,
    summit_kokkos_table,
)
from repro.perf.nodes import KOKKOS_KERNEL_OVERHEAD
from repro.perf.summary import summary_table


@pytest.fixture(scope="session")
def workload():
    return build_paper_workload()


class TestNodes:
    def test_summit_layout(self):
        assert SUMMIT.gpus == 6
        assert SUMMIT.cores_per_gpu == 7
        assert SUMMIT.core.smt_levels == 4

    def test_spock_layout(self):
        assert SPOCK.gpus == 4
        assert SPOCK.device.name == "MI100"
        assert SPOCK.mps_contention > SUMMIT.mps_contention

    def test_smt_slowdown_monotone(self):
        s = SUMMIT.core
        vals = [s.slowdown(k) for k in range(1, 5)]
        assert all(vals[i] < vals[i + 1] for i in range(3))
        with pytest.raises(ValueError):
            s.slowdown(5)


class TestKokkosOverhead:
    def test_overhead_is_table7_kernel_ratio(self):
        """Table VII: 3.2 s Kokkos-CUDA vs 2.9 s CUDA kernel time."""
        assert KOKKOS_KERNEL_OVERHEAD == pytest.approx(3.2 / 2.9, abs=0.01)

    def test_kokkos_rows_scale_only_the_kernel(self, workload):
        by = {r.label: r for r in component_table(workload)}
        cuda, kk = by["CUDA"], by["Kokkos-CUDA"]
        assert kk.kernel == pytest.approx(KOKKOS_KERNEL_OVERHEAD * cuda.kernel)
        assert kk.factor == cuda.factor and kk.solve == cuda.solve

    def test_summary_kokkos_kernel_pct(self, workload):
        rows = summary_table(workload)
        assert rows[1].kernel_pct_cuda == pytest.approx(100.0 / KOKKOS_KERNEL_OVERHEAD)


class TestWorkload:
    def test_problem_size_matches_paper(self, workload):
        """10 species (e + D + 8 W), ~80 Q3 elements."""
        assert len(workload.species) == 10
        assert 70 <= workload.fs.nelem <= 96
        assert workload.species.quasineutral()

    def test_kernel_time_ordering(self, workload):
        """V100 < MI100 < host-OpenMP kernel time per iteration."""
        t_v = workload.kernel_time(V100)
        t_m = workload.kernel_time(MI100, overhead=1.10)
        t_f = workload.host_kernel_time(FUGAKU.core, 8, FUGAKU.device)
        assert t_v < t_m < t_f

    def test_mi100_vs_v100_ratio(self, workload):
        """Paper: MI100 kernel ~3.5x slower than V100 (10.2 s vs 2.9 s)."""
        ratio = workload.kernel_time(MI100, overhead=1.10) / workload.kernel_time(V100)
        assert 2.0 <= ratio <= 9.0

    def test_host_kernel_thread_scaling_ideal(self, workload):
        """Table VI top row: time inversely proportional to threads."""
        t1 = workload.host_kernel_time(FUGAKU.core, 1, FUGAKU.device)
        t8 = workload.host_kernel_time(FUGAKU.core, 8, FUGAKU.device)
        assert t1 / t8 == pytest.approx(8.0)

    def test_factor_dominates_cpu(self, workload):
        """Table VII: the factorization is the dominant CPU component."""
        core = SUMMIT.core
        assert workload.factor_time(core) > workload.solve_time(core)
        assert workload.factor_time(core) > workload.metadata_time(core)


class TestPipeline:
    def test_rank_scaling_linear_until_saturation(self, workload):
        m = MpsPipelineModel(SUMMIT, t_gpu=1e-3, t_cpu_base=5e-3)
        r1 = m.per_gpu_rate(1, 1)
        r7 = m.per_gpu_rate(7, 1)
        assert 5.0 <= r7 / r1 <= 7.0

    def test_second_thread_gains(self, workload):
        m = MpsPipelineModel(SUMMIT, t_gpu=1e-3, t_cpu_base=5e-3)
        r1 = m.per_gpu_rate(7, 1)
        r2 = m.per_gpu_rate(7, 2)
        r3 = m.per_gpu_rate(7, 3)
        assert 1.1 <= r2 / r1 <= 1.3  # paper: ~+24%
        assert 1.0 <= r3 / r2 <= 1.1  # paper: ~+2-3%

    def test_gpu_cap_binds_for_gpu_heavy_workload(self):
        m = MpsPipelineModel(SUMMIT, t_gpu=5e-3, t_cpu_base=1e-3)
        r = m.per_gpu_rate(7, 3)
        assert r <= SUMMIT.gpu_concurrency / 5e-3 + 1e-9

    def test_validation(self):
        m = MpsPipelineModel(SUMMIT, t_gpu=1e-3, t_cpu_base=1e-3)
        with pytest.raises(ValueError):
            m.per_gpu_rate(0, 1)
        with pytest.raises(ValueError):
            m.per_gpu_rate(9, 1)  # > cores per GPU


class TestTables:
    def test_table2_shape(self, workload):
        t = summit_cuda_table(workload)
        v = t.values
        # monotone in cores at fixed procs/core
        for row in v:
            assert all(row[i] < row[i + 1] for i in range(len(row) - 1))
        # second thread helps at every core count; third helps slightly
        assert all(v[1][c] > v[0][c] for c in range(5))
        assert all(v[2][c] >= 0.97 * v[1][c] for c in range(5))
        # near-linear scaling 1 -> 7 cores (paper: 849 -> 5504, i.e. 6.5x)
        assert 5.5 <= v[0][4] / v[0][0] <= 7.0

    def test_table3_kokkos_slightly_slower(self, workload):
        t2 = summit_cuda_table(workload)
        t3 = summit_kokkos_table(workload)
        assert t3.best <= t2.best
        assert t3.best >= 0.80 * t2.best  # paper: 6193/7005 = 88%

    def test_table5_rollover(self, workload):
        """Paper: Spock throughput 'rolls over with 16 processes per GPU'."""
        t = spock_hip_table(workload)
        v = t.values
        # 1 proc/core row grows through 8 cores
        assert v[0][3] > v[0][2] > v[0][1] > v[0][0]
        # 16 ranks (8 cores x 2) is WORSE than 8 ranks (8 cores x 1)
        assert v[1][3] < v[0][3]

    def test_table6_structure(self, workload):
        t = fugaku_table(workload)
        # top row: jacobian time doubles as threads halve
        j = t.jacobian_seconds
        assert j[(4, 4)] / j[(4, 8)] == pytest.approx(2.0)
        assert j[(4, 1)] / j[(4, 8)] == pytest.approx(8.0)
        # diagonal throughput ~ constant: total grows ~linearly with procs
        totals = [t.total_seconds[p] for p in (4, 8, 16, 32)]
        assert all(totals[i] < totals[i + 1] for i in range(3))
        rates = [p / t.total_seconds[p] for p in (4, 8, 16, 32)]
        assert max(rates) / min(rates) < 2.0

    def test_table7_orderings(self, workload):
        rows = component_table(workload)
        by = {r.label: r for r in rows}
        # CUDA kernel fastest; HIP kernel slower; Fugaku slowest
        assert by["CUDA"].kernel < by["Kokkos-CUDA"].kernel
        assert by["Kokkos-CUDA"].kernel < by["Kokkos-HIP"].kernel
        assert by["Kokkos-HIP"].kernel < by["Fugaku (normalized)"].kernel
        # Landau includes kernel + metadata
        for r in rows:
            assert r.landau >= r.kernel
            assert r.total > r.landau + r.factor

    def test_table8_summary(self, workload):
        rows = summary_table(workload)
        assert [r.machine_language for r in rows] == [
            "Summit / CUDA",
            "Summit / Kokkos-CUDA",
            "Spock / Kokkos-HIP",
            "Fugaku / Kokkos-OMP",
        ]
        assert rows[0].kernel_pct_cuda == 100.0
        # ordering of normalized kernel efficiency: CUDA > Kokkos-CUDA > HIP
        assert rows[0].kernel_pct_cuda > rows[1].kernel_pct_cuda
        assert rows[1].kernel_pct_cuda > rows[2].kernel_pct_cuda
        # throughputs ordered like the paper's 7005 > 6193 > 353 > 39
        assert rows[0].throughput >= rows[1].throughput
        assert rows[1].throughput > rows[2].throughput
        assert rows[2].throughput > rows[3].throughput
