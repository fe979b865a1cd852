"""The CUDA-model simulator: counters, blocks, memory traffic, atomics."""

import numpy as np
import pytest

from repro.gpu import A64FX, MI100, V100, Counters, CudaMachine
from repro.gpu.machine import ThreadBlock


class TestCounters:
    def test_flops_weighting(self):
        c = Counters(fma=10, mul=5, add=3, special=2)
        assert c.flops == 2 * 10 + 5 + 3 + 2
        assert c.fp64_instructions == 20
        assert c.dfma_fraction == pytest.approx(0.5)

    def test_issue_slots_weight_specials(self):
        c = Counters(fma=10, special=2)
        assert c.issue_slots == 10 + 8.0

    def test_arithmetic_intensity(self):
        c = Counters(fma=100, dram_read_bytes=50, dram_write_bytes=50)
        assert c.arithmetic_intensity == pytest.approx(2.0)
        assert Counters(fma=1).arithmetic_intensity == float("inf")

    def test_snapshot_diff(self):
        c = Counters(fma=5, atomic_adds=2)
        snap = c.snapshot()
        c.fma += 3
        d = c.diff(snap)
        assert d.fma == 3 and d.atomic_adds == 0


class TestDevices:
    def test_v100_roofline_knee(self):
        """Paper: 'the AI roofline turning point is at 8.8' on V100."""
        assert V100.roofline_knee == pytest.approx(8.8, abs=0.05)

    def test_v100_specs(self):
        assert V100.sm_count == 80
        assert V100.peak_fp64_tflops == 7.8
        assert V100.pipe_utilization == pytest.approx(0.664)

    def test_mi100_no_fp64_atomics(self):
        assert not MI100.fp64_global_atomics
        assert MI100.peak_fp64_tflops == 11.5

    def test_a64fx_vector_lanes(self):
        assert A64FX.warp_size == 8
        assert A64FX.software_efficiency == pytest.approx(1 / 8.5)


class TestMachine:
    def test_launch_runs_all_blocks(self):
        m = CudaMachine(V100)
        seen = []

        def kernel(tb, b):
            seen.append(b)
            tb.count(fma=1)

        m.launch(kernel, 5, (4, 4))
        assert seen == list(range(5))
        assert m.counters.blocks_executed == 5
        assert m.counters.kernel_launches == 1
        assert m.counters.fma == 5

    def test_block_size_limit(self):
        m = CudaMachine(V100)
        with pytest.raises(ValueError):
            m.launch(lambda tb, b: None, 1, (64, 64))

    def test_invalid_grid(self):
        m = CudaMachine(V100)
        with pytest.raises(ValueError):
            m.launch(lambda tb, b: None, 0, (4, 4))

    def test_memory_counters(self):
        m = CudaMachine(V100)

        def kernel(tb, b):
            tb.global_read(10)
            tb.global_write(5)
            tb.shared_write(3)
            tb.shared_read(3)

        m.launch(kernel, 2, (4, 4))
        assert m.counters.dram_read_bytes == 2 * 10 * 8
        assert m.counters.dram_write_bytes == 2 * 5 * 8
        assert m.counters.shared_bytes == 2 * 6 * 8

    def test_atomic_add_correct_and_counted(self):
        c = Counters()
        tb = ThreadBlock(0, 16, 16, c, V100)
        target = np.zeros(4)
        tb.atomic_add(target, np.array([0, 1, 1]), np.array([1.0, 2.0, 3.0]))
        assert np.allclose(target, [1.0, 5.0, 0.0, 0.0])
        assert c.atomic_adds == 3

    @pytest.mark.parametrize("device", [V100, MI100], ids=lambda d: d.name)
    def test_atomic_traffic_split_by_l1_hit(self, device):
        """Each atomic moves its datum through DRAM except the L1-absorbed
        share, plus 16 bytes of index metadata through L1."""
        c = Counters()
        tb = ThreadBlock(0, 16, 16, c, device)
        n = 100
        tb.atomic_add(np.zeros(n), np.arange(n), np.ones(n))
        hit = device.atomic_l1_hit
        assert c.dram_read_bytes == int(n * 8 * (1.0 - hit))
        assert c.dram_write_bytes == int(n * 8 * (1.0 - hit)) + n
        assert c.shared_write_bytes == int(n * 8 * hit)
        assert c.shared_read_bytes == int(n * 16 * hit) + n * 16

    def test_barriers_and_geometry_per_block(self):
        m = CudaMachine(V100)
        seen = []

        def kernel(tb, b):
            seen.append((tb.block_id, tb.dim_x, tb.dim_y, tb.device.name))
            tb.syncthreads()
            tb.syncthreads()

        m.launch(kernel, 3, (8, 16))
        assert seen == [(b, 8, 16, "V100") for b in range(3)]
        assert m.counters.syncthreads == 6
