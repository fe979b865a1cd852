"""Algorithm 1 on the simulated device: exactness vs the CPU reference,
block configuration, mass kernel, counters."""

import numpy as np
import pytest

from repro.core import LandauOperator, SpeciesSet, deuterium, electron
from repro.core.kernel_cuda import CudaLandauJacobian, KernelData
from repro.core.maxwellian import species_maxwellian
from repro.gpu import CudaMachine, V100


@pytest.fixture(scope="module")
def setup(ed_fs_module):
    fs, spc = ed_fs_module
    op = LandauOperator(fs, spc)
    fields = [fs.interpolate(species_maxwellian(s)) for s in spc]
    return fs, spc, op, fields


@pytest.fixture(scope="module")
def ed_fs_module():
    from repro.amr import landau_mesh
    from repro.fem import FunctionSpace

    spc = SpeciesSet([electron(), deuterium()])
    mesh = landau_mesh([s.thermal_velocity for s in spc])
    return FunctionSpace(mesh, order=3), spc


class TestBlockConfig:
    def test_paper_block_shape(self, ed_fs_module):
        """Q3: 16 integration points -> 16x16 = 256-thread blocks."""
        fs, spc = ed_fs_module
        ck = CudaLandauJacobian(fs, spc)
        assert ck.block == (16, 16)
        assert ck.block[0] * ck.block[1] <= 256

    def test_q2_block_shape(self, ed_fs_module):
        from repro.fem import FunctionSpace

        fs, spc = ed_fs_module
        fs2 = FunctionSpace(fs.mesh, order=2)
        ck = CudaLandauJacobian(fs2, spc)
        # 9 IPs; x chosen as power of two with total <= 256
        assert ck.block[1] == 9
        assert ck.block[0] & (ck.block[0] - 1) == 0
        assert ck.block[0] * ck.block[1] <= 256


class TestExactness:
    def test_jacobian_matches_reference(self, setup):
        fs, spc, op, fields = setup
        ref = op.jacobian(fields)
        J = CudaLandauJacobian(fs, spc, machine=CudaMachine(V100)).build(fields)
        for s in range(len(spc)):
            dense = ref[s].toarray()
            assert np.allclose(J[s], dense, atol=1e-12 * max(np.abs(dense).max(), 1))

    def test_chunk_width_does_not_change_result(self, setup):
        fs, spc, op, fields = setup
        J16 = CudaLandauJacobian(fs, spc, block_x=16).build(fields)
        J64 = CudaLandauJacobian(fs, spc, block_x=64).build(fields)
        assert np.allclose(J16, J64, atol=1e-11 * max(np.abs(J16).max(), 1))

    def test_mass_matches_reference(self, setup):
        fs, spc, op, fields = setup
        M = CudaLandauJacobian(fs, spc).build_mass(shift=1.0)
        ref = op.mass_matrix.toarray()
        for s in range(len(spc)):
            assert np.allclose(M[s], ref, atol=1e-13)

    def test_mass_shift(self, setup):
        fs, spc, op, fields = setup
        ck = CudaLandauJacobian(fs, spc)
        M1 = ck.build_mass(shift=1.0)
        M2 = ck.build_mass(shift=2.5)
        assert np.allclose(M2, 2.5 * M1, atol=1e-12)


class TestCounters:
    def test_tensor_count_scales_as_N_squared(self, setup):
        """The inner integral evaluates exactly N_q * N tensors per element:
        total FMA ~ N^2 (the O(N^2) complexity the paper mitigates)."""
        fs, spc, op, fields = setup
        m = CudaMachine(V100)
        CudaLandauJacobian(fs, spc, machine=m).build(fields)
        from repro.backend.kernel_spec import TENSOR_FMA

        N = fs.n_integration_points
        expected_tensor_fma = TENSOR_FMA * N * N
        assert m.counters.fma > expected_tensor_fma  # tensor + beta + accum
        assert m.counters.fma < 3 * expected_tensor_fma

    def test_atomics_counted(self, setup):
        fs, spc, op, fields = setup
        m = CudaMachine(V100)
        CudaLandauJacobian(fs, spc, machine=m).build(fields)
        kd = KernelData.build(fs, spc)
        expected = sum(
            len(spc) * len(t) ** 2 for t in kd.elem_targets
        )
        assert m.counters.atomic_adds == expected

    def test_launch_counted(self, setup):
        fs, spc, op, fields = setup
        m = CudaMachine(V100)
        ck = CudaLandauJacobian(fs, spc, machine=m)
        ck.build(fields)
        ck.build_mass()
        assert m.counters.kernel_launches == 2
        assert m.counters.blocks_executed == 2 * fs.nelem

    def test_dram_traffic_linear_in_N_per_block(self, setup):
        """SoA staging reads (3 + 3S) N doubles per block."""
        fs, spc, op, fields = setup
        m = CudaMachine(V100)
        CudaLandauJacobian(fs, spc, machine=m).build(fields)
        N, S, ne = fs.n_integration_points, len(spc), fs.nelem
        staged = ne * (3 + 3 * S) * N * 8
        assert m.counters.dram_read_bytes >= staged
        assert m.counters.dram_read_bytes < 2.0 * staged + ne * 16 * 200


class TestKernelData:
    def test_constraint_distribution_consistent(self, setup):
        """Per-element distribution matrices reproduce P restricted to the
        element's nodes."""
        fs, spc, op, fields = setup
        kd = KernelData.build(fs, spc)
        P = fs.dofmap.P.toarray()
        for e in [0, fs.nelem // 2, fs.nelem - 1]:
            nodes = fs.dofmap.cell_nodes[e]
            sub = P[nodes][:, kd.elem_targets[e]]
            assert np.allclose(sub, kd.elem_P[e])

    def test_soa_arrays(self, setup):
        fs, spc, op, fields = setup
        kd = KernelData.build(fs, spc)
        assert kd.r.shape == (fs.n_integration_points,)
        assert np.all(kd.w > 0)
        assert kd.charges.shape == (2,)
