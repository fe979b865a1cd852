"""Algorithm 1 on the simulated device: exactness vs the CPU reference,
block configuration, mass kernel, counters."""

import dataclasses
import hashlib

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


# Every counter and the exact Jacobian/mass bytes of one build + build_mass,
# pinned per species set: the performance tables are these counts turned
# into device times, so a change to the kernel body that moves any of them
# must show up here, not only as a drifted table row.
_PINNED = {
    "e": (
        dict(fma=5570560, mul=3475200, add=2055680, special=409600,
             dram_read_bytes=324300, dram_write_bytes=14540,
             shared_read_bytes=2664020, shared_write_bytes=354080,
             atomic_adds=5120, warp_shuffles=7680, syncthreads=440,
             kernel_launches=1, blocks_executed=20),
        dict(fma=245760, mul=5440, add=0, special=0,
             dram_read_bytes=11980, dram_write_bytes=14540,
             shared_read_bytes=1455700, shared_write_bytes=31520,
             atomic_adds=5120, warp_shuffles=0, syncthreads=0,
             kernel_launches=1, blocks_executed=20),
        "a309ab31562f3955e0be4ec5cec2186c08bc15576d0b4c924c7606691b6a69b2",
        "e353275d1b7b9f1ffba4f966a4b7bb057e8d9b25131ca4f3d2dfee32515ee79e",
    ),
    "ed": (
        dict(fma=44613632, mul=27001856, add=16077824, special=3211264,
             dram_read_bytes=3686928, dram_write_bytes=81424,
             shared_read_bytes=16810920, shared_write_bytes=3875256,
             atomic_adds=28672, warp_shuffles=21504, syncthreads=3248,
             kernel_launches=1, blocks_executed=56),
        dict(fma=688128, mul=15232, add=0, special=0,
             dram_read_bytes=59920, dram_write_bytes=81424,
             shared_read_bytes=4481960, shared_write_bytes=176568,
             atomic_adds=28672, warp_shuffles=0, syncthreads=0,
             kernel_launches=1, blocks_executed=56),
        "4919563bd566c9e28492c64d20376147160359590b4eeac969b9a83f383ce97c",
        "2fa7d6c005d41e4b44221d1795c07b67bc3518d7bd57f94b3438bf8e4172e4fc",
    ),
}


@pytest.mark.parametrize("system", ["e", "ed"])
def test_counters_and_bytes_pinned(system, request):
    if system == "e":
        fs = request.getfixturevalue("fs_q3")
        spc = request.getfixturevalue("electron_species")
        fields = [request.getfixturevalue("electron_maxwellian")]
    else:
        fs = request.getfixturevalue("ed_fs")
        spc = request.getfixturevalue("ed_species")
        fields = request.getfixturevalue("ed_maxwellians")
    jac_counts, mass_counts, jac_sha, mass_sha = _PINNED[system]
    m = CudaMachine(V100)
    ck = CudaLandauJacobian(fs, spc, machine=m)
    J = ck.build(fields)
    after_jac = m.counters.snapshot()
    M = ck.build_mass()
    assert dataclasses.asdict(after_jac) == jac_counts
    assert dataclasses.asdict(m.counters.diff(after_jac)) == mass_counts
    assert hashlib.sha256(J.tobytes()).hexdigest() == jac_sha
    assert hashlib.sha256(M.tobytes()).hexdigest() == mass_sha


def _atomic_bytes(kd, S, device, shared_read):
    """The L1 share of the per-element atomic scatters (machine.atomic_add)."""
    hit = device.atomic_l1_hit
    total = 0
    for t in kd.elem_targets:
        n = S * len(t) ** 2
        total += int(n * 2 * 8 * hit) + n * 2 * 8 if shared_read else int(n * 8 * hit)
    return total


class TestAlgorithmStructure:
    """The inline steps of Algorithm 1, counted per block: one barrier per
    staged chunk plus two (after the shuffle, after the KK/DD staging), a
    butterfly of ceil(log2 chunk) rounds over the 6 unique G components of
    every integration point, and the KK/DD coefficients written to shared
    memory once and replayed for every basis row."""

    @pytest.fixture(scope="class")
    def electron_fields(self, fs_q3, electron_species):
        return [fs_q3.interpolate(species_maxwellian(electron_species[0]))]

    def _build(self, fs, spc, fields, block_x):
        m = CudaMachine(V100)
        ck = CudaLandauJacobian(fs, spc, machine=m, block_x=block_x)
        J = ck.build(fields)
        return m.counters, ck.kd, J

    # 13 leaves a ragged last chunk of the 320 integration points
    @pytest.mark.parametrize("block_x", [1, 8, 13, 16])
    def test_one_barrier_per_chunk_plus_two(
        self, fs_q3, electron_species, electron_fields, block_x
    ):
        c, kd, _ = self._build(fs_q3, electron_species, electron_fields, block_x)
        chunks = -(-kd.N // block_x)
        assert c.syncthreads == kd.nelem * (chunks + 2)

    @pytest.mark.parametrize("block_x", [1, 8, 13, 16])
    def test_shuffle_rounds_are_log2_chunk(
        self, fs_q3, electron_species, electron_fields, block_x
    ):
        c, kd, _ = self._build(fs_q3, electron_species, electron_fields, block_x)
        rounds = int(np.ceil(np.log2(block_x))) if block_x > 1 else 0
        assert c.warp_shuffles == kd.nelem * rounds * kd.nq * 6

    def test_ragged_chunk_matches_reference(
        self, fs_q3, electron_species, electron_fields, electron_operator
    ):
        _, kd, J = self._build(fs_q3, electron_species, electron_fields, 13)
        assert kd.N % 13 != 0
        ref = electron_operator.jacobian(electron_fields)[0].toarray()
        assert np.allclose(J[0], ref, atol=1e-12 * max(np.abs(ref).max(), 1))

    def test_shared_writes_stage_chunks_and_kk_dd_once(self, setup):
        fs, spc, op, fields = setup
        c, kd, _ = self._build(fs, spc, fields, None)
        S = len(spc)
        per_block = (3 + 3 * S) * kd.N + S * kd.nq * 6
        expected = 8 * kd.nelem * per_block + _atomic_bytes(kd, S, V100, False)
        assert c.shared_write_bytes == expected

    def test_shared_reads_replay_kk_dd_per_basis_row(self, setup):
        fs, spc, op, fields = setup
        c, kd, _ = self._build(fs, spc, fields, None)
        S, nq, nb = len(spc), kd.nq, kd.nb
        per_block = (3 + 3 * S) * kd.N + S * nq * 6 * nb + S * nq * nb * nb * 3
        expected = 8 * kd.nelem * per_block + _atomic_bytes(kd, S, V100, True)
        assert c.shared_read_bytes == expected


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
