"""The GPU-model band solver (sec. III-G, artifact repo)."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.gpu import CudaMachine, V100
from repro.sparse import GpuBandSolver
from tests.test_band import random_banded


@pytest.fixture(scope="module")
def landau_block_system(ed_operator, ed_maxwellians):
    op = ed_operator
    L = op.jacobian(ed_maxwellians)
    blocks = [(op.mass_matrix - 0.1 * Ls).tocsr() for Ls in L]
    A = sp.block_diag(blocks).tocsr()
    rng = np.random.default_rng(0)
    return A, rng.normal(size=A.shape[0])


class TestGpuBandSolver:
    def test_matches_direct(self, landau_block_system):
        A, b = landau_block_system
        solver = GpuBandSolver(A)
        x = solver(b)
        assert np.linalg.norm(A @ x - b) / np.linalg.norm(b) < 1e-9
        assert solver.nblocks == 2  # species blocks discovered

    def test_sync_chain_counted(self, landau_block_system):
        """One group sync per elimination step: the serial critical path."""
        A, b = landau_block_system
        m = CudaMachine(V100)
        solver = GpuBandSolver(A, machine=m)
        # n-1 factor steps per block
        expect = sum(bm.n - 1 for _, bm, _, _ in solver.blocks)
        assert solver.profile.steps == expect
        assert m.counters.syncthreads >= expect

    def test_gpu_no_faster_than_cpu_at_landau_sizes(self, landau_block_system):
        """The paper's finding: the custom GPU LU 'is no faster than the
        CPU solver'.  The sync chain dominates the predicted device time;
        it exceeds the pure-work time by a large factor."""
        A, b = landau_block_system
        solver = GpuBandSolver(A)
        prof = solver.profile
        t_pred = prof.predicted_time(V100)
        work_only = prof.counters.issue_slots / (
            V100.peak_issue_slots * V100.pipe_utilization
        )
        assert t_pred > 3.0 * work_only  # latency-bound, not work-bound
        # and the sync chain is the dominant term
        assert prof.steps * 1.5e-6 > 0.5 * t_pred

    def test_rhs_validation(self, landau_block_system):
        A, _ = landau_block_system
        with pytest.raises(ValueError):
            GpuBandSolver(A).solve(np.ones(3))

    def test_small_random_system(self):
        A = random_banded(40, 4, seed=3)
        rng = np.random.default_rng(4)
        b = rng.normal(size=40)
        x = GpuBandSolver(A)(b)
        assert np.linalg.norm(A @ x - b) / np.linalg.norm(b) < 1e-11
