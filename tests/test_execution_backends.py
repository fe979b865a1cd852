"""The executor's einsum path planning, the batched implicit step on a
quench vertex through the on-the-fly field launch, and the
launch-reduction zero-launch regression."""

import time

import numpy as np
import pytest

from repro.core import AssemblyOptions, LandauOperator
from repro.core.batch import BatchedVertexSolver, BatchStats
from repro.core.maxwellian import maxwellian_rz, species_maxwellian
from repro.fem import FunctionSpace
from repro.serve import SolveJob, SolvePlan
from repro.serve.metrics import ShardMetrics
from repro.serve.shard import ShardWorker


class TestBackendPrimitives:
    def test_contraction_planned_once_per_key(
        self, fs_q2, fs_q3, electron_species, monkeypatch
    ):
        """The assembly contractions plan their path once per (spec,
        operand shapes) and give what the planning call gives."""
        from repro.backend import numpy_backend

        numpy_backend._einsum_path.cache_clear()
        planned = []
        real = np.einsum_path

        def counting(spec, *ops, **kw):
            planned.append((spec, tuple(op.shape for op in ops)))
            return real(spec, *ops, **kw)

        monkeypatch.setattr(np, "einsum_path", counting)
        limit = numpy_backend.EINSUM_INTERMEDIATE_LIMIT
        rng = np.random.default_rng(5)
        keys = set()
        for fs in (fs_q2, fs_q3):
            sm = LandauOperator(fs, electron_species).scatter_map
            ne, nq = fs.qweights.shape
            w, g = fs.qweights, sm.gphys
            for X in (1, 5, 8, 5, 1):
                G_D = rng.normal(size=(X, ne, nq, 2, 2))
                G_K = rng.normal(size=(X, ne, nq, 2))
                for spec, ops in (
                    ("eq,eqad,xeqdc,eqbc->xeab", (w, g, G_D, g)),
                    ("eq,eqad,xeqd,qb->xeab", (w, g, G_K, fs.B)),
                ):
                    keys.add((spec, tuple(o.shape for o in ops)))
                    got = numpy_backend.einsum(spec, *ops)
                    ref = np.einsum(spec, *ops, optimize=("greedy", limit))
                    assert np.array_equal(got, ref)
        assert sorted(planned) == sorted(keys) and len(keys) == 12


@pytest.fixture(scope="module")
def quench_fields(ed_fs, ed_species):
    """A thermal-quench vertex: electrons cooled to 70% of their thermal
    speed with a small flow, cold bulk deuterium unchanged."""
    e, d = ed_species[0], ed_species[1]
    fe = ed_fs.interpolate(
        lambda r, z: maxwellian_rz(r, z - 0.1, 1.0, 0.7 * e.thermal_velocity)
    )
    fd = ed_fs.interpolate(species_maxwellian(d))
    return [fe, fd]


class TestQuenchEquivalence:
    """The batched implicit step with fields launched on the fly matches
    the step on the cached response tables to <= 1e-12.  The cached
    reference runs on a new space of the same mesh."""

    @pytest.mark.parametrize(
        "options",
        [
            pytest.param(AssemblyOptions(cache_pair_tables=False), id="tables-off"),
            pytest.param(AssemblyOptions(memory_budget=200_000), id="budget-chunked"),
        ],
    )
    def test_batched_step_matches(self, ed_fs, ed_species, quench_fields, options):
        states = np.stack(
            [
                np.stack(quench_fields),
                np.stack([0.9 * quench_fields[0], quench_fields[1]]),
            ]
        )
        ref = BatchedVertexSolver(
            FunctionSpace(ed_fs.mesh, order=3), ed_species, rtol=1e-9
        )
        bs = BatchedVertexSolver(ed_fs, ed_species, options=options, rtol=1e-9)
        assert ref.op.pair_tables_cached and not bs.op.pair_tables_cached
        out_ref = ref.step(states, dt=0.05)
        out = bs.step(states, dt=0.05)
        assert np.all(bs.last_converged)
        scale = np.abs(out_ref).max()
        assert np.abs(out - out_ref).max() <= 1e-12 * scale


class TestLaunchReductionRegression:
    """field_launches == 0 must report a reduction of 0.0, not divide."""

    def test_batch_stats_zero_launches(self):
        assert BatchStats().launch_reduction == 0.0
        st = BatchStats(field_launches=4, equivalent_unbatched_launches=12)
        assert st.launch_reduction == 3.0

    def test_shed_only_batch_reports_zero_reduction(self, fs_q2, electron_species):
        """A shard whose one batch was shed before launching reports a
        launch reduction of 0.0 in its books."""
        plan = SolvePlan(fs=fs_q2, species=electron_species, dt=0.1)
        job = SolveJob(
            plan=plan,
            state=np.zeros((1, fs_q2.ndofs)),
            deadline=time.monotonic() - 1.0,
        )
        results, delta = ShardWorker(shard_id=0).execute_batch([job])
        books = ShardMetrics()
        books.record(results, delta)
        solver = books.snapshot()["solver"]
        assert solver["field_launches"] == 0
        assert solver["launch_reduction"] == 0.0
