"""Process-executor serve tier: thread/process result equivalence, the
publish-once plan protocol, shared-memory state shipping, and the
BrokenProcessPool self-healing path (ISSUE-6 satellites)."""

from __future__ import annotations

import glob
import os

import numpy as np
import pytest

from repro.core.maxwellian import maxwellian_rz
from repro.serve import CollisionSolveService, ServeOptions, SolvePlan
from repro.serve.jobs import STATUS_OK

DT = 0.3


def _own_segments() -> set[str]:
    """Compared as before/after deltas: live services from other test
    modules may still hold arena segments."""
    return set(glob.glob(f"/dev/shm/rpro-{os.getpid()}-*"))


@pytest.fixture
def plan(fs_q2, electron_species):
    return SolvePlan(fs=fs_q2, species=electron_species, dt=DT)


@pytest.fixture(scope="module")
def states(request):
    fs = request.getfixturevalue("fs_q2")
    rng = np.random.default_rng(21)
    out = []
    for _ in range(10):
        vth = 0.886 * rng.uniform(0.8, 1.1)
        drift = rng.uniform(-0.1, 0.1)
        out.append(
            fs.interpolate(
                lambda r, z, v=vth, d=drift: maxwellian_rz(r, z - d, 1.0, v)
            )[None, :]
        )
    return out


class TestProcessExecutorEquivalence:
    def test_matches_thread_executor(self, plan, states):
        """Same jobs, same plan: the process executor returns the same
        states as the in-process thread path (the serve golden-hash
        contract — both sides run the identical numpy reference)."""
        opts = dict(num_shards=2, max_batch=4)
        with CollisionSolveService(
            ServeOptions(executor="thread", **opts)
        ) as svc_t:
            res_t = svc_t.solve_many(plan, states)
        with CollisionSolveService(
            ServeOptions(executor="process", **opts)
        ) as svc_p:
            res_p = svc_p.solve_many(plan, states)
        assert [r.status for r in res_p] == [r.status for r in res_t]
        for rt, rp in zip(res_t, res_p):
            assert rt.status == STATUS_OK
            scale = np.abs(rt.state).max()
            assert np.abs(rp.state - rt.state).max() <= 1e-12 * scale

    def test_plan_published_once_per_shard(self, plan, states):
        with CollisionSolveService(
            ServeOptions(executor="process", num_shards=1, max_batch=4)
        ) as svc:
            svc.solve_many(plan, states[:4])
            assert svc._published_plans[0] == {plan.key}
            svc.solve_many(plan, states[4:8])  # no re-publication
            assert svc._published_plans[0] == {plan.key}
            snap = svc.snapshot()
            assert snap["jobs"]["ok"] == 8
            # warm runtime reused in the worker: second batch hit the cache
            assert snap["plan_cache"]["hits"] >= 1

    def test_states_ship_via_shared_memory(self, plan, states):
        before = _own_segments()
        with CollisionSolveService(
            ServeOptions(executor="process", num_shards=1, max_batch=8)
        ) as svc:
            svc.solve_many(plan, states[:6])
            arena = svc._arena
            assert arena is not None
            # every per-batch state segment was created AND freed
            assert arena.created_segments >= 1
            assert arena.freed_segments == arena.created_segments
        assert _own_segments() <= before

    def test_no_orphan_segments_after_close(self, plan, states):
        before = _own_segments()
        svc = CollisionSolveService(
            ServeOptions(executor="process", num_shards=2, max_batch=4)
        )
        svc.solve_many(plan, states[:4])
        svc.close()
        assert _own_segments() <= before


class TestBrokenWorkerRecovery:
    def test_dead_worker_restarts_and_drain_survives(self, plan, states):
        before = _own_segments()
        with CollisionSolveService(
            ServeOptions(executor="process", num_shards=1, max_batch=4)
        ) as svc:
            # warm the worker, then kill it mid-life
            res = svc.solve_many(plan, states[:2])
            assert all(r.status == STATUS_OK for r in res)
            with pytest.raises(Exception):
                svc._pools[0].submit(os._exit, 1).result()
            # the next batch must heal the shard, not crash the drain
            res = svc.solve_many(plan, states[2:6])
            assert all(r.status == STATUS_OK for r in res)
            assert svc._restarts[0] == 1
            snap = svc.snapshot()
            assert snap["jobs"]["worker_restarts"] == 1
            shard0 = snap["shards"][0]
            assert shard0["worker_restarts"] == 1
        assert _own_segments() <= before

    def test_snapshot_survives_dead_worker(self, plan, states):
        with CollisionSolveService(
            ServeOptions(executor="process", num_shards=1, max_batch=4)
        ) as svc:
            svc.solve_many(plan, states[:2])
            with pytest.raises(Exception):
                svc._pools[0].submit(os._exit, 1).result()
            snap = svc.snapshot()  # restarts the worker under the hood
            assert snap["jobs"]["worker_restarts"] == 1


class TestRemovedProcessBackend:
    def test_env_process_backend_fails_fast(
        self, fs_q2, electron_species, monkeypatch
    ):
        """``REPRO_BACKEND=process`` names the deleted process-pool
        execution backend; a plan built from that environment must fail
        loudly with the valid choices, not fall back to another backend."""
        monkeypatch.setenv("REPRO_BACKEND", "process")
        with pytest.raises(ValueError, match="auto, numpy, threaded, numba$"):
            SolvePlan(fs=fs_q2, species=electron_species, dt=DT)

    def test_threaded_backend_runs_in_process_workers(
        self, fs_q2, electron_species, plan, states
    ):
        """Shard workers run a plan's backend as it is, threads included;
        the service answers and closes (no pool nesting to clamp)."""
        from repro.core.options import AssemblyOptions

        threaded = SolvePlan(
            fs=fs_q2,
            species=electron_species,
            dt=DT,
            options=AssemblyOptions(backend="threaded", num_threads=2),
        )
        opts = dict(num_shards=1, max_batch=4)
        with CollisionSolveService(ServeOptions(executor="thread", **opts)) as svc:
            ref = svc.solve_many(plan, states[:4])
        with CollisionSolveService(ServeOptions(executor="process", **opts)) as svc:
            res = svc.solve_many(threaded, states[:4], timeout=60)
        for r, rr in zip(res, ref):
            assert r.status == STATUS_OK
            scale = np.abs(rr.state).max()
            assert np.abs(r.state - rr.state).max() <= 1e-12 * scale


class TestShmBudgetFallback:
    def test_over_budget_states_ship_inline(self, plan, states, monkeypatch):
        """A state stack that does not fit the arena budget travels by
        value: same answers, no segment created, none left behind."""
        opts = dict(num_shards=1, max_batch=4)
        with CollisionSolveService(ServeOptions(executor="thread", **opts)) as svc:
            ref = svc.solve_many(plan, states[:4])
        monkeypatch.setenv("REPRO_SHM_BUDGET", "64")  # nothing fits
        before = _own_segments()
        with CollisionSolveService(ServeOptions(executor="process", **opts)) as svc:
            res = svc.solve_many(plan, states[:4])
            assert svc._arena.budget == 64
            assert svc._arena.created_segments == 0
        assert _own_segments() <= before
        for r, rr in zip(res, ref):
            assert r.status == STATUS_OK
            scale = np.abs(rr.state).max()
            assert np.abs(r.state - rr.state).max() <= 1e-12 * scale


class TestFaultInjectorConflict:
    def test_fail_fast_names_the_env_knob(self, monkeypatch):
        """An ad-hoc injector that cannot pickle (here: one carrying a
        lambda) must be rejected with pointers at both the FaultPlan
        route and the executor env knob."""
        from repro.resilience import FaultInjector

        inj = FaultInjector(fail_first_solves=1)
        inj.callback = lambda: None  # closures cannot cross the fork
        monkeypatch.setenv("REPRO_SERVE_EXECUTOR", "process")
        with pytest.raises(ValueError, match="REPRO_SERVE_EXECUTOR"):
            CollisionSolveService(
                ServeOptions.from_env(num_shards=1), fault_injector=inj
            )
        with pytest.raises(ValueError, match="FaultPlan"):
            CollisionSolveService(
                ServeOptions.from_env(num_shards=1), fault_injector=inj
            )

    def test_picklable_injector_rides_into_workers(self, plan, states):
        """PR-6 banned all injectors on executor='process'; a picklable
        schedule now ships to the workers and fires there (the retry
        path answers the job OK and counts the injection)."""
        from repro.resilience import FaultInjector

        with CollisionSolveService(
            ServeOptions(executor="process", num_shards=1, max_batch=4),
            fault_injector=FaultInjector(fail_first_solves=1),
        ) as svc:
            res = svc.solve_many(plan, states[:2])
            assert all(r.status == STATUS_OK for r in res)
            snap = svc.snapshot()
            assert snap["failures"]["injected_faults"] >= 1
            assert snap["jobs"]["retried"] >= 1

    def test_injector_plus_plan_is_rejected(self):
        from repro.resilience import FaultInjector, FaultPlan

        with pytest.raises(ValueError, match="not both"):
            CollisionSolveService(
                ServeOptions(num_shards=1),
                fault_injector=FaultInjector(fail_first_solves=1),
                fault_plan=FaultPlan(fail_first_solves=1),
            )
