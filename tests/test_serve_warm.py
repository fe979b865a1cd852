"""The serve warm protocol: plan builds stay out of batch deadlines.

Building a plan's runtime (the O(N^2) pair tables, band symbolics) is the
cold cost of a fresh worker.  The process-executor service issues an
explicit *warm* RPC per (worker incarnation, plan) under the separate
``warm_deadline_s`` budget (untimed by default) before the first batch,
so the per-batch ``batch_deadline_s`` never sees the plan build and cold
workers cannot raise spurious ``WorkerHang``.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.core.maxwellian import maxwellian_rz
from repro.resilience.supervisor import SupervisorOptions
from repro.serve import CollisionSolveService, ServeOptions, SolvePlan
from repro.serve.jobs import STATUS_OK
from repro.serve.jobs import SolveJob
from repro.serve.shard import ShardWorker


@pytest.fixture
def plan(fs_q2, electron_species):
    return SolvePlan(fs=fs_q2, species=electron_species, dt=0.3)


@pytest.fixture(scope="module")
def states(request):
    fs = request.getfixturevalue("fs_q2")
    rng = np.random.default_rng(77)
    out = []
    for _ in range(8):
        vth = 0.886 * rng.uniform(0.8, 1.1)
        out.append(
            fs.interpolate(
                lambda r, z, v=vth: maxwellian_rz(r, z, 1.0, v)
            )[None, :]
        )
    return out


class TestShardWarmCalls:
    def test_warm_plan_builds_the_runtime(self, plan, states):
        """The warm call is the plan build: the first batch after it
        finds the runtime in the cache."""
        w = ShardWorker(shard_id=0)
        w.warm_plan(plan)
        assert len(w.plans) == 1 and w.plans.misses == 1
        w.execute_batch([SolveJob(job_id="j0", plan=plan, state=states[0])])
        assert w.plans.misses == 1 and w.plans.hits == 1

    def test_service_counts_warm_calls(self, plan, states):
        """The worker only times its warm call; the service adds it to
        the shard's books, once per (worker incarnation, plan)."""
        assert ShardWorker(shard_id=0).warm_plan(plan) >= 0.0
        with CollisionSolveService(
            ServeOptions(executor="process", num_shards=1, max_batch=4)
        ) as svc:
            svc.solve_many(plan, states[:2])
            svc.solve_many(plan, states[2:4])
            shard0 = svc.snapshot()["shards"][0]
        assert shard0["warm_calls"] == 1
        assert shard0["warm_seconds"] > 0.0


class TestWarmDeadlineOptions:
    def test_negative_warm_deadline_rejected(self):
        with pytest.raises(ValueError, match="warm_deadline_s"):
            SupervisorOptions(warm_deadline_s=-1.0)

    def test_default_is_untimed(self):
        assert SupervisorOptions().warm_deadline_s == 0.0

    def test_env_knob(self, monkeypatch):
        monkeypatch.setenv("REPRO_SERVE_WARM_DEADLINE_S", "2.5")
        assert SupervisorOptions.from_env().warm_deadline_s == 2.5


class TestColdWorkerDeadlines:
    """Per-batch deadlines must not count the first-call plan build:
    the warm RPC pays it before the batch clock starts."""

    def test_cold_worker_batch_deadline_not_charged_for_warmup(
        self, plan, states
    ):
        # a deadline generous for *warm* execution; the worker is cold
        # (fresh process, no published plan) when the first batch lands
        sup = SupervisorOptions(batch_deadline_s=30.0)
        with CollisionSolveService(
            ServeOptions(
                executor="process",
                num_shards=1,
                max_batch=4,
                supervision=sup,
            )
        ) as svc:
            res = svc.solve_many(plan, states[:4])
            assert all(r.status == STATUS_OK for r in res)
            snap = svc.snapshot()
            shard0 = snap["shards"][0]
            # the warm RPC ran exactly once for the one plan...
            assert shard0["warm_calls"] == 1
            assert svc._warmed_plans[0] == {plan.key}
            # ...and no batch tripped the deadline or killed the worker
            assert shard0["deadline_timeouts"] == 0
            assert snap["jobs"]["worker_restarts"] == 0

    def test_restart_invalidates_warmed_set(self, plan, states):
        with CollisionSolveService(
            ServeOptions(executor="process", num_shards=1, max_batch=4)
        ) as svc:
            svc.solve_many(plan, states[:2])
            assert svc._warmed_plans[0] == {plan.key}
            with pytest.raises(Exception):
                svc._pools[0].submit(os._exit, 1).result()
            # the healed worker is cold again: the next drain must
            # re-publish AND re-warm before its first timed batch
            res = svc.solve_many(plan, states[2:6])
            assert all(r.status == STATUS_OK for r in res)
            assert svc._warmed_plans[0] == {plan.key}
            shard0 = svc.snapshot()["shards"][0]
            # the service counts both incarnations' warm calls
            assert shard0["warm_calls"] == 2

    def test_warm_deadline_zero_means_no_clock(self, plan, states):
        """warm_deadline_s=0 (default) never times the warm call."""
        with CollisionSolveService(
            ServeOptions(
                executor="process",
                num_shards=1,
                max_batch=4,
                supervision=SupervisorOptions(warm_deadline_s=0.0),
            )
        ) as svc:
            res = svc.solve_many(plan, states[:2])
            assert all(r.status == STATUS_OK for r in res)
            assert svc.snapshot()["shards"][0]["warm_calls"] == 1
