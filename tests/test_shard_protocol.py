"""The worker side of the process executor's protocol, run in-process.

A process shard's worker holds one warm :class:`ShardWorker`, a store of
published plans and, on chaos runs, a fault injector, all as module
globals of :mod:`repro.serve.shard`.  These tests install those globals
in the test process and call the worker entry points directly — publish,
warm, execute by value, snapshot, heartbeat, the initializer and the
parent watch — so each contract is checked without a pool in between.
"""

from __future__ import annotations

import time
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core.maxwellian import maxwellian_rz
from repro.resilience import FaultPlan
from repro.resilience.faults import FaultInjector
from repro.serve import SolveJob, SolvePlan
from repro.serve import shard
from repro.serve.jobs import STATUS_OK, STATUS_SHED
from repro.serve.shard import PlanNotPublished, ShardWorker

DT = 0.3


@pytest.fixture(scope="module")
def plan(request):
    return SolvePlan(
        fs=request.getfixturevalue("fs_q2"),
        species=request.getfixturevalue("electron_species"),
        dt=DT,
    )


@pytest.fixture(scope="module")
def stack(request):
    """A ``(4, 1, n)`` batch state stack, as the service ships it."""
    fs = request.getfixturevalue("fs_q2")
    rng = np.random.default_rng(5)
    rows = []
    for _ in range(4):
        vth = 0.886 * rng.uniform(0.8, 1.1)
        drift = rng.uniform(-0.1, 0.1)
        rows.append(
            fs.interpolate(
                lambda r, z, v=vth, d=drift: maxwellian_rz(r, z - d, 1.0, v)
            )[None, :]
        )
    return np.stack(rows)


def _meta(n: int, deadline: float | None = None) -> list[tuple]:
    now = time.monotonic()
    return [(f"w-{i}", deadline, now) for i in range(n)]


@pytest.fixture
def worker(monkeypatch):
    """A fresh worker-process state installed in this process."""
    w = ShardWorker(0)
    monkeypatch.setattr(shard, "_PROCESS_WORKER", w)
    monkeypatch.setattr(shard, "_PLAN_STORE", {})
    monkeypatch.setattr(shard, "_FAULT_INJECTOR", None)
    return w


@pytest.fixture
def uninitialized(monkeypatch):
    monkeypatch.setattr(shard, "_PROCESS_WORKER", None)
    monkeypatch.setattr(shard, "_PLAN_STORE", {})
    monkeypatch.setattr(shard, "_FAULT_INJECTOR", None)


class TestPublication:
    def test_publish_returns_plan_key(self, worker, plan):
        assert shard._process_publish_plan(plan) == plan.key
        assert shard._PLAN_STORE == {plan.key: plan}

    def test_publish_is_idempotent(self, worker, plan):
        for _ in range(3):
            shard._process_publish_plan(plan)
        assert list(shard._PLAN_STORE) == [plan.key]
        # publishing builds nothing: the runtime waits for warm/execute
        assert worker.plans.counters()["misses"] == 0

    def test_execute_unpublished_raises(self, worker, plan, stack):
        with pytest.raises(PlanNotPublished, match=plan.key):
            shard._process_execute(plan.key, _meta(len(stack)), stack)
        assert worker.metrics.batches == 0

    def test_warm_unpublished_raises(self, worker, plan):
        with pytest.raises(PlanNotPublished, match=plan.key):
            shard._process_warm(plan.key)
        assert worker.warm_calls == 0

    def test_warm_builds_runtime_once(self, worker, plan):
        shard._process_publish_plan(plan)
        first = shard._process_warm(plan.key)
        second = shard._process_warm(plan.key)
        assert first >= 0.0 and second >= 0.0
        assert worker.warm_calls == 2
        counters = worker.plans.counters()
        assert counters["misses"] == 1 and counters["hits"] == 1


@pytest.mark.parametrize(
    "call",
    [
        lambda plan, stack: shard._process_publish_plan(plan),
        lambda plan, stack: shard._process_warm(plan.key),
        lambda plan, stack: shard._process_execute(
            plan.key, _meta(len(stack)), stack
        ),
        lambda plan, stack: shard._process_snapshot(),
    ],
    ids=["publish", "warm", "execute", "snapshot"],
)
def test_uninitialized_worker_rejects_calls(uninitialized, plan, stack, call):
    """An entry point called before the initializer ran fails loudly
    instead of serving from a worker that does not exist."""
    with pytest.raises(AssertionError, match="not initialized"):
        call(plan, stack)


class TestExecuteByValue:
    def _published(self, plan):
        shard._process_publish_plan(plan)
        shard._process_warm(plan.key)

    def test_matches_shard_worker(self, worker, plan, stack):
        """Rows of the shipped stack become jobs that answer bitwise as
        the same jobs handed to a shard worker directly."""
        self._published(plan)
        out = shard._process_execute(plan.key, _meta(len(stack)), stack)
        direct = ShardWorker(1).execute_batch(
            [SolveJob(plan=plan, state=row) for row in stack]
        )
        assert len(out) == len(direct) == len(stack)
        for (_, res), (_, ref) in zip(out, direct):
            assert res.status == ref.status == STATUS_OK
            np.testing.assert_array_equal(res.state, ref.state)

    def test_keeps_job_order_and_ids(self, worker, plan, stack):
        self._published(plan)
        meta = _meta(len(stack))
        out = shard._process_execute(plan.key, meta, stack)
        assert [job_id for job_id, _ in out] == [m[0] for m in meta]
        assert [res.job_id for _, res in out] == [m[0] for m in meta]
        assert all(res.shard == 0 for _, res in out)
        assert all(res.batch_size == len(stack) for _, res in out)

    def test_does_not_mutate_stack(self, worker, plan, stack):
        self._published(plan)
        sent = stack.copy()
        shard._process_execute(plan.key, _meta(len(sent)), sent)
        np.testing.assert_array_equal(sent, stack)

    def test_results_do_not_alias_stack(self, worker, plan, stack):
        """Result states are the worker's own arrays: the pickled reply
        never carries a view back into the request."""
        self._published(plan)
        sent = stack.copy()
        out = shard._process_execute(plan.key, _meta(len(sent)), sent)
        for _, res in out:
            assert not np.shares_memory(res.state, sent)

    def test_expired_job_is_shed_in_worker(self, worker, plan, stack):
        self._published(plan)
        meta = _meta(len(stack))
        job_id, _, submitted = meta[1]
        meta[1] = (job_id, time.monotonic() - 1.0, submitted)
        out = dict(shard._process_execute(plan.key, meta, stack))
        assert out[job_id].status == STATUS_SHED
        assert out[job_id].state is None
        ok = [res for jid, res in out.items() if jid != job_id]
        assert all(res.status == STATUS_OK for res in ok)
        assert all(res.batch_size == len(stack) - 1 for res in ok)
        assert worker.metrics.jobs_shed == 1
        assert worker.metrics.batch_size_hist == {len(stack) - 1: 1}

    def test_all_expired_batch_launches_nothing(self, worker, plan, stack):
        self._published(plan)
        meta = _meta(len(stack), deadline=time.monotonic() - 1.0)
        out = shard._process_execute(plan.key, meta, stack)
        assert {res.status for _, res in out} == {STATUS_SHED}
        solver = worker.solver_counters()
        assert solver["field_launches"] == 0
        assert solver["launch_reduction"] == 0.0
        assert worker.metrics.batches == 0

    def test_snapshot_reports_executed_jobs(self, worker, plan, stack):
        self._published(plan)
        shard._process_execute(plan.key, _meta(len(stack)), stack)
        snap = shard._process_snapshot()
        assert snap["jobs_ok"] == len(stack)
        assert snap["batch_size_hist"] == {str(len(stack)): 1}
        assert snap["warm_calls"] == 1
        assert snap["plan_cache"]["plans"] == 1
        assert snap["solver"]["field_launches"] > 0


class TestDispatchFaults:
    def test_schedule_advances_once_per_batch(self, worker, monkeypatch, plan, stack):
        injector = FaultInjector(FaultPlan(hang_batches=(99,)), shard_id=0)
        monkeypatch.setattr(shard, "_FAULT_INJECTOR", injector)
        shard._process_publish_plan(plan)
        for _ in range(2):
            shard._process_execute(plan.key, _meta(len(stack)), stack)
        assert injector.dispatches == 2

    def test_unpublished_batch_leaves_schedule_alone(
        self, worker, monkeypatch, plan, stack
    ):
        """A batch refused for a missing plan is retried after the
        republish; it must not use up a slot of the chaos schedule."""
        injector = FaultInjector(FaultPlan(hang_batches=(99,)), shard_id=0)
        monkeypatch.setattr(shard, "_FAULT_INJECTOR", injector)
        with pytest.raises(PlanNotPublished):
            shard._process_execute(plan.key, _meta(len(stack)), stack)
        assert injector.dispatches == 0


class TestInitializer:
    @pytest.fixture(autouse=True)
    def _no_parent_watch(self, monkeypatch):
        # the watch thread would poll this test process for good
        monkeypatch.setattr(shard, "_exit_with_parent", lambda parent: None)
        monkeypatch.setattr(shard, "_PROCESS_WORKER", None)
        monkeypatch.setattr(shard, "_PLAN_STORE", {})
        monkeypatch.setattr(shard, "_FAULT_INJECTOR", None)

    def test_installs_worker_and_clears_store(self, plan):
        shard._PLAN_STORE["stale"] = plan
        shard._process_init(3, 1 << 20)
        assert shard._PROCESS_WORKER.shard_id == 3
        assert shard._PROCESS_WORKER.plans.budget == 1 << 20
        assert shard._PLAN_STORE == {}
        assert shard._FAULT_INJECTOR is None

    def test_fault_plan_builds_scoped_injector(self):
        fault_plan = FaultPlan(fail_first_solves=1, shards=(1,))
        shard._process_init(1, None, fault_plan)
        injector = shard._FAULT_INJECTOR
        assert injector.plan == fault_plan and injector.shard_id == 1
        assert injector.active
        shard._process_init(0, None, fault_plan)
        assert not shard._FAULT_INJECTOR.active


class _Exited(Exception):
    pass


def _fake_os(ppids: list[int]):
    """An ``os`` stand-in whose parent pid follows ``ppids`` and whose
    ``_exit`` raises instead of ending the test process."""
    calls = iter(ppids)

    def _exit(code):
        raise _Exited(code)

    return SimpleNamespace(getppid=lambda: next(calls), _exit=_exit)


class TestParentWatch:
    def test_waits_while_parent_lives(self, monkeypatch):
        fake = _fake_os([7, 7, 7, 1])
        monkeypatch.setattr(shard, "os", fake)
        monkeypatch.setattr(shard, "PARENT_POLL_S", 0.0)
        with pytest.raises(_Exited) as exc:
            shard._exit_with_parent(7)
        assert exc.value.args == (0,)
        with pytest.raises(StopIteration):
            fake.getppid()  # every poll was used

    def test_exits_at_once_when_orphaned(self, monkeypatch):
        fake = _fake_os([1, 1])
        monkeypatch.setattr(shard, "os", fake)
        monkeypatch.setattr(shard, "PARENT_POLL_S", 60.0)
        t0 = time.monotonic()
        with pytest.raises(_Exited):
            shard._exit_with_parent(7)
        assert time.monotonic() - t0 < 1.0
        assert fake.getppid() == 1  # one poll, no sleep


def test_heartbeat_answers_with_pid():
    import os

    assert shard._process_heartbeat() == os.getpid()
