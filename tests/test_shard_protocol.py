"""The worker side of the process executor's protocol, run in-process.

A process shard's worker holds one warm :class:`ShardWorker`, a store of
published plans and, on chaos runs, a fault injector, all as module
globals of :mod:`repro.serve.shard`.  These tests install those globals
in the test process and call the worker entry points directly — publish,
warm, execute by value (results and counter delta), heartbeat, the
initializer and the parent watch — so each contract is checked without a
pool in between.
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
from repro.serve.metrics import ShardMetrics
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
        assert worker.plans.misses == 0

    def test_execute_unpublished_raises(self, worker, plan, stack):
        with pytest.raises(PlanNotPublished, match=plan.key):
            shard._process_execute(plan.key, _meta(len(stack)), stack)
        assert len(worker.plans) == 0

    def test_warm_unpublished_raises(self, worker, plan):
        with pytest.raises(PlanNotPublished, match=plan.key):
            shard._process_warm(plan.key)
        assert len(worker.plans) == 0

    def test_warm_builds_runtime_once(self, worker, plan):
        shard._process_publish_plan(plan)
        first = shard._process_warm(plan.key)
        second = shard._process_warm(plan.key)
        assert first >= 0.0 and second >= 0.0
        assert worker.plans.misses == 1 and worker.plans.hits == 1


@pytest.mark.parametrize(
    "call",
    [
        lambda plan, stack: shard._process_publish_plan(plan),
        lambda plan, stack: shard._process_warm(plan.key),
        lambda plan, stack: shard._process_execute(
            plan.key, _meta(len(stack)), stack
        ),
    ],
    ids=["publish", "warm", "execute"],
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
        out, _ = shard._process_execute(plan.key, _meta(len(stack)), stack)
        direct, _ = ShardWorker(1).execute_batch(
            [SolveJob(plan=plan, state=row) for row in stack]
        )
        assert len(out) == len(direct) == len(stack)
        for res, ref in zip(out, direct):
            assert res.status == ref.status == STATUS_OK
            np.testing.assert_array_equal(res.state, ref.state)

    def test_keeps_job_order_and_ids(self, worker, plan, stack):
        self._published(plan)
        meta = _meta(len(stack))
        out, _ = shard._process_execute(plan.key, meta, stack)
        assert [res.job_id for res in out] == [m[0] for m in meta]
        assert all(res.shard == 0 for res in out)
        assert all(res.batch_size == len(stack) for res in out)

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
        out, _ = shard._process_execute(plan.key, _meta(len(sent)), sent)
        for res in out:
            assert not np.shares_memory(res.state, sent)

    def test_expired_job_is_shed_in_worker(self, worker, plan, stack):
        self._published(plan)
        meta = _meta(len(stack))
        job_id, _, submitted = meta[1]
        meta[1] = (job_id, time.monotonic() - 1.0, submitted)
        results, delta = shard._process_execute(plan.key, meta, stack)
        out = {res.job_id: res for res in results}
        assert out[job_id].status == STATUS_SHED
        assert out[job_id].state is None
        ok = [res for jid, res in out.items() if jid != job_id]
        assert all(res.status == STATUS_OK for res in ok)
        assert all(res.batch_size == len(stack) - 1 for res in ok)
        # the service's books count the shed job and the smaller batch
        books = ShardMetrics()
        books.record(results, delta)
        assert books.jobs_shed == 1 and books.jobs_ok == len(stack) - 1
        assert books.batch_size_hist == {len(stack) - 1: 1}

    def test_returns_results_and_batch_delta(self, worker, plan, stack):
        """The delta is what this batch added to the runtime's
        ``BatchStats``, with the plan cache's counts and levels."""
        self._published(plan)
        shard._process_execute(plan.key, _meta(len(stack)), stack)
        (runtime,) = worker.plans.runtimes()
        stats = runtime.solver.stats
        launches0, factors0 = stats.field_launches, stats.factorizations
        out, delta = shard._process_execute(plan.key, _meta(len(stack)), stack)
        assert len(out) == len(stack)
        solver = delta["solver"]
        assert solver["field_launches"] == stats.field_launches - launches0 > 0
        assert solver["factorizations"] == stats.factorizations - factors0 > 0
        assert delta["tier"] == "primary"
        assert delta["plan_cache"] == {
            "hits": 1,
            "misses": 0,
            "evictions": 0,
            "plans": 1,
            "bytes": runtime.bytes,
        }
        assert delta["injected_faults"] == 0

    def test_warm_build_rides_with_first_delta(self, worker, plan, stack):
        self._published(plan)
        _, delta = shard._process_execute(plan.key, _meta(len(stack)), stack)
        assert delta["plan_cache"]["misses"] == 1
        assert delta["plan_cache"]["hits"] == 1

    def test_all_expired_batch_launches_nothing(self, worker, plan, stack):
        shard._process_publish_plan(plan)
        meta = _meta(len(stack), deadline=time.monotonic() - 1.0)
        out, delta = shard._process_execute(plan.key, meta, stack)
        assert {res.status for res in out} == {STATUS_SHED}
        assert set(delta["solver"].values()) == {0}
        assert set(delta["plan_cache"].values()) == {0}
        assert delta["injected_faults"] == 0
        assert len(worker.plans) == 0


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
