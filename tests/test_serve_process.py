"""Process-executor serve tier: thread/process result equivalence, the
publish-once plan protocol, by-value state shipping, and the
BrokenProcessPool self-healing path (ISSUE-6 satellites)."""

from __future__ import annotations

import ast
import glob
import os
import signal
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.core.maxwellian import maxwellian_rz
from repro.resilience import FaultPlan, SupervisorOptions
from repro.serve import CollisionSolveService, ServeOptions, SolvePlan
from repro.serve.jobs import STATUS_OK

DT = 0.3


def _own_segments() -> set[str]:
    """``/dev/shm`` entries named for this process: no service may leave
    one behind.  Compared as before/after deltas."""
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

    def test_snapshot_of_dead_worker_reads_parent_books(
        self, plan, states, monkeypatch
    ):
        """Reading metrics sends nothing to a worker and restarts none,
        even when the pool is broken; the next batch heals the shard."""
        with CollisionSolveService(
            ServeOptions(executor="process", num_shards=1, max_batch=4)
        ) as svc:
            svc.solve_many(plan, states[:2])
            with pytest.raises(Exception):
                svc._pools[0].submit(os._exit, 1).result()
            calls = []
            pool = svc._pools[0]
            monkeypatch.setattr(
                pool, "submit", lambda *a, **k: calls.append(("submit", a))
            )
            monkeypatch.setattr(
                svc, "_restart_worker", lambda s: calls.append(("restart", s))
            )
            snap = svc.snapshot()
            assert calls == []
            assert snap["jobs"]["ok"] == 2
            assert snap["jobs"]["worker_restarts"] == 0
            monkeypatch.undo()
            res = svc.solve_many(plan, states[2:6])
            assert all(r.status == STATUS_OK for r in res)
            snap = svc.snapshot()
        assert snap["jobs"]["worker_restarts"] == 1
        assert snap["jobs"]["ok"] == 6
        assert snap["batch_size_hist"] == {"2": 1, "4": 1}

    def test_degraded_batches_counted_once(self, plan, states):
        """Batches served by the in-parent tier while the breaker is
        open land in the same books as the worker's: once each in the
        histogram, the job counts and the latency samples."""
        with CollisionSolveService(
            ServeOptions(
                executor="process",
                num_shards=1,
                max_batch=4,
                supervision=SupervisorOptions(breaker_cooldown=8),
            )
        ) as svc:
            svc.solve_many(plan, states[:4])
            svc._supervisors[0].breaker._trip()
            res = svc.solve_many(plan, states[:8])
            assert all(r.status == STATUS_OK for r in res)
            snap = svc.snapshot()
        shard0 = snap["shards"][0]
        assert snap["failures"]["degraded_batches"] == 2
        assert snap["failures"]["degraded_jobs"] == 8
        assert snap["batch_size_hist"] == {"4": 3}
        assert snap["jobs"]["ok"] == 12
        assert shard0["latency"]["samples"] == 12
        # the worker built the plan once; the degraded tier once more
        assert snap["plan_cache"]["plans"] == 2
        assert snap["plan_cache"]["misses"] == 2


#: jobs in the by-value batch: one full batch of the e Q3 workloads
FULL_BATCH = 64

#: the default pipe buffer on Linux
PIPE_BUFFER_BYTES = 64 * 1024


@pytest.fixture(scope="module")
def q3_plan(request):
    return SolvePlan(
        fs=request.getfixturevalue("fs_q3"),
        species=request.getfixturevalue("electron_species"),
        dt=DT,
    )


@pytest.fixture(scope="module")
def q3_states(request):
    fs = request.getfixturevalue("fs_q3")
    rng = np.random.default_rng(64)
    out = []
    for _ in range(FULL_BATCH):
        vth = 0.886 * rng.uniform(0.8, 1.1)
        drift = rng.uniform(-0.1, 0.1)
        out.append(
            fs.interpolate(
                lambda r, z, v=vth, d=drift: maxwellian_rz(r, z - d, 1.0, v)
            )[None, :]
        )
    return out


def _started_batch(svc: CollisionSolveService, plan, states) -> list:
    """Queue every job, then start the dispatchers: the first batch
    takes the whole queue, so its composition is fixed."""
    handles = [svc.submit(plan, s) for s in states]
    svc.start()
    try:
        return [h.result(120.0) for h in handles]
    finally:
        svc.stop()


class TestByValueStates:
    """A full e Q3 batch's ``(64, 1, n)`` state stack is larger than a
    pipe buffer and travels to the worker by value, with no loss."""

    @pytest.fixture(scope="class")
    def reference(self, q3_plan, q3_states):
        with CollisionSolveService(
            ServeOptions(executor="thread", num_shards=1, max_batch=FULL_BATCH)
        ) as svc:
            return svc.solve_many(q3_plan, q3_states)

    def _service(self, fault_plan=None) -> CollisionSolveService:
        return CollisionSolveService(
            ServeOptions(
                executor="process",
                num_shards=1,
                max_batch=FULL_BATCH,
                supervision=SupervisorOptions(
                    restart_backoff_s=0.001, restart_backoff_max_s=0.01
                ),
            ),
            fault_plan=fault_plan,
        )

    def test_full_batch_matches_thread_executor(
        self, q3_plan, q3_states, reference
    ):
        assert np.stack(q3_states).nbytes > PIPE_BUFFER_BYTES
        with self._service() as svc:
            out = _started_batch(svc, q3_plan, q3_states)
            snap = svc.snapshot()
        assert snap["batch_size_hist"] == {str(FULL_BATCH): 1}
        for ref, res in zip(reference, out):
            assert res.status == STATUS_OK
            np.testing.assert_array_equal(res.state, ref.state)

    def test_full_batch_survives_worker_crash(
        self, q3_plan, q3_states, reference
    ):
        """The worker dies at the start of its second batch; the fresh
        worker gets the same stack by value and answers bitwise the
        same, with no batch served by the degraded tier."""
        with self._service(FaultPlan(crash_batches=(1,))) as svc:
            first = _started_batch(svc, q3_plan, q3_states)
            second = _started_batch(svc, q3_plan, q3_states)
            snap = svc.snapshot()
        # both incarnations' batches stay in the service's books
        assert snap["batch_size_hist"] == {str(FULL_BATCH): 2}
        assert snap["jobs"]["ok"] == 2 * FULL_BATCH
        assert snap["failures"]["worker_crashes"] == 1
        assert snap["failures"]["degraded_batches"] == 0
        assert snap["jobs"]["worker_restarts"] == 1
        for ref, a, b in zip(reference, first, second):
            assert a.status == b.status == STATUS_OK
            np.testing.assert_array_equal(a.state, ref.state)
            np.testing.assert_array_equal(b.state, ref.state)


class TestProcessFaultPlan:
    def test_picklable_injector_rides_into_workers(self, plan, states):
        """A fault plan's solver faults fire inside the process workers
        (the retry path answers the job OK and counts the injection)."""
        with CollisionSolveService(
            ServeOptions(executor="process", num_shards=1, max_batch=4),
            fault_plan=FaultPlan(fail_first_solves=1),
        ) as svc:
            res = svc.solve_many(plan, states[:2])
            assert all(r.status == STATUS_OK for r in res)
            snap = svc.snapshot()
            assert snap["failures"]["injected_faults"] >= 1
            assert snap["jobs"]["retried"] >= 1


@pytest.mark.parametrize("executor", ["thread", "process"])
class TestCallerStates:
    def test_caller_states_untouched(self, executor, plan, states):
        """The service reads the caller's arrays and never writes them,
        whichever executor carries them to the solver."""
        sent = [s.copy() for s in states[:4]]
        with CollisionSolveService(
            ServeOptions(executor=executor, num_shards=1, max_batch=4)
        ) as svc:
            res = svc.solve_many(plan, sent)
        assert all(r.status == STATUS_OK for r in res)
        for s, ref in zip(sent, states):
            np.testing.assert_array_equal(s, ref)

    def test_results_are_not_caller_arrays(self, executor, plan, states):
        sent = [s.copy() for s in states[:4]]
        with CollisionSolveService(
            ServeOptions(executor=executor, num_shards=1, max_batch=4)
        ) as svc:
            res = svc.solve_many(plan, sent)
        for r in res:
            assert not any(np.shares_memory(r.state, s) for s in sent)

    def test_no_signal_handlers_installed(self, executor, plan, states):
        """Starting, serving and closing a service leaves the parent's
        signal dispositions as it found them."""
        watched = (signal.SIGTERM, signal.SIGINT, signal.SIGCHLD)
        before = {sig: signal.getsignal(sig) for sig in watched}
        svc = CollisionSolveService(
            ServeOptions(executor=executor, num_shards=2, max_batch=4)
        )
        svc.solve_many(plan, states[:4])
        during = {sig: signal.getsignal(sig) for sig in watched}
        svc.close()
        after = {sig: signal.getsignal(sig) for sig in watched}
        assert during == before and after == before

    def test_failure_taxonomy_keys(self, executor, plan, states):
        """The failure counters a fault-free run reports: the same keys
        on both executors, all zero."""
        with CollisionSolveService(
            ServeOptions(executor=executor, num_shards=1, max_batch=4)
        ) as svc:
            svc.solve_many(plan, states[:4])
            failures = svc.snapshot()["failures"]
        assert sorted(failures) == sorted(
            [
                "injected_faults",
                "worker_crashes",
                "worker_hangs",
                "deadline_timeouts",
                "breaker_trips",
                "degraded_batches",
                "heartbeat_misses",
                "degraded_jobs",
            ]
        )
        assert set(failures.values()) == {0}


def test_retired_shm_budget_knob_is_ignored(monkeypatch, plan, states):
    """``REPRO_SHM_BUDGET`` once sized the state arena and rejected a
    budget of 0; a process service now serves by value whatever it says."""
    monkeypatch.setenv("REPRO_SHM_BUDGET", "0")
    assert ServeOptions.from_env() == ServeOptions()
    with CollisionSolveService(
        ServeOptions(executor="process", num_shards=1, max_batch=4)
    ) as svc:
        res = svc.solve_many(plan, states[:4])
    assert all(r.status == STATUS_OK for r in res)


def _source_trees() -> dict[str, ast.AST]:
    root = Path(repro.__file__).parent
    return {
        str(p.relative_to(root)): ast.parse(p.read_text(), str(p))
        for p in root.rglob("*.py")
    }


def _imported_modules(tree: ast.AST) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            names.add(node.module)
            names.update(f"{node.module}.{a.name}" for a in node.names)
    return names


@pytest.mark.parametrize(
    "module", ["signal", "atexit", "multiprocessing.shared_memory"]
)
def test_library_imports_no_process_wide_hooks(module):
    """The library installs no signal or exit handlers and maps no
    shared memory: a process worker's state lives only in its process."""
    offenders = [
        name
        for name, tree in _source_trees().items()
        if module in _imported_modules(tree)
    ]
    assert offenders == []


def test_library_names_no_dev_shm_path():
    offenders = [
        name
        for name, tree in _source_trees().items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant)
        and isinstance(node.value, str)
        and "/dev/shm" in node.value
    ]
    assert offenders == []
