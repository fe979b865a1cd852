"""Collision solve service: plan keys, routing, admission control,
micro-batching, the operator-plan cache, dispatch order, and chaos
behavior under injected faults."""

from __future__ import annotations

import sys
import threading
import time

import numpy as np
import pytest

from repro.core import ImplicitLandauSolver, LandauOperator
from repro.core.maxwellian import maxwellian_rz
from repro.core.options import AssemblyOptions
from repro.resilience import FaultPlan, ServiceOverloaded
from repro.serve import (
    CollisionSolveService,
    HashRing,
    JobHandle,
    JobResult,
    PlanCache,
    ServeOptions,
    SolveJob,
    SolvePlan,
)
from repro.serve.shard import ShardWorker

DT = 0.3


@pytest.fixture(scope="module")
def serve_states(request):
    fs = request.getfixturevalue("fs_q2")
    rng = np.random.default_rng(21)

    def make(vth, drift):
        return fs.interpolate(
            lambda r, z: maxwellian_rz(r, z - drift, 1.0, vth)
        )[None, :]

    return [
        make(0.886 * rng.uniform(0.8, 1.1), rng.uniform(-0.1, 0.1))
        for _ in range(10)
    ]


class TestSolvePlan:
    def test_key_stable_across_instances(self, fs_q2, electron_species):
        p1 = SolvePlan(fs=fs_q2, species=electron_species, dt=DT)
        p2 = SolvePlan(fs=fs_q2, species=electron_species, dt=DT)
        assert p1.key == p2.key
        assert p1 == p2 and hash(p1) == hash(p2)

    def test_key_distinguishes_configuration(self, fs_q2, fs_q3, electron_species):
        base = SolvePlan(fs=fs_q2, species=electron_species, dt=DT)
        assert base.key != SolvePlan(fs=fs_q2, species=electron_species, dt=2 * DT).key
        assert base.key != SolvePlan(fs=fs_q2, species=electron_species, dt=DT, rtol=1e-6).key
        assert base.key != SolvePlan(fs=fs_q3, species=electron_species, dt=DT).key
        assert (
            base.key
            != SolvePlan(
                fs=fs_q2,
                species=electron_species,
                dt=DT,
                options=AssemblyOptions(cache_pair_tables=False),
            ).key
        )

    def test_default_key_is_pinned(self, fs_q2, electron_species):
        """Plan keys route jobs to shards and are recorded in service
        checkpoints, so a default plan's digest must not move."""
        plan = SolvePlan(
            fs=fs_q2, species=electron_species, dt=DT, options=AssemblyOptions()
        )
        assert plan.key == (
            "f8771f662723662149554ac237a74b70b004f21e3712a465c211bbde60965496"
        )

    @pytest.mark.parametrize(
        "options, digest",
        [
            pytest.param(
                AssemblyOptions(cache_pair_tables=True),
                "e2b7f2e0e8ead9524eb772e4e50ff0f42b2d2b1c0d9dd4ce3621523f2ba3d1a5",
                id="tables-on",
            ),
            pytest.param(
                AssemblyOptions(cache_pair_tables=False),
                "9fe22f4490bb7f6248d11bfe72cf64c8153f580a9f793e0a58aeb48c22dfe44a",
                id="tables-off",
            ),
            pytest.param(
                AssemblyOptions(memory_budget=1_000_000),
                "dc82be884c7e83de193ff9f75176302f757d80763fe9d4845dba2fd501fca66d",
                id="budget-1e6",
            ),
            pytest.param(
                AssemblyOptions(cache_pair_tables=False, memory_budget=1_000_000),
                "0a2dfc02d1633e85b2485320b4304f0107992742000aa7d34341a7b0d9465514",
                id="tables-off-budget-1e6",
            ),
            pytest.param(
                AssemblyOptions(cache_pair_tables=True, memory_budget=10**9),
                "d073a62d13e5ef8ee42ea4d77a15d3e70afb54d0e84b0cdcf0ce218ab599bb34",
                id="tables-on-budget-1e9",
            ),
        ],
    )
    def test_configured_key_is_pinned(self, fs_q2, electron_species, options, digest):
        """Each ``AssemblyOptions`` field that enters the key moves it to
        a recorded digest of its own, stable like the default one."""
        plan = SolvePlan(fs=fs_q2, species=electron_species, dt=DT, options=options)
        assert plan.key == digest

    def test_validation(self, fs_q2, electron_species):
        with pytest.raises(ValueError):
            SolvePlan(fs=fs_q2, species=electron_species, dt=0.0)
        with pytest.raises(ValueError):
            SolvePlan(fs=fs_q2, species=electron_species, dt=DT, rtol=-1.0)

    def test_rejects_max_newton_below_one(self, fs_q2, electron_species):
        """A zero-iteration plan used to be accepted and served every job
        its unchanged input state."""
        for max_newton in (0, -1):
            with pytest.raises(ValueError, match="max_newton"):
                SolvePlan(
                    fs=fs_q2, species=electron_species, dt=DT, max_newton=max_newton
                )


class TestHashRing:
    def test_routing_deterministic_and_in_range(self):
        ring = HashRing(4)
        keys = [f"plan-{i}" for i in range(200)]
        shards = [ring.route(k) for k in keys]
        assert shards == [ring.route(k) for k in keys]
        assert set(shards) <= set(range(4))

    def test_spreads_load(self):
        ring = HashRing(4, vnodes=64)
        counts = [0] * 4
        for i in range(400):
            counts[ring.route(f"plan-{i}")] += 1
        assert min(counts) > 0

    def test_adding_shard_remaps_bounded_fraction(self):
        keys = [f"plan-{i}" for i in range(300)]
        before = [HashRing(4, vnodes=64).route(k) for k in keys]
        after = [HashRing(5, vnodes=64).route(k) for k in keys]
        moved = sum(b != a for b, a in zip(before, after))
        # consistent hashing moves ~1/5 of the key space; a modulo scheme
        # would move ~4/5
        assert moved < len(keys) // 2


class TestJobHandle:
    def test_result_delivered_once(self, fs_q2, electron_species, serve_states):
        plan = SolvePlan(fs=fs_q2, species=electron_species, dt=DT)
        handle = JobHandle(SolveJob(plan=plan, state=serve_states[0]))
        res = JobResult(job_id=handle.job.job_id, status="ok")
        handle.set_result(res)
        with pytest.raises(RuntimeError):
            handle.set_result(res)
        assert handle.result(timeout=1.0) is res

    def test_state_shape_validated(self, fs_q2, electron_species):
        plan = SolvePlan(fs=fs_q2, species=electron_species, dt=DT)
        with pytest.raises(ValueError):
            SolveJob(plan=plan, state=np.zeros((2, 3)))


class TestPlanCache:
    def test_lru_eviction_under_budget(self, fs_q2, fs_q3, electron_species):
        # the plans are on two spaces: plans on one space share its arrays
        p1 = SolvePlan(fs=fs_q2, species=electron_species, dt=DT)
        p2 = SolvePlan(fs=fs_q3, species=electron_species, dt=2 * DT)
        probe = PlanCache(budget=1 << 40)
        per_plan = probe.get(p1).bytes
        cache = PlanCache(budget=int(1.5 * per_plan))
        cache.get(p1)
        cache.get(p1)
        assert cache.hits == 1
        cache.get(p2)  # over budget: evicts p1
        assert cache.evictions == 1
        assert len(cache) == 1
        cache.get(p1)  # rebuilt: a miss
        assert (cache.hits, cache.misses, cache.evictions) == (1, 3, 2)
        assert 0 < cache.bytes <= cache.budget

    def test_runtime_bytes_are_the_resident_response(self, fs_q2, electron_species):
        """A cached plan is charged its response tables (the pair tables
        are gone after the build) plus the scatter structure's tail —
        the space's arrays, the same ones every plan on it holds."""
        cache = PlanCache(budget=1 << 40)
        rt = cache.get(SolvePlan(fs=fs_q2, species=electron_species, dt=DT))
        op = rt.op
        R_D, R_K = op.response_tables
        T = op.scatter_map.T
        tail = T.data.nbytes + T.indices.nbytes + T.indptr.nbytes
        assert rt.bytes == R_D.nbytes + R_K.nbytes + tail
        assert rt.bytes < 5 * op.N * op.N * 8  # the pair tables' size
        # the space has a z-reflection: the upper half's tables only
        assert R_D.nbytes + R_K.nbytes == 5 * (op.N // 2) * fs_q2.ndofs * 8
        other = cache.get(SolvePlan(fs=fs_q2, species=electron_species, dt=2 * DT))
        assert other.op.response_tables[0] is R_D
        assert other.bytes == rt.bytes == cache.bytes

    def test_plans_on_one_space_are_charged_one_response(
        self, fs_q2, electron_species
    ):
        """A budget of one plan's bytes holds every plan on its space,
        and evicting one of them frees nothing: its arrays stay resident
        with the others."""
        plans = [
            SolvePlan(fs=fs_q2, species=electron_species, dt=k * DT)
            for k in (1, 2, 3)
        ]
        per_plan = PlanCache(budget=1 << 40).get(plans[0]).bytes
        cache = PlanCache(budget=per_plan)
        for plan in plans:
            cache.get(plan)
        assert len(cache) == 3 and cache.evictions == 0
        assert cache.bytes == per_plan
        cache.budget = per_plan - 1  # one byte short, checked on a miss
        cache.get(SolvePlan(fs=fs_q2, species=electron_species, dt=4 * DT))
        # no eviction brought the bytes down, so LRU eviction ran on to
        # the single-plan floor, and the survivor holds what all four did
        assert len(cache) == 1 and cache.evictions == 3
        assert cache.bytes == per_plan

    def test_single_over_budget_plan_still_served(self, fs_q2, electron_species):
        cache = PlanCache(budget=1)  # nothing fits
        rt = cache.get(SolvePlan(fs=fs_q2, species=electron_species, dt=DT))
        assert rt is not None and len(cache) == 1


class TestServeOptions:
    def test_env_overrides(self, monkeypatch):
        monkeypatch.setenv("REPRO_SERVE_SHARDS", "5")
        monkeypatch.setenv("REPRO_SERVE_MAX_BATCH", "7")
        monkeypatch.setenv("REPRO_SERVE_MAX_WAIT_MS", "9.5")
        monkeypatch.setenv("REPRO_SERVE_QUEUE_BOUND", "11")
        opt = ServeOptions.from_env()
        assert (opt.num_shards, opt.max_batch, opt.max_wait_ms, opt.queue_bound) == (
            5,
            7,
            9.5,
            11,
        )
        assert ServeOptions.from_env(num_shards=2).num_shards == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            ServeOptions(num_shards=0)
        with pytest.raises(ValueError):
            ServeOptions(executor="gpu")

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("name", ["max_wait_ms", "checkpoint_interval_s"])
    def test_rejects_non_finite_durations(self, name, value):
        # NaN held the coalescing window open forever; inf overflowed
        # Condition.wait and killed the dispatcher thread
        with pytest.raises(ValueError, match=name):
            ServeOptions(**{name: value})

    def test_rejects_non_finite_duration_from_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SERVE_MAX_WAIT_MS", "nan")
        with pytest.raises(ValueError, match="max_wait_ms"):
            ServeOptions.from_env()


class TestAdmissionControl:
    def test_overload_rejected(self, fs_q2, electron_species, serve_states):
        plan = SolvePlan(fs=fs_q2, species=electron_species, dt=DT)
        svc = CollisionSolveService(ServeOptions(num_shards=1, queue_bound=2))
        svc.submit(plan, serve_states[0])
        svc.submit(plan, serve_states[1])
        with pytest.raises(ServiceOverloaded):
            svc.submit(plan, serve_states[2])
        assert svc.snapshot()["jobs"]["rejected_submissions"] == 1
        assert svc.drain() == 2  # queued jobs still complete

    def test_deadline_shedding(self, fs_q2, electron_species, serve_states):
        plan = SolvePlan(fs=fs_q2, species=electron_species, dt=DT)
        svc = CollisionSolveService(ServeOptions(num_shards=1))
        shed = svc.submit(plan, serve_states[0], deadline_ms=0.01)
        kept = svc.submit(plan, serve_states[1])
        time.sleep(0.01)
        svc.drain()
        assert shed.result(1.0).status == "shed"
        assert kept.result(1.0).ok
        snap = svc.snapshot()
        assert snap["jobs"]["shed"] == 1 and snap["jobs"]["ok"] == 1


class TestService:
    def test_matches_sequential(self, fs_q2, electron_species, serve_states):
        plan = SolvePlan(fs=fs_q2, species=electron_species, dt=DT, rtol=1e-11)
        svc = CollisionSolveService(ServeOptions(num_shards=2, max_batch=8))
        results = svc.solve_many(plan, serve_states[:6])
        assert all(r.ok for r in results)
        op = LandauOperator(fs_q2, electron_species)
        seq = ImplicitLandauSolver(op, rtol=1e-11)
        for s, r in zip(serve_states[:6], results):
            ref = seq.step([s[0].copy()], DT)[0]
            assert np.abs(r.state[0] - ref).max() <= 1e-10 * np.abs(ref).max()

    def test_rollup_charges_a_space_once_across_shards(
        self, fs_q2, electron_species, serve_states
    ):
        """Thread shards share one process: two plans on one space, each
        on its own shard, hold one response between them."""
        svc = CollisionSolveService(ServeOptions(num_shards=2, max_batch=8))
        plans = {}
        for k in range(64):
            plan = SolvePlan(fs=fs_q2, species=electron_species, dt=DT * (1 + k / 100))
            plans.setdefault(svc.ring.route(plan.key), plan)
        assert len(plans) == 2
        for plan in plans.values():
            assert svc.solve_many(plan, serve_states[:1])[0].ok
        snap = svc.snapshot()
        per_shard = [s["plan_cache"]["bytes"] for s in svc.shard_snapshots()]
        assert per_shard[0] == per_shard[1] > 0
        assert snap["plan_cache"]["bytes"] == per_shard[0]

    def test_microbatch_coalesces_and_caches(
        self, fs_q2, electron_species, serve_states
    ):
        plan = SolvePlan(fs=fs_q2, species=electron_species, dt=DT)
        svc = CollisionSolveService(ServeOptions(num_shards=1, max_batch=8))
        svc.solve_many(plan, serve_states[:8])
        svc.solve_many(plan, serve_states[:8])
        snap = svc.snapshot()
        assert snap["batch_size_hist"] == {"8": 2}
        cache = snap["plan_cache"]
        assert (cache["misses"], cache["hits"]) == (1, 1)
        assert snap["solver"]["launch_reduction"] > 1.5

    def test_threaded_dispatch(self, fs_q2, electron_species, serve_states):
        plan = SolvePlan(fs=fs_q2, species=electron_species, dt=DT)
        with CollisionSolveService(
            ServeOptions(num_shards=2, max_batch=8, max_wait_ms=20.0)
        ) as svc:
            svc.start()
            handles = [svc.submit(plan, s) for s in serve_states]
            results = [h.result(120.0) for h in handles]
            svc.stop()
        assert all(r.ok for r in results)
        assert {r.job_id for r in results} == {h.job.job_id for h in handles}

    def test_idle_dispatchers_wake_on_submit_and_stop(
        self, fs_q2, electron_species, serve_states
    ):
        """Idle dispatchers sleep until notified: a job submitted after
        an idle spell is served, and stop() wakes them promptly."""
        plan = SolvePlan(fs=fs_q2, species=electron_species, dt=DT)
        with CollisionSolveService(
            ServeOptions(num_shards=2, max_batch=8)
        ) as svc:
            svc.start()
            time.sleep(0.3)
            assert svc.submit(plan, serve_states[0]).result(60.0).ok
            time.sleep(0.1)
            dispatchers = list(svc._threads)
            t0 = time.monotonic()
            svc.stop()
            assert time.monotonic() - t0 < 1.0
            assert not any(t.is_alive() for t in dispatchers)

    def test_drain_requires_stopped_service(self, fs_q2, electron_species):
        svc = CollisionSolveService(ServeOptions(num_shards=1))
        svc.start()
        try:
            with pytest.raises(RuntimeError):
                svc.drain()
        finally:
            svc.stop()


class TestChaos:
    """Fault injection through the delivery path: jobs are retried through
    the resilience backoff path, never lost, never executed twice, and the
    whole run is reproducible bit for bit."""

    def _run(self, fs, species, states):
        plan = SolvePlan(fs=fs, species=species, dt=DT, rtol=1e-10)
        svc = CollisionSolveService(
            ServeOptions(num_shards=2, max_batch=4),
            fault_plan=FaultPlan(
                fail_first_solves=2, nan_solve_indices=(4, 7), seed=3
            ),
        )
        handles = [svc.submit(plan, s) for s in states]
        svc.drain()
        return [h.result(1.0) for h in handles], svc.snapshot()

    def test_no_job_lost_none_twice_bitwise_stable(
        self, fs_q2, electron_species, serve_states
    ):
        states = serve_states[:8]
        r1, snap1 = self._run(fs_q2, electron_species, states)
        r2, snap2 = self._run(fs_q2, electron_species, states)

        # every job answered exactly once (JobHandle raises on double set)
        assert len(r1) == len(states)
        assert len({r.job_id for r in r1}) == len(states)
        assert all(r.ok for r in r1)

        # the injector fired and its victims went through the retry path
        assert snap1["failures"]["injected_faults"] >= 4
        assert snap1["jobs"]["retried"] >= 4
        assert snap1["solver"]["retry_steps"] > 0

        # deterministic drain: same batches, same faults, same bits
        assert [r.status for r in r1] == [r.status for r in r2]
        assert [r.retried for r in r1] == [r.retried for r in r2]
        for a, b in zip(r1, r2):
            np.testing.assert_array_equal(a.state, b.state)
        assert snap1["batch_size_hist"] == snap2["batch_size_hist"]


def _one_plan_per_shard(svc, fs, species):
    plans = {}
    for k in range(64):
        plan = SolvePlan(fs=fs, species=species, dt=DT * (1 + k / 100))
        plans.setdefault(svc.ring.route(plan.key), plan)
    assert len(plans) == svc.options.num_shards
    return [plans[s] for s in range(svc.options.num_shards)]


def _wait_for(predicate, timeout=5.0):
    end = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < end, "condition not reached in time"
        time.sleep(0.001)


@pytest.fixture
def in_flight(monkeypatch):
    """Wrap ``ShardWorker.execute_batch`` to record how many batches are
    inside it at once and which shard and jobs each call ran (each call
    is held open briefly, so two batches that could overlap do)."""
    lock = threading.Lock()
    record = {"now": 0, "max": 0, "calls": []}
    original = ShardWorker.execute_batch

    def wrapped(self, jobs):
        with lock:
            record["now"] += 1
            record["calls"].append((self.shard_id, [j.job_id for j in jobs]))
            record["max"] = max(record["max"], record["now"])
        try:
            time.sleep(0.02)
            return original(self, jobs)
        finally:
            with lock:
                record["now"] -= 1

    monkeypatch.setattr(ShardWorker, "execute_batch", wrapped)
    return record


class TestOneDispatcher:
    """Thread shards share one GIL, so one dispatcher serves them all;
    process shards compute in parallel, one dispatcher each."""

    @pytest.mark.parametrize("num_shards", [1, 2, 3])
    def test_thread_service_runs_one_dispatcher(self, num_shards):
        with CollisionSolveService(ServeOptions(num_shards=num_shards)) as svc:
            svc.start()
            dispatchers = list(svc._threads)
            assert [t.name for t in dispatchers] == ["serve-shard-0"]
            assert all(t.is_alive() for t in dispatchers)
            svc.stop()
        assert not any(t.is_alive() for t in dispatchers)

    def test_process_service_runs_one_dispatcher_per_shard(self):
        with CollisionSolveService(
            ServeOptions(num_shards=2, executor="process")
        ) as svc:
            svc.start()
            dispatchers = list(svc._threads)
            assert [t.name for t in dispatchers] == [
                "serve-shard-0",
                "serve-shard-1",
            ]
            assert all(t.is_alive() for t in dispatchers)
            svc.stop()
        assert not any(t.is_alive() for t in dispatchers)

    @pytest.mark.parametrize("num_shards", [2, 3])
    def test_ring_reaches_every_thread_shard(
        self, fs_q2, electron_species, num_shards
    ):
        svc = CollisionSolveService(ServeOptions(num_shards=num_shards))
        plans = _one_plan_per_shard(svc, fs_q2, electron_species)
        assert [svc.ring.route(p.key) for p in plans] == list(range(num_shards))

    def test_oldest_queue_head_runs_first(
        self, fs_q2, electron_species, serve_states, in_flight
    ):
        """Batches queued on two shards run one at a time, in the order
        of their shards' oldest queue heads."""
        svc = CollisionSolveService(
            ServeOptions(num_shards=2, max_batch=4, max_wait_ms=1.0)
        )
        plans = _one_plan_per_shard(svc, fs_q2, electron_species)
        expected = []
        for k, shard in enumerate((1, 0, 1, 0)):
            ids = [f"{k}-{i}" for i in range(4)]
            for job_id, state in zip(ids, serve_states[:4]):
                svc.submit(plans[shard], state, job_id=job_id)
            expected.append((shard, ids))
        with svc:
            svc.start()
            _wait_for(lambda: len(in_flight["calls"]) == 4, timeout=120.0)
            svc.stop()
        assert in_flight["calls"] == expected
        assert in_flight["max"] == 1

    def test_many_submitters_one_dispatcher(
        self, fs_q2, electron_species, serve_states
    ):
        """More submitting threads than cores, switching as often as the
        interpreter allows, on three shards behind one condition: every
        job is answered once and counted once."""
        svc = CollisionSolveService(
            ServeOptions(num_shards=3, max_batch=8, max_wait_ms=0.5)
        )
        plans = _one_plan_per_shard(svc, fs_q2, electron_species)
        n_threads, per_thread = 8, 6
        handles = [[] for _ in range(n_threads)]

        def submit(t):
            for i in range(per_thread):
                plan = plans[(t + i) % len(plans)]
                handles[t].append(
                    svc.submit(plan, serve_states[i], job_id=f"{t}-{i}")
                )

        interval = sys.getswitchinterval()
        with svc:
            svc.start()
            sys.setswitchinterval(1e-6)
            try:
                threads = [
                    threading.Thread(target=submit, args=(t,))
                    for t in range(n_threads)
                ]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(60.0)
            finally:
                sys.setswitchinterval(interval)
            assert not any(t.is_alive() for t in threads)
            results = [h.result(120.0) for hs in handles for h in hs]
            svc.stop()
            snap = svc.snapshot()
        n_jobs = n_threads * per_thread
        assert all(r.ok for r in results)
        assert len({r.job_id for r in results}) == n_jobs
        assert snap["jobs"]["total"] == n_jobs
        assert sum(
            int(size) * count for size, count in snap["batch_size_hist"].items()
        ) == n_jobs

    @pytest.mark.parametrize("executor", ["thread", "process"])
    def test_shard_snapshot_keys_and_admission_counts(
        self, fs_q2, electron_species, serve_states, executor
    ):
        """The service owns the admission and restart counters; every
        shard snapshot still carries them, next to the worker's keys."""
        keys = {
            "batch_size_hist", "batches", "breaker_trips", "deadline_timeouts",
            "degraded_batches", "injected_faults", "jobs_failed", "jobs_ok",
            "jobs_retried", "jobs_shed", "latency", "max_queue_depth",
            "plan_cache", "rejected_submissions", "shard", "solver",
            "warm_calls", "warm_seconds", "worker_crashes", "worker_hangs",
            "worker_restarts",
        }
        if executor == "process":
            keys |= {
                "breaker", "degraded_jobs", "heartbeat_misses",
                "mean_recovery_s", "recoveries", "restart_backoff_sleep_s",
            }
        plan = SolvePlan(fs=fs_q2, species=electron_species, dt=DT)
        with CollisionSolveService(
            ServeOptions(num_shards=1, queue_bound=2, executor=executor)
        ) as svc:
            svc.submit(plan, serve_states[0])
            svc.submit(plan, serve_states[1])
            with pytest.raises(ServiceOverloaded):
                svc.submit(plan, serve_states[2])
            (shard,) = svc.shard_snapshots()
        assert set(shard) == keys
        assert shard["rejected_submissions"] == 1
        assert shard["max_queue_depth"] == 2
        assert shard["worker_restarts"] == 0


class TestServiceTakesTurns:
    def test_started_thread_shards_never_overlap(
        self, fs_q2, electron_species, serve_states, in_flight
    ):
        svc = CollisionSolveService(
            ServeOptions(num_shards=2, max_batch=4, max_wait_ms=1.0)
        )
        plans = _one_plan_per_shard(svc, fs_q2, electron_species)
        # two full batches queued on each shard before the dispatcher runs
        handles = [
            svc.submit(plan, s) for plan in plans for s in serve_states[:8]
        ]
        with svc:
            svc.start()
            results = [h.result(120.0) for h in handles]
            svc.stop()
            snap = svc.snapshot()
        assert all(r.ok for r in results)
        assert len(in_flight["calls"]) == 4
        assert in_flight["max"] == 1
        assert snap["batch_size_hist"] == {"4": 4}

    def test_drain_serves_shards_in_order(
        self, fs_q2, electron_species, serve_states, in_flight
    ):
        svc = CollisionSolveService(ServeOptions(num_shards=2, max_batch=4))
        plans = _one_plan_per_shard(svc, fs_q2, electron_species)
        handles = [
            svc.submit(p, s) for p in reversed(plans) for s in serve_states[:4]
        ]
        assert svc.drain() == len(handles)
        assert all(h.result(1.0).ok for h in handles)
        assert [shard for shard, _ in in_flight["calls"]] == [0, 1]

    def test_degraded_tier_never_overlaps(
        self, fs_q2, electron_species, serve_states, in_flight
    ):
        """Process-executor shards served in the parent share its GIL, so
        two shards degraded at once run their batches one at a time."""
        with CollisionSolveService(
            ServeOptions(num_shards=2, executor="process")
        ) as svc:
            plans = _one_plan_per_shard(svc, fs_q2, electron_species)
            start = threading.Barrier(2)
            out = {}

            def degraded(shard):
                jobs = [
                    SolveJob(plan=plans[shard], state=s, job_id=f"{shard}-{i}")
                    for i, s in enumerate(serve_states[:4])
                ]
                start.wait()
                out[shard], _delta = svc._execute_degraded(shard, jobs)

            threads = [
                threading.Thread(target=degraded, args=(s,)) for s in (0, 1)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(120.0)
            assert not any(t.is_alive() for t in threads)
            assert in_flight["max"] == 1 and len(in_flight["calls"]) == 2
            assert all(res.ok for s in (0, 1) for res in out[s])


class TestBooks:
    def test_parallel_dispatchers_count_each_job_once(
        self, fs_q2, electron_species, serve_states
    ):
        """Three process shards, one dispatcher thread each, switching
        as often as the interpreter allows: the books and the per-tag
        counts they share a lock with lose no update."""
        svc = CollisionSolveService(
            ServeOptions(num_shards=3, max_batch=4, executor="process")
        )
        plans = _one_plan_per_shard(svc, fs_q2, electron_species)
        n_jobs = 36
        interval = sys.getswitchinterval()
        with svc:
            svc.start()
            sys.setswitchinterval(1e-6)
            try:
                handles = [
                    svc.submit(plans[i % 3], serve_states[i % 10], tag=f"t{i % 2}")
                    for i in range(n_jobs)
                ]
                results = [h.result(120.0) for h in handles]
            finally:
                sys.setswitchinterval(interval)
            svc.stop()
            snap = svc.snapshot()
        assert all(r.ok for r in results)
        assert snap["jobs"]["ok"] == n_jobs
        assert [s["jobs_ok"] for s in snap["shards"]] == [n_jobs // 3] * 3
        assert sum(
            int(size) * count for size, count in snap["batch_size_hist"].items()
        ) == n_jobs
        assert sum(s["latency"]["samples"] for s in snap["shards"]) == n_jobs
        assert {t: c["ok"] for t, c in snap["jobs"]["by_tag"].items()} == {
            "t0": n_jobs // 2,
            "t1": n_jobs // 2,
        }

    def test_counters_never_go_backwards(
        self, fs_q2, fs_q3, electron_species, serve_states
    ):
        """Alternating two plans under a budget that holds one evicts a
        runtime every round; the books keep what it counted."""
        plans = [
            SolvePlan(fs=fs, species=electron_species, dt=DT)
            for fs in (fs_q2, fs_q3)
        ]
        q3_states = [
            fs_q3.interpolate(
                lambda r, z, v=v: maxwellian_rz(r, z, 1.0, v)
            )[None, :]
            for v in (0.80, 0.85, 0.90, 0.95)
        ]
        svc = CollisionSolveService(
            ServeOptions(num_shards=1, max_batch=4, plan_budget=1)
        )
        (worker,) = svc._workers
        snaps, launched = [svc.snapshot()], 0
        for rnd in range(4):
            plan = plans[rnd % 2]
            states = q3_states if plan.fs is fs_q3 else serve_states[:4]
            before = {
                rt: rt.solver.stats.field_launches
                for rt in worker.plans.runtimes()
            }
            for s in states:
                svc.submit(plan, s)
            svc.drain()
            launched += sum(
                rt.solver.stats.field_launches - before.get(rt, 0)
                for rt in worker.plans.runtimes()
            )
            snaps.append(svc.snapshot())
        svc.close()
        for prev, cur in zip(snaps, snaps[1:]):
            for k in prev["solver"]:
                if k != "launch_reduction":
                    assert cur["solver"][k] >= prev["solver"][k], k
            for k in ("hits", "misses", "evictions"):
                assert cur["plan_cache"][k] >= prev["plan_cache"][k], k
        last = snaps[-1]
        assert last["jobs"]["ok"] == 16
        assert last["batch_size_hist"] == {"4": 4}
        assert last["plan_cache"]["evictions"] == 3
        assert last["plan_cache"]["plans"] == 1
        assert last["solver"]["field_launches"] == launched > 0
