"""Supervision subsystem (ISSUE-7): cross-process fault plans, the
watchdog/circuit-breaker/degraded tier, checksummed checkpoints and
crash-consistent service resume."""

from __future__ import annotations

import multiprocessing as mp
import os
import pickle
import signal
import tempfile
import time
from contextlib import suppress
from pathlib import Path

import numpy as np
import pytest

from repro.core.maxwellian import maxwellian_rz
from repro.ensemble import CampaignDriver, CampaignOptions, ScenarioDesign
from repro.resilience import (
    CheckpointError,
    CircuitBreaker,
    FaultInjector,
    FaultPlan,
    RestartBackoff,
    ShardSupervisor,
    SupervisorOptions,
    load_checkpoint,
    read_checksummed,
    save_checkpoint,
    write_checksummed,
)
from repro.resilience.checkpoint import CHECKSUM_MAGIC
from repro.serve import (
    CollisionSolveService,
    PendingJob,
    ServeOptions,
    SolvePlan,
    checkpoint_path,
    load_service_checkpoint,
    save_service_checkpoint,
)
from repro.serve.jobs import STATUS_OK

DT = 0.3


@pytest.fixture
def plan(fs_q2, electron_species):
    return SolvePlan(fs=fs_q2, species=electron_species, dt=DT)


@pytest.fixture(scope="module")
def states(request):
    fs = request.getfixturevalue("fs_q2")
    rng = np.random.default_rng(77)
    out = []
    for _ in range(12):
        vth = 0.886 * rng.uniform(0.8, 1.1)
        drift = rng.uniform(-0.1, 0.1)
        out.append(
            fs.interpolate(
                lambda r, z, v=vth, d=drift: maxwellian_rz(r, z - d, 1.0, v)
            )[None, :]
        )
    return out


def _fast_supervision(**kw) -> SupervisorOptions:
    """Tight budgets so chaos tests never sit in real backoff sleeps."""
    base = dict(
        batch_deadline_s=0.0,
        breaker_threshold=3,
        breaker_cooldown=2,
        breaker_max_cooldown=8,
        restart_backoff_s=0.001,
        restart_backoff_max_s=0.01,
    )
    base.update(kw)
    return SupervisorOptions(**base)


# ----------------------------------------------------------------------
# SupervisorOptions
class TestSupervisorOptions:
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize(
        "name",
        [
            "heartbeat_s",
            "batch_deadline_s",
            "warm_deadline_s",
            "restart_backoff_s",
            "restart_backoff_max_s",
        ],
    )
    def test_rejects_non_finite_durations(self, name, value):
        """A NaN heartbeat or deadline would wait forever and an infinite
        backoff cap would let restart delays grow without bound."""
        with pytest.raises(ValueError, match=name):
            SupervisorOptions(**{name: value})


# ----------------------------------------------------------------------
# FaultPlan
class TestFaultPlan:
    def test_json_round_trip(self):
        p = FaultPlan(
            fail_first_solves=2,
            crash_batches=(1, 3),
            hang_batches=(2,),
            hang_s=5.0,
            shards=(1,),
            seed=9,
        )
        q = FaultPlan.from_json(p.to_json())
        assert q == p
        assert pickle.loads(pickle.dumps(p)) == p

    def test_file_round_trip(self, tmp_path):
        """A plan kept in a file, the way a chaos run carries one, reads
        back as the plan written."""
        p = FaultPlan(hang_batches=(0,), hang_s=2.5, seed=3)
        f = tmp_path / "plan.json"
        f.write_text(p.to_json())
        assert FaultPlan.from_json(f.read_text()) == p

    @pytest.mark.parametrize(
        "text", ['{"explode_batches": [1]}', '{"shm_attach_failures": [0]}']
    )
    def test_unknown_fields_rejected(self, text):
        with pytest.raises(ValueError, match="unknown fault plan fields"):
            FaultPlan.from_json(text)

    @pytest.mark.parametrize("text", ["{not json", "[1]"])
    def test_malformed_json_rejected(self, text):
        with pytest.raises(ValueError):
            FaultPlan.from_json(text)

    @pytest.mark.parametrize(
        "text, field",
        [
            ('{"crash_batches": [1.7]}', "crash_batches"),
            ('{"shards": [0.5]}', "shards"),
            ('{"hang_batches": true}', "hang_batches"),
            ('{"nan_solve_indices": [true]}', "nan_solve_indices"),
            ('{"fail_first_solves": "2"}', "fail_first_solves"),
            ('{"fail_first_solves": -3}', "fail_first_solves"),
            ('{"fail_first_solves": false}', "fail_first_solves"),
            ('{"seed": "x"}', "seed"),
            ('{"seed": 1.5}', "seed"),
            ('{"nan_probability": "0.5"}', "nan_probability"),
            ('{"hang_s": 0}', "hang_s"),
            ('{"hang_s": 1e999}', "hang_s"),
        ],
    )
    def test_invalid_fields_rejected(self, text, field):
        with pytest.raises(ValueError, match=field):
            FaultPlan.from_json(text)

    def test_shard_scoping(self):
        p = FaultPlan(fail_first_solves=1, crash_batches=(0,), shards=(0,))
        assert p.applies_to(0) and not p.applies_to(1)
        factory = lambda A: (lambda b: b)  # noqa: E731
        assert FaultInjector(p, 0).wrap_factory(factory) is not factory
        # a shard outside the plan gets no solver faults and no crash
        skipped = FaultInjector(p, 1)
        assert skipped.wrap_factory(factory) is factory
        skipped.on_dispatch()
        assert skipped.dispatches == 0

    def test_state_counts_per_incarnation(self):
        """Batch indices count one injector's own dispatches: a fresh
        injector (a replaced worker) hangs on the same index again."""
        hang_s = 0.2
        p = FaultPlan(hang_batches=(1,), hang_s=hang_s)

        def dispatch_s(injector) -> float:
            t0 = time.monotonic()
            injector.on_dispatch()
            return time.monotonic() - t0

        for _ in range(2):  # two incarnations, the same schedule
            st = FaultInjector(p, shard_id=0)
            assert dispatch_s(st) < hang_s  # batch 0: clean
            assert dispatch_s(st) >= hang_s  # batch 1: hangs
            assert dispatch_s(st) < hang_s  # batch 2: clean
            assert st.dispatches == 3


# ----------------------------------------------------------------------
# breaker + backoff state machines
class TestCircuitBreaker:
    def test_trip_cooldown_probe_recover(self):
        br = CircuitBreaker(threshold=2, cooldown=2, max_cooldown=8)
        assert br.admit() == "primary"
        br.record_failure()
        assert br.state == "closed"
        br.record_failure()
        assert br.state == "open" and br.trips == 1
        assert br.admit() == "degraded"
        assert br.admit() == "degraded"
        assert br.admit() == "probe"  # half-open after the cooldown
        br.record_success()
        assert br.state == "closed"
        assert br.admit() == "primary"

    def test_failed_probe_doubles_cooldown_bounded(self):
        br = CircuitBreaker(threshold=1, cooldown=2, max_cooldown=4)
        br.record_failure()  # trip (cooldown 2)
        br.admit(), br.admit()
        assert br.admit() == "probe"
        br.record_failure()  # failed probe: cooldown 4
        assert [br.admit() for _ in range(4)] == ["degraded"] * 4
        assert br.admit() == "probe"
        br.record_failure()  # capped at max_cooldown
        assert [br.admit() for _ in range(4)] == ["degraded"] * 4
        assert br.admit() == "probe"
        br.record_success()
        # recovery resets the cooldown to its base
        br.record_failure()
        assert [br.admit() for _ in range(2)] == ["degraded"] * 2
        assert br.admit() == "probe"

    def test_success_resets_consecutive_count(self):
        br = CircuitBreaker(threshold=3, cooldown=1, max_cooldown=2)
        br.record_failure(), br.record_failure()
        br.record_success()
        br.record_failure(), br.record_failure()
        assert br.state == "closed"  # never 3 consecutive


class TestRestartBackoff:
    def test_bounded_doubling_and_reset(self):
        b = RestartBackoff(base_s=0.5, max_s=2.0)
        assert [b.next_delay() for _ in range(4)] == [0.5, 1.0, 2.0, 2.0]
        b.reset()
        assert b.next_delay() == 0.5

    def test_supervisor_snapshot_shape(self):
        sup = ShardSupervisor(_fast_supervision())
        sup.record_failure("worker_crashes")
        snap = sup.snapshot()
        assert snap["worker_crashes"] == 1
        assert snap["breaker"]["state"] == "closed"
        assert snap["breaker_trips"] == 0


# ----------------------------------------------------------------------
# checksummed checkpoint envelope (satellite 3)
class TestChecksummedCheckpoints:
    def _write(self, tmp_path) -> tuple[str, np.ndarray]:
        path = str(tmp_path / "state.npz")
        f = np.linspace(0.0, 1.0, 64)
        save_checkpoint(path, fields=[f], t=2.5, extra={"step": 3})
        return path, f

    def test_round_trip(self, tmp_path):
        path, f = self._write(tmp_path)
        ck = load_checkpoint(path)
        np.testing.assert_array_equal(ck.fields[0], f)
        assert ck.t == 2.5 and ck.extra["step"] == 3

    def test_truncated_file_detected(self, tmp_path):
        path, _ = self._write(tmp_path)
        blob = open(path, "rb").read()
        open(path, "wb").write(blob[: len(blob) // 2])
        with pytest.raises(CheckpointError, match="checksum"):
            load_checkpoint(path)

    def test_bit_flip_detected(self, tmp_path):
        path, _ = self._write(tmp_path)
        blob = bytearray(open(path, "rb").read())
        blob[-10] ^= 0x40  # flip one payload bit
        open(path, "wb").write(bytes(blob))
        with pytest.raises(CheckpointError, match="checksum"):
            load_checkpoint(path)

    def test_envelope_primitives(self, tmp_path):
        path = str(tmp_path / "raw.bin")
        write_checksummed(path, b"payload-bytes")
        assert read_checksummed(path) == b"payload-bytes"
        open(path, "wb").write(b"RPROCKSUM1 deadbeef\n")
        with pytest.raises(CheckpointError):
            read_checksummed(path)


# ----------------------------------------------------------------------
# corrupt durable state: every loader raises CheckpointError, never a
# stray unpickling error and never a half-loaded file
CAMPAIGN_FAST = dict(
    dt=0.5, max_steps=2, post_steps=1, order=2, mesh_kwargs={"h_factor": 1.6}
)


def _campaign_driver(d: str) -> CampaignDriver:
    return CampaignDriver(
        ScenarioDesign(members=2, seed=1),
        CampaignOptions(checkpoint_dir=d, **CAMPAIGN_FAST),
    )


def _write_checkpoint(d: str) -> str:
    return save_checkpoint(os.path.join(d, "state.npz"), fields=[np.arange(6.0)], t=0.5)


def _write_service(d: str) -> str:
    path = os.path.join(d, "svc.ckpt")
    save_service_checkpoint(path, pending=[], plans={}, completed=["x"])
    return path


def _write_ledger(d: str) -> str:
    driver = _campaign_driver(d)
    try:
        driver.write_ledger()
    finally:
        driver.service.close()
    return driver.ledger_path


def _resume_campaign(path: str) -> None:
    driver = _campaign_driver(os.path.dirname(path))
    try:
        driver.run(resume=True)
    finally:
        driver.service.close()


def _header_len(raw: bytes) -> int:
    return raw.index(b"\n") + 1


DURABLE_LOADERS = {
    "checkpoint": (_write_checkpoint, load_checkpoint),
    "service": (_write_service, load_service_checkpoint),
    "campaign": (_write_ledger, _resume_campaign),
}

CORRUPTIONS = {
    "flipped_magic": lambda raw: bytes([raw[0] ^ 0x01]) + raw[1:],
    "cut_in_header": lambda raw: raw[: len(CHECKSUM_MAGIC) + 10],
    "cut_in_payload": lambda raw: raw[: (_header_len(raw) + len(raw)) // 2],
    "payload_bit_flip": lambda raw: raw[:-10] + bytes([raw[-10] ^ 0x40]) + raw[-9:],
    "empty": lambda raw: b"",
    "no_header": lambda raw: raw[_header_len(raw):],
}


@pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
@pytest.mark.parametrize("loader", sorted(DURABLE_LOADERS))
def test_corrupt_durable_state_raises_checkpoint_error(tmp_path, loader, corruption):
    write, load = DURABLE_LOADERS[loader]
    path = write(str(tmp_path))
    raw = Path(path).read_bytes()
    assert raw.startswith(CHECKSUM_MAGIC)
    Path(path).write_bytes(CORRUPTIONS[corruption](raw))
    with pytest.raises(CheckpointError):
        load(path)


# ----------------------------------------------------------------------
# service checkpoint format
class TestServiceCheckpointFormat:
    def test_round_trip(self, tmp_path, plan):
        path = str(tmp_path / "svc.ckpt")
        jobs = [
            PendingJob(plan.key, "job-a", np.zeros((1, plan.fs.ndofs)), 1.5),
            PendingJob(plan.key, "job-b", np.ones((1, plan.fs.ndofs)), None),
        ]
        save_service_checkpoint(
            path, pending=jobs, plans={plan.key: plan}, completed=["job-0"]
        )
        ckpt = load_service_checkpoint(path)
        assert [p.job_id for p in ckpt.pending] == ["job-a", "job-b"]
        assert ckpt.completed == ("job-0",)
        assert ckpt.plans[plan.key].key == plan.key
        assert ckpt.pending[0].remaining_s == 1.5

    def test_retired_assembly_fields_load_with_stable_keys(
        self, tmp_path, fs_q2, electron_species
    ):
        """A checkpoint written while ``AssemblyOptions`` still carried
        ``backend`` and ``num_threads`` pickles them in the options'
        ``__dict__``: it loads, and its plans keep the keys plans built
        today get, so their pending jobs route as before."""
        from repro.core.options import AssemblyOptions

        configs = [
            {},
            {"cache_pair_tables": True},
            {"cache_pair_tables": False},
            {"memory_budget": 1_000_000},
        ]
        fresh, old = [], []
        for kw in configs:
            fresh.append(
                SolvePlan(
                    fs=fs_q2,
                    species=electron_species,
                    dt=DT,
                    options=AssemblyOptions(**kw),
                )
            )
            options = AssemblyOptions(**kw)
            object.__setattr__(options, "backend", "auto")
            object.__setattr__(options, "num_threads", 0)
            old.append(
                SolvePlan(fs=fs_q2, species=electron_species, dt=DT, options=options)
            )
        assert "_key" not in old[0].__dict__  # loaded keys are recomputed
        path = str(tmp_path / "svc.ckpt")
        save_service_checkpoint(
            path,
            pending=[
                PendingJob(p.key, f"job-{i}", np.zeros((1, fs_q2.ndofs)))
                for i, p in enumerate(fresh)
            ],
            plans={p.key: o for p, o in zip(fresh, old)},
            completed=[],
        )
        ckpt = load_service_checkpoint(path)
        assert len(ckpt.plans) == len(configs)
        for p in fresh:
            loaded = ckpt.plans[p.key]
            assert loaded.options.__dict__["num_threads"] == 0
            assert loaded.options == p.options
            assert loaded.key == p.key

    def test_missing_plan_rejected(self, tmp_path, plan):
        with pytest.raises(CheckpointError, match="plans absent"):
            save_service_checkpoint(
                str(tmp_path / "svc.ckpt"),
                pending=[
                    PendingJob(plan.key, "j", np.zeros((1, plan.fs.ndofs)))
                ],
                plans={},
                completed=[],
            )

    def test_corrupt_file_rejected(self, tmp_path, plan):
        path = str(tmp_path / "svc.ckpt")
        save_service_checkpoint(
            path, pending=[], plans={}, completed=["x"]
        )
        blob = bytearray(open(path, "rb").read())
        blob[-3] ^= 0x01
        open(path, "wb").write(bytes(blob))
        with pytest.raises(CheckpointError):
            load_service_checkpoint(path)


# ----------------------------------------------------------------------
# process-tier chaos (the tentpole behaviors end to end)
class TestProcessChaos:
    def _service(self, fault_plan=None, supervision=None, **opts):
        return CollisionSolveService(
            ServeOptions(
                executor="process",
                num_shards=1,
                max_batch=4,
                supervision=supervision or _fast_supervision(),
                **opts,
            ),
            fault_plan=fault_plan,
        )

    def test_crash_chaos_is_bitwise_equal_to_fault_free(self, plan, states):
        """A worker crash mid-run must change nothing about the numbers:
        the batch is retried on a fresh worker with identical
        composition (the ISSUE-7 acceptance bar)."""
        with CollisionSolveService(
            ServeOptions(executor="thread", num_shards=1, max_batch=4)
        ) as ref_svc:
            ref = ref_svc.solve_many(plan, states[:8])
        with self._service(
            fault_plan=FaultPlan(crash_batches=(1,))
        ) as svc:
            out = svc.solve_many(plan, states[:8])
            snap = svc.snapshot()
        assert all(r.status == STATUS_OK for r in out)
        for a, b in zip(ref, out):
            np.testing.assert_array_equal(a.state, b.state)
        assert snap["failures"]["worker_crashes"] >= 1
        assert snap["jobs"]["worker_restarts"] >= 1

    def test_restart_storm_trips_breaker_and_degrades(self, plan, states):
        """crash_batches=(0,) kills every worker incarnation on its first
        batch: the breaker must trip within its threshold budget and the
        drain must complete on the degraded tier (satellite 4)."""
        sup = _fast_supervision(breaker_threshold=2, breaker_cooldown=2)
        with self._service(
            fault_plan=FaultPlan(crash_batches=(0,)), supervision=sup
        ) as svc:
            out = svc.solve_many(plan, states[:12])
            snap = svc.snapshot()
        assert all(r.status == STATUS_OK for r in out)
        shard0 = snap["shards"][0]
        assert shard0["breaker_trips"] >= 1
        assert shard0["degraded_batches"] >= 1
        assert shard0["worker_crashes"] >= 2
        assert snap["jobs"]["worker_restarts"] >= 2
        # every job is on the books exactly once
        assert snap["jobs"]["ok"] == 12

    def test_hang_is_detected_killed_and_retried(self, plan, states):
        """A hung worker raises nothing — only the batch deadline can see
        it.  The supervisor kills it and the retry completes, bitwise
        equal to a fault-free run with the same batches."""
        with CollisionSolveService(
            ServeOptions(executor="thread", num_shards=1, max_batch=4)
        ) as ref_svc:
            ref = ref_svc.solve_many(plan, states[:2])
            ref += ref_svc.solve_many(plan, states[2:6])
        sup = _fast_supervision(batch_deadline_s=3.0)
        with self._service(
            fault_plan=FaultPlan(hang_batches=(1,), hang_s=60.0),
            supervision=sup,
        ) as svc:
            warm = svc.solve_many(plan, states[:2])  # worker batch 0
            assert all(r.status == STATUS_OK for r in warm)
            t0 = time.monotonic()
            out = svc.solve_many(plan, states[2:6])  # batch 1 hangs
            detect_s = time.monotonic() - t0
            snap = svc.snapshot()
        assert all(r.status == STATUS_OK for r in out)
        for a, b in zip(ref, warm + out):
            np.testing.assert_array_equal(a.state, b.state)
        assert detect_s < 30.0  # killed at the deadline, not hang_s
        shard0 = snap["shards"][0]
        assert shard0["worker_hangs"] >= 1
        assert shard0["deadline_timeouts"] >= 1
        assert snap["jobs"]["worker_restarts"] >= 1

    def test_heartbeat_probe_replaces_stopped_worker(self, plan, states):
        """A SIGSTOPped worker answers no heartbeat: the probe must kill
        and replace it, and the next batch must succeed."""
        sup = _fast_supervision(heartbeat_s=1.0)
        with self._service(supervision=sup) as svc:
            out = svc.solve_many(plan, states[:2])
            assert all(r.status == STATUS_OK for r in out)
            pool = svc._pools[0]
            (worker_pid,) = list(pool._processes)
            os.kill(worker_pid, signal.SIGSTOP)
            try:
                svc._heartbeat_probe(0)
            finally:
                # unfreeze (SIGKILL already landed; a stopped process
                # dies on it regardless, this just avoids leaking one
                # if the probe failed before killing)
                with suppress(ProcessLookupError):
                    os.kill(worker_pid, signal.SIGCONT)
            out = svc.solve_many(plan, states[2:4])
            snap = svc.snapshot()
        assert all(r.status == STATUS_OK for r in out)
        shard0 = snap["shards"][0]
        assert shard0["heartbeat_misses"] == 1
        assert shard0["worker_hangs"] == 1
        assert snap["jobs"]["worker_restarts"] >= 1

    def test_watchdog_lifecycle(self, plan, states):
        sup = _fast_supervision(heartbeat_s=0.2)
        with self._service(supervision=sup) as svc:
            svc.start()
            assert svc._watchdog is not None and svc._watchdog.is_alive()
            h = svc.submit(plan, states[0])
            assert h.result(60.0).status == STATUS_OK
            svc.stop()
            assert svc._watchdog is None


# ----------------------------------------------------------------------
# crash-consistent service checkpoints + resume
def _resume_options(ckpt_dir: str) -> ServeOptions:
    return ServeOptions(
        executor="process",
        num_shards=1,
        max_batch=2,
        checkpoint_dir=ckpt_dir,
        supervision=_fast_supervision(),
    )


def _running(pid: int) -> bool:
    """Whether ``pid`` is a live process; an exited one nobody has reaped
    yet (a zombie) is not."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    with suppress(OSError):
        stat = Path(f"/proc/{pid}/stat").read_text()
        return stat.rsplit(")", 1)[1].split()[0] != "Z"
    return True


def _killed_drain(ckpt_dir: str, plan, states, job_ids, pid_file: str) -> None:
    """Child process: drain two batches with checkpointing on, then die
    the hard way (no atexit, no cleanup) with jobs still queued.  The
    pool worker pids go to ``pid_file``: they must exit with their
    SIGKILLed owner."""
    svc = CollisionSolveService(_resume_options(ckpt_dir))
    for jid, s in zip(job_ids, states):
        svc.submit(plan, s, job_id=jid)
    svc.drain(max_batches=2)
    with open(pid_file, "w") as fh:
        fh.write(" ".join(str(pid) for pool in svc._pools for pid in pool._processes))
    os.kill(os.getpid(), signal.SIGKILL)


class TestServiceResume:
    def test_killed_service_resumes_only_unfinished_jobs(
        self, plan, states, tmp_path
    ):
        """Drain half the jobs with checkpointing on, lose the service
        (simulated by abandoning it un-closed), and restore into a fresh
        one: only the unfinished jobs re-run, and together the two
        halves cover every job exactly once."""
        ckpt_dir = str(tmp_path / "ckpt")
        opts = dict(
            executor="process",
            num_shards=1,
            max_batch=2,
            checkpoint_dir=ckpt_dir,
            supervision=_fast_supervision(),
        )
        all_ids = [f"job-r{i}" for i in range(8)]
        svc1 = CollisionSolveService(ServeOptions(**opts))
        try:
            handles = [
                svc1.submit(plan, s, job_id=jid)
                for jid, s in zip(all_ids, states[:8])
            ]
            done = svc1.drain(max_batches=2)  # then "SIGKILL"
            assert done == 4
            first_half = [h.result(0.0).job_id for h in handles[:done]]
        finally:
            svc1.close()

        svc2 = CollisionSolveService(ServeOptions(**opts))
        try:
            resumed = svc2.restore()
            assert {h.job.job_id for h in resumed} == set(all_ids[4:])
            svc2.drain()
            results = [h.result(10.0) for h in resumed]
            snap = svc2.snapshot()
        finally:
            svc2.close()
        assert all(r.status == STATUS_OK for r in results)
        second_half = [r.job_id for r in results]
        assert set(first_half) | set(second_half) == set(all_ids)
        assert set(first_half) & set(second_half) == set()
        assert snap["checkpoint"]["resume"]["resumed_jobs"] == 4
        assert snap["checkpoint"]["resume"]["skipped_completed"] == 4

    def test_sigkilled_service_resumes_only_unfinished_jobs(
        self, plan, states, tmp_path
    ):
        """A real SIGKILL: a child process drains half the jobs with
        checkpointing on and dies mid-drain with no cleanup; a fresh
        service restores and runs only the jobs the checkpoint does not
        record as completed."""
        ckpt_dir = str(tmp_path / "ckpt")
        pid_file = str(tmp_path / "worker-pids")
        all_ids = [f"job-k{i}" for i in range(8)]
        child = mp.get_context("spawn").Process(
            target=_killed_drain,
            args=(ckpt_dir, plan, states[:8], all_ids, pid_file),
        )
        child.start()
        child.join(timeout=120.0)
        try:
            assert child.exitcode == -signal.SIGKILL, child.exitcode
            pids = [int(pid) for pid in Path(pid_file).read_text().split()]
            assert pids
            # the orphaned pool workers see their owner gone and exit
            deadline = time.monotonic() + 10.0
            while any(map(_running, pids)) and time.monotonic() < deadline:
                time.sleep(0.1)
            assert not any(map(_running, pids)), "pool workers outlived the service"
        finally:
            with suppress(FileNotFoundError):
                for pid in Path(pid_file).read_text().split():
                    with suppress(ProcessLookupError):
                        os.kill(int(pid), signal.SIGKILL)
        completed = set(load_service_checkpoint(checkpoint_path(ckpt_dir)).completed)
        assert completed and completed < set(all_ids)

        with CollisionSolveService(_resume_options(ckpt_dir)) as svc:
            handles = svc.restore()
            svc.drain()
            results = [h.result(10.0) for h in handles]
        assert all(r.status == STATUS_OK for r in results)
        rerun = {r.job_id for r in results}
        assert rerun & completed == set()
        assert rerun | completed == set(all_ids)

    def test_resumed_results_match_uninterrupted_run(self, plan, states):
        """Interrupted-then-resumed must be bitwise the uninterrupted
        run: same jobs, same batch composition, same kernels."""
        with CollisionSolveService(
            ServeOptions(executor="thread", num_shards=1, max_batch=2)
        ) as ref_svc:
            ref = ref_svc.solve_many(plan, states[:6])
        with tempfile.TemporaryDirectory() as d:
            opts = dict(
                executor="thread",
                num_shards=1,
                max_batch=2,
                checkpoint_dir=d,
            )
            ids = [f"job-m{i}" for i in range(6)]
            svc1 = CollisionSolveService(ServeOptions(**opts))
            handles1 = [
                svc1.submit(plan, s, job_id=jid)
                for jid, s in zip(ids, states[:6])
            ]
            svc1.drain(max_batches=1)
            svc1.close()
            svc2 = CollisionSolveService(ServeOptions(**opts))
            handles2 = svc2.restore()
            svc2.drain()
            by_id = {h.job.job_id: h.result(0.0) for h in handles1[:2]}
            by_id.update({h.job.job_id: h.result(0.0) for h in handles2})
            svc2.close()
        for jid, r in zip(ids, ref):
            np.testing.assert_array_equal(by_id[jid].state, r.state)

    def test_checkpoint_written_after_every_batch(self, plan, states, tmp_path):
        d = str(tmp_path / "ck")
        with CollisionSolveService(
            ServeOptions(
                executor="thread", num_shards=1, max_batch=4,
                checkpoint_dir=d,
            )
        ) as svc:
            svc.solve_many(plan, states[:4])
            ckpt = load_service_checkpoint(os.path.join(d, "service.ckpt"))
        assert ckpt.pending == []
        assert len(ckpt.completed) == 4

    def test_restore_requires_configuration(self):
        with CollisionSolveService(
            ServeOptions(executor="thread", num_shards=1)
        ) as svc:
            with pytest.raises(ValueError, match="ServeOptions.checkpoint_dir"):
                svc.restore()
