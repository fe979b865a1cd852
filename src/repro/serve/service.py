"""The collision solve service: admission control, consistent-hash
routing, and the dynamic micro-batcher.

``CollisionSolveService`` accepts per-vertex solve jobs
(:class:`~repro.serve.jobs.SolveJob`: state + dt + mesh/species/options
key) and executes them at high throughput:

* **Routing** — a consistent-hash ring maps each plan key to one shard,
  so a plan's pair tables and band symbolics are built once and stay
  warm; adding a shard remaps only ``~1/num_shards`` of the key space.
* **Micro-batching** — each shard's dispatcher pops the queue head and
  coalesces jobs sharing its plan, waiting up to ``max_wait_ms`` for the
  batch to fill to ``max_batch``, then advances the whole batch with one
  :meth:`BatchedVertexSolver.step` (one field launch and one batched
  factorization per sweep instead of one per job).
* **Backpressure** — each shard's queue is bounded; :meth:`submit`
  raises :class:`~repro.resilience.ServiceOverloaded` when it is full,
  and jobs whose deadline lapses while queued are shed before compute.
* **Determinism** — :meth:`drain` processes queues synchronously in
  submission order, giving identical batch composition (hence bitwise
  identical floating-point results) across reruns; dispatcher threads
  (:meth:`start`) trade that for latency.

``executor="process"`` moves each shard into its own
``ProcessPoolExecutor`` worker (one warm worker per shard).  Plans are
published to a shard's worker once; each batch then ships only job
metadata plus the state stack through a shared-memory segment
(:mod:`repro.backend.shm`), so the warm ``PlanRuntime`` tensors live
exactly once per machine.  A worker killed mid-flight
(``BrokenProcessPool``) is re-initialized and the batch retried once —
``drain()`` never crashes on a dead worker — with the restart surfaced
as ``worker_restarts`` in shard snapshots.
"""

from __future__ import annotations

import bisect
import hashlib
import os
import pickle
import threading
import time
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeout
from concurrent.futures.process import BrokenProcessPool
from contextlib import suppress
from dataclasses import dataclass, field

import numpy as np

from ..backend.shm import (
    SharedArena,
    ShmBudgetExceeded,
    reclaim_dead_owner_segments,
)
from ..resilience.exceptions import ServiceOverloaded, ShmAttachFault, WorkerHang
from ..resilience.faultplan import FaultPlan
from ..resilience.supervisor import ShardSupervisor, SupervisorOptions, WorkerWatchdog
from .checkpoint import (
    PendingJob,
    checkpoint_path,
    load_service_checkpoint,
    save_service_checkpoint,
)
from .jobs import STATUS_FAILED, JobHandle, JobResult, SolveJob
from .metrics import merge_histograms
from .plan import SolvePlan
from .shard import (
    PlanNotPublished,
    ShardWorker,
    _process_execute,
    _process_heartbeat,
    _process_init,
    _process_publish_plan,
    _process_snapshot,
    _process_warm,
)

__all__ = ["ServeOptions", "HashRing", "CollisionSolveService"]

_EXECUTORS = ("thread", "process")

#: parent-side exceptions meaning "the worker process is gone or stuck"
_WORKER_FAILURES = (BrokenProcessPool, WorkerHang)

#: taxonomy keys merged additively from supervisors into shard snapshots
_SUPERVISION_KEYS = (
    "worker_crashes",
    "worker_hangs",
    "deadline_timeouts",
    "breaker_trips",
    "degraded_batches",
    "shm_attach_faults",
)


@dataclass(frozen=True)
class ServeOptions:
    """Service sizing knobs (see EXPERIMENTS.md for the env overrides)."""

    num_shards: int = 2
    max_batch: int = 32
    max_wait_ms: float = 2.0
    queue_bound: int = 256
    executor: str = "thread"
    plan_budget: int | None = None  # bytes per shard's PlanCache; None = env
    vnodes: int = 32
    #: watchdog / circuit-breaker / backoff knobs (REPRO_SERVE_HEARTBEAT_S,
    #: REPRO_SERVE_BATCH_DEADLINE_S, REPRO_SERVE_BREAKER_*)
    supervision: SupervisorOptions = field(default_factory=SupervisorOptions.from_env)
    #: directory for crash-consistent service checkpoints; None disables
    checkpoint_dir: str | None = None
    #: minimum seconds between automatic post-batch checkpoints
    #: (0 = checkpoint after every executed batch)
    checkpoint_interval_s: float = 0.0

    def __post_init__(self):
        if self.num_shards < 1:
            raise ValueError(f"num_shards must be >= 1, got {self.num_shards}")
        if self.max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {self.max_batch}")
        if self.max_wait_ms < 0:
            raise ValueError(f"max_wait_ms must be >= 0, got {self.max_wait_ms}")
        if self.queue_bound < 1:
            raise ValueError(f"queue_bound must be >= 1, got {self.queue_bound}")
        if self.executor not in _EXECUTORS:
            raise ValueError(
                f"executor must be one of {_EXECUTORS}, got {self.executor!r}"
            )
        if self.checkpoint_interval_s < 0:
            raise ValueError(
                f"checkpoint_interval_s must be >= 0, got "
                f"{self.checkpoint_interval_s}"
            )

    @classmethod
    def from_env(cls, **overrides) -> "ServeOptions":
        """Read ``REPRO_SERVE_*`` overrides (explicit kwargs win)."""
        env = os.environ
        kw = dict(
            num_shards=int(env.get("REPRO_SERVE_SHARDS", cls.num_shards)),
            max_batch=int(env.get("REPRO_SERVE_MAX_BATCH", cls.max_batch)),
            max_wait_ms=float(env.get("REPRO_SERVE_MAX_WAIT_MS", cls.max_wait_ms)),
            queue_bound=int(env.get("REPRO_SERVE_QUEUE_BOUND", cls.queue_bound)),
            executor=env.get("REPRO_SERVE_EXECUTOR", cls.executor),
            supervision=SupervisorOptions.from_env(),
            checkpoint_dir=env.get("REPRO_SERVE_CHECKPOINT_DIR") or None,
            checkpoint_interval_s=float(
                env.get(
                    "REPRO_SERVE_CHECKPOINT_INTERVAL_S", cls.checkpoint_interval_s
                )
            ),
        )
        kw.update(overrides)
        return cls(**kw)


def _hash64(text: str) -> int:
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big")


class HashRing:
    """Consistent-hash ring over shards with virtual nodes.

    Plan keys land on the first vnode clockwise of their hash; vnodes
    smooth the load split and keep remapping ``~1/num_shards`` of the key
    space when a shard is added or removed.
    """

    def __init__(self, num_shards: int, vnodes: int = 32):
        if num_shards < 1:
            raise ValueError(f"num_shards must be >= 1, got {num_shards}")
        points = sorted(
            (_hash64(f"shard-{s}-vnode-{v}"), s)
            for s in range(num_shards)
            for v in range(vnodes)
        )
        self.num_shards = num_shards
        self._hashes = [h for h, _ in points]
        self._shards = [s for _, s in points]

    def route(self, key: str) -> int:
        i = bisect.bisect_right(self._hashes, _hash64(key)) % len(self._hashes)
        return self._shards[i]


class CollisionSolveService:
    """Accepts per-vertex collision solve jobs; batches, shards, caches.

    Two execution styles:

    * ``start()`` + ``submit()``: dispatcher threads micro-batch each
      shard's queue with the ``max_wait_ms`` coalescing window.
    * ``submit()`` + ``drain()``: synchronous, deterministic — queues are
      processed in submission order with reproducible batch composition
      (the mode the chaos tests rerun for bitwise stability).

    Fault injection takes two forms.  ``fault_injector`` (a
    :class:`repro.resilience.FaultInjector`) is the ad-hoc path — its
    seeded counters live in the submitting process, so on
    ``executor="process"`` it must be picklable (no bound callbacks) to
    ship to the shard workers.  ``fault_plan`` (a
    :class:`repro.resilience.FaultPlan`, or ``REPRO_FAULT_PLAN`` in the
    environment) is the declarative path: a frozen, picklable schedule of
    solver faults, worker crashes, hangs, and shm-attach failures that
    every worker installs deterministically at startup — the supported
    way to run chaos scenarios across process boundaries.
    """

    def __init__(
        self,
        options: ServeOptions | None = None,
        fault_injector=None,
        fault_plan: FaultPlan | None = None,
    ):
        self.options = options or ServeOptions.from_env()
        if fault_plan is None:
            fault_plan = FaultPlan.from_env()
        if fault_injector is not None and fault_plan is not None:
            raise ValueError(
                "pass either fault_injector or fault_plan, not both "
                "(is REPRO_FAULT_PLAN set in the environment?)"
            )
        self._fault_plan = fault_plan
        self._fault_payload = None
        if self.options.executor == "process":
            payload = fault_plan if fault_plan is not None else fault_injector
            if payload is not None:
                try:
                    pickle.dumps(payload)
                except Exception as err:
                    raise ValueError(
                        "fault injection on executor='process' requires a "
                        "picklable fault source: shard workers install it at "
                        "startup in their own process. This injector cannot "
                        "be pickled "
                        f"({type(err).__name__}: {err}). Use a declarative "
                        "FaultPlan (or the REPRO_FAULT_PLAN env var), or "
                        "unset REPRO_SERVE_EXECUTOR=process (pass "
                        "ServeOptions(executor='thread')) to keep ad-hoc "
                        "injector state in this process."
                    ) from err
            self._fault_payload = payload
        n = self.options.num_shards
        self.ring = HashRing(n, vnodes=self.options.vnodes)
        self._queues: list[deque] = [deque() for _ in range(n)]
        self._conds = [threading.Condition() for _ in range(n)]
        self._rejected = [0] * n
        self._max_depth = [0] * n
        self._stop = threading.Event()
        self._threads: list[threading.Thread] = []
        self._started = False
        self._workers: list[ShardWorker] | None = None
        self._pools: list[ProcessPoolExecutor] | None = None
        #: per shard: plan keys already published to its worker process
        self._published_plans: list[set] = [set() for _ in range(n)]
        #: per shard: plan keys already *warmed* in its worker process
        #: (runtime built + backend JIT compiled, outside batch deadlines)
        self._warmed_plans: list[set] = [set() for _ in range(n)]
        #: per shard: times its worker process died and was re-initialized
        self._restarts = [0] * n
        self._arena: SharedArena | None = None
        #: per shard: watchdog/breaker/failure-taxonomy state (process mode)
        self._supervisors: list[ShardSupervisor] | None = None
        #: per shard: lazily built in-parent workers for the degraded tier
        self._degraded_workers: dict[int, ShardWorker] = {}
        self._watchdog: WorkerWatchdog | None = None
        # ---- crash-consistent checkpoint state ---------------------------
        self._ckpt_lock = threading.Lock()
        self._last_ckpt = None  # monotonic time of last checkpoint write
        self._completed_ids: list[str] = []
        #: per shard: jobs popped from the queue but not yet answered
        self._inflight: list[list] = [[] for _ in range(n)]
        self._resume: dict | None = None
        #: per job tag: outcome counters (campaign-aware accounting);
        #: guarded by _tag_lock — _execute runs on every dispatcher thread
        self._tag_lock = threading.Lock()
        self._tag_counts: dict[str, dict[str, int]] = {}
        if self.options.executor == "process":
            self._supervisors = [
                ShardSupervisor(self.options.supervision) for _ in range(n)
            ]
            self._pools = [self._make_pool(s) for s in range(n)]
            self._arena = SharedArena(tag="serve")
        else:
            self._workers = [
                ShardWorker(
                    s,
                    plan_budget=self.options.plan_budget,
                    fault_injector=(
                        fault_injector
                        if fault_injector is not None
                        else (
                            fault_plan.injector(s)
                            if fault_plan is not None
                            else None
                        )
                    ),
                )
                for s in range(n)
            ]

    def _make_pool(self, shard: int) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(
            max_workers=1,
            initializer=_process_init,
            initargs=(shard, self.options.plan_budget, self._fault_payload),
        )

    def _restart_worker(self, shard: int) -> None:
        """Replace a dead shard worker process (satellite of the paper's
        resilience story: one crashed rank must not take down the drain).

        Restarts back off exponentially (bounded) when they come in a
        storm, so a crash-looping worker cannot hot-spin fork().
        """
        assert self._pools is not None
        t0 = time.monotonic()
        sup = self._supervisors[shard] if self._supervisors else None
        if sup is not None:
            sup.backoff.sleep()
        old = self._pools[shard]
        with suppress(Exception):
            old.shutdown(wait=False, cancel_futures=True)
        self._pools[shard] = self._make_pool(shard)
        self._published_plans[shard].clear()
        self._warmed_plans[shard].clear()
        self._restarts[shard] += 1
        if sup is not None:
            sup.record_recovery(time.monotonic() - t0)

    def _kill_worker(self, shard: int) -> None:
        """Forcibly terminate a (presumed hung) shard worker process; the
        next :meth:`_restart_worker` rebuilds the pool."""
        assert self._pools is not None
        pool = self._pools[shard]
        procs = getattr(pool, "_processes", None) or {}
        for p in list(procs.values()):
            with suppress(Exception):
                p.kill()

    # ------------------------------------------------------------------
    # admission
    def submit(
        self,
        plan: SolvePlan,
        state: np.ndarray,
        *,
        deadline_ms: float | None = None,
        job_id: str = "",
        tag: str = "",
    ) -> JobHandle:
        """Admit one job; raises :class:`ServiceOverloaded` if the target
        shard's queue is full (callers should back off and retry).

        ``tag`` is a caller-defined grouping label (an ensemble campaign
        or member id): per-tag outcome counters appear in
        ``snapshot()["jobs"]["by_tag"]``."""
        if deadline_ms is None:
            job = SolveJob(plan=plan, state=state, job_id=job_id, tag=tag)
        else:
            job = SolveJob.with_deadline_ms(
                plan, state, deadline_ms, job_id=job_id, tag=tag
            )
        shard = self.ring.route(plan.key)
        handle = JobHandle(job)
        cond = self._conds[shard]
        with cond:
            q = self._queues[shard]
            if len(q) >= self.options.queue_bound:
                self._rejected[shard] += 1
                if self._workers is not None:
                    self._workers[shard].metrics.rejected_submissions += 1
                raise ServiceOverloaded(
                    f"shard {shard} queue full "
                    f"({len(q)}/{self.options.queue_bound} jobs)"
                )
            q.append((job, handle))
            depth = len(q)
            if depth > self._max_depth[shard]:
                self._max_depth[shard] = depth
            if self._workers is not None:
                self._workers[shard].metrics.record_queue_depth(depth)
            cond.notify()
        return handle

    def solve_many(
        self,
        plan: SolvePlan,
        states,
        *,
        deadline_ms: float | None = None,
        timeout: float | None = 120.0,
    ) -> list[JobResult]:
        """Submit a batch of same-plan jobs and wait for all results.

        When the service is not started, the queues are drained
        synchronously (deterministic mode)."""
        handles = [
            self.submit(plan, s, deadline_ms=deadline_ms) for s in states
        ]
        if not self._started:
            self.drain()
        return [h.result(timeout) for h in handles]

    # ------------------------------------------------------------------
    # batching + execution
    def _take_batch(self, shard: int, head: tuple) -> list[tuple]:
        """Coalesce queued jobs sharing the head job's plan (caller holds
        the shard condition lock)."""
        batch = [head]
        key = head[0].plan.key
        q = self._queues[shard]
        i = 0
        while i < len(q) and len(batch) < self.options.max_batch:
            if q[i][0].plan.key == key:
                batch.append(q[i])
                del q[i]
            else:
                i += 1
        return batch

    def _execute(self, shard: int, batch: list[tuple]) -> None:
        jobs = [job for job, _ in batch]
        handles = {job.job_id: handle for job, handle in batch}
        tags = {job.job_id: job.tag for job in jobs}
        self._inflight[shard] = list(jobs)
        try:
            if self._pools is not None:
                results = self._execute_process(shard, jobs)
            else:
                assert self._workers is not None
                results = [
                    (job.job_id, res)
                    for job, res in self._workers[shard].execute_batch(jobs)
                ]
            for job_id, res in results:
                handles[job_id].set_result(res)
                self._completed_ids.append(job_id)
                self._count_tag(tags.get(job_id, ""), res)
        finally:
            self._inflight[shard] = []
        self._maybe_checkpoint()

    def _count_tag(self, tag: str, res: JobResult) -> None:
        """Parent-side per-tag outcome accounting (tags never ship to
        workers, so the process protocol is unchanged)."""
        if not tag:
            return
        with self._tag_lock:
            c = self._tag_counts.setdefault(
                tag, {"ok": 0, "failed": 0, "shed": 0, "retried": 0}
            )
            c[res.status] = c.get(res.status, 0) + 1
            if res.retried:
                c["retried"] += 1

    # ------------------------------------------------------------------
    # process-executor dispatch: publish-once plans, shm state shipping,
    # BrokenProcessPool self-healing
    def _publish_plan(self, shard: int, plan: SolvePlan) -> None:
        assert self._pools is not None
        if plan.key not in self._published_plans[shard]:
            self._pools[shard].submit(_process_publish_plan, plan).result()
            self._published_plans[shard].add(plan.key)

    def _warm_worker(self, shard: int, plan: SolvePlan) -> None:
        """Warm a published plan in the shard worker *before* its first
        timed batch: the worker builds the PlanRuntime (O(N^2) pair
        tables) and JIT-compiles the backend under the separate —
        untimed by default — ``warm_deadline_s`` budget, so
        ``batch_deadline_s`` only ever measures warm execution.  Once
        per (worker incarnation, plan); a worker restart clears the
        warmed set along with the published set."""
        assert self._pools is not None
        if plan.key in self._warmed_plans[shard]:
            return
        deadline = self.options.supervision.warm_deadline_s
        future = self._pools[shard].submit(_process_warm, plan.key)
        try:
            future.result(deadline if deadline > 0 else None)
        except FuturesTimeout:
            self._kill_worker(shard)
            with suppress(Exception):
                future.cancel()
            raise WorkerHang(
                f"shard {shard} worker missed the {deadline:.3g}s warm "
                "deadline; the process was killed"
            ) from None
        self._warmed_plans[shard].add(plan.key)

    def _await_worker(self, shard: int, future) -> list[tuple]:
        """Wait for a worker-side result under the batch deadline; a
        deadline miss kills the worker (hung processes never return) and
        surfaces as :class:`WorkerHang` for the supervisor to classify."""
        deadline = self.options.supervision.batch_deadline_s
        try:
            return future.result(deadline if deadline > 0 else None)
        except FuturesTimeout:
            sup = self._supervisors[shard] if self._supervisors else None
            if sup is not None:
                # taxonomy only — the breaker sees this once, as the
                # WorkerHang the caller records
                with sup.lock:
                    sup.counters["deadline_timeouts"] += 1
            self._kill_worker(shard)
            with suppress(Exception):
                future.cancel()
            raise WorkerHang(
                f"shard {shard} worker missed the {deadline:.3g}s batch "
                "deadline; the process was killed"
            ) from None

    def _process_round(self, shard: int, jobs: list[SolveJob]) -> list[tuple]:
        """One publish-if-needed + execute round against a shard worker."""
        assert self._pools is not None and self._arena is not None
        plan = jobs[0].plan
        self._publish_plan(shard, plan)
        self._warm_worker(shard, plan)
        states = np.stack([j.state for j in jobs])
        meta = [(j.job_id, j.deadline, j.submitted) for j in jobs]
        seg = handle = None
        try:
            seg = self._arena.alloc(states.shape, states.dtype)
            seg[...] = states
            handle = self._arena.handle_of(seg)
            payload = ("shm", handle)
        except (ShmBudgetExceeded, OSError):
            payload = ("inline", states)
        try:
            pool = self._pools[shard]
            try:
                return self._await_worker(
                    shard,
                    pool.submit(_process_execute, plan.key, meta, payload),
                )
            except PlanNotPublished:
                # defensive: the worker lost its store without breaking
                # the pool — republish and retry once
                self._published_plans[shard].discard(plan.key)
                self._warmed_plans[shard].discard(plan.key)
                self._publish_plan(shard, plan)
                self._warm_worker(shard, plan)
                return self._await_worker(
                    shard,
                    pool.submit(_process_execute, plan.key, meta, payload),
                )
            except (ShmAttachFault, FileNotFoundError):
                # the worker could not map the segment (injected fault or
                # a genuinely vanished /dev/shm entry): the states are
                # still in hand, so retry once with an inline payload
                if payload[0] != "shm":
                    raise
                sup = self._supervisors[shard] if self._supervisors else None
                if sup is not None:
                    # taxonomy only: the batch is re-sent inline and (if
                    # that succeeds) the worker is healthy — no breaker
                    with sup.lock:
                        sup.counters["shm_attach_faults"] += 1
                return self._await_worker(
                    shard,
                    pool.submit(
                        _process_execute, plan.key, meta, ("inline", states)
                    ),
                )
        finally:
            if handle is not None:
                del seg
                self._arena.free(handle.name)

    def _execute_degraded(self, shard: int, jobs: list[SolveJob]) -> list[tuple]:
        """Serve a batch on the in-parent degraded tier.

        The degraded worker is a plain :class:`ShardWorker` living in the
        service process.  Numerics are bitwise-identical to the primary
        tier — both run the same batched kernels on the same batch
        composition — only throughput degrades.  Availability over speed.
        """
        worker = self._degraded_workers.get(shard)
        if worker is None:
            worker = ShardWorker(shard, plan_budget=self.options.plan_budget)
            self._degraded_workers[shard] = worker
        sup = self._supervisors[shard] if self._supervisors else None
        if sup is not None:
            with sup.lock:
                sup.counters["degraded_batches"] += 1
                sup.counters["degraded_jobs"] += len(jobs)
        return [
            (job.job_id, res) for job, res in worker.execute_batch(jobs)
        ]

    def _execute_process(self, shard: int, jobs: list[SolveJob]) -> list[tuple]:
        """Supervised process-tier execution.

        The shard's circuit breaker routes each batch: ``primary`` runs
        against the worker process with one crash/hang retry (counting
        failures), ``probe`` (half-open) gives the worker one chance with
        no retry, and ``degraded`` — or any batch whose retries are
        exhausted — falls back to the in-parent tier, so jobs never fail
        because a worker died.
        """
        assert self._supervisors is not None
        sup = self._supervisors[shard]
        with sup.lock:  # the watchdog try-locks this before probing
            route = sup.breaker.admit()
            if route == "degraded":
                return self._execute_degraded(shard, jobs)
            attempts = 1 if route == "probe" else 2
            for _ in range(attempts):
                try:
                    results = self._process_round(shard, jobs)
                except _WORKER_FAILURES as err:
                    kind = (
                        "worker_hangs"
                        if isinstance(err, WorkerHang)
                        else "worker_crashes"
                    )
                    sup.record_failure(kind)
                    self._restart_worker(shard)
                    continue
                sup.record_success()
                return results
            # crash/hang on every attempt this batch: serve it degraded
            return self._execute_degraded(shard, jobs)

    def _dispatch_loop(self, shard: int) -> None:
        cond = self._conds[shard]
        q = self._queues[shard]
        wait_s = self.options.max_wait_ms / 1e3
        while True:
            with cond:
                while not q and not self._stop.is_set():
                    cond.wait(0.05)
                if not q and self._stop.is_set():
                    return
                batch = self._take_batch(shard, q.popleft())
                # hold the coalescing window open while the batch fills
                deadline = time.monotonic() + wait_s
                while len(batch) < self.options.max_batch:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        break
                    cond.wait(remaining)
                    key = batch[0][0].plan.key
                    i = 0
                    while i < len(q) and len(batch) < self.options.max_batch:
                        if q[i][0].plan.key == key:
                            batch.append(q[i])
                            del q[i]
                        else:
                            i += 1
            self._execute(shard, batch)

    # ------------------------------------------------------------------
    # heartbeat watchdog (process executor)
    def _heartbeat_probe(self, shard: int) -> None:
        """One watchdog ping of an idle shard worker.

        Try-locks the shard's supervisor so a running batch is never
        stalled; a worker that cannot answer a trivial heartbeat within
        ``heartbeat_s`` is declared hung, killed, and replaced.
        """
        assert self._pools is not None and self._supervisors is not None
        sup = self._supervisors[shard]
        if not sup.lock.acquire(blocking=False):
            return  # a batch (or restart) owns the pool: it supervises itself
        try:
            pool = self._pools[shard]
            if not getattr(pool, "_processes", None):
                return  # no worker spawned yet — nothing to probe
            try:
                fut = pool.submit(_process_heartbeat)
                fut.result(self.options.supervision.heartbeat_s)
            except FuturesTimeout:
                with sup.lock:
                    sup.counters["heartbeat_misses"] += 1
                sup.record_failure("worker_hangs")
                self._kill_worker(shard)
                self._restart_worker(shard)
            except BrokenProcessPool:
                sup.record_failure("worker_crashes")
                self._restart_worker(shard)
        finally:
            sup.lock.release()

    # ------------------------------------------------------------------
    # lifecycle
    def start(self) -> "CollisionSolveService":
        if self._started:
            return self
        self._stop.clear()
        self._threads = [
            threading.Thread(
                target=self._dispatch_loop,
                args=(s,),
                name=f"serve-shard-{s}",
                daemon=True,
            )
            for s in range(self.options.num_shards)
        ]
        for t in self._threads:
            t.start()
        hb = self.options.supervision.heartbeat_s
        if self._pools is not None and hb > 0 and self._watchdog is None:
            self._watchdog = WorkerWatchdog(
                self.options.num_shards, self._heartbeat_probe, hb
            )
            self._watchdog.start()
        self._started = True
        return self

    def stop(self) -> None:
        """Stop dispatchers after their queues empty; keeps warm runtimes."""
        if self._watchdog is not None:
            self._watchdog.stop()
            self._watchdog = None
        if self._started:
            self._stop.set()
            for cond in self._conds:
                with cond:
                    cond.notify_all()
            for t in self._threads:
                t.join(timeout=60.0)
            self._threads = []
            self._started = False

    def close(self) -> None:
        self.stop()
        if self._pools is not None:
            for pool in self._pools:
                with suppress(Exception):
                    pool.shutdown(wait=True)
            self._pools = None
        if self._arena is not None:
            self._arena.close()
            self._arena = None

    def __enter__(self) -> "CollisionSolveService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def drain(self, max_batches: int | None = None) -> int:
        """Synchronously execute every queued job, in submission order.

        Deterministic by construction: batch composition depends only on
        the submission sequence, so reruns with the same jobs produce
        bitwise-identical results.  Only valid while dispatchers are not
        running.  ``max_batches`` bounds the number of batches executed
        (the crash/resume tests use it to stop a service at a known
        point); ``None`` drains everything.  Returns the number of jobs
        executed."""
        if self._started:
            raise RuntimeError("drain() requires a stopped service")
        done = 0
        batches = 0
        for shard in range(self.options.num_shards):
            q = self._queues[shard]
            while q:
                if max_batches is not None and batches >= max_batches:
                    return done
                with self._conds[shard]:
                    batch = self._take_batch(shard, q.popleft())
                self._execute(shard, batch)
                done += len(batch)
                batches += 1
        return done

    # ------------------------------------------------------------------
    # crash-consistent checkpoints
    def _pending_jobs(self) -> tuple[list, dict]:
        """Detach every accepted-but-unanswered job (queued or mid-batch)
        into :class:`PendingJob` records plus the plans they reference."""
        now = time.monotonic()
        pending: list[PendingJob] = []
        plans: dict = {}
        for shard in range(self.options.num_shards):
            with self._conds[shard]:
                jobs = [j for j, _ in self._queues[shard]]
                jobs += list(self._inflight[shard])
            for job in jobs:
                plans[job.plan.key] = job.plan
                remaining = (
                    None if job.deadline is None else job.deadline - now
                )
                pending.append(
                    PendingJob(
                        plan_key=job.plan.key,
                        job_id=job.job_id,
                        state=np.asarray(job.state),
                        remaining_s=remaining,
                    )
                )
        return pending, plans

    def checkpoint(self, path: str | None = None) -> str | None:
        """Atomically write the admission ledger (see serve.checkpoint).

        Uses ``options.checkpoint_dir`` when ``path`` is None; returns
        the path written, or None when checkpointing is not configured.
        """
        if path is None:
            directory = self.options.checkpoint_dir
            if directory is None:
                return None
            os.makedirs(directory, exist_ok=True)
            path = checkpoint_path(directory)
        with self._ckpt_lock:
            pending, plans = self._pending_jobs()
            save_service_checkpoint(
                path,
                pending=pending,
                plans=plans,
                completed=list(self._completed_ids),
            )
            self._last_ckpt = time.monotonic()
        return path

    def _maybe_checkpoint(self) -> None:
        """Post-batch checkpoint hook (no-op without a checkpoint_dir)."""
        if self.options.checkpoint_dir is None:
            return
        interval = self.options.checkpoint_interval_s
        if (
            interval > 0
            and self._last_ckpt is not None
            and time.monotonic() - self._last_ckpt < interval
        ):
            return
        self.checkpoint()

    def restore(self, path: str | None = None) -> list[JobHandle]:
        """Resubmit the unfinished work recorded in a service checkpoint.

        Intended for a *fresh* service standing in for one that was
        killed (SIGKILL, OOM, node loss): dead-owner ``/dev/shm``
        segments the old service leaked are swept first, then every
        pending job is re-admitted under its original job id with its
        deadline re-anchored from the stored remaining seconds.  Jobs
        the checkpoint records as completed are **not** re-run
        (at-least-once semantics — see the module docstring of
        :mod:`repro.serve.checkpoint`).  Returns the new handles; raises
        :class:`~repro.resilience.CheckpointError` on a missing or
        corrupt checkpoint.
        """
        if path is None:
            directory = self.options.checkpoint_dir
            if directory is None:
                raise ValueError(
                    "restore() needs a path or ServeOptions.checkpoint_dir "
                    "(REPRO_SERVE_CHECKPOINT_DIR)"
                )
            path = checkpoint_path(directory)
        swept = reclaim_dead_owner_segments()
        ckpt = load_service_checkpoint(path)
        handles = []
        for p in ckpt.pending:
            plan = ckpt.plans[p.plan_key]
            deadline_ms = (
                None
                if p.remaining_s is None
                else max(p.remaining_s, 0.0) * 1e3
            )
            handles.append(
                self.submit(
                    plan, p.state, deadline_ms=deadline_ms, job_id=p.job_id
                )
            )
        self._resume = {
            "path": path,
            "resumed_jobs": len(handles),
            "skipped_completed": len(ckpt.completed),
            "swept_shm_segments": swept,
        }
        return handles

    # ------------------------------------------------------------------
    # observability
    def _merge_degraded(self, shard: int, snap: dict) -> None:
        """Fold the degraded tier's work into the shard's snapshot: jobs
        served while the breaker was open must not vanish from the books."""
        worker = self._degraded_workers.get(shard)
        if worker is None:
            return
        dsnap = worker.snapshot()
        for k in ("jobs_ok", "jobs_failed", "jobs_shed", "jobs_retried",
                  "batches"):
            snap[k] = snap.get(k, 0) + dsnap[k]
        snap["batch_size_hist"] = merge_histograms(
            [snap.get("batch_size_hist", {}), dsnap["batch_size_hist"]]
        )
        for section in ("plan_cache", "solver"):
            base = snap.setdefault(section, {})
            for k, v in dsnap[section].items():
                if isinstance(v, bool) or not isinstance(v, int):
                    continue  # derived rates are recomputed below
                base[k] = base.get(k, 0) + v
        pc = snap["plan_cache"]
        pc["hit_rate"] = pc["hits"] / max(1, pc["hits"] + pc["misses"])
        sv = snap["solver"]
        launches = sv.get("field_launches", 0)
        sv["launch_reduction"] = (
            sv.get("equivalent_unbatched_launches", 0) / launches
            if launches
            else 0.0
        )

    def shard_snapshots(self) -> list[dict]:
        if self._pools is not None:
            snaps = []
            for s, pool in enumerate(self._pools):
                try:
                    snaps.append(pool.submit(_process_snapshot).result())
                except BrokenProcessPool:
                    self._restart_worker(s)
                    snaps.append(
                        self._pools[s].submit(_process_snapshot).result()
                    )
        else:
            assert self._workers is not None
            snaps = [w.snapshot() for w in self._workers]
        for s, snap in enumerate(snaps):
            snap["rejected_submissions"] = self._rejected[s]
            snap["max_queue_depth"] = max(
                snap.get("max_queue_depth", 0), self._max_depth[s]
            )
            # worker-side counters reset with the process; the parent's
            # restart count is authoritative and additive
            snap["worker_restarts"] = (
                snap.get("worker_restarts", 0) + self._restarts[s]
            )
            if self._supervisors is not None:
                self._merge_degraded(s, snap)
                sup_snap = self._supervisors[s].snapshot()
                for k in _SUPERVISION_KEYS:
                    snap[k] = snap.get(k, 0) + sup_snap.get(k, 0)
                for k in (
                    "heartbeat_misses",
                    "degraded_jobs",
                    "restart_backoff_sleep_s",
                    "recoveries",
                    "mean_recovery_s",
                ):
                    snap[k] = sup_snap.get(k, 0)
                snap["breaker"] = sup_snap["breaker"]
        return snaps

    def snapshot(self) -> dict:
        """Service-level rollup (JSON-able; see report.serve_summary)."""
        shards = self.shard_snapshots()
        total_jobs = sum(
            s["jobs_ok"] + s["jobs_failed"] + s["jobs_shed"] for s in shards
        )
        caches = [s["plan_cache"] for s in shards]
        hits = sum(c["hits"] for c in caches)
        misses = sum(c["misses"] for c in caches)
        solver_keys = shards[0]["solver"].keys() if shards else ()
        solver_tot = {
            k: sum(s["solver"][k] for s in shards)
            for k in solver_keys
            if k != "launch_reduction"
        }
        launches = solver_tot.get("field_launches", 0)
        solver_tot["launch_reduction"] = (
            solver_tot.get("equivalent_unbatched_launches", 0) / launches
            if launches
            else 0.0
        )
        return {
            "options": {
                "num_shards": self.options.num_shards,
                "max_batch": self.options.max_batch,
                "max_wait_ms": self.options.max_wait_ms,
                "queue_bound": self.options.queue_bound,
                "executor": self.options.executor,
            },
            "jobs": {
                "total": total_jobs,
                "ok": sum(s["jobs_ok"] for s in shards),
                "failed": sum(s["jobs_failed"] for s in shards),
                "shed": sum(s["jobs_shed"] for s in shards),
                "retried": sum(s["jobs_retried"] for s in shards),
                "rejected_submissions": sum(
                    s["rejected_submissions"] for s in shards
                ),
                "worker_restarts": sum(
                    s.get("worker_restarts", 0) for s in shards
                ),
                "by_tag": {
                    tag: dict(c)
                    for tag, c in sorted(self._tag_counts.items())
                },
            },
            "failures": {
                "injected_faults": sum(
                    s.get("injected_faults", 0) for s in shards
                ),
                **{
                    k: sum(s.get(k, 0) for s in shards)
                    for k in _SUPERVISION_KEYS
                },
                "heartbeat_misses": sum(
                    s.get("heartbeat_misses", 0) for s in shards
                ),
                "degraded_jobs": sum(
                    s.get("degraded_jobs", 0) for s in shards
                ),
            },
            "checkpoint": {
                "dir": self.options.checkpoint_dir,
                "completed_jobs": len(self._completed_ids),
                "resume": self._resume,
            },
            "batch_size_hist": merge_histograms(
                [s["batch_size_hist"] for s in shards]
            ),
            "plan_cache": {
                "plans": sum(c["plans"] for c in caches),
                "bytes": sum(c["bytes"] for c in caches),
                "hits": hits,
                "misses": misses,
                "evictions": sum(c["evictions"] for c in caches),
                "hit_rate": hits / max(1, hits + misses),
            },
            "solver": solver_tot,
            "shards": shards,
        }
