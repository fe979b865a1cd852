"""The collision solve service: admission control, consistent-hash
routing, and the dynamic micro-batcher.

``CollisionSolveService`` accepts per-vertex solve jobs
(:class:`~repro.serve.jobs.SolveJob`: state + dt + mesh/species/options
key) and executes them at high throughput:

* **Routing** — a consistent-hash ring maps each plan key to one shard,
  so a plan's pair tables and band symbolics are built once and stay
  warm; adding a shard remaps only ``~1/num_shards`` of the key space.
* **Micro-batching** — a dispatcher pops the oldest queue head and
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
* **One dispatcher for the thread shards** — thread shards share one
  CPython process and its GIL, so one dispatcher thread serves them
  all: it takes the shard whose queue head was submitted first,
  coalesces that head's batch and runs it, one batch at a time.  Thread
  shards give per-shard queues, admission and warm plan caches, not
  parallel compute.

Parallel compute is the process executor's job: ``executor="process"``
moves each shard into its own ``ProcessPoolExecutor`` worker (one warm
worker and one dispatcher thread per shard), each running one batch at
a time.  Plans are published to a shard's worker once; each batch then
ships only job metadata plus the ``(B, S, n)`` state stack, by value,
and the warm ``PlanRuntime`` tensors never cross the pipe.  A worker
killed mid-flight (``BrokenProcessPool``) is re-initialized and the
batch retried once — ``drain()`` never crashes on a dead worker — with
the restart surfaced as ``worker_restarts`` in shard snapshots.

The service keeps every shard's books (:class:`ShardMetrics`): each
batch's results and counter delta come back to :meth:`_execute`, which
adds them under one lock, so counts survive worker restarts and plan
evictions, and :meth:`snapshot` reads parent state only.
"""

from __future__ import annotations

import bisect
import hashlib
import math
import os
import threading
import time
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeout
from concurrent.futures.process import BrokenProcessPool
from contextlib import suppress
from dataclasses import dataclass, field

import numpy as np

from ..resilience.exceptions import ServiceOverloaded, WorkerHang
from ..resilience.faults import FaultInjector, FaultPlan
from ..resilience.supervisor import ShardSupervisor, SupervisorOptions, WorkerWatchdog
from .checkpoint import (
    PendingJob,
    checkpoint_path,
    load_service_checkpoint,
    save_service_checkpoint,
)
from .jobs import JobHandle, JobResult, SolveJob
from .metrics import ShardMetrics, merge_histograms
from .plan import SolvePlan, resident_bytes
from .shard import (
    PlanNotPublished,
    ShardWorker,
    _process_execute,
    _process_heartbeat,
    _process_init,
    _process_publish_plan,
    _process_warm,
)

__all__ = ["ServeOptions", "HashRing", "CollisionSolveService"]

_EXECUTORS = ("thread", "process")

#: parent-side exceptions meaning "the worker process is gone or stuck"
_WORKER_FAILURES = (BrokenProcessPool, WorkerHang)

#: failure-taxonomy keys every shard snapshot takes from its supervisor
#: (zero on the thread executor, which has none)
_SUPERVISION_KEYS = (
    "worker_crashes",
    "worker_hangs",
    "deadline_timeouts",
    "breaker_trips",
    "degraded_batches",
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
        if not (math.isfinite(self.max_wait_ms) and self.max_wait_ms >= 0):
            raise ValueError(
                f"max_wait_ms must be finite and >= 0, got {self.max_wait_ms}"
            )
        if self.queue_bound < 1:
            raise ValueError(f"queue_bound must be >= 1, got {self.queue_bound}")
        if self.executor not in _EXECUTORS:
            raise ValueError(
                f"executor must be one of {_EXECUTORS}, got {self.executor!r}"
            )
        if not (
            math.isfinite(self.checkpoint_interval_s)
            and self.checkpoint_interval_s >= 0
        ):
            raise ValueError(
                f"checkpoint_interval_s must be finite and >= 0, got "
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

    * ``start()`` + ``submit()``: dispatcher threads (one for all thread
      shards, one per process shard) micro-batch the shard queues with
      the ``max_wait_ms`` coalescing window.
    * ``submit()`` + ``drain()``: synchronous, deterministic — queues are
      processed in submission order with reproducible batch composition
      (the mode the chaos tests rerun for bitwise stability).

    ``fault_plan`` (a :class:`repro.resilience.FaultPlan`, or
    ``REPRO_FAULT_PLAN`` in the environment) injects faults on purpose:
    each shard interprets it with its own seeded
    :class:`~repro.resilience.FaultInjector` — solver faults on either
    executor; worker crashes and hangs on ``executor="process"``, whose
    workers build their injector at startup.
    """

    def __init__(
        self,
        options: ServeOptions | None = None,
        fault_plan: FaultPlan | None = None,
    ):
        self.options = options or ServeOptions.from_env()
        if fault_plan is None:
            fault_plan = FaultPlan.from_env()
        self._fault_plan = fault_plan
        n = self.options.num_shards
        self.ring = HashRing(n)
        self._queues: list[deque] = [deque() for _ in range(n)]
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
        #: (runtime built outside batch deadlines)
        self._warmed_plans: list[set] = [set() for _ in range(n)]
        #: per shard: times its worker process died and was re-initialized
        self._restarts = [0] * n
        #: serialises the in-parent degraded tier: shards degraded at once
        #: share one GIL, so their batches run one at a time
        self._degraded_lock = threading.Lock()
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
        #: per shard: its books, fed by _execute and the warm calls
        self._books = [ShardMetrics(shard=s) for s in range(n)]
        #: per job tag: outcome counters (campaign-aware accounting)
        self._tag_counts: dict[str, dict[str, int]] = {}
        #: guards the books and the tag counts: _execute runs on every
        #: dispatcher thread
        self._books_lock = threading.Lock()
        if self.options.executor == "process":
            self._supervisors = [
                ShardSupervisor(self.options.supervision) for _ in range(n)
            ]
            self._pools = [self._make_pool(s) for s in range(n)]
            # one dispatcher per shard: each worker process computes in
            # parallel with the others
            self._groups = [[s] for s in range(n)]
            self._conds = [threading.Condition() for _ in range(n)]
        else:
            self._workers = [
                ShardWorker(
                    s,
                    plan_budget=self.options.plan_budget,
                    injector=FaultInjector(fault_plan, s) if fault_plan else None,
                )
                for s in range(n)
            ]
            # one dispatcher for every thread shard, waiting on one
            # condition: the shards share one GIL, so a second dispatcher
            # would add a hand-off and no compute
            self._groups = [list(range(n))]
            self._conds = [threading.Condition()] * n

    def _make_pool(self, shard: int) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(
            max_workers=1,
            initializer=_process_init,
            initargs=(shard, self.options.plan_budget, self._fault_plan),
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
        with self._books_lock:  # the new worker's plan cache is empty
            self._books[shard].cache_levels.pop("primary", None)
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
                raise ServiceOverloaded(
                    f"shard {shard} queue full "
                    f"({len(q)}/{self.options.queue_bound} jobs)"
                )
            q.append((job, handle))
            self._max_depth[shard] = max(self._max_depth[shard], len(q))
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
    def _take_batch(self, shard: int, batch: list[tuple]) -> list[tuple]:
        """Extend ``batch`` with the shard's queued jobs that share its
        head's plan, up to ``max_batch`` (caller holds the shard condition
        lock); returns ``batch``."""
        key = batch[0][0].plan.key
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
                results, delta = self._execute_process(shard, jobs)
            else:
                assert self._workers is not None
                results, delta = self._workers[shard].execute_batch(jobs)
            # the books are fed here, whichever worker ran the batch, and
            # before any caller sees a result
            with self._books_lock:
                self._books[shard].record(results, delta)
                for res in results:
                    if tags[res.job_id]:  # tags never ship to workers
                        c = self._tag_counts.setdefault(
                            tags[res.job_id],
                            {"ok": 0, "failed": 0, "shed": 0, "retried": 0},
                        )
                        c[res.status] += 1
                        c["retried"] += res.retried
            for res in results:
                handles[res.job_id].set_result(res)
                self._completed_ids.append(res.job_id)
        finally:
            self._inflight[shard] = []
        self._maybe_checkpoint()

    # ------------------------------------------------------------------
    # process-executor dispatch: publish-once plans, by-value state
    # stacks, BrokenProcessPool self-healing
    def _publish_plan(self, shard: int, plan: SolvePlan) -> None:
        assert self._pools is not None
        if plan.key not in self._published_plans[shard]:
            self._pools[shard].submit(_process_publish_plan, plan).result()
            self._published_plans[shard].add(plan.key)

    def _warm_worker(self, shard: int, plan: SolvePlan) -> None:
        """Warm a published plan in the shard worker *before* its first
        timed batch: the worker builds the PlanRuntime (O(N^2) pair
        tables) under the separate — untimed by default —
        ``warm_deadline_s`` budget, so
        ``batch_deadline_s`` only ever measures warm execution.  Once
        per (worker incarnation, plan); a worker restart clears the
        warmed set along with the published set."""
        assert self._pools is not None
        if plan.key in self._warmed_plans[shard]:
            return
        deadline = self.options.supervision.warm_deadline_s
        future = self._pools[shard].submit(_process_warm, plan.key)
        try:
            spent = future.result(deadline if deadline > 0 else None)
        except FuturesTimeout:
            self._kill_worker(shard)
            with suppress(Exception):
                future.cancel()
            raise WorkerHang(
                f"shard {shard} worker missed the {deadline:.3g}s warm "
                "deadline; the process was killed"
            ) from None
        self._warmed_plans[shard].add(plan.key)
        with self._books_lock:
            self._books[shard].warm_calls += 1
            self._books[shard].warm_seconds += spent

    def _await_worker(self, shard: int, future) -> tuple[list, dict]:
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

    def _process_round(self, shard: int, jobs: list[SolveJob]) -> tuple[list, dict]:
        """One publish-if-needed + execute round against a shard worker."""
        assert self._pools is not None
        plan = jobs[0].plan
        self._publish_plan(shard, plan)
        self._warm_worker(shard, plan)
        states = np.stack([j.state for j in jobs])
        meta = [(j.job_id, j.deadline, j.submitted) for j in jobs]
        pool = self._pools[shard]
        try:
            return self._await_worker(
                shard, pool.submit(_process_execute, plan.key, meta, states)
            )
        except PlanNotPublished:
            # defensive: the worker lost its store without breaking the
            # pool — republish and retry once
            self._published_plans[shard].discard(plan.key)
            self._warmed_plans[shard].discard(plan.key)
            self._publish_plan(shard, plan)
            self._warm_worker(shard, plan)
            return self._await_worker(
                shard, pool.submit(_process_execute, plan.key, meta, states)
            )

    def _execute_degraded(self, shard: int, jobs: list[SolveJob]) -> tuple[list, dict]:
        """Serve a batch on the in-parent degraded tier.

        The degraded worker is a plain :class:`ShardWorker` living in the
        service process.  Numerics are bitwise-identical to the primary
        tier — both run the same batched kernels on the same batch
        composition — only throughput degrades.  Availability over speed.
        """
        worker = self._degraded_workers.get(shard)
        if worker is None:
            worker = ShardWorker(
                shard, plan_budget=self.options.plan_budget, tier="degraded"
            )
            self._degraded_workers[shard] = worker
        sup = self._supervisors[shard] if self._supervisors else None
        if sup is not None:
            with sup.lock:
                sup.counters["degraded_batches"] += 1
                sup.counters["degraded_jobs"] += len(jobs)
        with self._degraded_lock:
            return worker.execute_batch(jobs)

    def _execute_process(self, shard: int, jobs: list[SolveJob]) -> tuple[list, dict]:
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

    def _dispatch_loop(self, shards: list[int]) -> None:
        """Serve ``shards`` (which share one condition) one batch at a
        time: the shard whose queue head was submitted first goes next,
        so no shard starves behind a busier one."""
        cond = self._conds[shards[0]]
        queues = self._queues
        wait_s = self.options.max_wait_ms / 1e3
        while True:
            with cond:
                while not any(queues[s] for s in shards):
                    if self._stop.is_set():
                        return
                    # submit() and stop() notify under this lock: no
                    # wake-up is missed, so idle dispatchers sleep until then
                    cond.wait()
                shard = min(
                    (s for s in shards if queues[s]),
                    key=lambda s: queues[s][0][0].submitted,
                )
                batch = self._take_batch(shard, [queues[shard].popleft()])
                # hold the coalescing window open while the batch fills
                deadline = time.monotonic() + wait_s
                while len(batch) < self.options.max_batch:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        break
                    cond.wait(remaining)
                    self._take_batch(shard, batch)
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
                args=(shards,),
                name=f"serve-shard-{shards[0]}",
                daemon=True,
            )
            for shards in self._groups
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
                    batch = self._take_batch(shard, [q.popleft()])
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
        killed (SIGKILL, OOM, node loss): every pending job is
        re-admitted under its original job id with its deadline
        re-anchored from the stored remaining seconds.  Jobs
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
        }
        return handles

    # ------------------------------------------------------------------
    # observability
    def shard_snapshots(self) -> list[dict]:
        """Each shard's books plus the admission, restart and
        supervision counts the service keeps: parent state only, so
        reading them sends nothing to a worker and restarts none."""
        with self._books_lock:
            snaps = [books.snapshot() for books in self._books]
        for s, snap in enumerate(snaps):
            snap["rejected_submissions"] = self._rejected[s]
            snap["max_queue_depth"] = self._max_depth[s]
            snap["worker_restarts"] = self._restarts[s]
            sup = self._supervisors[s].snapshot() if self._supervisors else {}
            for k in _SUPERVISION_KEYS:
                snap[k] = sup.get(k, 0)
            if sup:
                for k in (
                    "heartbeat_misses",
                    "degraded_jobs",
                    "restart_backoff_sleep_s",
                    "recoveries",
                    "mean_recovery_s",
                    "breaker",
                ):
                    snap[k] = sup[k]
        return snaps

    def snapshot(self) -> dict:
        """Service-level rollup (JSON-able; see report.serve_summary)."""
        shards = self.shard_snapshots()
        with self._books_lock:
            by_tag = {tag: dict(c) for tag, c in sorted(self._tag_counts.items())}
        total_jobs = sum(
            s["jobs_ok"] + s["jobs_failed"] + s["jobs_shed"] for s in shards
        )
        caches = [s["plan_cache"] for s in shards]
        hits = sum(c["hits"] for c in caches)
        misses = sum(c["misses"] for c in caches)
        if self._workers is None:  # a process per shard, a copy per process
            plan_bytes = sum(c["bytes"] for c in caches)
        else:  # thread shards share one process: each space charged once
            plan_bytes = resident_bytes(
                rt for w in self._workers for rt in w.plans.runtimes()
            )
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
                "by_tag": by_tag,
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
                "bytes": plan_bytes,
                "hits": hits,
                "misses": misses,
                "evictions": sum(c["evictions"] for c in caches),
                "hit_rate": hits / max(1, hits + misses),
            },
            "solver": solver_tot,
            "shards": shards,
        }
