"""Shard workers: warm per-plan runtimes, batch execution and the retry path.

Each shard owns a bounded job queue, a :class:`~repro.serve.plan.PlanCache`
of warm runtimes (one ``LandauOperator`` + ``CachedBandSolverFactory`` per
plan — consistent hashing keeps a plan's jobs on one shard so its pair
tables and band symbolics are built once), and the execution pipeline:

1. deadline-expired jobs are shed before any compute;
2. the surviving jobs are stacked and advanced by one
   :meth:`BatchedVertexSolver.step`;
3. an optional fault-injection shim (``repro.resilience.faults``) corrupts
   or rejects per-job results, exactly like a transient hardware fault;
4. jobs whose vertex did not converge — or came back non-finite — are
   routed through the PR-1 retry/backoff path
   (:meth:`ImplicitLandauSolver.advance` under a
   :class:`TimeStepController`) *individually*, so one hard vertex cannot
   poison the batch;
5. every admitted job gets exactly one :class:`JobResult`.

With ``executor="process"`` the same pipeline runs inside a
``concurrent.futures.ProcessPoolExecutor`` worker (one per shard), with a
module-global plan cache warmed per process.  Plans are **published**
once per worker (:func:`_process_publish_plan`) so per-batch dispatch
ships only the plan key, job metadata and the state stack, by value —
the warm ``PlanRuntime`` tensors never cross the pipe at all.  A worker
that has lost its plans (fresh or restarted process) raises
:class:`PlanNotPublished` and the service republishes and retries.
"""

from __future__ import annotations

import os
import threading
import time

import numpy as np

from ..resilience.controller import TimeStepController
from ..resilience.exceptions import InjectedFault, SolveFailure, StepRejected
from ..resilience.faults import FaultInjector
from .jobs import STATUS_FAILED, STATUS_OK, STATUS_SHED, JobResult, SolveJob
from .metrics import BATCH_KEYS, CACHE_COUNTS, SOLVER_KEYS
from .plan import PlanCache, PlanRuntime

__all__ = ["ShardWorker", "execute_jobs"]


def _retry_job(runtime: PlanRuntime, job: SolveJob) -> tuple[np.ndarray, int]:
    """Re-solve one job from its original state through the adaptive
    retry/backoff path: substep to ``dt`` with a halving controller.

    Returns ``(final state, substeps taken)``; raises
    :class:`SolveFailure` when the backoff budget is exhausted.
    """
    plan = runtime.plan
    solver = runtime.retry_solver()
    controller = TimeStepController(
        dt_init=plan.dt / 2.0,
        dt_min=plan.dt / 1024.0,
        dt_max=plan.dt,
        max_retries=10,
    )
    fields = [job.state[s].copy() for s in range(len(plan.species))]
    accepts0 = controller.total_accepts
    out, _t = solver.advance(fields, t_final=plan.dt, controller=controller)
    return np.stack(out), controller.total_accepts - accepts0


def execute_jobs(
    runtime: PlanRuntime,
    jobs: list[SolveJob],
    fault_shim=None,
) -> list[JobResult]:
    """Run one micro-batch through the warm runtime (steps 2-5 above).

    ``fault_shim(job_index, state) -> state`` may raise
    :class:`InjectedFault` or return a corrupted state; both route the job
    to the retry path.  Returns one result per job, in input order; each
    job's latency is submit -> its result.
    """
    plan = runtime.plan
    solver = runtime.solver
    out = solver.step(np.stack([j.state for j in jobs]), plan.dt)
    converged = solver.last_converged
    sweeps = solver.last_sweeps

    results: list[JobResult] = []
    for b, job in enumerate(jobs):
        state_b = out[b]
        err: str | None = None
        needs_retry = not bool(converged[b])
        if fault_shim is not None and not needs_retry:
            try:
                state_b = fault_shim(b, state_b)
            except InjectedFault as exc:
                err = f"{type(exc).__name__}: {exc}"
                needs_retry = True
        if not needs_retry and not np.all(np.isfinite(state_b)):
            err = "non-finite state from batched solve"
            needs_retry = True
        retried = False
        substeps = int(sweeps[b])
        if needs_retry:
            retried = True
            try:
                state_b, substeps = _retry_job(runtime, job)
            except (SolveFailure, StepRejected) as exc:
                results.append(
                    JobResult(
                        job_id=job.job_id,
                        status=STATUS_FAILED,
                        error=err or f"{type(exc).__name__}: {exc}",
                        batch_size=len(jobs),
                        retried=True,
                        latency_s=time.monotonic() - job.submitted,
                    )
                )
                continue
        results.append(
            JobResult(
                job_id=job.job_id,
                status=STATUS_OK,
                state=state_b,
                error=err,
                batch_size=len(jobs),
                sweeps=substeps,
                retried=retried,
                latency_s=time.monotonic() - job.submitted,
            )
        )
    return results


def _runtime_counters(runtime: PlanRuntime) -> list[int]:
    """The runtime's running solver counts, in ``SOLVER_KEYS`` order."""
    st, retry = runtime.solver.stats, runtime._retry_solver
    retries = (retry.stats.time_steps, retry.stats.dt_backoffs) if retry else (0, 0)
    return [*(getattr(st, k) for k in BATCH_KEYS), *retries]


class ShardWorker:
    """One shard's plan cache + the batch pipeline.

    The service's dispatcher (thread mode: one for every thread shard),
    the process-pool worker or the in-parent degraded tier (``tier``)
    calls :meth:`execute_batch` with micro-batches of same-plan jobs.
    The worker keeps no books: each batch's counter delta travels back
    with its results, and the service adds it to the shard's.
    """

    def __init__(
        self,
        shard_id: int,
        plan_budget: int | None = None,
        injector=None,
        tier: str = "primary",
    ):
        self.shard_id = shard_id
        self.tier = tier
        self.plans = PlanCache(budget=plan_budget)
        self._injector = injector
        #: plan-cache hits, misses, evictions and injected faults as of
        #: this worker's last delta
        self._reported = [0, 0, 0, 0]
        self._fault_shim = None
        if injector is not None:
            # adapt FaultInjector's factory(A)->solve(b) wrapping to a
            # per-job result shim: each delivered state passes through a
            # wrapped identity "solve", advancing the injector's seeded
            # counters exactly once per job
            faulty_identity = injector.wrap_factory(
                lambda A: (lambda x: x), name=f"shard-{shard_id}"
            )

            def shim(_index: int, state: np.ndarray) -> np.ndarray:
                flat = faulty_identity(None)(state.ravel())
                return np.asarray(flat, dtype=float).reshape(state.shape)

            self._fault_shim = shim

    def warm_plan(self, plan) -> float:
        """Build (or touch) the plan's runtime, so the first *timed*
        batch never pays the O(N^2) pair-table build.  Returns the
        seconds this call spent."""
        t0 = time.monotonic()
        self.plans.get(plan)
        return time.monotonic() - t0

    def execute_batch(self, jobs: list[SolveJob]) -> tuple[list[JobResult], dict]:
        """Shed the expired jobs and run the rest as one batch.

        Returns one result per job (the shed ones first), and the batch's
        counter delta: what it added to the runtime's solver counts, the
        plan-cache counts and injected faults since this worker's last
        delta (so a warm call's plan build rides with the next batch),
        and the plan cache's current ``plans`` and ``bytes``.
        """
        now = time.monotonic()
        live: list[SolveJob] = []
        results: list[JobResult] = []
        for job in jobs:
            if job.expired(now):
                results.append(
                    JobResult(
                        job_id=job.job_id,
                        status=STATUS_SHED,
                        error="deadline passed while queued",
                        latency_s=now - job.submitted,
                    )
                )
            else:
                live.append(job)
        solver = [0] * len(SOLVER_KEYS)
        if live:
            runtime = self.plans.get(live[0].plan)
            before = _runtime_counters(runtime)
            results += execute_jobs(runtime, live, fault_shim=self._fault_shim)
            solver = [a - b for a, b in zip(_runtime_counters(runtime), before)]
        for res in results:
            res.shard = self.shard_id
        injected = self._injector.n_injected if self._injector is not None else 0
        totals = [self.plans.hits, self.plans.misses, self.plans.evictions, injected]
        counts = [a - b for a, b in zip(totals, self._reported)]
        self._reported = totals
        delta = {
            "tier": self.tier,
            "solver": dict(zip(SOLVER_KEYS, solver)),
            "plan_cache": dict(
                zip(CACHE_COUNTS, counts),
                plans=len(self.plans),
                bytes=self.plans.bytes,
            ),
            "injected_faults": counts[-1],
        }
        return results, delta


# ----------------------------------------------------------------------
# process-executor support: one warm ShardWorker per worker process.
#
# Publication protocol: the service ships each SolvePlan to a shard's
# worker exactly once (_process_publish_plan); per-batch calls carry only
# (plan key, job metadata, state stack), pickled by value like the
# results that come back — the per-batch traffic is O(B * S * n), not
# O(plan runtime).

_PROCESS_WORKER: ShardWorker | None = None

#: plans published into this worker process, keyed by SolvePlan.key
_PLAN_STORE: dict[str, "SolvePlan"] = {}

#: this worker's FaultInjector (chaos runs only); its counters reset with
#: the process, so a replaced worker replays its schedule from index 0
_FAULT_INJECTOR = None


class PlanNotPublished(RuntimeError):
    """This worker has no published plan for the requested key (it is
    fresh, or was restarted after a crash); the service republishes the
    plan and retries the batch."""


#: seconds between a pool worker's checks that its service still lives
PARENT_POLL_S = 1.0


def _exit_with_parent(parent: int) -> None:
    """Exit this worker once the process that started it is gone: a
    SIGKILLed service never closes the call queue, so a worker blocked
    on it would otherwise wait forever."""
    while os.getppid() == parent:
        time.sleep(PARENT_POLL_S)
    os._exit(0)


def _process_init(shard_id: int, plan_budget: int | None, fault_plan=None) -> None:
    """Worker initializer: warm shard state + optional chaos install, and
    a daemon thread that ends the worker with its service
    (:func:`_exit_with_parent`).

    A :class:`~repro.resilience.faults.FaultPlan` becomes one worker-local
    injector that serves both the per-dispatch faults (crash, hang) and
    the per-job solver faults — deterministic for a fixed batch order,
    whichever process runs it.
    """
    global _PROCESS_WORKER, _FAULT_INJECTOR
    threading.Thread(
        target=_exit_with_parent,
        args=(os.getppid(),),
        name="repro-parent-watch",
        daemon=True,
    ).start()
    _FAULT_INJECTOR = FaultInjector(fault_plan, shard_id) if fault_plan else None
    _PROCESS_WORKER = ShardWorker(
        shard_id, plan_budget=plan_budget, injector=_FAULT_INJECTOR
    )
    _PLAN_STORE.clear()


def _process_heartbeat() -> int:
    """Liveness probe for the watchdog; a hung worker never answers."""
    return os.getpid()


def _process_publish_plan(plan) -> str:
    """Install one plan in this worker's store (idempotent)."""
    assert _PROCESS_WORKER is not None, "process worker not initialized"
    _PLAN_STORE[plan.key] = plan
    return plan.key


def _process_warm(plan_key: str) -> float:
    """Warm one published plan in this worker, **outside** any batch
    deadline: builds the PlanRuntime (response tables, band symbolics).  The
    service calls this once per (worker incarnation, plan) before the
    first timed ``_process_execute``, so batch deadlines measure warm
    execution only."""
    assert _PROCESS_WORKER is not None, "process worker not initialized"
    plan = _PLAN_STORE.get(plan_key)
    if plan is None:
        raise PlanNotPublished(plan_key)
    return _PROCESS_WORKER.warm_plan(plan)


def _process_execute(
    plan_key: str, meta: list[tuple], states: np.ndarray
) -> tuple[list[JobResult], dict]:
    """Run one micro-batch against a previously published plan.

    ``meta`` is ``[(job_id, deadline, submitted), ...]``; ``states`` is
    the ``(B, S, n)`` state stack, one row per job.  Returns what
    :meth:`ShardWorker.execute_batch` returns: the results and the
    batch's counter delta.
    """
    assert _PROCESS_WORKER is not None, "process worker not initialized"
    plan = _PLAN_STORE.get(plan_key)
    if plan is None:
        raise PlanNotPublished(plan_key)
    if _FAULT_INJECTOR is not None:
        # chaos schedule runs before the batch is touched: a crash or
        # hang here models a worker dying/stalling with the batch state
        # still owned by the service (which must retry or degrade)
        _FAULT_INJECTOR.on_dispatch()
    jobs = [
        SolveJob(
            plan=plan,
            state=states[i],
            job_id=job_id,
            deadline=deadline,
            submitted=submitted,
        )
        for i, (job_id, deadline, submitted) in enumerate(meta)
    ]
    return _PROCESS_WORKER.execute_batch(jobs)
