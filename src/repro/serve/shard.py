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
ships only the plan key, job metadata and the state stack — the states
ride a shared-memory segment (:mod:`repro.backend.shm`), and the warm
``PlanRuntime`` tensors never cross the pipe at all.  A worker that has
lost its plans (fresh or restarted process) raises
:class:`PlanNotPublished` and the service republishes and retries.
"""

from __future__ import annotations

import os
import time

import numpy as np

from ..resilience.controller import TimeStepController
from ..resilience.exceptions import InjectedFault, SolveFailure, StepRejected
from .jobs import STATUS_FAILED, STATUS_OK, STATUS_SHED, JobResult, SolveJob
from .metrics import ShardMetrics
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
) -> list[tuple[SolveJob, JobResult]]:
    """Run one micro-batch through the warm runtime (steps 2-5 above).

    ``fault_shim(job_index, state) -> state`` may raise
    :class:`InjectedFault` or return a corrupted state; both route the job
    to the retry path.  Returns ``(job, result)`` pairs in input order.
    """
    plan = runtime.plan
    solver = runtime.solver
    states = np.stack([j.state for j in jobs])
    t0 = time.monotonic()
    out = solver.step(states, plan.dt)
    converged = solver.last_converged
    sweeps = solver.last_sweeps
    batch_seconds = time.monotonic() - t0

    results: list[tuple[SolveJob, JobResult]] = []
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
                    (
                        job,
                        JobResult(
                            job_id=job.job_id,
                            status=STATUS_FAILED,
                            error=err or f"{type(exc).__name__}: {exc}",
                            batch_size=len(jobs),
                            retried=True,
                            latency_s=time.monotonic() - job.submitted,
                        ),
                    )
                )
                continue
        results.append(
            (
                job,
                JobResult(
                    job_id=job.job_id,
                    status=STATUS_OK,
                    state=state_b,
                    error=err,
                    batch_size=len(jobs),
                    sweeps=substeps,
                    retried=retried,
                    latency_s=time.monotonic() - job.submitted,
                ),
            )
        )
    # spread the shared batch compute into per-job latency accounting is
    # deliberate: each job's latency is submit -> its result, and the
    # batch finished at the same instant for all members
    del batch_seconds
    return results


class ShardWorker:
    """One shard: metrics + plan cache + the batch pipeline.

    The service's dispatcher (thread mode) or the process-pool worker
    calls :meth:`execute_batch` with micro-batches of same-plan jobs.
    """

    def __init__(
        self,
        shard_id: int,
        plan_budget: int | None = None,
        fault_injector=None,
    ):
        self.shard_id = shard_id
        self.metrics = ShardMetrics(shard=shard_id)
        self.plans = PlanCache(budget=plan_budget)
        #: untimed warm calls served (plan build + backend JIT warmup)
        self.warm_calls = 0
        self.warm_seconds = 0.0
        self._injector = fault_injector
        self._fault_shim = None
        if fault_injector is not None:
            # adapt FaultInjector's factory(A)->solve(b) wrapping to a
            # per-job result shim: each delivered state passes through a
            # wrapped identity "solve", advancing the injector's seeded
            # counters exactly once per job
            faulty_identity = fault_injector.wrap_factory(
                lambda A: (lambda x: x), name=f"shard-{shard_id}"
            )

            def shim(_index: int, state: np.ndarray) -> np.ndarray:
                flat = faulty_identity(None)(state.ravel())
                return np.asarray(flat, dtype=float).reshape(state.shape)

            self._fault_shim = shim

    def warm_plan(self, plan) -> float:
        """Build (or touch) the plan's runtime and warm its backend, so
        the first *timed* batch never pays the O(N^2) pair-table build
        or JIT compile cost.  Returns the seconds this call spent."""
        t0 = time.monotonic()
        runtime = self.plans.get(plan)
        runtime.warmup()
        spent = time.monotonic() - t0
        self.warm_calls += 1
        self.warm_seconds += spent
        return spent

    def execute_batch(self, jobs: list[SolveJob]) -> list[tuple[SolveJob, JobResult]]:
        now = time.monotonic()
        live: list[SolveJob] = []
        results: list[tuple[SolveJob, JobResult]] = []
        for job in jobs:
            if job.expired(now):
                self.metrics.jobs_shed += 1
                results.append(
                    (
                        job,
                        JobResult(
                            job_id=job.job_id,
                            status=STATUS_SHED,
                            error="deadline passed while queued",
                            shard=self.shard_id,
                            latency_s=now - job.submitted,
                        ),
                    )
                )
            else:
                live.append(job)
        if live:
            runtime = self.plans.get(live[0].plan)
            self.metrics.record_batch(len(live))
            executed = execute_jobs(runtime, live, fault_shim=self._fault_shim)
            for job, res in executed:
                res.shard = self.shard_id
                if res.status == STATUS_OK:
                    self.metrics.jobs_ok += 1
                else:
                    self.metrics.jobs_failed += 1
                if res.retried:
                    self.metrics.jobs_retried += 1
                self.metrics.latency.add(res.latency_s)
                results.append((job, res))
        if self._injector is not None:
            self.metrics.injected_faults = self._injector.n_injected
        return results

    # ------------------------------------------------------------------
    def solver_counters(self) -> dict:
        """Aggregate BatchStats + retry stats over the warm runtimes."""
        agg = {
            "field_launches": 0,
            "equivalent_unbatched_launches": 0,
            "factorizations": 0,
            "refactorizations": 0,
            "newton_sweeps": 0,
            "symbolic_setups": 0,
            "symbolic_reuses": 0,
            "accelerated_sweeps": 0,
            "retry_steps": 0,
            "retry_backoffs": 0,
        }
        for rt in self.plans.runtimes():
            st = rt.solver.stats
            agg["field_launches"] += st.field_launches
            agg["equivalent_unbatched_launches"] += st.equivalent_unbatched_launches
            agg["factorizations"] += st.factorizations
            agg["refactorizations"] += st.refactorizations
            agg["newton_sweeps"] += st.newton_sweeps
            agg["symbolic_setups"] += st.symbolic_setups
            agg["symbolic_reuses"] += st.symbolic_reuses
            agg["accelerated_sweeps"] += st.accelerated_sweeps
            if rt._retry_solver is not None:
                agg["retry_steps"] += rt._retry_solver.stats.time_steps
                agg["retry_backoffs"] += rt._retry_solver.stats.dt_backoffs
        launches = agg["field_launches"]
        # 0.0, not 1.0: a shard whose batches all shed before launching
        # did no batched work and reports no reduction
        agg["launch_reduction"] = (
            agg["equivalent_unbatched_launches"] / launches if launches else 0.0
        )
        return agg

    def snapshot(self) -> dict:
        return self.metrics.snapshot() | {
            "plan_cache": self.plans.counters(),
            "solver": self.solver_counters(),
            "warm_calls": self.warm_calls,
            "warm_seconds": round(self.warm_seconds, 6),
        }


# ----------------------------------------------------------------------
# process-executor support: one warm ShardWorker per worker process.
#
# Publication protocol: the service ships each SolvePlan to a shard's
# worker exactly once (_process_publish_plan); per-batch calls carry only
# (plan key, job metadata, state payload).  The state stack travels in a
# shared-memory segment owned by the service's arena — the worker copies
# it out and the service frees the segment when the call returns — so the
# per-batch pickle traffic is O(job ids), not O(plan runtime).

_PROCESS_WORKER: ShardWorker | None = None

#: plans published into this worker process, keyed by SolvePlan.key
_PLAN_STORE: dict[str, "SolvePlan"] = {}

#: the installed FaultPlanState (chaos runs only); counters reset with
#: the process, so a replaced worker replays its schedule from index 0
_FAULT_STATE = None


class PlanNotPublished(RuntimeError):
    """This worker has no published plan for the requested key (it is
    fresh, or was restarted after a crash); the service republishes the
    plan and retries the batch."""


def _process_init(
    shard_id: int, plan_budget: int | None, fault_payload=None
) -> None:
    """Worker initializer: warm shard state + optional chaos install.

    ``fault_payload`` is either a picklable
    :class:`~repro.resilience.faultplan.FaultPlan` (full schedule:
    solver faults interpreted by a worker-local injector, crash/hang/
    shm-attach faults interpreted per dispatch) or a picklable ad-hoc
    :class:`~repro.resilience.faults.FaultInjector` (solver faults
    only).  Each worker owns its own copy — deterministic for a fixed
    batch order, exactly like PR 1's in-process chaos tests.
    """
    global _PROCESS_WORKER, _FAULT_STATE
    from ..resilience.faultplan import FaultPlan, FaultPlanState

    injector = None
    _FAULT_STATE = None
    if isinstance(fault_payload, FaultPlan):
        _FAULT_STATE = FaultPlanState(fault_payload, shard_id)
        injector = fault_payload.injector(shard_id)
    elif fault_payload is not None:
        injector = fault_payload
    _PROCESS_WORKER = ShardWorker(
        shard_id, plan_budget=plan_budget, fault_injector=injector
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
    deadline: builds the PlanRuntime (pair tables, band symbolics) and
    runs the backend's :meth:`warmup` (numba JIT compilation).  The
    service calls this once per (worker incarnation, plan) before the
    first timed ``_process_execute``, so batch deadlines measure warm
    execution only."""
    assert _PROCESS_WORKER is not None, "process worker not initialized"
    plan = _PLAN_STORE.get(plan_key)
    if plan is None:
        raise PlanNotPublished(plan_key)
    return _PROCESS_WORKER.warm_plan(plan)


def _process_execute(
    plan_key: str, meta: list[tuple], payload
) -> list[tuple[str, JobResult]]:
    """Run one micro-batch against a previously published plan.

    ``meta`` is ``[(job_id, deadline, submitted), ...]``; ``payload`` is
    ``("shm", ShmHandle)`` for a shared-memory ``(B, S, n)`` state stack
    or ``("inline", ndarray)`` when the arena declined the segment.
    """
    assert _PROCESS_WORKER is not None, "process worker not initialized"
    plan = _PLAN_STORE.get(plan_key)
    if plan is None:
        raise PlanNotPublished(plan_key)
    kind, data = payload
    if _FAULT_STATE is not None:
        # chaos schedule runs before the payload is touched: a crash or
        # hang here models a worker dying/stalling with the batch state
        # still owned by the service (which must retry or degrade)
        _FAULT_STATE.on_dispatch(kind)
    if kind == "shm":
        from ..backend.shm import attach_copy

        states = attach_copy(data)
    else:
        states = np.asarray(data)
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
    return [
        (job.job_id, res) for job, res in _PROCESS_WORKER.execute_batch(jobs)
    ]


def _process_snapshot() -> dict:
    assert _PROCESS_WORKER is not None, "process worker not initialized"
    return _PROCESS_WORKER.snapshot()
