"""Names, units and bounds of everything the benchmark reports.

Imported by the runner (which must not import numpy) and by the workload
subprocess; ``BENCHMARK.json`` at the repo root lists the *tracked*
subset and ``test_harness.py`` checks the two agree.
"""

from __future__ import annotations

from typing import NamedTuple

#: workload name -> why it exists (one line each; the README has the
#: measured per-layer shares behind these)
WORKLOADS = {
    "serve_e_q3_b64": (
        "Headline drain-mode round: 64 electron Q3 jobs in one batch; "
        "element assembly and band factor dominate, so either must show here"
    ),
    "live_e_q2_b8": (
        "Started service, 4 small Q2 plans in batches of 8: dispatcher "
        "threads, GIL hand-off and per-sweep Python overhead dominate, "
        "kernels barely matter"
    ),
    "serve_ed_q2_otf_b16": (
        "Electron+deuterium with Landau tensors recomputed on the fly each "
        "sweep (the paper's regime): the Algorithm-1 inner integral dominates"
    ),
    "live_e_q3_proc": (
        "Same Q3 numerics behind the process executor: isolates shm/IPC, "
        "plan publication and cross-shard parallelism"
    ),
    "campaign_q2_m16": (
        "16-member two-species quench campaign with ledger writes: the top "
        "tier's members/hour, band factor heaviest, bookkeeping between rounds"
    ),
}


#: served vs sequential states must agree to this relative error
MAX_REL_ERR = 1e-10


class Metric(NamedTuple):
    name: str
    unit: str
    better: str  # "lower" | "higher"
    #: share of the baseline median by which the metric may worsen;
    #: 0.0 = any worsening counts; None = no relative bound (per-layer
    #: metrics, and max_rel_err, which has the MAX_REL_ERR ceiling)
    bound: float | None = None
    #: listed in BENCHMARK.json (defined and non-zero on every workload)
    tracked: bool = True


#: The nine end-to-end metrics.  The three untracked ones are still
#: printed, written to ``--out`` and judged by ``--compare``; they cannot
#: be in BENCHMARK.json because they are zero (fail_share), not a
#: bounded ratio (max_rel_err) or defined on one workload only
#: (members_per_hour, which is campaign jobs_per_s times a constant).
END_TO_END = (
    Metric("jobs_per_s", "1/s", "higher", 0.25),
    Metric("job_latency_ms_p50", "ms", "lower", 0.25),
    Metric("job_latency_ms_p90", "ms", "lower", 0.25),
    Metric("job_latency_ms_p99", "ms", "lower", 0.25),
    Metric("members_per_hour", "1/h", "higher", 0.25, tracked=False),
    Metric("fail_share", "ratio", "lower", 0.0, tracked=False),
    Metric("max_rel_err", "ratio", "lower", None, tracked=False),
    Metric("setup_s", "s", "lower", 0.25),
    Metric("peak_rss_mb", "MB", "lower", 0.10),
)

#: span name -> "module:Class.attr" of the public callable it wraps
SPANS = {
    "serve.service.submit": "repro.serve.service:CollisionSolveService.submit",
    "serve.service.drain": "repro.serve.service:CollisionSolveService.drain",
    "serve.job.wait": "repro.serve.jobs:JobHandle.result",
    "serve.shard.execute_batch": "repro.serve.shard:ShardWorker.execute_batch",
    "serve.plan.get": "repro.serve.plan:PlanCache.get",
    "core.batch.step": "repro.core.batch:BatchedVertexSolver.step",
    "core.operator.fields_batch": "repro.core.operator:LandauOperator.fields_batch",
    "core.operator.species_data_batch": (
        "repro.core.operator:LandauOperator.species_data_batch"
    ),
    "sparse.band.factor_batch": (
        "repro.sparse.band:CachedBandSolverFactory.factor_batch"
    ),
    "sparse.band.solve_many": "repro.sparse.band:BatchedBandSolver.solve_many",
    "backend.matmul": "repro.backend.numpy_backend:NumpyBackend.matmul",
    "backend.field_rows": "repro.backend.numpy_backend:NumpyBackend.field_rows",
    "backend.contract": "repro.backend.numpy_backend:NumpyBackend.contract",
    "backend.scatter_apply": (
        "repro.backend.numpy_backend:NumpyBackend.scatter_apply"
    ),
    "backend.banded_factor_many": (
        "repro.backend.numpy_backend:NumpyBackend.banded_factor_many"
    ),
    "backend.banded_solve_many": (
        "repro.backend.numpy_backend:NumpyBackend.banded_solve_many"
    ),
    "ensemble.campaign.run": "repro.ensemble.campaign:CampaignDriver.run",
    "ensemble.campaign.write_ledger": (
        "repro.ensemble.campaign:CampaignDriver.write_ledger"
    ),
    "ensemble.campaign.statistics": (
        "repro.ensemble.campaign:CampaignDriver.statistics"
    ),
}

#: counters and ratios; counts are per timed round so they repeat exactly
#: on the drain-mode workloads however many rounds fit in the run
COUNTERS = (
    Metric("core.batch.sweeps_per_batch", "count", "lower"),
    Metric("core.batch.factorizations_per_job", "count", "lower"),
    Metric("core.batch.accelerated_sweep_share", "ratio", "higher"),
    Metric("core.batch.launch_reduction", "ratio", "higher"),
    Metric("sparse.band.symbolic_setups", "count", "lower"),
    Metric("serve.plan.hit_rate", "ratio", "higher"),
    Metric("serve.plan.bytes", "B", "lower"),
    Metric("serve.plan.evictions", "count", "lower"),
    Metric("serve.shard.batches", "count", "lower"),
    Metric("serve.shard.batch_size_mean", "count", "higher"),
    Metric("serve.shard.idle_share", "ratio", "lower"),
    Metric("serve.shard.warm_seconds", "s", "lower"),
    Metric("serve.service.queue_depth_max", "count", "lower"),
    Metric("serve.service.worker_restarts", "count", "lower"),
    Metric("resilience.retried_jobs", "count", "lower"),
    Metric("resilience.retry_steps", "count", "lower"),
    Metric("resilience.degraded_jobs", "count", "lower"),
    Metric("backend.shm_segments_leaked", "count", "lower"),
    Metric("ensemble.campaign.rounds", "count", "lower"),
    Metric("ensemble.campaign.write_ledger.bytes", "B", "lower"),
    Metric("proc.cpu_s_per_job", "s", "lower"),
    Metric("proc.cpu_over_wall", "ratio", "higher"),
    Metric("core.operator.fields_flops_computed", "flop/job", "lower"),
    Metric("core.operator.fields_bytes_computed", "B/job", "lower"),
    Metric("sparse.band.factor_flops_computed", "flop/job", "lower"),
    Metric("trace.overhead_share", "ratio", "lower"),
    Metric("trace.unattributed_share", "ratio", "lower"),
)


def per_layer() -> tuple[Metric, ...]:
    """Every per-layer metric: three per span, then the counters."""
    spans = tuple(
        Metric(f"{span}.{suffix}", unit, "lower")
        for span in SPANS
        for suffix, unit in (("calls", "count"), ("self_s", "s"), ("share", "ratio"))
    )
    return spans + COUNTERS
