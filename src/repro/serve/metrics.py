"""Per-shard and service-level metrics for the collision solve service.

Everything an operator needs to size the service lives here: queue depth
(admission headroom), the batch-size histogram (is the micro-batcher
actually coalescing?), launch reduction (the paper's batching win),
latency percentiles (the tail users see), and the plan-cache counters
(are pair tables/band symbolics being rebuilt?).  Snapshots are plain
JSON-able dicts — :func:`repro.report.serve_summary` renders them and
the tracked benchmark (``benchmarks/e2e``) records them per workload.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .jobs import STATUS_OK, STATUS_SHED

__all__ = ["LatencyRing", "ShardMetrics", "percentile"]


def percentile(sorted_values: list, p: float) -> float:
    """Linear-interpolation percentile of an already sorted list."""
    if not sorted_values:
        return 0.0
    if len(sorted_values) == 1:
        return float(sorted_values[0])
    rank = (p / 100.0) * (len(sorted_values) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(sorted_values) - 1)
    frac = rank - lo
    return float(sorted_values[lo] * (1.0 - frac) + sorted_values[hi] * frac)


class LatencyRing:
    """Bounded ring of latency samples (seconds); long-running services
    keep the most recent ``maxlen`` and count the evicted ones."""

    def __init__(self, maxlen: int = 4096):
        self.maxlen = int(maxlen)
        self._samples: list[float] = []
        self.dropped = 0

    def add(self, seconds: float) -> None:
        self._samples.append(float(seconds))
        excess = len(self._samples) - self.maxlen
        if excess > 0:
            del self._samples[:excess]
            self.dropped += excess

    def __len__(self) -> int:
        return len(self._samples)

    def percentiles(self, ps=(50.0, 99.0)) -> dict:
        ordered = sorted(self._samples)
        return {f"p{int(p)}_ms": percentile(ordered, p) * 1e3 for p in ps}


#: the batched step's ``BatchStats`` counters a shard accumulates ...
BATCH_KEYS = (
    "field_launches",
    "equivalent_unbatched_launches",
    "factorizations",
    "refactorizations",
    "newton_sweeps",
    "symbolic_setups",
    "symbolic_reuses",
    "accelerated_sweeps",
)

#: ... and the solver counters with the retry path's steps and backoffs
SOLVER_KEYS = (*BATCH_KEYS, "retry_steps", "retry_backoffs")

#: the plan cache's running counts (its ``plans`` and ``bytes`` are levels)
CACHE_COUNTS = ("hits", "misses", "evictions")


@dataclass
class ShardMetrics:
    """One shard's books, kept by the service in its own process.

    Job outcomes, the batch-size histogram and latencies are counted
    from the results the service delivers; solver, plan-cache and
    injected-fault counts are added from each batch's counter delta
    (:meth:`repro.serve.shard.ShardWorker.execute_batch`), whichever
    worker ran it.  So the books outlive worker restarts and plan
    evictions, and reading them sends nothing to a worker.
    """

    shard: int = 0
    jobs_ok: int = 0
    jobs_failed: int = 0
    jobs_shed: int = 0
    jobs_retried: int = 0
    batches: int = 0
    batch_size_hist: dict = field(default_factory=dict)
    #: solver faults fired by the injector
    injected_faults: int = 0
    solver: dict = field(default_factory=lambda: dict.fromkeys(SOLVER_KEYS, 0))
    cache: dict = field(default_factory=lambda: dict.fromkeys(CACHE_COUNTS, 0))
    #: per worker tier: its plan cache's latest ``(plans, bytes)``
    cache_levels: dict = field(default_factory=dict)
    #: untimed plan builds in process workers, outside any batch
    warm_calls: int = 0
    warm_seconds: float = 0.0
    latency: LatencyRing = field(default_factory=LatencyRing)

    def record(self, results: list, delta: dict) -> None:
        """Count one batch's delivered ``JobResult`` s and add its delta."""
        executed = 0
        for res in results:
            if res.status == STATUS_SHED:
                self.jobs_shed += 1
                continue
            executed += 1
            if res.status == STATUS_OK:
                self.jobs_ok += 1
            else:
                self.jobs_failed += 1
            if res.retried:
                self.jobs_retried += 1
            self.latency.add(res.latency_s)
        if executed:
            self.batches += 1
            hist = self.batch_size_hist
            hist[executed] = hist.get(executed, 0) + 1
        for k in SOLVER_KEYS:
            self.solver[k] += delta["solver"][k]
        pc = delta["plan_cache"]
        for k in CACHE_COUNTS:
            self.cache[k] += pc[k]
        self.cache_levels[delta["tier"]] = (pc["plans"], pc["bytes"])
        self.injected_faults += delta["injected_faults"]

    def snapshot(self) -> dict:
        hits, misses = self.cache["hits"], self.cache["misses"]
        launches = self.solver["field_launches"]
        return {
            "shard": self.shard,
            "jobs_ok": self.jobs_ok,
            "jobs_failed": self.jobs_failed,
            "jobs_shed": self.jobs_shed,
            "jobs_retried": self.jobs_retried,
            "batches": self.batches,
            "batch_size_hist": {
                str(k): v for k, v in sorted(self.batch_size_hist.items())
            },
            "injected_faults": self.injected_faults,
            "latency": self.latency.percentiles() | {"samples": len(self.latency)},
            "plan_cache": {
                "plans": sum(p for p, _ in self.cache_levels.values()),
                "bytes": sum(b for _, b in self.cache_levels.values()),
                **self.cache,
                "hit_rate": hits / max(1, hits + misses),
            },
            # 0.0, not 1.0: a shard whose batches all shed before
            # launching did no batched work and reports no reduction
            "solver": dict(
                self.solver,
                launch_reduction=(
                    self.solver["equivalent_unbatched_launches"] / launches
                    if launches
                    else 0.0
                ),
            ),
            "warm_calls": self.warm_calls,
            "warm_seconds": round(self.warm_seconds, 6),
        }


def merge_histograms(hists: list[dict]) -> dict:
    out: dict = {}
    for h in hists:
        for k, v in h.items():
            out[k] = out.get(k, 0) + v
    return {str(k): out[k] for k in sorted(out, key=lambda s: int(s))}
