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


@dataclass
class ShardMetrics:
    """Work and latency accounting for one shard (its queue depth,
    rejected submissions and worker restarts are counted by the service,
    which admits jobs and restarts workers)."""

    shard: int = 0
    jobs_ok: int = 0
    jobs_failed: int = 0
    jobs_shed: int = 0
    jobs_retried: int = 0
    batches: int = 0
    batch_size_hist: dict = field(default_factory=dict)
    # ---- failure taxonomy (ISSUE-7) -------------------------------------
    #: solver faults fired by the (plan-driven or ad-hoc) injector
    injected_faults: int = 0
    #: worker process deaths observed as BrokenProcessPool
    worker_crashes: int = 0
    #: hung workers killed by the supervisor (deadline or heartbeat)
    worker_hangs: int = 0
    #: per-batch deadlines that expired on the process tier
    deadline_timeouts: int = 0
    #: circuit-breaker closed->open transitions for this shard
    breaker_trips: int = 0
    #: batches served by the degraded in-parent tier while the breaker
    #: was open (or after repeated worker deaths on one batch)
    degraded_batches: int = 0
    latency: LatencyRing = field(default_factory=LatencyRing)

    def record_batch(self, size: int) -> None:
        self.batches += 1
        self.batch_size_hist[size] = self.batch_size_hist.get(size, 0) + 1

    @property
    def jobs_done(self) -> int:
        return self.jobs_ok + self.jobs_failed + self.jobs_shed

    def snapshot(self) -> dict:
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
            "worker_crashes": self.worker_crashes,
            "worker_hangs": self.worker_hangs,
            "deadline_timeouts": self.deadline_timeouts,
            "breaker_trips": self.breaker_trips,
            "degraded_batches": self.degraded_batches,
            "latency": self.latency.percentiles() | {"samples": len(self.latency)},
        }


def merge_histograms(hists: list[dict]) -> dict:
    out: dict = {}
    for h in hists:
        for k, v in h.items():
            out[k] = out.get(k, 0) + v
    return {str(k): out[k] for k in sorted(out, key=lambda s: int(s))}
