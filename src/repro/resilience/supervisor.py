"""Worker supervision: watchdog, bounded restart backoff, circuit breaker.

The serve tier's process executor gives each shard a single-worker pool.
PR 6 healed *crashed* workers (``BrokenProcessPool`` → recreate the pool,
retry once); this module supplies everything else a production serve
tier needs to survive the failures long quench runs actually hit:

* :class:`RestartBackoff` — bounded exponential delays between pool
  restarts, so a crash-looping worker cannot hot-spin fork/exec.
* :class:`CircuitBreaker` — per-shard closed → open → half-open state:
  after ``threshold`` consecutive worker failures the shard stops
  hammering the process tier and serves batches in a **degraded**
  in-parent (threaded/numpy) mode; after a cooldown it sends *probe*
  batches back to the process tier and closes again on success
  (availability over raw speed).
* :class:`WorkerWatchdog` — a heartbeat thread that pings idle shard
  workers; a worker that stops answering (stuck in a syscall, SIGSTOPped,
  livelocked) is killed and replaced.  Hung workers — unlike crashed
  ones — never raise on their own, which is exactly why PR 6's
  ``BrokenProcessPool`` handling could not see them.
* :class:`ShardSupervisor` — one per shard: the breaker + backoff +
  the failure-taxonomy counters that land in shard snapshots.

Everything here is executor-agnostic plumbing: the serve service wires
it to real pools, and the knobs ride :class:`SupervisorOptions`
(``ServeOptions.supervision`` — see EXPERIMENTS.md).
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass

__all__ = [
    "SupervisorOptions",
    "RestartBackoff",
    "CircuitBreaker",
    "ShardSupervisor",
    "WorkerWatchdog",
    "BREAKER_CLOSED",
    "BREAKER_OPEN",
    "BREAKER_HALF_OPEN",
]

BREAKER_CLOSED = "closed"
BREAKER_OPEN = "open"
BREAKER_HALF_OPEN = "half_open"

#: taxonomy counts every supervisor keeps; its snapshot adds the
#: breaker's trips, and the service's shard snapshots read both from it
FAILURE_KINDS = (
    "worker_crashes",
    "worker_hangs",
    "deadline_timeouts",
    "heartbeat_misses",
    "degraded_batches",
    "degraded_jobs",
)


@dataclass(frozen=True)
class SupervisorOptions:
    """Supervision knobs."""

    #: idle-worker heartbeat period in seconds; 0 disables the watchdog
    heartbeat_s: float = 0.0
    #: wall-clock budget for one batch on the process tier; 0 = no deadline.
    #: The cold cost (the O(N^2) pair-table build) is paid by the separate
    #: *warm* call the service issues before the first timed batch of each
    #: plan, so this budget only has to cover warm execution.
    batch_deadline_s: float = 0.0
    #: wall-clock budget for the untimed-by-default per-plan warm call
    #: (the plan build in a fresh worker); 0 = no deadline.  Kept
    #: separate from ``batch_deadline_s`` precisely so build time never
    #: eats the per-batch budget.
    warm_deadline_s: float = 0.0
    #: consecutive worker failures before the shard's breaker opens
    breaker_threshold: int = 3
    #: degraded batches served before an open breaker half-opens a probe
    breaker_cooldown: int = 2
    #: ceiling for the doubled cooldown after failed probes
    breaker_max_cooldown: int = 16
    #: first restart delay; doubles per consecutive restart up to the max
    restart_backoff_s: float = 0.05
    restart_backoff_max_s: float = 2.0

    def __post_init__(self):
        for name in _DURATIONS:
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and >= 0, got {value}")
        if self.breaker_threshold < 1:
            raise ValueError(
                f"breaker_threshold must be >= 1, got {self.breaker_threshold}"
            )
        if self.breaker_cooldown < 1:
            raise ValueError(
                f"breaker_cooldown must be >= 1, got {self.breaker_cooldown}"
            )
        if self.breaker_max_cooldown < self.breaker_cooldown:
            raise ValueError(
                "breaker_max_cooldown must be >= breaker_cooldown, got "
                f"{self.breaker_max_cooldown} < {self.breaker_cooldown}"
            )


#: the :class:`SupervisorOptions` fields in seconds: a NaN or infinite
#: one would make the watchdog wait forever or the backoff unbounded
_DURATIONS = (
    "heartbeat_s",
    "batch_deadline_s",
    "warm_deadline_s",
    "restart_backoff_s",
    "restart_backoff_max_s",
)


class RestartBackoff:
    """Bounded exponential restart delays: ``base * 2^k``, capped.

    ``reset()`` after a successful batch, so an isolated crash pays the
    base delay while a crash storm quickly reaches (and holds) the cap.
    """

    def __init__(self, base_s: float, max_s: float):
        self.base_s = float(base_s)
        self.max_s = float(max_s)
        self.consecutive = 0
        self.total_sleep_s = 0.0

    def next_delay(self) -> float:
        delay = min(self.base_s * (2.0 ** self.consecutive), self.max_s)
        self.consecutive += 1
        return delay

    def sleep(self) -> float:
        delay = self.next_delay()
        if delay > 0:
            time.sleep(delay)
        self.total_sleep_s += delay
        return delay

    def reset(self) -> None:
        self.consecutive = 0


class CircuitBreaker:
    """Closed → open → half-open breaker, counted in *batches*.

    Batch-counted cooldowns (rather than wall-clock) keep drain-mode
    chaos runs deterministic: the same submission sequence always trips
    and recovers at the same batch indices.

    * **closed** — batches go to the primary (process) tier;
      ``threshold`` *consecutive* failures trip the breaker.
    * **open** — the next ``cooldown`` batches are served degraded
      without touching the primary; then the breaker half-opens.
    * **half-open** — one probe batch rides the primary tier.  Success
      closes the breaker (and resets the cooldown to its base); failure
      re-opens it with a doubled — bounded — cooldown.
    """

    def __init__(self, threshold: int, cooldown: int, max_cooldown: int):
        self.threshold = int(threshold)
        self.base_cooldown = int(cooldown)
        self.max_cooldown = int(max_cooldown)
        self.state = BREAKER_CLOSED
        self.consecutive_failures = 0
        self.trips = 0
        self.probes = 0
        self._cooldown = self.base_cooldown
        self._cooldown_left = 0

    def admit(self) -> str:
        """Route the next batch: ``"primary"`` | ``"degraded"`` | ``"probe"``."""
        if self.state == BREAKER_CLOSED:
            return "primary"
        if self.state == BREAKER_OPEN:
            if self._cooldown_left > 0:
                self._cooldown_left -= 1
                return "degraded"
            self.state = BREAKER_HALF_OPEN
        self.probes += 1
        return "probe"

    def record_success(self) -> None:
        self.consecutive_failures = 0
        if self.state != BREAKER_CLOSED:
            self.state = BREAKER_CLOSED
            self._cooldown = self.base_cooldown

    def record_failure(self) -> None:
        self.consecutive_failures += 1
        if self.state == BREAKER_HALF_OPEN:
            # failed probe: back off harder, up to the bound
            self._cooldown = min(self._cooldown * 2, self.max_cooldown)
            self._trip()
        elif (
            self.state == BREAKER_CLOSED
            and self.consecutive_failures >= self.threshold
        ):
            self._trip()

    def _trip(self) -> None:
        self.state = BREAKER_OPEN
        self._cooldown_left = self._cooldown
        self.trips += 1

    def snapshot(self) -> dict:
        return {
            "state": self.state,
            "trips": self.trips,
            "probes": self.probes,
            "consecutive_failures": self.consecutive_failures,
            "cooldown": self._cooldown,
            "cooldown_left": self._cooldown_left,
        }


class ShardSupervisor:
    """Per-shard supervision state: breaker + backoff + failure taxonomy.

    The lock serializes every touch of the shard's pool (batch dispatch,
    restart, watchdog probe); the watchdog only try-acquires it, so it
    can never stall a running batch.
    """

    def __init__(self, options: SupervisorOptions):
        self.options = options
        self.breaker = CircuitBreaker(
            options.breaker_threshold,
            options.breaker_cooldown,
            options.breaker_max_cooldown,
        )
        self.backoff = RestartBackoff(
            options.restart_backoff_s, options.restart_backoff_max_s
        )
        self.lock = threading.RLock()
        self.counters = {k: 0 for k in FAILURE_KINDS}
        self.recovery_s_total = 0.0
        self.recoveries = 0

    def record_failure(self, kind: str) -> None:
        if kind in self.counters:
            self.counters[kind] += 1
        self.breaker.record_failure()

    def record_success(self) -> None:
        self.breaker.record_success()
        self.backoff.reset()

    def record_recovery(self, seconds: float) -> None:
        self.recovery_s_total += float(seconds)
        self.recoveries += 1

    def snapshot(self) -> dict:
        return dict(
            self.counters,
            breaker_trips=self.breaker.trips,
            breaker=self.breaker.snapshot(),
            restart_backoff_sleep_s=round(self.backoff.total_sleep_s, 6),
            recovery_s_total=round(self.recovery_s_total, 6),
            recoveries=self.recoveries,
            mean_recovery_s=(
                round(self.recovery_s_total / self.recoveries, 6)
                if self.recoveries
                else 0.0
            ),
        )


class WorkerWatchdog(threading.Thread):
    """Heartbeat prober for idle shard workers.

    Every ``interval_s`` it calls ``probe(shard)`` for each shard;
    the probe (supplied by the service) is expected to try-lock the
    shard's supervisor, ping its worker with a deadline, and kill +
    restart on a miss.  The thread itself holds no pool references, so
    service shutdown only has to ``stop()`` it.
    """

    def __init__(self, num_shards: int, probe, interval_s: float):
        super().__init__(name="serve-watchdog", daemon=True)
        self.num_shards = int(num_shards)
        self.probe = probe
        self.interval_s = float(interval_s)
        # NB: not named _stop — threading.Thread owns a _stop() method
        self._halt = threading.Event()
        self.sweeps = 0

    def stop(self, timeout: float = 10.0) -> None:
        self._halt.set()
        if self.is_alive():
            self.join(timeout=timeout)

    def run(self) -> None:  # pragma: no branch - trivial loop
        while not self._halt.wait(self.interval_s):
            for shard in range(self.num_shards):
                if self._halt.is_set():
                    return
                try:
                    self.probe(shard)
                except Exception:
                    # a probe must never kill the watchdog; the next
                    # sweep (or the batch path) will see the failure
                    pass
            self.sweeps += 1
