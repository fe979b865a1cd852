"""Resilience layer: guards, adaptive retry/backoff, checkpoint/restart,
and deterministic fault injection.

The quench scenario (Fig. 5) is exactly the regime where implicit Landau
solves fail in production — the cold pulse collapses ``T_e``,
collisionality spikes, and a fixed-``dt`` quasi-Newton loop stalls or
silently produces NaN/negative-density states.  This package makes every
failure mode detectable (:mod:`.guards`), recoverable
(:mod:`.controller`), survivable (:mod:`.checkpoint`) and *testable*
(:mod:`.faults`).
"""

from .exceptions import (
    CheckpointError,
    InjectedFault,
    RECOVERABLE_ERRORS,
    ResilienceError,
    ServiceOverloaded,
    SolveFailure,
    StepRejected,
    WorkerHang,
)
from .guards import GuardConfig, GuardReference, StepGuard
from .controller import TimeStepController
from .checkpoint import (
    Checkpoint,
    load_checkpoint,
    read_checksummed,
    save_checkpoint,
    write_checksummed,
)
from .faults import FaultInjector, FaultPlan
from .supervisor import (
    CircuitBreaker,
    RestartBackoff,
    ShardSupervisor,
    SupervisorOptions,
    WorkerWatchdog,
)

__all__ = [
    "ResilienceError",
    "StepRejected",
    "SolveFailure",
    "InjectedFault",
    "WorkerHang",
    "ServiceOverloaded",
    "CheckpointError",
    "RECOVERABLE_ERRORS",
    "GuardConfig",
    "GuardReference",
    "StepGuard",
    "TimeStepController",
    "Checkpoint",
    "save_checkpoint",
    "load_checkpoint",
    "write_checksummed",
    "read_checksummed",
    "FaultInjector",
    "FaultPlan",
    "SupervisorOptions",
    "CircuitBreaker",
    "RestartBackoff",
    "ShardSupervisor",
    "WorkerWatchdog",
]
