"""Structured failure exceptions for the resilience layer.

Every exception carries a ``diagnostics`` dict so the driver that catches
it (the adaptive :class:`~repro.resilience.controller.TimeStepController`
loop, a batch scheduler, a service endpoint) can log *what* tripped —
which guard, which species, which linear-solver backend — without parsing
message strings.
"""

from __future__ import annotations

import numpy as np


class ResilienceError(RuntimeError):
    """Base class: a failure with a structured diagnostic payload."""

    def __init__(self, message: str, diagnostics: dict | None = None):
        super().__init__(message)
        self.diagnostics = dict(diagnostics or {})

    def __str__(self) -> str:  # pragma: no cover - formatting aid
        base = super().__str__()
        if self.diagnostics:
            keys = ", ".join(f"{k}={v!r}" for k, v in self.diagnostics.items())
            return f"{base} [{keys}]"
        return base


class StepRejected(ResilienceError):
    """A completed time step failed a post-step guard (NaN/Inf state,
    negative density, conserved-moment drift) or the quasi-Newton
    iteration did not converge.  Recoverable: the caller still holds the
    pre-step state and can retry with a smaller ``dt``."""


class SolveFailure(ResilienceError):
    """A solve could not be completed at all: the retry/backoff budget of
    the time-step controller is exhausted.  Not recoverable by shrinking
    ``dt`` further."""


class InjectedFault(SolveFailure):
    """A failure deliberately raised by the fault-injection harness
    (:mod:`repro.resilience.faults`).  Subclasses :class:`SolveFailure`
    so every production recovery path treats it as the real thing."""


class WorkerHang(ResilienceError):
    """A shard worker process missed its per-batch deadline or a
    heartbeat probe (:mod:`.supervisor`).  The supervisor kills the
    process — a hung worker, unlike a crashed one, never raises
    ``BrokenProcessPool`` on its own — and the batch is retried or
    completed in degraded mode."""


class ServiceOverloaded(ResilienceError):
    """Admission control rejected a solve job: the target shard's bounded
    queue is full.  The caller should back off and resubmit — accepting
    the job would only grow tail latency past any useful deadline."""


class CheckpointError(ResilienceError):
    """A checkpoint file is missing, truncated, or belongs to a different
    model configuration than the one trying to resume from it."""


#: Exception types the adaptive stepping loop may catch and convert into a
#: dt-backoff retry.  Linear-algebra breakdowns (singular factorization,
#: zero band pivot, GMRES stall -> RuntimeError, overflow -> FloatingPointError)
#: are recoverable because a smaller dt makes the system more diagonally
#: dominant; anything else (ValueError, programming errors) propagates.
RECOVERABLE_ERRORS = (
    StepRejected,
    SolveFailure,
    FloatingPointError,
    ZeroDivisionError,
    np.linalg.LinAlgError,
    RuntimeError,
)
