"""Crash-consistent service checkpoints for the collision solve service.

A service checkpoint captures the *admission ledger* — every accepted
job that has not yet been answered (queued or mid-batch), its original
state vector, the :class:`~repro.serve.plan.SolvePlan` objects those
jobs reference, and the ids of jobs already answered — so a service
killed mid-run (SIGKILL, OOM, node loss) can be rebuilt and finish
**only the unfinished work**.  Semantics are at-least-once: a job whose
batch completed after the last checkpoint but whose service died before
the next one is re-run; a collision solve is a pure function of
``(plan, state)``, so re-running is safe and bitwise-reproducible.

The on-disk format is a pickled payload inside the resilience layer's
checksummed atomic envelope (:func:`repro.resilience.checkpoint
.write_checksummed`: tmp + fsync + rename + SHA-256), so a torn or
bit-flipped file raises :class:`CheckpointError` instead of silently
resurrecting garbage jobs.  Deadlines are stored as *remaining* seconds
(monotonic clocks don't survive a process) and re-anchored on restore.
"""

from __future__ import annotations

import os
import pickle
import time
from dataclasses import dataclass, field

import numpy as np

from ..resilience.checkpoint import read_checksummed, write_checksummed
from ..resilience.exceptions import CheckpointError

__all__ = [
    "SERVICE_CHECKPOINT_VERSION",
    "PendingJob",
    "ServiceCheckpoint",
    "save_service_checkpoint",
    "load_service_checkpoint",
    "checkpoint_path",
]

SERVICE_CHECKPOINT_VERSION = 1

#: file name inside the checkpoint directory (one live file, replaced
#: atomically on every write)
CHECKPOINT_FILENAME = "service.ckpt"


def checkpoint_path(directory: str) -> str:
    return os.path.join(directory, CHECKPOINT_FILENAME)


@dataclass(frozen=True)
class PendingJob:
    """One accepted-but-unanswered job, detached from live queue state."""

    plan_key: str
    job_id: str
    state: np.ndarray
    #: seconds of deadline budget left at checkpoint time (None = no deadline)
    remaining_s: float | None = None


@dataclass
class ServiceCheckpoint:
    """In-memory image of a service checkpoint file."""

    pending: list = field(default_factory=list)  # of PendingJob
    plans: dict = field(default_factory=dict)  # plan_key -> SolvePlan
    completed: tuple = ()  # job ids answered since service start/resume
    version: int = SERVICE_CHECKPOINT_VERSION


def save_service_checkpoint(
    path: str, *, pending, plans, completed
) -> str:
    """Atomically write the admission ledger; returns ``path``.

    ``pending`` is an iterable of :class:`PendingJob`, ``plans`` maps
    plan keys to the (picklable) :class:`SolvePlan` objects the pending
    jobs reference, ``completed`` is the answered-job-id sequence.
    """
    pending = list(pending)
    referenced = {p.plan_key for p in pending}
    missing = referenced - set(plans)
    if missing:
        raise CheckpointError(
            "pending jobs reference plans absent from the checkpoint",
            diagnostics={"missing_plan_keys": sorted(k[:12] for k in missing)},
        )
    payload = pickle.dumps(
        {
            "version": SERVICE_CHECKPOINT_VERSION,
            "wall_time": time.time(),
            "pending": [
                (p.plan_key, p.job_id, np.asarray(p.state), p.remaining_s)
                for p in pending
            ],
            "plans": {k: plans[k] for k in referenced},
            "completed": tuple(completed),
        },
        protocol=pickle.HIGHEST_PROTOCOL,
    )
    return write_checksummed(path, payload)


def load_service_checkpoint(path: str) -> ServiceCheckpoint:
    """Read a service checkpoint; raises :class:`CheckpointError` on a
    missing, truncated, corrupted, or wrong-version file."""
    if not os.path.exists(path):
        raise CheckpointError(
            "service checkpoint not found", diagnostics={"path": path}
        )
    payload = read_checksummed(path)  # CheckpointError on corruption
    try:
        data = pickle.loads(payload)
        version = int(data["version"])
        if version != SERVICE_CHECKPOINT_VERSION:
            raise CheckpointError(
                "unsupported service checkpoint version",
                diagnostics={
                    "path": path,
                    "version": version,
                    "supported": SERVICE_CHECKPOINT_VERSION,
                },
            )
        pending = [
            PendingJob(
                plan_key=plan_key,
                job_id=job_id,
                state=np.asarray(state),
                remaining_s=remaining,
            )
            for plan_key, job_id, state, remaining in data["pending"]
        ]
        checkpoint = ServiceCheckpoint(
            pending=pending,
            plans=dict(data["plans"]),
            completed=tuple(data["completed"]),
            version=version,
        )
    except CheckpointError:
        raise
    except Exception as err:
        raise CheckpointError(
            "failed to read service checkpoint",
            diagnostics={"path": path, "error": f"{type(err).__name__}: {err}"},
        ) from err
    return checkpoint
