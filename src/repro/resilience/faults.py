"""Deterministic, seeded fault injection: one schedule, one interpreter.

The recovery paths of the resilience layer are only trustworthy if tests
can make each one fire on demand.  :class:`FaultPlan` declares what
fails and when; :class:`FaultInjector` interprets one plan with
deterministic counters.  Three fault families:

* **solver faults**, through :meth:`FaultInjector.wrap_factory` around a
  ``factory(A) -> solve(b)`` linear-solver plug: ``fail_first_solves=k``
  makes the first ``k`` solve calls raise
  :class:`~repro.resilience.exceptions.InjectedFault` (the retry/backoff
  loop); ``factorization_failures=(i, ...)`` makes the ``i``-th
  factorization calls raise; ``nan_solve_indices=(i, ...)`` returns a
  NaN-corrupted solution from the ``i``-th solve calls (the NaN guards);
  ``nan_probability=p`` corrupts solves at a rate seeded by ``seed``.
  Counters are global across wrapped factories, so a retried step sees
  the injector's state advance — the first retry after
  ``fail_first_solves`` faults succeeds, like a transient hardware fault
  clearing.
* **worker crashes** — ``crash_batches=(i, ...)``: the worker calls
  ``os._exit`` at the start of its ``i``-th dispatched batch, like an
  OOM-kill or a segfault; the parent sees ``BrokenProcessPool``.
* **worker hangs** — ``hang_batches=(i, ...)``: the worker sleeps
  ``hang_s`` at the start of its ``i``-th batch.  Unlike a crash this
  raises nothing — only a batch deadline or heartbeat watchdog
  (:mod:`.supervisor`) can detect it.

The last two run through :meth:`FaultInjector.on_dispatch` in serve
shard worker processes.  A plan is a frozen dataclass of primitives, so
it pickles into every worker, which builds its own injector at startup:
batch indices count each worker process's *own* dispatches and reset
when the process is replaced — ``crash_batches=(0,)`` therefore crashes
the shard on *every* batch (the restart-storm scenario).  ``shards``
limits the plan to specific shard ids (``None`` = all shards).  With
``executor="thread"`` only the solver faults apply: crashing or hanging
a shard *thread* would be an outage, not a recoverable fault.

:meth:`FaultPlan.to_json` / :meth:`FaultPlan.from_json` carry a plan
through a file or a command-line argument; unknown fields are rejected.
"""

from __future__ import annotations

import json
import math
import os
import time
from dataclasses import asdict, dataclass, fields
from numbers import Integral, Real
from typing import Callable

import numpy as np

from .exceptions import InjectedFault

__all__ = ["FaultPlan", "FaultInjector"]


_INDEX_FIELDS = (
    "factorization_failures",
    "nan_solve_indices",
    "crash_batches",
    "hang_batches",
)


def _count(name: str, value) -> int:
    if not isinstance(value, Integral) or isinstance(value, bool) or value < 0:
        raise ValueError(f"{name} must be a non-negative integer, got {value!r}")
    return int(value)


def _indices(name: str, value) -> tuple:
    if isinstance(value, Integral) and not isinstance(value, bool):
        value = (value,)
    if isinstance(value, (str, bytes)) or not hasattr(value, "__iter__"):
        raise ValueError(f"{name} must list non-negative integers, got {value!r}")
    return tuple(_count(name, v) for v in value)


def _real(value) -> bool:
    return isinstance(value, Real) and not isinstance(value, bool)


@dataclass(frozen=True)
class FaultPlan:
    """One declarative chaos schedule (see module docstring)."""

    # solver faults
    fail_first_solves: int = 0
    factorization_failures: tuple = ()
    nan_solve_indices: tuple = ()
    nan_probability: float = 0.0
    seed: int = 0
    # process-tier faults (batch indices per worker incarnation)
    crash_batches: tuple = ()
    hang_batches: tuple = ()
    hang_s: float = 30.0
    #: shard ids the plan applies to; None = every shard
    shards: tuple | None = None

    def __post_init__(self):
        for name in ("fail_first_solves", "seed"):
            object.__setattr__(self, name, _count(name, getattr(self, name)))
        for name in _INDEX_FIELDS:
            object.__setattr__(self, name, _indices(name, getattr(self, name)))
        if self.shards is not None:
            object.__setattr__(self, "shards", _indices("shards", self.shards))
        p, h = self.nan_probability, self.hang_s
        if not _real(p) or not 0.0 <= p <= 1.0:
            raise ValueError(f"nan_probability must be in [0, 1], got {p!r}")
        if not _real(h) or not 0.0 < h < math.inf:
            raise ValueError(f"hang_s must be finite and positive, got {h!r}")

    def applies_to(self, shard_id: int) -> bool:
        return self.shards is None or shard_id in self.shards

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ValueError(
                f"fault plan JSON must be an object, got {type(data).__name__}"
            )
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(
                f"unknown fault plan fields {unknown}; known: {sorted(known)}"
            )
        return cls(**data)


class FaultInjector:
    """Interprets one :class:`FaultPlan` with seeded counters.

    ``shard_id`` scopes the plan (``None``: the plan applies).  Each
    serve shard owns one — a worker process builds its own at startup —
    so counters reset, deterministically, when a crashed worker is
    replaced.
    """

    def __init__(self, plan: FaultPlan, shard_id: int | None = None):
        self.plan = plan
        self.shard_id = shard_id
        self.active = shard_id is None or plan.applies_to(shard_id)
        self.reset()

    def reset(self) -> None:
        """Rewind all counters and the RNG (same seed -> same faults)."""
        self.factor_calls = 0
        self.solve_calls = 0
        self.dispatches = 0
        self.injected: list[dict] = []
        self._rng = np.random.default_rng(self.plan.seed)

    @property
    def n_injected(self) -> int:
        return len(self.injected)

    def _fire(self, kind: str, index: int) -> None:
        self.injected.append({"kind": kind, "index": index})

    def wrap_factory(self, factory: Callable, name: str = "primary") -> Callable:
        """Wrap a ``factory(A) -> solve(b)`` with the plan's solver faults."""
        if not self.active:
            return factory
        plan = self.plan

        def faulty_factory(A):
            idx_f = self.factor_calls
            self.factor_calls += 1
            if idx_f in plan.factorization_failures:
                self._fire("factorization", idx_f)
                raise InjectedFault(
                    f"injected factorization failure in backend {name!r}",
                    diagnostics={"backend": name, "factorization": idx_f},
                )
            solve = factory(A)

            def faulty_solve(b):
                idx_s = self.solve_calls
                self.solve_calls += 1
                if idx_s < plan.fail_first_solves:
                    self._fire("solve", idx_s)
                    raise InjectedFault(
                        f"injected solve failure in backend {name!r}",
                        diagnostics={"backend": name, "solve": idx_s},
                    )
                x = np.asarray(solve(b), dtype=float)
                corrupt = idx_s in plan.nan_solve_indices
                if plan.nan_probability > 0.0:
                    corrupt = corrupt or bool(self._rng.random() < plan.nan_probability)
                if corrupt:
                    self._fire("nan", idx_s)
                    x = x.copy()
                    x[: max(1, x.size // 8)] = np.nan
                return x

            return faulty_solve

        return faulty_factory

    def on_dispatch(self) -> None:
        """Run the process-tier schedule for one dispatched batch.

        Called at the top of the worker's batch entry point, before the
        batch is touched.  May never return (crash) or may stall (hang).
        """
        if not self.active:
            return
        index = self.dispatches
        self.dispatches += 1
        if index in self.plan.crash_batches:
            # flush nothing, run no handlers: a real SIGKILL/OOM doesn't
            os._exit(17)
        if index in self.plan.hang_batches:
            time.sleep(self.plan.hang_s)
