"""Deterministic, seeded fault injection for the solver stack.

The recovery paths of the resilience layer are only trustworthy if tests
can make each one fire on demand.  :class:`FaultInjector` wraps a
``factory(A) -> solve(b)`` linear-solver plug and injects failures at
exact, reproducible call indices:

* ``fail_first_solves=k`` — the first ``k`` solve calls raise
  :class:`~repro.resilience.exceptions.InjectedFault` (exercises the
  retry/backoff loop);
* ``factorization_failures=(i, ...)`` — the ``i``-th factorization calls
  raise (exercises recovery from a failed factorization);
* ``nan_solve_indices=(i, ...)`` — the ``i``-th solve calls return a
  NaN-corrupted solution, which poisons the Newton residual (exercises
  the NaN guards);
* ``nan_probability=p`` with ``seed`` — corrupt solves at a seeded random
  rate; deterministic for a fixed seed and call sequence.

Counters are global across wrapped factories, so a retried step sees the
injector's state advance — the first retry after ``fail_first_solves``
faults succeeds, exactly like a transient hardware fault clearing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import scipy.sparse as sp

from .exceptions import InjectedFault


@dataclass
class FaultInjector:
    fail_first_solves: int = 0
    factorization_failures: tuple = ()
    nan_solve_indices: tuple = ()
    nan_probability: float = 0.0
    seed: int = 0
    # counters (state)
    factor_calls: int = field(default=0, init=False)
    solve_calls: int = field(default=0, init=False)
    injected: list = field(default_factory=list, init=False)

    def __post_init__(self) -> None:
        if not (0.0 <= self.nan_probability <= 1.0):
            raise ValueError(f"nan_probability must be in [0, 1], got {self.nan_probability}")
        self.factorization_failures = tuple(self.factorization_failures)
        self.nan_solve_indices = tuple(self.nan_solve_indices)
        self._rng = np.random.default_rng(self.seed)

    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Rewind all counters and the RNG (same seed -> same faults)."""
        self.factor_calls = 0
        self.solve_calls = 0
        self.injected = []
        self._rng = np.random.default_rng(self.seed)

    @property
    def n_injected(self) -> int:
        return len(self.injected)

    def _fire(self, kind: str, index: int) -> None:
        self.injected.append({"kind": kind, "index": index})

    # ------------------------------------------------------------------
    def wrap_factory(
        self, factory: Callable, name: str = "primary"
    ) -> Callable[[sp.spmatrix], Callable[[np.ndarray], np.ndarray]]:
        """Wrap a ``factory(A) -> solve(b)`` with the configured faults."""

        def faulty_factory(A):
            idx_f = self.factor_calls
            self.factor_calls += 1
            if idx_f in self.factorization_failures:
                self._fire("factorization", idx_f)
                raise InjectedFault(
                    f"injected factorization failure in backend {name!r}",
                    diagnostics={"backend": name, "factorization": idx_f},
                )
            solve = factory(A)

            def faulty_solve(b):
                idx_s = self.solve_calls
                self.solve_calls += 1
                if idx_s < self.fail_first_solves:
                    self._fire("solve", idx_s)
                    raise InjectedFault(
                        f"injected solve failure in backend {name!r}",
                        diagnostics={"backend": name, "solve": idx_s},
                    )
                x = np.asarray(solve(b), dtype=float)
                corrupt = idx_s in self.nan_solve_indices
                if self.nan_probability > 0.0:
                    corrupt = corrupt or bool(self._rng.random() < self.nan_probability)
                if corrupt:
                    self._fire("nan", idx_s)
                    x = x.copy()
                    x[: max(1, x.size // 8)] = np.nan
                return x

            return faulty_solve

        return faulty_factory
