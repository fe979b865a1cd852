"""Solve plans and the operator-plan cache.

A *plan* is everything about a collision solve that is shareable between
jobs: the velocity mesh / function space, the species set, the time step
and the solver/assembly configuration.  Jobs carrying the same plan can be
micro-batched into one :class:`~repro.core.batch.BatchedVertexSolver`
sweep and served by the same warm :class:`~repro.core.operator.LandauOperator`
(pair tables, scatter structure) and
:class:`~repro.sparse.band.CachedBandSolverFactory` (RCM ordering, band
symbolics) — building those is the expensive part of a solve, so the
service caches one *runtime* per plan per shard, with LRU eviction under a
byte budget (the pair tables dominate, so the budget is expressed through
the existing :class:`~repro.core.options.AssemblyOptions` memory-budget
machinery).
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from ..core.batch import BatchedVertexSolver
from ..core.options import AssemblyOptions
from ..core.species import SpeciesSet
from ..fem.function_space import FunctionSpace

__all__ = ["SolvePlan", "PlanRuntime", "PlanCache"]

def _space_fingerprint(fs: FunctionSpace) -> str:
    """Stable digest of the discretization: quadrature geometry plus the
    constraint operator (two spaces with identical quadrature but
    different hanging-node constraints must not share a plan)."""
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(fs.qpoints).tobytes())
    h.update(np.ascontiguousarray(fs.qweights).tobytes())
    P = fs.dofmap.P.tocsr()
    h.update(P.indptr.tobytes())
    h.update(P.indices.tobytes())
    h.update(P.data.tobytes())
    h.update(f"{fs.ndofs}:{fs.dofmap.n_full}".encode())
    return h.hexdigest()


@dataclass(frozen=True)
class SolvePlan:
    """The shareable part of a solve request.

    Two plans with equal :attr:`key` are interchangeable: their jobs can
    ride in one batch and reuse one warm operator runtime.  Equality and
    hashing go through the key, so distinct ``SolvePlan`` instances built
    from the same space/species/options coalesce in the cache.
    """

    fs: FunctionSpace
    species: SpeciesSet
    dt: float
    nu0: float = 1.0
    rtol: float = 1e-9
    max_newton: int = 50
    accel_m: int = 2
    options: AssemblyOptions = field(default_factory=AssemblyOptions.from_env)

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if self.rtol <= 0:
            raise ValueError(f"rtol must be positive, got {self.rtol}")

    @property
    def key(self) -> str:
        """Hex digest identifying the plan (stable across processes)."""
        cached = self.__dict__.get("_key")
        if cached is None:
            h = hashlib.sha256()
            h.update(_space_fingerprint(self.fs).encode())
            for s in self.species:
                h.update(f"{s.charge!r}:{s.mass!r}".encode())
            h.update(
                f"{float(self.dt).hex()}"
                f":{float(self.nu0).hex()}:{float(self.rtol).hex()}"
                f":{self.max_newton}:{self.accel_m}".encode()
            )
            opt = self.options
            # the *resolved* backend name is part of the plan identity:
            # shards must never batch jobs expecting different backends,
            # and "auto" must coalesce with its concrete resolution
            h.update(
                f"{opt.cache_structure}:{opt.packed_tables}:{opt.num_threads}"
                f":{opt.table_dtype}:{opt.memory_budget}"
                f":{opt.cache_pair_tables}:{opt.resolved_backend()}".encode()
            )
            cached = h.hexdigest()
            object.__setattr__(self, "_key", cached)
        return cached

    def __hash__(self) -> int:
        return hash(self.key)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SolvePlan):
            return NotImplemented
        return self.key == other.key

    def describe(self) -> dict:
        """JSON-able summary (for metrics/events)."""
        return {
            "key": self.key[:12],
            "ndofs": int(self.fs.ndofs),
            "species": len(self.species),
            "dt": float(self.dt),
            "rtol": float(self.rtol),
        }


class PlanRuntime:
    """Warm per-plan solver state: the batched vertex solver (which owns
    the :class:`LandauOperator` with its pair tables / scatter structure
    and the shared band-symbolic factory) plus a lazily built retry
    integrator for jobs that fall out of a batch."""

    def __init__(self, plan: SolvePlan):
        self.plan = plan
        self.solver = BatchedVertexSolver(
            plan.fs,
            plan.species,
            nu0=plan.nu0,
            rtol=plan.rtol,
            max_newton=plan.max_newton,
            accel_m=plan.accel_m,
            options=plan.options,
        )
        self._retry_solver = None
        #: compile cost hoisted at construction (0.0 for interpreted
        #: backends whose warmup is a no-op)
        self.warmup_s = self.warmup()

    @property
    def op(self):
        return self.solver.op

    def warmup(self) -> float:
        """Hoist backend one-time costs (numba JIT compilation) out of
        the solve path; idempotent.  Returns the seconds spent, 0.0 when
        the backend was already warm."""
        return float(self.op.backend.warmup())

    def retry_solver(self):
        """A per-vertex implicit solver sharing the warm operator, for the
        resilience retry/backoff path (built on first use)."""
        from ..core.solver import ImplicitLandauSolver

        if self._retry_solver is None:
            self._retry_solver = ImplicitLandauSolver(
                self.op, rtol=self.plan.rtol, max_newton=self.plan.max_newton
            )
        return self._retry_solver

    @property
    def bytes(self) -> int:
        """Resident-size estimate: the pair tables dominate; the band
        symbolics and scatter structure add a CSR-sized tail."""
        op = self.op
        size = op.options.table_bytes(op.N) if op.pair_tables_cached else 0
        sm = op.scatter_map
        if sm is not None:
            size += int(sm.T.data.nbytes + sm.T.indices.nbytes + sm.T.indptr.nbytes)
        return size


class PlanCache:
    """LRU cache of :class:`PlanRuntime` under a byte budget.

    One instance lives in every shard worker, so each shard keeps its own
    warm operators (pair tables, band symbolics) for the plans routed to
    it by consistent hashing.  Counters feed the serve metrics.
    """

    def __init__(self, budget: int | None = None):
        if budget is None:
            budget = AssemblyOptions.from_env().memory_budget
        if budget <= 0:
            raise ValueError(f"budget must be positive, got {budget}")
        self.budget = int(budget)
        self._entries: OrderedDict[str, PlanRuntime] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def bytes(self) -> int:
        return sum(rt.bytes for rt in self._entries.values())

    def runtimes(self):
        return list(self._entries.values())

    def get(self, plan: SolvePlan) -> PlanRuntime:
        rt = self._entries.get(plan.key)
        if rt is not None:
            self.hits += 1
            self._entries.move_to_end(plan.key)
            return rt
        self.misses += 1
        rt = PlanRuntime(plan)
        self._entries[plan.key] = rt
        # evict least-recently-used plans until back under budget — but
        # never the runtime just built (a single over-budget plan must
        # still be servable)
        while self.bytes > self.budget and len(self._entries) > 1:
            evicted_key, _ = self._entries.popitem(last=False)
            if evicted_key == plan.key:  # pragma: no cover - defensive
                self._entries[plan.key] = rt
                break
            self.evictions += 1
        return rt

    def counters(self) -> dict:
        return {
            "plans": len(self._entries),
            "bytes": self.bytes,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_rate": self.hits / max(1, self.hits + self.misses),
        }
