"""The execution-backend protocol: one kernel spec, pluggable executors.

The paper's engineering claim is performance *portability*: the same
Landau kernel expressed in two programming models (raw CUDA §III-B,
Kokkos league/team/vector §III-C) over one shared data layout, so new
architectures come nearly for free.  This module is the CPU-side
analogue for the reproduction: every hot path — pair-table contractions,
batched einsum assembly, sparse scatter-apply, batched band
factorization/solve, and block-parallel builds — is expressed once
against :class:`ExecutionBackend`, and the backends
(:class:`~repro.backend.numpy_backend.NumpyBackend`,
:class:`~repro.backend.threaded.ThreadedBackend`,
:class:`~repro.backend.numba_backend.NumbaBackend`) map those
operations onto serial numpy, chunked thread pools, or JIT-compiled
kernels.

Guarantees:

* ``NumpyBackend`` is the reference — its dispatch is bitwise identical
  to inlined numpy code (it forwards every operation unchanged).
* Every other backend must match the reference to ``<= 1e-12`` relative
  error (enforced by ``tests/test_execution_backends.py``); they may
  reassociate floating-point sums.
* All backends are deterministic run-to-run: parallel work is split
  into disjoint output blocks, never racing accumulations.  The one
  kernel whose blocks overlap in their output, :meth:`ExecutionBackend.
  field_rows`, leaves that to its caller: concurrent calls are given
  separate outputs, summed in a fixed order.

Backends are looked up by name through :mod:`repro.backend.registry`
(``REPRO_BACKEND`` / :attr:`repro.core.options.AssemblyOptions.backend`).
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

import numpy as np

__all__ = ["BackendUnavailable", "ExecutionBackend"]


class BackendUnavailable(RuntimeError):
    """Requested backend cannot run in this environment (missing optional
    dependency).  The message names the backend and what is missing."""


class ExecutionBackend:
    """Abstract executor for the operator/assembly/band-solve hot paths.

    Subclasses override the mapping of each operation onto their
    execution resources; the *mathematical* definition of every method is
    fixed here (and implemented exactly by ``NumpyBackend``), so call
    sites never branch on the backend.

    Attributes
    ----------
    name:
        registry name (``"numpy"``, ``"threaded"``, ``"numba"``).
    workers:
        worker count used to size parallel block splits (1 = serial).
    """

    name: str = "abstract"
    workers: int = 1
    #: set by :meth:`warmup`; backends with JIT state flip it after
    #: compiling their kernels, everything else after the first (no-op)
    #: warmup call.
    warmed: bool = False
    #: wall-clock seconds the last non-trivial :meth:`warmup` spent
    #: (JIT compilation); 0.0 for compile-free backends.
    warmup_seconds: float = 0.0

    # ------------------------------------------------------------------
    @classmethod
    def available(cls) -> bool:
        """Whether this backend can run here (optional deps present)."""
        return True

    # ------------------------------------------------------------------
    def warmup(self) -> float:
        """Compile/prime any lazily-built kernels *outside* timed paths.

        Idempotent: the first call pays whatever one-time cost the
        backend has (JIT compilation on the numba backend) and every
        later call returns immediately.  Returns the seconds spent by
        *this* call (0.0 when already warm or there is nothing to
        compile).  Deadline-sensitive callers — the serve tier's
        per-batch supervisor — invoke this before starting any clock so
        first-call compilation can never masquerade as a hung worker.
        """
        self.warmed = True
        return 0.0

    # ------------------------------------------------------------------
    # parallel-for over disjoint blocks
    def parallel_for(
        self, tasks: Sequence[tuple], fn: Callable[..., None]
    ) -> bool:
        """Run ``fn(*task)`` for every task; tasks write disjoint output.

        Returns ``True`` when the tasks were actually dispatched to a
        worker pool (callers use this to account parallel builds), and
        ``False`` for serial execution.
        """
        for task in tasks:
            fn(*task)
        return False

    def batch_blocks(self, n: int) -> list[tuple[int, int]]:
        """Split ``[0, n)`` into contiguous ``(i0, i1)`` worker blocks."""
        if n <= 0:
            return []
        w = max(1, self.workers)
        chunk = -(-n // w)
        return [(i0, min(i0 + chunk, n)) for i0 in range(0, n, chunk)]

    # ------------------------------------------------------------------
    # Algorithm-1 row-block kernels (pair-table build / on-the-fly fields)
    def pair_table_rows(
        self, out: np.ndarray, r: np.ndarray, z: np.ndarray, i0: int, i1: int
    ) -> None:
        """Row block ``[i0, i1)``'s share of the packed pair table ``out
        (5, N, N)``, ``(Drr, Drz, Dzz, Krr, Kzr)`` order, for integration
        points ``(r, z)``.

        ``out`` arrives uninitialised; calls over any partition of
        ``[0, N)`` must leave it complete, with entries that do not
        depend on the partition.  A call writes all of rows ``[i0, i1)``
        or, like the default
        (:func:`repro.core.landau_tensor.packed_pair_rows`), their
        entries ``[i0:i1, i0:]`` and the mirror images ``[i1:, i0:i1]``
        — either way disjoint from every other block's, so calls may run
        concurrently."""
        from ..core.landau_tensor import packed_pair_rows

        packed_pair_rows(out, r, z, i0, i1)

    def field_rows(
        self,
        G_D: np.ndarray,
        G_K: np.ndarray,
        r: np.ndarray,
        z: np.ndarray,
        cTD: np.ndarray,
        cTKr: np.ndarray,
        cTKz: np.ndarray,
        i0: int,
        i1: int,
    ) -> None:
        """Row block ``[i0, i1)``'s share of the Algorithm-1 on-the-fly
        inner integral: evaluate the pair tensors, contract them against
        the ``(N, B)`` column sources and *add* into ``G_D (B, N, 2, 2)``
        / ``G_K (B, N, 2)``.

        The outputs arrive zero-initialised; calls over any partition of
        ``[0, N)`` must leave them complete (including ``G_D[..., 1, 0]
        == G_D[..., 0, 1]``).  A call may add into rows ``>= i1`` as well
        as its own — the default
        (:func:`repro.core.landau_tensor.field_rows`) serves the pairs
        below the block from the block's integrals — so calls that run
        concurrently must be given separate outputs."""
        from ..core.landau_tensor import field_rows

        field_rows(G_D, G_K, r, z, cTD, cTKr, cTKz, i0, i1)

    # ------------------------------------------------------------------
    # dense contractions
    def matmul(self, A: np.ndarray, B: np.ndarray) -> np.ndarray:
        """Dense ``A @ B`` (the pair-table field contraction)."""
        raise NotImplementedError

    def contract(self, spec: str, *ops: np.ndarray) -> np.ndarray:
        """Optimized einsum contraction (the batched assembly path).

        Backends may partition the contraction along a leading batch
        axis of the output; the per-item results must match the serial
        contraction to ``<= 1e-12``.
        """
        raise NotImplementedError

    # ------------------------------------------------------------------
    # sparse scatter-apply
    def scatter_apply(self, T, flat: np.ndarray) -> np.ndarray:
        """Element→CSR scatter of a batch: ``(T @ flat.T).T`` contiguous.

        ``T`` is the :class:`~repro.fem.assembly.ScatterMap` operator of
        shape ``(nnz, ne*nb*nb)``; ``flat`` is ``(X, ne*nb*nb)``.
        Returns ``(X, nnz)``.
        """
        raise NotImplementedError

    # ------------------------------------------------------------------
    # banded factor / solve (batched, one shared symbolic setup, factors
    # resident in backend-owned storage addressed by slot)
    def banded_alloc(self, st, n: int, count: int) -> tuple[str, object]:
        """Storage for ``count`` resident band LU factors of order ``n``
        sharing the symbolic setup ``st`` (a
        :class:`repro.sparse.band._BandStructure`, duck-typed: needs
        ``B``, ``pos``, ``lapack_rows(n)`` and ``lapack_positions(n)``).

        Returns ``(engine, factors)``: ``engine`` names the numeric
        kernel (``"lapack"``, ``"python"`` or ``"numba"``) and
        ``factors`` is the opaque state — ``len(factors) == count``,
        ``factors[x]`` is what :meth:`banded_solve_one` consumes — that
        :meth:`banded_factor_many` fills and :meth:`banded_solve_many`
        reads.  Nothing is factored yet.
        """
        raise NotImplementedError

    def banded_factor_many(
        self,
        st,
        n: int,
        data: np.ndarray,
        factors,
        rows: np.ndarray,
        pivot_tol: float = 0.0,
    ) -> None:
        """Factor the ``X`` band matrices ``data (X, nnz)`` (CSR data
        rows) into slots ``rows (X,)`` of ``factors`` (from
        :meth:`banded_alloc`), replacing whatever those slots held."""
        raise NotImplementedError

    def banded_solve_many(
        self, engine: str, factors, st, rhs_p: np.ndarray, rows: np.ndarray
    ) -> np.ndarray:
        """Solve ``rhs_p[k]`` against slot ``rows[k]``; ``rhs_p`` is
        ``(K, n)`` already in the band (RCM-permuted) ordering.  Returns permuted solutions ``(K, n)``."""
        raise NotImplementedError

    def banded_solve_one(self, engine: str, factor, st, b_p: np.ndarray) -> np.ndarray:
        """Solve one factored system for one permuted right-hand side."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r}, workers={self.workers})"


def as_blocks(blocks: Iterable[tuple[int, int]]) -> list[tuple]:
    """Normalize ``(i0, i1)`` pairs into ``parallel_for`` task tuples."""
    return [tuple(b) for b in blocks]
