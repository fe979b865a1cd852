"""Optional numba backend: the whole Jacobian build, JIT-compiled.

Guarded import — the container may not ship numba, in which case
:meth:`NumbaBackend.available` is ``False``, construction raises
:class:`BackendUnavailable`, and the equivalence tests/CI leg skip.

``REPRO_BACKEND=numba`` now covers every stage of the Jacobian build,
not just the band solves:

* packed pair-table build and the on-the-fly Algorithm-1 field rows —
  scalar ``nogil`` kernels over the AGM elliptic integrals
  (:mod:`repro.backend.numba_kernels`), block-dispatched through the
  inherited thread pool so rows overlap across cores without the GIL;
* the two batched element-contraction specs of the assembly path
  (``"eq,eqad,xeqdc,eqbc->xeab"`` / ``"eq,eqad,xeqd,qb->xeab"``) and
  the CSR scatter-apply — loop kernels partitioned along the batch
  axis (any other ``contract`` spec falls through to the threaded
  einsum);
* the batched no-pivot banded LU factor/solve stacks (below), exactly
  the recurrence of :func:`repro.sparse.band.band_factor`.

The cached-table field contraction (``matmul``) deliberately stays on
BLAS: dgemm is already compiled and cache-blocked, and a naive njit
triple loop loses to it at every size we serve.  Set
``REPRO_NUMBA_MATMUL=1`` to experiment with the JIT matmul anyway.

First-call compilation is hoisted out of timed paths by
:meth:`warmup`, which runs at construction (disable with
``REPRO_NUMBA_WARMUP=0``) and compiles every kernel on tiny inputs —
the serve tier additionally calls it through the untimed per-worker
warm RPC so batch deadlines never see compile time.
``REPRO_NUMBA_CACHE=1`` enables numba's on-disk cache.
"""

from __future__ import annotations

import os
import time

import numpy as np

from . import numba_kernels as nk
from .base import BackendUnavailable
from .threaded import ThreadedBackend

try:  # pragma: no cover - exercised only where numba is installed
    from numba import njit

    _HAVE_NUMBA = True
except ImportError:
    njit = None
    _HAVE_NUMBA = False

__all__ = ["NumbaBackend"]

_KERNELS: tuple | None = None

#: the two assembly contraction specs lowered to loop kernels
_SPEC_D = "eq,eqad,xeqdc,eqbc->xeab"
_SPEC_K = "eq,eqad,xeqd,qb->xeab"


def _env_flag(name: str, default: bool) -> bool:
    raw = os.environ.get(name)
    if raw is None:
        return default
    return raw.strip().lower() not in ("0", "", "false", "off")


def _get_kernels():  # pragma: no cover - requires numba
    """Compile (once) the batched band factor/solve kernels."""
    global _KERNELS
    if _KERNELS is not None:
        return _KERNELS

    @njit(cache=False)
    def factor_stack(W, B, rows):
        # W: (count, n, 2B+1) resident stack; the slots ``rows`` are
        # factored in place; returns 0 or 1-based index of the first
        # zero pivot encountered.
        n = W.shape[1]
        for r in range(rows.size):
            x = rows[r]
            for k in range(n - 1):
                piv = W[x, k, B]
                if piv == 0.0:
                    return k + 1
                m = min(B, n - 1 - k)
                for d in range(m):
                    l = W[x, k + 1 + d, B - 1 - d] / piv
                    W[x, k + 1 + d, B - 1 - d] = l
                    for c in range(1, B + 1):
                        W[x, k + 1 + d, B - 1 - d + c] -= l * W[x, k, B + c]
        return 0

    @njit(cache=False)
    def solve_stack(W, B, rhs, rows):
        # W: (count, n, 2B+1) factored; rhs: (K, n) permuted, rhs[k]
        # solved in place against slot rows[k].
        n = W.shape[1]
        for k in range(rows.size):
            x = rows[k]
            for i in range(1, n):
                j0 = max(0, i - B)
                acc = 0.0
                for j in range(j0, i):
                    acc += W[x, i, B + j - i] * rhs[k, j]
                rhs[k, i] -= acc
            for i in range(n - 1, -1, -1):
                j1 = min(n, i + B + 1)
                acc = rhs[k, i]
                for j in range(i + 1, j1):
                    acc -= W[x, i, B + j - i] * rhs[k, j]
                rhs[k, i] = acc / W[x, i, B]
        return rhs

    @njit(cache=False)
    def matmul_cols(A, B, out, c0, c1):
        # out[:, c0:c1] = A @ B[:, c0:c1] — opt-in (REPRO_NUMBA_MATMUL)
        n, k = A.shape
        for i in range(n):
            for c in range(c0, c1):
                acc = 0.0
                for j in range(k):
                    acc += A[i, j] * B[j, c]
                out[i, c] = acc

    _KERNELS = (factor_stack, solve_stack, matmul_cols)
    return _KERNELS


class NumbaBackend(ThreadedBackend):
    """Fully JIT-compiled Jacobian build + threaded block dispatch."""

    name = "numba"

    def __init__(self, num_threads: int = 0):
        if not _HAVE_NUMBA:
            raise BackendUnavailable(
                "backend 'numba' requires the numba package, which is not "
                "installed in this environment (pick 'numpy' or 'threaded', "
                "or leave REPRO_BACKEND=auto)"
            )
        super().__init__(num_threads)
        self._jit_matmul = _env_flag("REPRO_NUMBA_MATMUL", False)
        if _env_flag("REPRO_NUMBA_WARMUP", True):
            self.warmup()

    @classmethod
    def available(cls) -> bool:
        return _HAVE_NUMBA

    # ------------------------------------------------------------------
    def warmup(self) -> float:  # pragma: no cover - requires numba
        """Compile every kernel on tiny inputs; idempotent.

        Runs at construction by default (``REPRO_NUMBA_WARMUP=0``
        defers back to first call) and records the compile cost in
        :attr:`warmup_seconds` so callers can report it.  The serve
        tier invokes this per worker through the untimed warm RPC —
        per-batch deadlines never include compilation.
        """
        if self.warmed:
            return 0.0
        t0 = time.perf_counter()
        nk.warm_all()
        factor_stack, solve_stack, matmul_cols = _get_kernels()
        slot = np.zeros(1, dtype=np.intp)
        W = np.zeros((1, 3, 3))
        W[:, :, 1] = 2.0  # diagonal band column (B = 1)
        factor_stack(W, 1, slot)
        solve_stack(W, 1, np.ones((1, 3)), slot)
        matmul_cols(np.eye(2), np.eye(2), np.zeros((2, 2)), 0, 2)
        self.warmed = True
        self.warmup_seconds = time.perf_counter() - t0
        return self.warmup_seconds

    # ------------------------------------------------------------------
    # Algorithm-1 row-block kernels
    def pair_table_rows(
        self, out, r, z, i0: int, i1: int
    ) -> None:  # pragma: no cover - requires numba
        nk.pair_rows(out, r, z, i0, i1)

    def field_rows(
        self, G_D, G_K, r, z, cTD, cTKr, cTKz, i0: int, i1: int
    ) -> None:  # pragma: no cover - requires numba
        nk.field_rows(G_D, G_K, r, z, cTD, cTKr, cTKz, i0, i1)

    # ------------------------------------------------------------------
    # dense contractions
    def matmul(self, A, B):  # pragma: no cover - requires numba
        if not self._jit_matmul:
            return super().matmul(A, B)
        _, _, matmul_cols = _get_kernels()
        A = np.ascontiguousarray(A, dtype=np.float64)
        B = np.ascontiguousarray(B, dtype=np.float64)
        out = np.empty((A.shape[0], B.shape[1]))
        blocks = self.batch_blocks(B.shape[1])
        self.parallel_for(
            blocks, lambda c0, c1: matmul_cols(A, B, out, c0, c1)
        )
        return out

    def contract(self, spec: str, *ops):  # pragma: no cover - requires numba
        spec_n = spec.replace(" ", "")
        if spec_n == _SPEC_D and len(ops) == 4:
            w, gphys, GD, _ = ops
            return self._element_contract(nk.element_blocks_D, w, gphys, (GD,))
        if spec_n == _SPEC_K and len(ops) == 4:
            w, gphys, GK, Bq = ops
            return self._element_contract(
                nk.element_blocks_K,
                w,
                gphys,
                (GK, np.ascontiguousarray(Bq, dtype=np.float64)),
            )
        return super().contract(spec, *ops)

    def _element_contract(
        self, kernel, w, gphys, tail
    ):  # pragma: no cover - requires numba
        w = np.ascontiguousarray(w, dtype=np.float64)
        gphys = np.ascontiguousarray(gphys, dtype=np.float64)
        field = np.ascontiguousarray(tail[0], dtype=np.float64)
        X = field.shape[0]
        ne, nq = w.shape
        nb = gphys.shape[2]
        out = np.zeros((X, ne, nb, nb))
        args = (w, gphys, field) + tuple(tail[1:]) + (out,)
        self.parallel_for(
            self.batch_blocks(X), lambda x0, x1: kernel(*args, x0, x1)
        )
        return out

    # ------------------------------------------------------------------
    # sparse scatter-apply
    def scatter_apply(self, T, flat):  # pragma: no cover - requires numba
        indptr = getattr(T, "indptr", None)
        if indptr is None:
            return super().scatter_apply(T, flat)
        flat = np.ascontiguousarray(flat, dtype=np.float64)
        X = flat.shape[0]
        out = np.empty((X, T.shape[0]))
        data = np.ascontiguousarray(T.data, dtype=np.float64)
        indices = T.indices
        self.parallel_for(
            self.batch_blocks(X),
            lambda x0, x1: nk.csr_scatter_rows(
                indptr, indices, data, flat, out, x0, x1
            ),
        )
        return out

    # ------------------------------------------------------------------
    def banded_alloc(
        self, st, n: int, count: int
    ) -> tuple[str, object]:  # pragma: no cover - requires numba
        return "numba", np.empty((count, n, 2 * st.B + 1))

    def banded_factor_many(
        self,
        st,
        n: int,
        data: np.ndarray,
        factors,
        rows: np.ndarray,
        pivot_tol: float = 0.0,
    ) -> None:  # pragma: no cover - requires numba
        factor_stack, _, _ = _get_kernels()
        flat = factors.reshape(len(factors), -1)
        flat[rows] = 0.0
        flat[rows[:, None], st.pos] = data
        info = factor_stack(factors, st.B, rows)
        if info != 0:
            raise ZeroDivisionError(
                f"zero pivot at step {info - 1} (no pivoting)"
            )

    def banded_solve_many(
        self, engine: str, factors, st, rhs_p: np.ndarray, rows: np.ndarray
    ) -> np.ndarray:  # pragma: no cover - requires numba
        if engine != "numba":
            return super().banded_solve_many(engine, factors, st, rhs_p, rows)
        _, solve_stack, _ = _get_kernels()
        return solve_stack(
            factors, st.B, np.ascontiguousarray(rhs_p, dtype=float), rows
        )

    def banded_solve_one(
        self, engine: str, factor, st, b_p: np.ndarray
    ) -> np.ndarray:  # pragma: no cover - requires numba
        if engine != "numba":
            return super().banded_solve_one(engine, factor, st, b_p)
        _, solve_stack, _ = _get_kernels()
        W = np.ascontiguousarray(factor)[None]
        rhs = np.ascontiguousarray(b_p, dtype=float)[None].copy()
        return solve_stack(W, st.B, rhs, np.zeros(1, dtype=np.intp))[0]
