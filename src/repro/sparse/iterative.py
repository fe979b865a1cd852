"""A custom restarted GMRES with block-Jacobi preconditioning.

Section VI: "A custom GPU iterative solver is under development to address
this problem" — the problem being that at high throughput the (direct)
linear solve dominates.  This module provides that solver for the Landau
systems: GMRES(m) (the operator is nonsymmetric because of the friction
term) with a block-Jacobi preconditioner whose blocks are the element
neighbourhoods (or the species blocks themselves, which are exactly
decoupled).

Pure NumPy, no scipy.sparse.linalg.gmres — the point is a self-contained
solver whose work is countable and whose kernels (SpMV, small dense
solves, AXPYs) are the batched vector operations the paper wants to fuse.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp


@dataclass
class IterativeStats:
    iterations: int = 0
    restarts: int = 0
    matvecs: int = 0
    converged: bool = False
    residual_history: list = field(default_factory=list)


class BlockJacobiPreconditioner:
    """Exact solves on diagonal sub-blocks defined by an index partition."""

    def __init__(self, A: sp.spmatrix, partition: list[np.ndarray]):
        A = sp.csr_matrix(A)
        n = A.shape[0]
        covered = np.concatenate(partition) if partition else np.array([], int)
        if len(np.unique(covered)) != n:
            raise ValueError("partition must cover every index exactly once")
        self.partition = [np.asarray(p, dtype=np.int64) for p in partition]
        # blocks are small (<= ~128); precomputed inverses keep apply() a
        # batch of dense matvecs — exactly the GPU-friendly kernel shape
        self._inv = [
            (idx, np.linalg.inv(A[idx][:, idx].toarray()))
            for idx in self.partition
        ]

    @classmethod
    def from_bandwidth_slices(cls, A: sp.spmatrix, block_size: int = 64):
        """Contiguous index slices (matches RCM-ordered locality)."""
        n = A.shape[0]
        parts = [
            np.arange(i, min(i + block_size, n)) for i in range(0, n, block_size)
        ]
        return cls(A, parts)

    def apply(self, r: np.ndarray) -> np.ndarray:
        z = np.empty_like(r)
        for idx, inv in self._inv:
            z[idx] = inv @ r[idx]
        return z


def gmres(
    A: sp.spmatrix,
    b: np.ndarray,
    M: BlockJacobiPreconditioner | None = None,
    x0: np.ndarray | None = None,
    restart: int = 30,
    rtol: float = 1e-8,
    max_restarts: int = 20,
) -> tuple[np.ndarray, IterativeStats]:
    """Right-preconditioned restarted GMRES.

    Right preconditioning keeps the Krylov residual equal to the *true*
    residual, so convergence claims survive ill-conditioned Landau systems
    (left preconditioning converges in the M-norm, which can differ by
    orders of magnitude here).  Arnoldi with modified Gram-Schmidt; the
    least-squares problem is updated with Givens rotations.
    """
    A = sp.csr_matrix(A)
    n = A.shape[0]
    b = np.asarray(b, dtype=float)
    x = np.zeros(n) if x0 is None else np.asarray(x0, dtype=float).copy()
    stats = IterativeStats()

    def prec(v):
        return M.apply(v) if M is not None else v

    bnorm = np.linalg.norm(b)
    if bnorm == 0.0:
        stats.converged = True
        return np.zeros(n), stats

    for _outer in range(max_restarts):
        r = b - A @ x
        stats.matvecs += 1
        beta = np.linalg.norm(r)
        stats.residual_history.append(beta / bnorm)
        if beta / bnorm < rtol:
            stats.converged = True
            return x, stats
        V = np.zeros((restart + 1, n))
        H = np.zeros((restart + 1, restart))
        cs = np.zeros(restart)
        sn = np.zeros(restart)
        g = np.zeros(restart + 1)
        V[0] = r / beta
        g[0] = beta
        k_done = 0
        for k in range(restart):
            w = A @ prec(V[k])
            stats.matvecs += 1
            stats.iterations += 1
            # modified Gram-Schmidt
            for i in range(k + 1):
                H[i, k] = w @ V[i]
                w -= H[i, k] * V[i]
            H[k + 1, k] = np.linalg.norm(w)
            if H[k + 1, k] > 1e-30:
                V[k + 1] = w / H[k + 1, k]
            # apply previous Givens rotations to the new column
            for i in range(k):
                t = cs[i] * H[i, k] + sn[i] * H[i + 1, k]
                H[i + 1, k] = -sn[i] * H[i, k] + cs[i] * H[i + 1, k]
                H[i, k] = t
            # new rotation annihilating H[k+1, k]
            denom = np.hypot(H[k, k], H[k + 1, k])
            cs[k] = H[k, k] / denom if denom else 1.0
            sn[k] = H[k + 1, k] / denom if denom else 0.0
            H[k, k] = denom
            H[k + 1, k] = 0.0
            g[k + 1] = -sn[k] * g[k]
            g[k] = cs[k] * g[k]
            k_done = k + 1
            stats.residual_history.append(abs(g[k + 1]) / bnorm)
            if abs(g[k + 1]) / bnorm < rtol:
                break
        # solve the small triangular system; x += M V y (right prec)
        y = np.linalg.solve(H[:k_done, :k_done], g[:k_done])
        x = x + prec(V[:k_done].T @ y)
        stats.restarts += 1
        # the Givens estimate drifts when modified Gram-Schmidt loses
        # orthogonality on ill-conditioned systems; convergence is declared
        # only on the recomputed true residual
        r_true = np.linalg.norm(b - A @ x) / bnorm
        stats.matvecs += 1
        stats.residual_history.append(r_true)
        if r_true < rtol:
            stats.converged = True
            return x, stats
    return x, stats


def landau_iterative_solver_factory(
    block_size: int = 64,
    restart: int = 30,
    rtol: float = 1e-10,
    raise_on_stall: bool = True,
):
    """A linear-solver factory for :class:`ImplicitLandauSolver`.

    ``ImplicitLandauSolver(op, linear_solver=landau_iterative_solver_factory())``
    swaps the direct band/LU solve for preconditioned GMRES.

    A stalled solve raises ``RuntimeError`` so the adaptive time-step
    controller can recover; ``raise_on_stall=False``
    returns the best iterate instead.  Either way the returned ``solve``
    exposes the most recent :class:`IterativeStats` as ``solve.last_stats``.
    """

    def factory(A: sp.spmatrix):
        M = BlockJacobiPreconditioner.from_bandwidth_slices(A, block_size)

        def solve(b: np.ndarray) -> np.ndarray:
            x, stats = gmres(A, b, M=M, restart=restart, rtol=rtol)
            solve.last_stats = stats
            if not stats.converged and raise_on_stall:
                raise RuntimeError(
                    f"GMRES stalled at {stats.residual_history[-1]:.2e}"
                )
            return x

        solve.last_stats = None
        return solve

    return factory
