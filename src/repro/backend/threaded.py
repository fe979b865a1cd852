"""Chunked thread-pool backend.

Absorbs the ad-hoc ``ThreadPoolExecutor`` usage that PR 4 sprinkled
through :class:`~repro.core.operator.LandauOperator` into one place:
every backend operation is split into contiguous, disjoint output blocks
and dispatched to a shared pool.  numpy/scipy release the GIL inside
BLAS/LAPACK kernels, so the blocks genuinely overlap on multi-core
hosts; on a single-core host the backend still runs correctly (the pool
degenerates to near-serial execution).

Determinism: blocks never share output rows, and the per-block compute
is the same numpy expression as :class:`NumpyBackend` applied to a
contiguous slice — results match the reference to well below ``1e-12``
(BLAS may reassociate sums across the block boundary of ``matmul``, the
only operation where the split axis is contracted-adjacent).
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Sequence

import numpy as np

from .numpy_backend import NumpyBackend, einsum

__all__ = ["ThreadedBackend"]


def _default_workers() -> int:
    return max(1, min(8, os.cpu_count() or 1))


class ThreadedBackend(NumpyBackend):
    """Block-parallel execution on a shared thread pool.

    ``num_threads`` follows :attr:`AssemblyOptions.num_threads` semantics:
    values > 1 set the pool size; ``1`` (the options default) means "pick
    for me" and uses ``min(8, cpu_count)`` so selecting the threaded
    backend is useful without also tuning a thread knob.
    """

    name = "threaded"

    def __init__(self, num_threads: int = 0):
        self.workers = (
            int(num_threads) if num_threads and num_threads > 1 else _default_workers()
        )
        self._pool: ThreadPoolExecutor | None = None
        self._pool_pid = os.getpid()

    def _get_pool(self) -> ThreadPoolExecutor:
        # a pool inherited across fork (a serve shard worker) has no
        # threads in the child: submitting to it would wait forever
        if self._pool is None or self._pool_pid != os.getpid():
            self._pool = ThreadPoolExecutor(
                max_workers=self.workers, thread_name_prefix="repro-backend"
            )
            self._pool_pid = os.getpid()
        return self._pool

    # ------------------------------------------------------------------
    def parallel_for(
        self, tasks: Sequence[tuple], fn: Callable[..., None]
    ) -> bool:
        tasks = list(tasks)
        if len(tasks) <= 1 or self.workers <= 1:
            for task in tasks:
                fn(*task)
            return False
        pool = self._get_pool()
        futures = [pool.submit(fn, *task) for task in tasks]
        for fut in futures:
            fut.result()
        return True

    # ------------------------------------------------------------------
    def matmul(self, A: np.ndarray, B: np.ndarray) -> np.ndarray:
        n_cols = B.shape[1]
        blocks = self.batch_blocks(n_cols)
        if len(blocks) <= 1:
            return A @ B
        out = np.empty((A.shape[0], n_cols), dtype=np.result_type(A, B))

        def mm_block(c0: int, c1: int) -> None:
            np.matmul(A, B[:, c0:c1], out=out[:, c0:c1])

        self.parallel_for(blocks, mm_block)
        return out

    def contract(self, spec: str, *ops: np.ndarray) -> np.ndarray:
        """Partition the contraction along the output's leading axis.

        The heavy assembly contractions all carry a batch/element index
        as the first output subscript; each block einsum sees a
        contiguous slice of every operand that shares the index, so block
        results are exactly the serial per-slice results.
        """
        inputs, out_sub = spec.replace(" ", "").split("->")
        in_subs = inputs.split(",")
        if not out_sub:
            return einsum(spec, *ops)
        axis_letter = out_sub[0]
        n = None
        for sub, op in zip(in_subs, ops):
            if axis_letter in sub:
                n = op.shape[sub.index(axis_letter)]
                break
        blocks = self.batch_blocks(n) if n is not None else []
        if len(blocks) <= 1:
            return einsum(spec, *ops)
        out = None

        def einsum_block(i0: int, i1: int) -> None:
            nonlocal out
            sliced = []
            for sub, op in zip(in_subs, ops):
                if axis_letter in sub:
                    ax = sub.index(axis_letter)
                    key = [slice(None)] * op.ndim
                    key[ax] = slice(i0, i1)
                    sliced.append(op[tuple(key)])
                else:
                    sliced.append(op)
            res = einsum(spec, *sliced)
            if out is None:
                shape = (n,) + res.shape[1:]
                out = np.empty(shape, dtype=res.dtype)
            out[i0:i1] = res

        # run the first block inline to size the output, then fan out
        einsum_block(*blocks[0])
        self.parallel_for(blocks[1:], einsum_block)
        return out

    def scatter_apply(self, T, flat: np.ndarray) -> np.ndarray:
        X = flat.shape[0]
        blocks = self.batch_blocks(X)
        if len(blocks) <= 1:
            return np.ascontiguousarray((T @ flat.T).T)
        out = np.empty((X, T.shape[0]), dtype=float)

        def scatter_block(i0: int, i1: int) -> None:
            out[i0:i1] = (T @ flat[i0:i1].T).T

        self.parallel_for(blocks, scatter_block)
        return out

    # banded_factor_many / banded_solve_many need no override: the numpy
    # implementations already dispatch their per-matrix loops through
    # parallel_for over batch_blocks, which this class parallelizes.

    def __del__(self):  # pragma: no cover - interpreter-shutdown best effort
        pool = getattr(self, "_pool", None)
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)
