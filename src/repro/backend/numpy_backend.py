"""Reference backend: serial numpy, the plain expression of every
operation.

Every method is the direct numpy/scipy form of its definition in
:class:`~repro.backend.base.ExecutionBackend` — ``A @ B``, one einsum,
one sparse product, LAPACK band LU in place — with no partitioning, so
``NumpyBackend`` (the default) is what the threaded backend is held to
and what the serve golden hashes are recorded on.
"""

from __future__ import annotations

import functools

import numpy as np
from scipy.linalg.lapack import dgbtrf, dgbtrs, dgetrf, dgetrs

from .base import ExecutionBackend

__all__ = ["NumpyBackend", "einsum"]

#: largest intermediate (elements) the einsum path planner may create.
#: numpy's default limit is the largest *operand*, which for the assembly
#: specs grows with the batch axis: below 64 vertices it rules out the
#: pairwise path through the state-independent ``grad psi (x) grad psi``
#: product and falls back to one unblocked three-operand loop, ~10x
#: slower per vertex.  A fixed limit makes the cost per vertex the same
#: for a block of 16 as for a batch of 64; the X = 1 path is unchanged.
EINSUM_INTERMEDIATE_LIMIT = 1 << 20


@functools.lru_cache(maxsize=64)
def _einsum_path(spec: str, *shapes: tuple[int, ...]) -> list:
    """The greedy contraction order of ``spec`` on operands of these
    shapes under :data:`EINSUM_INTERMEDIATE_LIMIT` (the planner reads
    shapes only, so zero-stride stand-ins serve as operands)."""
    ops = [np.broadcast_to(0.0, shape) for shape in shapes]
    return np.einsum_path(
        spec, *ops, optimize=("greedy", EINSUM_INTERMEDIATE_LIMIT)
    )[0]


def einsum(spec: str, *ops: np.ndarray) -> np.ndarray:
    """``np.einsum`` along the greedy path under
    :data:`EINSUM_INTERMEDIATE_LIMIT`, planned once per spec and operand
    shapes — the one contraction every backend's ``contract`` runs on a
    (block of a) batch."""
    path = _einsum_path(spec, *(op.shape for op in ops))
    return np.einsum(spec, *ops, optimize=path)


class NumpyBackend(ExecutionBackend):
    """Serial reference execution: plain numpy + scipy LAPACK band LU."""

    name = "numpy"
    workers = 1

    # ------------------------------------------------------------------
    def matmul(self, A: np.ndarray, B: np.ndarray) -> np.ndarray:
        return A @ B

    def contract(self, spec: str, *ops: np.ndarray) -> np.ndarray:
        return einsum(spec, *ops)

    def scatter_apply(self, T, flat: np.ndarray) -> np.ndarray:
        return np.ascontiguousarray((T @ flat.T).T)

    # ------------------------------------------------------------------
    # banded batch LU: LAPACK dgbtrf/dgbtrs, or dgetrf/dgetrs where the
    # dense form is the smaller one, in place in preallocated slots
    def banded_alloc(self, st, n: int, count: int) -> "_LapackFactors":
        return _LapackFactors(count, n, st.lapack_rows(n))

    def banded_factor_many(
        self, st, n: int, data: np.ndarray, factors, rows: np.ndarray
    ) -> None:
        B = st.B
        pos = st.lapack_positions(n)

        def factor_block(i0: int, i1: int) -> None:
            for k in range(i0, i1):
                x = rows[k]
                a = factors.lu[x]
                a.fill(0.0)
                a.ravel()[pos] = data[k]
                # a.T is the Fortran-ordered LAPACK array: factored in
                # place, no copy in or out
                if a.shape[0] == a.shape[1]:
                    _, factors.piv[x], info = dgetrf(a.T, overwrite_a=1)
                else:
                    _, factors.piv[x], info = dgbtrf(a.T, B, B, overwrite_ab=1)
                if info != 0:
                    raise np.linalg.LinAlgError(
                        f"LU failed on batch entry {k} with info={info}"
                    )

        self.parallel_for(self.batch_blocks(len(rows)), factor_block)

    def banded_solve_many(
        self, factors, st, rhs_p: np.ndarray, rows: np.ndarray
    ) -> np.ndarray:
        out = np.empty_like(rhs_p)

        def solve_block(i0: int, i1: int) -> None:
            for k in range(i0, i1):
                lu, piv = factors[rows[k]]
                if lu.shape[0] == lu.shape[1]:
                    out[k], info = dgetrs(lu, piv, rhs_p[k])
                else:
                    out[k], info = dgbtrs(lu, st.B, st.B, rhs_p[k], piv)
                if info != 0:  # pragma: no cover - never fails post-factor
                    raise np.linalg.LinAlgError(
                        f"LU solve failed with info={info}"
                    )

        self.parallel_for(self.batch_blocks(len(rows)), solve_block)
        return out


class _LapackFactors:
    """Preallocated LAPACK LU factors, one array per slot.

    ``lu[x]`` is C-ordered ``(n, rows)``: transposed it is the Fortran-
    ordered array — band ``ab`` (``rows = 3B + 1``) or dense
    (``rows = n``), see :meth:`_BandStructure.lapack_rows` — that LAPACK
    overwrites with its factors, so filling a slot allocates nothing.
    The slots are separate allocations on purpose: one ``(count, n,
    rows)`` block is by far the largest request of a step, and a heap
    that has results allocated into the hole it leaves between steps has
    to grow by a whole block to serve the next one (seen as a one-off
    +19 MB in a service's peak RSS); slot-sized pieces are reused.
    """

    def __init__(self, count: int, n: int, rows: int):
        self.lu = [np.empty((n, rows)) for _ in range(count)]
        self.piv = np.empty((count, n), dtype=np.intc)

    def __len__(self) -> int:
        return len(self.lu)

    def __getitem__(self, x: int):
        return self.lu[x].T, self.piv[x]
