"""Reference backend: serial numpy, the plain expression of every
operation.

Every method is the direct numpy/scipy form of its definition in
:class:`~repro.backend.base.ExecutionBackend` — ``A @ B``, one einsum,
one sparse product, LAPACK band LU in place — with no partitioning, so
``NumpyBackend`` (the default) is what the other backends are held to
and what the serve golden hashes are recorded on.
"""

from __future__ import annotations

import numpy as np

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


def einsum(spec: str, *ops: np.ndarray) -> np.ndarray:
    """``np.einsum`` with the greedy path planner under
    :data:`EINSUM_INTERMEDIATE_LIMIT` — the one contraction every
    backend's ``contract`` runs on a (block of a) batch."""
    return np.einsum(
        spec, *ops, optimize=("greedy", EINSUM_INTERMEDIATE_LIMIT)
    )


class NumpyBackend(ExecutionBackend):
    """Serial reference execution: plain numpy + scipy LAPACK band LU."""

    name = "numpy"
    workers = 1
    #: scipy's LAPACK wrappers, bound by :meth:`banded_alloc` so the factor
    #: and per-system solve loops run no import statement (the import stays
    #: lazy: the backend layer loads without :mod:`repro.sparse`)
    _lapack = None

    # ------------------------------------------------------------------
    def matmul(self, A: np.ndarray, B: np.ndarray) -> np.ndarray:
        return A @ B

    def contract(self, spec: str, *ops: np.ndarray) -> np.ndarray:
        return einsum(spec, *ops)

    def scatter_apply(self, T, flat: np.ndarray) -> np.ndarray:
        return np.ascontiguousarray((T @ flat.T).T)

    # ------------------------------------------------------------------
    # banded batch LU: LAPACK (dgbtrf/dgbtrs, or dgetrf/dgetrs where the
    # dense form is the smaller one) when available, pure-python
    # band_factor/band_solve otherwise.
    def banded_alloc(self, st, n: int, count: int) -> tuple[str, object]:
        from ..sparse.band import _HAVE_GBTRF, _lapack

        if _HAVE_GBTRF:
            self._lapack = _lapack
            return "lapack", _LapackFactors(count, n, st.lapack_rows(n))
        return "python", [None] * count  # pragma: no cover - no-LAPACK

    def banded_factor_many(
        self,
        st,
        n: int,
        data: np.ndarray,
        factors,
        rows: np.ndarray,
        pivot_tol: float = 0.0,
    ) -> None:
        B = st.B
        if isinstance(factors, _LapackFactors):
            pos = st.lapack_positions(n)

            def factor_block(i0: int, i1: int) -> None:
                for k in range(i0, i1):
                    x = rows[k]
                    a = factors.lu[x]
                    a.fill(0.0)
                    a.ravel()[pos] = data[k]
                    # a.T is the Fortran-ordered LAPACK array: factored
                    # in place, no copy in or out
                    if a.shape[0] == a.shape[1]:
                        _, factors.piv[x], info = self._lapack.dgetrf(
                            a.T, overwrite_a=1
                        )
                    else:
                        _, factors.piv[x], info = self._lapack.dgbtrf(
                            a.T, B, B, overwrite_ab=1
                        )
                    if info != 0:
                        raise np.linalg.LinAlgError(
                            f"LU failed on batch entry {k} with info={info}"
                        )

            self.parallel_for(self.batch_blocks(len(rows)), factor_block)
            return

        from ..sparse.band import BandMatrix, band_factor  # pragma: no cover

        def factor_block(i0: int, i1: int) -> None:  # pragma: no cover - no-LAPACK
            for k in range(i0, i1):
                W = np.zeros((n, 2 * B + 1))
                W.ravel()[st.pos] = data[k]
                factors[rows[k]] = band_factor(
                    BandMatrix(W=W, B=B), pivot_tol=pivot_tol
                )

        self.parallel_for(
            self.batch_blocks(len(rows)), factor_block
        )  # pragma: no cover

    def banded_solve_many(
        self, engine: str, factors, st, rhs_p: np.ndarray, rows: np.ndarray
    ) -> np.ndarray:
        out = np.empty_like(rhs_p)

        def solve_block(i0: int, i1: int) -> None:
            for k in range(i0, i1):
                out[k] = self.banded_solve_one(
                    engine, factors[rows[k]], st, rhs_p[k]
                )

        self.parallel_for(self.batch_blocks(len(rows)), solve_block)
        return out

    def banded_solve_one(self, engine: str, factor, st, b_p: np.ndarray) -> np.ndarray:
        if engine == "lapack":
            lu, piv = factor
            if lu.shape[0] == lu.shape[1]:
                y, info = self._lapack.dgetrs(lu, piv, b_p)
            else:
                y, info = self._lapack.dgbtrs(lu, st.B, st.B, b_p, piv)
            if info != 0:  # pragma: no cover - never fails post-factor
                raise np.linalg.LinAlgError(f"LU solve failed with info={info}")
            return y
        from ..sparse.band import band_solve

        return band_solve(factor, b_p)


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
