"""The executor of the operator/assembly/band-solve hot paths.

Every kernel the batched step runs — the on-the-fly Algorithm-1 field
rows, the response-table field GEMMs, the batched einsum assembly, the
sparse scatter-apply and the batched band factor/solve — is one method
of :class:`NumpyBackend`, in its direct serial numpy/scipy form: ``A @
B``, one einsum, one sparse product, LAPACK band LU in place.  Keeping
them on one class gives each kernel a name a profiler or tracer can
wrap from outside.
"""

from __future__ import annotations

import functools

import numpy as np
from scipy.linalg.lapack import dgbtrf, dgbtrs, dgetrf, dgetrs

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
    shapes — the contraction :meth:`NumpyBackend.contract` runs on a
    batch."""
    path = _einsum_path(spec, *(op.shape for op in ops))
    return np.einsum(spec, *ops, optimize=path)


class NumpyBackend:
    """Serial execution: plain numpy + scipy LAPACK band LU."""

    # ------------------------------------------------------------------
    # Algorithm-1 row-block kernel (on-the-fly fields)
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
        reflected: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
    ) -> None:
        """Row block ``[i0, i1)``'s share of the Algorithm-1 on-the-fly
        inner integral: evaluate the pair tensors, contract them against
        the ``(N, C)`` column sources — and the ``reflected`` ones at the
        points ``(r, -z)``, when given — and *add* into ``G_D (C, N, 2,
        2)`` / ``G_K (C, N, 2)``
        (:func:`repro.core.landau_tensor.field_rows`).

        The outputs arrive zero-initialised; calls over any partition of
        ``[0, N)`` leave them complete (including ``G_D[..., 1, 0] ==
        G_D[..., 0, 1]``).  A call adds into rows ``>= i1`` as well as its
        own: the pairs below the block are served from the block's
        integrals."""
        from ..core.landau_tensor import field_rows

        field_rows(G_D, G_K, r, z, cTD, cTKr, cTKz, i0, i1, reflected)

    # ------------------------------------------------------------------
    # dense contractions
    def matmul(self, A: np.ndarray, B: np.ndarray) -> np.ndarray:
        """Dense ``A @ B`` (the response-table field GEMMs)."""
        return A @ B

    def contract(self, spec: str, *ops: np.ndarray) -> np.ndarray:
        """Planned einsum contraction (the batched assembly path)."""
        return einsum(spec, *ops)

    # ------------------------------------------------------------------
    # sparse scatter-apply
    def scatter_apply(self, T, flat: np.ndarray) -> np.ndarray:
        """Element→CSR scatter of a batch: ``(T @ flat.T).T`` contiguous.

        ``T`` is the :class:`~repro.fem.assembly.ScatterMap` operator of
        shape ``(nnz, ne*nb*nb)``; ``flat`` is ``(X, ne*nb*nb)``.
        Returns ``(X, nnz)``.
        """
        return np.ascontiguousarray((T @ flat.T).T)

    # ------------------------------------------------------------------
    # banded batch LU: LAPACK dgbtrf/dgbtrs, or dgetrf/dgetrs where the
    # dense form is the smaller one, in place in preallocated slots
    def banded_alloc(self, st, n: int, count: int) -> "_LapackFactors":
        """Storage for ``count`` resident LAPACK LU factors of order ``n``
        sharing the symbolic setup ``st`` (a
        :class:`repro.sparse.band._BandStructure`); nothing is factored
        yet."""
        return _LapackFactors(count, n, st.lapack_rows(n))

    def banded_factor_many(
        self, st, n: int, data: np.ndarray, factors, rows: np.ndarray
    ) -> None:
        """Factor the ``X`` band matrices ``data (X, nnz)`` (CSR data
        rows) into slots ``rows (X,)`` of ``factors`` (from
        :meth:`banded_alloc`), replacing whatever those slots held."""
        B = st.B
        pos = st.lapack_positions(n)
        for k, x in enumerate(rows):
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

    def banded_solve_many(
        self, factors, st, rhs_p: np.ndarray, rows: np.ndarray
    ) -> np.ndarray:
        """Solve ``rhs_p[k]`` against slot ``rows[k]``; ``rhs_p`` is
        ``(K, n)`` already in the band (RCM-permuted) ordering.  Returns
        permuted solutions ``(K, n)``."""
        out = np.empty_like(rhs_p)
        for k, x in enumerate(rows):
            lu, piv = factors[x]
            if lu.shape[0] == lu.shape[1]:
                out[k], info = dgetrs(lu, piv, rhs_p[k])
            else:
                out[k], info = dgbtrs(lu, st.B, st.B, rhs_p[k], piv)
            if info != 0:  # pragma: no cover - never fails post-factor
                raise np.linalg.LinAlgError(f"LU solve failed with info={info}")
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
