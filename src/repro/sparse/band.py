"""Custom band LU solver with RCM ordering (section III-G).

SuperLU/MUMPS target much larger problems than the Landau matrices, so the
paper wrote a custom band solver: reverse Cuthill-McKee ordering minimizes
bandwidth (and "naturally produced a block diagonal matrix in multi-species
problems"); band storage keeps the main diagonal plus ``UBW`` upper and
``LBW`` lower diagonals (structurally symmetric Jacobians give
``B = UBW = LBW``); the factorization is the standard outer-product banded
LU (Golub & Van Loan, Algorithm 4.3.1) — each step ``k`` applies a
``B x B`` rank-1 update ``A[k+1:, k] * A[k, k+1:]``.

Storage is row-major diagonal-ordered: ``W[i, B + (j - i)] = A[i, j]`` for
``|j - i| <= B``, so each row's in-band segment is contiguous and the
rank-1 update is a sheared-window operation (implemented with a strided
view — the vectorized analogue of the paper's CUDA kernel where threads
sweep the update window).

The multi-species block-diagonal structure (``I_S (x) A_1`` pattern) is
exploited by :class:`BlockDiagonalBandSolver`, which factors each species
block independently — the functional analogue of the paper's use of CUDA
group synchronization to put several SMs on each species' factorization,
and of the batched LU in the artifact repository.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from numpy.lib.stride_tricks import as_strided
from scipy.sparse.csgraph import connected_components, reverse_cuthill_mckee

from ..backend.numpy_backend import NumpyBackend


def rcm_permutation(A: sp.spmatrix) -> np.ndarray:
    """Reverse Cuthill-McKee ordering of the symmetrized pattern.

    The pattern is every *stored* entry, explicit zeros included: a mass
    matrix stores exact zeros where ``M - dt L`` will not have them, and
    the band must hold those too.  So the ordering runs on the pattern
    with its data set to one (the symmetrizing sum ``A + A^T`` drops
    entries that cancel, and an explicit zero always does)."""
    pattern = sp.csr_matrix(A, dtype=float, copy=True)
    pattern.data[:] = 1.0
    return np.asarray(
        reverse_cuthill_mckee(pattern, symmetric_mode=False), dtype=np.int64
    )


def bandwidth(A: sp.spmatrix) -> int:
    """Half bandwidth ``max |i - j|`` over the nonzero pattern."""
    coo = sp.coo_matrix(A)
    if coo.nnz == 0:
        return 0
    return int(np.max(np.abs(coo.row - coo.col)))


@dataclass
class BandMatrix:
    """Row-major diagonal-ordered band storage.

    ``W`` has shape ``(n, 2B+1)`` with ``W[i, B + (j-i)] = A[i, j]``.
    """

    W: np.ndarray
    B: int

    @property
    def n(self) -> int:
        return self.W.shape[0]

    @classmethod
    def from_sparse(cls, A: sp.spmatrix, B: int | None = None) -> "BandMatrix":
        A = sp.coo_matrix(A)
        n = A.shape[0]
        if A.shape[0] != A.shape[1]:
            raise ValueError("band storage requires a square matrix")
        if B is None:
            B = bandwidth(A)
        W = np.zeros((n, 2 * B + 1))
        off = A.col - A.row
        if np.any(np.abs(off) > B):
            raise ValueError(f"entries outside half-bandwidth {B}")
        np.add.at(W, (A.row, B + off), A.data)
        return cls(W=W, B=B)

    def to_dense(self) -> np.ndarray:
        n, B = self.n, self.B
        out = np.zeros((n, n))
        for i in range(n):
            j0 = max(0, i - B)
            j1 = min(n, i + B + 1)
            out[i, j0:j1] = self.W[i, B + (j0 - i) : B + (j1 - i)]
        return out


def band_factor(
    bm: BandMatrix, work_counter: dict | None = None, pivot_tol: float = 0.0
) -> BandMatrix:
    """In-place outer-product banded LU (GVL Alg. 4.3.1), no pivoting.

    After return ``W`` holds ``U`` on and above the diagonal and the unit-
    lower-triangular multipliers below it.  ``work_counter`` (optional dict)
    accumulates ``flops`` for the performance model.

    Without pivoting a tiny (not just zero) pivot silently amplifies
    rounding error through the whole factorization; ``pivot_tol > 0``
    raises :class:`numpy.linalg.LinAlgError` when a pivot falls below
    ``pivot_tol`` times the largest in-band magnitude, so the caller can
    hand the system to a pivoted solver instead.
    """
    W, B = bm.W, bm.B
    n = W.shape[0]
    flops = 0
    s0, s1 = W.strides
    amax = float(np.max(np.abs(W))) if W.size else 0.0
    for k in range(n - 1):
        piv = W[k, B]
        if piv == 0.0:
            raise ZeroDivisionError(f"zero pivot at step {k} (no pivoting)")
        if pivot_tol > 0.0 and abs(piv) <= pivot_tol * amax:
            raise np.linalg.LinAlgError(
                f"near-zero pivot {piv:.3e} at step {k} "
                f"(|piv| <= {pivot_tol:g} * {amax:.3e}; needs pivoting)"
            )
        m = min(B, n - 1 - k)  # active sub-column length
        if m == 0:
            continue
        # sheared window: V[d, c] = W[k+1+d, (B-1-d)+c] = A[k+1+d, k+c],
        # d in [0, m), c in [0, B+1) — stays inside the band buffer because
        # B-1-d+c >= B-m >= 0 and <= 2B.
        V = as_strided(
            W[k + 1 :, B - 1 :],
            shape=(m, B + 1),
            strides=(s0 - s1, s1),
        )
        # column below the pivot is V[:, 0]; pivot row segment is W[k, B:2B+1]
        l = V[:, 0] / piv
        V[:, 0] = l
        u = W[k, B + 1 : 2 * B + 1]
        V[:, 1:] -= np.outer(l, u)
        flops += m + 2 * m * B
    if work_counter is not None:
        work_counter["flops"] = work_counter.get("flops", 0) + flops
    return bm


def band_solve(bm: BandMatrix, b: np.ndarray) -> np.ndarray:
    """Solve ``A x = b`` given the factored band matrix."""
    W, B = bm.W, bm.B
    n = W.shape[0]
    x = np.asarray(b, dtype=float).copy()
    if x.shape[0] != n:
        raise ValueError(f"rhs length {x.shape[0]} != {n}")
    # forward: L y = b (unit diagonal; multipliers stored below diagonal)
    for i in range(1, n):
        j0 = max(0, i - B)
        seg = W[i, B + (j0 - i) : B]
        x[i] -= seg @ x[j0:i]
    # backward: U x = y
    for i in range(n - 1, -1, -1):
        j1 = min(n, i + B + 1)
        seg = W[i, B + 1 : B + (j1 - i)]
        x[i] = (x[i] - seg @ x[i + 1 : j1]) / W[i, B]
    return x


class BandSolver:
    """RCM-permuted band LU solver for one sparse matrix."""

    def __init__(
        self,
        A: sp.spmatrix,
        work_counter: dict | None = None,
        pivot_tol: float = 0.0,
    ):
        A = sp.csr_matrix(A)
        self.n = A.shape[0]
        self.perm = rcm_permutation(A)
        Ap = A[self.perm][:, self.perm]
        self.B = bandwidth(Ap)
        self.bm = band_factor(
            BandMatrix.from_sparse(Ap, self.B), work_counter, pivot_tol=pivot_tol
        )
        self.iperm = np.empty_like(self.perm)
        self.iperm[self.perm] = np.arange(self.n)

    def solve(self, b: np.ndarray) -> np.ndarray:
        y = band_solve(self.bm, np.asarray(b, dtype=float)[self.perm])
        return y[self.iperm]

    def __call__(self, b: np.ndarray) -> np.ndarray:
        return self.solve(b)


def band_solver_factory(A: sp.spmatrix, pivot_tol: float = 0.0):
    """Factory with the solver-plug signature used by
    :class:`repro.core.solver.ImplicitLandauSolver`."""
    return BandSolver(A, pivot_tol=pivot_tol)


@dataclass
class _BandStructure:
    """Symbolic band setup for one sparsity pattern: the RCM permutation,
    the half-bandwidth and the flat scatter positions of each CSR entry in
    the band buffer."""

    perm: np.ndarray
    iperm: np.ndarray
    B: int
    pos: np.ndarray
    indptr: np.ndarray
    indices: np.ndarray
    #: flat scatter positions into one LAPACK factor slot, built lazily
    pos_lapack: np.ndarray | None = None

    def lapack_rows(self, n: int) -> int:
        """Rows of one LAPACK factor array: the pivoted band form ``ab``
        (``2B + B + 1`` rows, ``kl = ku = B``) or, on meshes so small
        that the band is wider than the matrix (``n <= 3B + 1``), the
        dense form — whichever is more compact for this ``(n, B)``."""
        return min(3 * self.B + 1, n)

    def lapack_positions(self, n: int) -> np.ndarray:
        """Positions of the CSR entries in the *transpose* of the LAPACK
        array: a resident factor slot is C-ordered ``(n, lapack_rows)``,
        and its ``.T`` is the Fortran-ordered array LAPACK factors in
        place."""
        if self.pos_lapack is None:
            B = self.B
            # recover permuted (row, col) of each CSR entry from the band
            # scatter: pos = pr * (2B+1) + (B + pc - pr)
            pr, off = np.divmod(self.pos, 2 * B + 1)
            pc = pr + (off - B)
            rows = self.lapack_rows(n)
            # dense: a[i, j] = A[i, j]; band: ab[kl + ku + i - j, j] = A[i, j]
            self.pos_lapack = pc * rows + (pr if rows == n else 2 * B + pr - pc)
        return self.pos_lapack


def _same_pattern(symbolic, A: sp.csr_matrix) -> bool:
    return np.array_equal(symbolic.indptr, A.indptr) and np.array_equal(
        symbolic.indices, A.indices
    )


def _band_structure(A: sp.csr_matrix) -> _BandStructure:
    """RCM ordering, half-bandwidth and CSR→band scatter of ``A``'s
    (canonical) pattern."""
    n = A.shape[0]
    perm = rcm_permutation(A)
    iperm = np.empty_like(perm)
    iperm[perm] = np.arange(n)
    row = np.repeat(np.arange(n, dtype=np.int64), np.diff(A.indptr))
    pr = iperm[row]
    pc = iperm[A.indices]
    B = int(np.max(np.abs(pr - pc))) if A.nnz else 0
    return _BandStructure(
        perm=perm,
        iperm=iperm,
        B=B,
        pos=pr * (2 * B + 1) + (B + pc - pr),
        indptr=A.indptr.copy(),
        indices=A.indices.copy(),
    )


@dataclass
class _Condensation:
    """Symbolic static condensation of cell-interior dofs for one
    (sparsity pattern, interior) pair.

    A cell's ``m`` interior dofs couple only to one another and to the
    skeleton dofs of that cell, so ``A`` splits into ``[[A_ii, A_ib],
    [A_bi, A_bb]]`` with ``A_ii`` block diagonal over cells, and the
    skeleton Schur complement ``S = A_bb - sum_c A_bi^c (A_ii^c)^-1
    A_ib^c`` has ``A_bb``'s pattern: each cell's correction lands on
    skeleton pairs that cell already couples.  Per-cell skeleton lists
    are padded to the longest, ``p``; the gather positions index one CSR
    ``data`` row with a zero appended at position ``nnz``, so the padding
    reads zeros and its corrections are scattered nowhere.
    """

    interior: np.ndarray  # (ne, m) interior dof ids
    pos_ii: np.ndarray  # (ne, m, m) CSR positions of A_ii
    pos_ib: np.ndarray  # (ne, m, p) ... of A_ib
    pos_bi: np.ndarray  # (ne, p, m) ... of A_bi
    pos_bb: np.ndarray  # (nnz_s,) ... of A_bb, in skeleton-CSR order
    schur: sp.csc_matrix  # (nnz_s, ne*p*p): per-cell corrections -> S data
    st: _BandStructure  # band symbolic of the skeleton pattern
    skel: np.ndarray  # (ns,) dof id of each skeleton row, in band order
    bnd: np.ndarray  # (ne, p) band-order skeleton row of each cell's dofs
    lift: sp.csc_matrix  # (ns, ne*p): per-cell rhs corrections -> skeleton
    indptr: np.ndarray  # A's pattern, the cache key's check
    indices: np.ndarray

    @classmethod
    def build(cls, A: sp.csr_matrix, interior: np.ndarray) -> "_Condensation":
        n, nnz = A.shape[0], A.nnz
        interior = np.asarray(interior, dtype=np.int64)
        ne, m = interior.shape
        cell = np.full(n, -1, dtype=np.int64)
        cell[interior] = np.arange(ne)[:, None]
        if np.count_nonzero(cell >= 0) != interior.size:
            raise ValueError("interior dofs must each belong to one cell")
        loc = np.zeros(n, dtype=np.int64)
        loc[interior] = np.arange(m)
        row = np.repeat(np.arange(n), np.diff(A.indptr))
        col = A.indices
        cr, cc = cell[row], cell[col]
        k = np.arange(nnz)
        ii = (cr >= 0) & (cc >= 0)
        if np.any(cr[ii] != cc[ii]):
            raise ValueError("interior dofs of different cells are coupled")
        pos_ii = np.full((ne, m, m), nnz)
        pos_ii[cr[ii], loc[row[ii]], loc[col[ii]]] = k[ii]

        # each cell's skeleton dofs: every b its interior couples to
        # through A_ib or A_bi, ranked by dof id within the cell
        ib, bi = (cr >= 0) & (cc < 0), (cr < 0) & (cc >= 0)
        mark = np.zeros((ne, n), dtype=bool)
        mark[cr[ib], col[ib]] = True
        mark[cc[bi], row[bi]] = True
        rank = np.cumsum(mark, axis=1) - 1
        counts = rank[:, -1] + 1
        p = int(counts.max())
        valid = np.arange(p) < counts[:, None]  # (ne, p): not padding
        pos_ib = np.full((ne, m, p), nnz)
        pos_ib[cr[ib], loc[row[ib]], rank[cr[ib], col[ib]]] = k[ib]
        pos_bi = np.full((ne, p, m), nnz)
        pos_bi[cc[bi], rank[cc[bi], row[bi]], loc[col[bi]]] = k[bi]

        # A_bb keeps A's CSR order: the skeleton renumbering is monotone
        skel = np.flatnonzero(cell < 0)
        ns = skel.size
        sidx = np.full(n, -1, dtype=np.int64)
        sidx[skel] = np.arange(ns)
        bb = (cr < 0) & (cc < 0)
        sr, sc = sidx[row[bb]], sidx[col[bb]]
        S = sp.csr_matrix(
            (np.ones(sr.size), sc, np.searchsorted(sr, np.arange(ns + 1))),
            shape=(ns, ns),
        )
        st = _band_structure(S)

        # scatter of the (ne, p, p) corrections onto S's CSR data, and of
        # the (ne, p) rhs corrections onto the band-ordered skeleton: one
        # entry per non-padding column
        bnd = np.zeros((ne, p), dtype=np.int64)
        bnd[valid] = sidx[np.nonzero(mark)[1]]
        smap = np.full((ns, ns), -1)
        smap[sr, sc] = np.arange(sr.size)
        pair = valid[:, :, None] & valid[:, None, :]
        spos = smap[bnd[:, :, None], bnd[:, None, :]][pair]
        if np.any(spos < 0):
            raise ValueError("Schur complement fills outside A_bb's pattern")
        schur = sp.csc_matrix(
            (np.ones(spos.size), spos, np.r_[0, np.cumsum(pair.ravel())]),
            shape=(sr.size, ne * p * p),
        )
        bnd = st.iperm[bnd]
        lift = sp.csc_matrix(
            (np.ones(valid.sum()), bnd[valid], np.r_[0, np.cumsum(valid.ravel())]),
            shape=(ns, ne * p),
        )
        return cls(
            interior=interior,
            pos_ii=pos_ii,
            pos_ib=pos_ib,
            pos_bi=pos_bi,
            pos_bb=k[bb],
            schur=schur,
            st=st,
            skel=skel[st.perm],
            bnd=bnd,
            lift=lift,
            indptr=A.indptr.copy(),
            indices=A.indices.copy(),
        )


class _CachedBandSolver:
    """Solve plug returned by :class:`CachedBandSolverFactory`."""

    def __init__(self, bm: BandMatrix, st: _BandStructure):
        self.bm = bm
        self._st = st

    def solve(self, b: np.ndarray) -> np.ndarray:
        y = band_solve(self.bm, np.asarray(b, dtype=float)[self._st.perm])
        return y[self._st.iperm]

    def __call__(self, b: np.ndarray) -> np.ndarray:
        return self.solve(b)


class BatchedBandSolver:
    """Resident LU factors of many same-pattern matrices sharing one band
    symbolic.

    The serve/batch hot path factors one matrix per (vertex, species) at
    the first sweep of a step and then solves against those factors on
    every later sweep, for the shrinking set of still-active vertices —
    so the factors live in ``capacity`` *slots* that are filled (and, by
    the batched solver's divergence guard, refilled) through
    :meth:`CachedBandSolverFactory.factor_batch` and addressed by slot in
    :meth:`solve_many`.  All matrices come from the same
    :class:`ScatterMap` structure — identical sparsity, hence identical
    RCM ordering, bandwidth and CSR→band scatter.  The numeric kernels
    (LAPACK band or dense LU in place in preallocated slots) and the
    factor storage live in :class:`~repro.backend.NumpyBackend`; this
    wrapper owns the shared symbolic state and applies the RCM
    permutation once per solve call.

    With a :class:`_Condensation` the cell-interior dofs are eliminated
    at factor time: the executor factors only the skeleton Schur
    complements (``st`` is the skeleton's band symbolic), and each slot
    keeps its per-cell ``A_ii^-1``, ``A_ii^-1 A_ib`` and ``A_bi`` blocks.
    :meth:`solve_many` then condenses the right-hand sides, solves the
    skeleton through the same executor hook and back-substitutes the
    interiors — an exact reordering of the same elimination.
    """

    def __init__(
        self,
        st: _BandStructure,
        n: int,
        capacity: int,
        cond: _Condensation | None = None,
    ):
        self._st = st
        self._cond = cond
        self.n = n
        self._backend = NumpyBackend()
        self._band_n = n if cond is None else cond.skel.size
        self._factors = self._backend.banded_alloc(st, self._band_n, capacity)
        if cond is not None:
            ne, m, p = cond.pos_ib.shape
            self._ainv = np.empty((capacity, ne, m, m))
            self._w = np.empty((capacity, ne, m, p))
            self._abi = np.empty((capacity, ne, p, m))

    @property
    def batch_size(self) -> int:
        return len(self._factors)

    def _slots(self, rows, count: int) -> np.ndarray:
        if rows is None:
            rows = np.arange(count)
        rows = np.asarray(rows, dtype=np.intp)
        if rows.shape != (count,):
            raise ValueError(f"rows must name {count} slots, got {rows.shape}")
        if count and not (0 <= rows.min() and rows.max() < self.batch_size):
            raise IndexError(
                f"slots {rows.min()}..{rows.max()} outside the "
                f"{self.batch_size} resident factors"
            )
        return rows

    def solve_many(self, rhs: np.ndarray, rows=None) -> np.ndarray:
        """Solve ``rhs[k]`` against the factors in slot ``rows[k]``
        (default: slots ``0..len(rhs)``); ``rhs`` is ``(K, n)``, returns
        ``(K, n)``.  Slots must have been factored."""
        rhs = np.asarray(rhs, dtype=float)
        if rhs.ndim != 2 or rhs.shape[1] != self.n:
            raise ValueError(f"rhs must be (K, {self.n}), got {rhs.shape}")
        rows = self._slots(rows, rhs.shape[0])
        st, c = self._st, self._cond
        if c is None:
            rhs_p = np.ascontiguousarray(rhs[:, st.perm])
            out = self._backend.banded_solve_many(self._factors, st, rhs_p, rows)
            return out[:, st.iperm]
        K = rhs.shape[0]
        # y_i = A_ii^-1 b_i cell by cell; skeleton rhs b_b - sum_c A_bi y_i
        y = np.einsum("kcij,kcj->kci", self._ainv[rows], rhs[:, c.interior])
        corr = (self._abi[rows] @ y[..., None]).reshape(K, -1)
        b = rhs[:, c.skel] - c.lift.dot(corr.T).T
        xs = self._backend.banded_solve_many(
            self._factors, st, np.ascontiguousarray(b), rows
        )
        out = np.empty_like(rhs)
        out[:, c.skel] = xs
        # back-substitution: x_i = y_i - A_ii^-1 A_ib x_b
        out[:, c.interior] = y - (self._w[rows] @ xs[:, c.bnd, None])[..., 0]
        return out

    def solve(self, index: int, b: np.ndarray) -> np.ndarray:
        """Solve the ``index``-th system for one right-hand side."""
        return self.solve_many(np.asarray(b, dtype=float)[None], [index])[0]

    def _condense(self, data: np.ndarray, slots: np.ndarray) -> np.ndarray:
        """Eliminate the cell interiors of the matrices ``data (X, nnz)``:
        keep their blocks in ``slots`` and return the CSR data ``(X,
        nnz_s)`` of their skeleton Schur complements."""
        c = self._cond
        X = data.shape[0]
        d = np.zeros((X, data.shape[1] + 1))  # position nnz reads zero
        d[:, :-1] = data
        ainv = _invert_interiors(d[:, c.pos_ii], slots)
        w = ainv @ d[:, c.pos_ib]
        abi = d[:, c.pos_bi]
        self._ainv[slots] = ainv
        self._w[slots] = w
        self._abi[slots] = abi
        corr = (abi @ w).reshape(X, -1)
        return d[:, c.pos_bb] - c.schur.dot(corr.T).T


def _invert_interiors(a: np.ndarray, slots: np.ndarray) -> np.ndarray:
    """Inverses of the ``(X, ne, m, m)`` interior blocks of the matrices
    bound for ``slots``.  A singular block raises
    :class:`numpy.linalg.LinAlgError` naming its slot and cell; a block
    that is already non-finite propagates, as a non-finite matrix does
    through the uncondensed LU."""
    with np.errstate(all="ignore"):
        try:
            inv = np.linalg.inv(a)
        except np.linalg.LinAlgError:
            inv = np.empty_like(a)  # locate the singular blocks one by one
            for idx in np.ndindex(a.shape[:2]):
                try:
                    inv[idx] = np.linalg.inv(a[idx])
                except np.linalg.LinAlgError:
                    inv[idx] = np.nan
    bad = ~np.isfinite(inv).all(axis=(2, 3)) & np.isfinite(a).all(axis=(2, 3))
    if bad.any():
        k, cell = np.argwhere(bad)[0]
        raise np.linalg.LinAlgError(
            f"singular interior block in cell {cell} of slot {slots[k]}"
        )
    return inv


class CachedBandSolverFactory:
    """Band-solver factory that reuses the RCM ordering and band symbolic
    setup between refactorizations.

    Newton iterations refactor matrices whose sparsity never changes (and
    the per-species blocks of the multi-species Jacobian share a pattern
    too), so the RCM ordering, the bandwidth and the CSR→band scatter are
    computed once per pattern and only the numeric band fill + LU run per
    call.  A small LRU keyed on the CSR pattern holds the structures;
    results are identical to :class:`BandSolver`.

    :meth:`factor_batch` extends the reuse across a *batch*: ``X`` matrices
    sharing one pattern (the batched-vertex / serve hot path) are factored
    against a single symbolic setup — the batched analogue of the paper
    follow-up's batched band solvers.
    """

    def __init__(self, pivot_tol: float = 0.0, max_patterns: int = 8):
        self.pivot_tol = float(pivot_tol)
        self.max_patterns = int(max_patterns)
        self._cache: dict = {}
        self._order: list = []
        self.symbolic_setups = 0
        self.symbolic_reuses = 0

    def _lookup(self, key, matches, build):
        """LRU get-or-build of one symbolic setup, counted as a reuse or
        a setup."""
        entry = self._cache.get(key)
        if entry is not None and matches(entry):
            self.symbolic_reuses += 1
            return entry
        entry = build()
        self._cache[key] = entry
        self._order.append(key)
        if len(self._order) > self.max_patterns:
            self._cache.pop(self._order.pop(0), None)
        self.symbolic_setups += 1
        return entry

    @staticmethod
    def _pattern_key(A: sp.csr_matrix) -> tuple:
        return (A.shape[0], A.nnz, hash(A.indptr.tobytes()) ^ hash(A.indices.tobytes()))

    def _structure(self, A: sp.csr_matrix) -> _BandStructure:
        return self._lookup(
            self._pattern_key(A),
            lambda st: _same_pattern(st, A),
            lambda: _band_structure(A),
        )

    def _condensation(self, A: sp.csr_matrix, interior: np.ndarray) -> _Condensation:
        """The condensation symbolic of ``(A's pattern, interior)``, cached
        beside the band structures; the skeleton's band structure lives
        inside it."""
        return self._lookup(
            (self._pattern_key(A), hash(interior.tobytes())),
            lambda c: _same_pattern(c, A) and np.array_equal(c.interior, interior),
            lambda: _Condensation.build(A, interior),
        )

    def __call__(self, A: sp.spmatrix) -> _CachedBandSolver:
        A = sp.csr_matrix(A)
        A.sum_duplicates()
        A.sort_indices()
        st = self._structure(A)
        n = A.shape[0]
        W = np.zeros((n, 2 * st.B + 1))
        W.ravel()[st.pos] = A.data  # pattern entries are unique: direct fill
        bm = band_factor(BandMatrix(W=W, B=st.B), pivot_tol=self.pivot_tol)
        return _CachedBandSolver(bm, st)

    # ------------------------------------------------------------------
    def factor_batch(
        self,
        template: sp.csr_matrix,
        data: np.ndarray,
        *,
        into: BatchedBandSolver | None = None,
        rows=None,
        capacity: int | None = None,
        interior: np.ndarray | None = None,
    ) -> BatchedBandSolver:
        """Factor ``X`` matrices sharing ``template``'s sparsity pattern.

        ``template`` is any canonical CSR with the shared pattern (its
        values are ignored); ``data`` is ``(X, nnz)``, one CSR ``data`` row
        per matrix, aligned with ``template.indices``.  The symbolic setup
        (RCM ordering, bandwidth, scatter positions) is computed or reused
        *once* for the whole batch; each additional matrix counts as a
        symbolic reuse.  The numeric factorizations
        (:meth:`NumpyBackend.banded_factor_many`) are LAPACK's partial-
        pivoting band LU, so ``pivot_tol`` does not apply to them.

        The factors are *resident*: they are written into slots ``rows``
        (default ``0..X``) of the returned solver.  A new solver with
        ``capacity`` slots (default ``X``) is allocated unless ``into``
        names one from an earlier call, whose slots ``rows`` are then
        (re)filled in place — how a step is factored
        block by block, and how single systems are refreshed later.

        ``interior`` (``(ne, m)`` dof ids, each cell's interior dofs, e.g.
        :attr:`ScatterMap.interior`) statically condenses them: each
        slot's interior blocks are kept beside its factored skeleton
        Schur complement (see :class:`BatchedBandSolver`), and a refill
        replaces both.
        """
        template = sp.csr_matrix(template)
        data = np.ascontiguousarray(data, dtype=float)
        if data.ndim != 2 or data.shape[1] != template.nnz:
            raise ValueError(
                f"data must be (X, {template.nnz}), got {data.shape}"
            )
        if interior is None:
            cond, st = None, self._structure(template)
        else:
            cond = self._condensation(template, np.asarray(interior))
            st = cond.st
        X = data.shape[0]
        self.symbolic_reuses += max(0, X - 1)
        if into is None:
            into = BatchedBandSolver(
                st, template.shape[0], X if capacity is None else capacity, cond
            )
        elif into._st is not st:
            raise ValueError(
                "into was factored for a different sparsity pattern or interior"
            )
        slots = into._slots(rows, X)
        if cond is not None:
            data = into._condense(data, slots)
        into._backend.banded_factor_many(st, into._band_n, data, into._factors, slots)
        return into


class BlockDiagonalBandSolver:
    """Batched band solver for block-diagonal (multi-species) systems.

    RCM on the whole multi-species Jacobian "naturally produced a block
    diagonal matrix"; here the independent diagonal blocks are discovered
    as connected components of the pattern and factored separately —
    species solves are independent, exactly the structure the paper's CUDA
    solver exploits with group synchronization across SMs.
    """

    def __init__(self, A: sp.spmatrix, work_counter: dict | None = None):
        A = sp.csr_matrix(A)
        self.n = A.shape[0]
        ncomp, labels = connected_components(A, directed=False)
        self.blocks: list[tuple[np.ndarray, BandSolver]] = []
        for c in range(ncomp):
            idx = np.nonzero(labels == c)[0]
            sub = A[idx][:, idx]
            self.blocks.append((idx, BandSolver(sub, work_counter)))

    @property
    def nblocks(self) -> int:
        return len(self.blocks)

    def solve(self, b: np.ndarray) -> np.ndarray:
        b = np.asarray(b, dtype=float)
        x = np.empty_like(b)
        for idx, solver in self.blocks:
            x[idx] = solver.solve(b[idx])
        return x

    def __call__(self, b: np.ndarray) -> np.ndarray:
        return self.solve(b)
