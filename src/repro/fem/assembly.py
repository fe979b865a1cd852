"""Generic weak-form assembly over a :class:`FunctionSpace`.

All forms carry the cylindrical measure ``r dr dz`` (the azimuthal ``2 pi``
cancels between the two sides of the weak form (4) and is applied only when
taking physical moments).  Assembly produces full-space COO triplets which
are folded through the hanging-node constraints (``P^T A P``) — the CPU
"MatSetValues" path; the GPU-style COO/atomic paths live in
:mod:`repro.sparse`.

:class:`ScatterMap` is the amortized version of that pipeline: the COO
pattern, the constraint folding and the COO→CSR deduplication are symbolic
(state-independent), so they are precomputed once per mesh as a sparse
linear map from element-block values straight to reduced-CSR ``data``.
Every subsequent assembly on the same space is then a single sparse
matvec plus a structure-sharing CSR wrap — the "pattern frozen, values
only" reassembly the paper's GPU path relies on.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .function_space import FunctionSpace


def _scatter(fs: FunctionSpace, Ce: np.ndarray) -> sp.csr_matrix:
    """Scatter per-element dense blocks ``(ne, nb, nb)`` into the reduced matrix."""
    nodes = fs.dofmap.cell_nodes
    ne, nb = nodes.shape
    rows = np.repeat(nodes, nb, axis=1).ravel()
    cols = np.tile(nodes, (1, nb)).ravel()
    A_full = sp.coo_matrix(
        (Ce.ravel(), (rows, cols)), shape=(fs.dofmap.n_full, fs.dofmap.n_full)
    ).tocsr()
    return fs.dofmap.reduce_matrix(A_full)


class ScatterMap:
    """Precomputed element→reduced-CSR scatter for one function space.

    The assembled reduced matrix is linear in the element blocks:
    ``A = P^T (scatter Ce) P``, so its CSR ``data`` is ``T @ Ce.ravel()``
    for a fixed sparse ``T`` of shape ``(nnz, ne * nb * nb)`` whose
    entries are products of constraint weights.  ``T``, the reduced CSR
    ``indptr``/``indices``, the physical basis gradients and the
    cell-interior free dofs are computed once here (the :attr:`gather` of
    per-cell-node data onto the free dofs on first use); :meth:`assemble`
    then costs one sparse matvec per build and reuses the index arrays across
    every matrix it returns (species blocks share one sparsity, so they
    all share one structure).

    Returned matrices share ``indptr``/``indices`` with the map — they
    must not be mutated in place (standard scipy operations never do).
    """

    def __init__(self, fs: FunctionSpace):
        dm = fs.dofmap
        nodes = dm.cell_nodes
        ne, nb = nodes.shape
        rows = np.repeat(nodes, nb, axis=1).ravel()
        cols = np.tile(nodes, (1, nb)).ravel()

        P = dm.P.tocsr()
        counts = np.diff(P.indptr)
        cnt_r = counts[rows]
        cnt_c = counts[cols]
        reps = cnt_r * cnt_c  # expansion factor of each COO triplet
        E = int(reps.sum())
        src = np.repeat(np.arange(rows.size, dtype=np.int64), reps)
        first = np.concatenate(([0], np.cumsum(reps)[:-1]))
        t = np.arange(E, dtype=np.int64) - first[src]
        a, b = np.divmod(t, cnt_c[src])
        ridx = P.indptr[rows][src] + a
        cidx = P.indptr[cols][src] + b
        frees_r = P.indices[ridx]
        frees_c = P.indices[cidx]
        weights = P.data[ridx] * P.data[cidx]

        order = np.lexsort((frees_c, frees_r))
        fr = frees_r[order]
        fc = frees_c[order]
        new = np.empty(E, dtype=bool)
        if E:
            new[0] = True
            new[1:] = (fr[1:] != fr[:-1]) | (fc[1:] != fc[:-1])
        pos = np.cumsum(new) - 1  # reduced-CSR data slot of each expansion

        self.n_free = dm.n_free
        self.nnz = int(new.sum())
        self.indices = fc[new].astype(np.int32)
        row_counts = np.bincount(fr[new], minlength=self.n_free)
        self.indptr = np.concatenate(
            ([0], np.cumsum(row_counts))
        ).astype(np.int32)
        self.T = sp.csr_matrix(
            (weights[order], (pos, src[order])),
            shape=(self.nnz, rows.size),
        )
        #: ``(ne, (k-1)^2)`` free-dof ids of each cell's interior nodes —
        #: never hanging-node constrained, so each is a free dof of exactly
        #: one cell (what static condensation eliminates cell by cell)
        self.interior = dm.full_to_free[nodes[:, fs.element.interior_nodes()]]
        # geometry caches shared by the coefficient-operator fast path
        self.gphys = np.einsum("qbd,ed->eqbd", fs.Dref, fs.inv_jac)
        self._P = P
        self._nodes = nodes
        self.builds = 0

    @cached_property
    def gather(self) -> sp.csc_matrix:
        """``(n_free, ne * nb)`` transpose of the gather∘constraint map
        ``P[cell_nodes]``: row ``i`` sums the per-cell-node rows of a
        dense ``(ne * nb, ·)`` operand into free dof ``i``, hanging-node
        weights folded in.  Column ``a`` is ``P``'s row of cell node
        ``a``, so the CSC arrays are gathered straight from ``P``'s."""
        P, rows = self._P, self._nodes.ravel()
        start = P.indptr[rows]
        counts = P.indptr[rows + 1] - start
        indptr = np.concatenate(([0], np.cumsum(counts)))
        pos = np.repeat(start - indptr[:-1], counts) + np.arange(indptr[-1])
        return sp.csc_matrix(
            (P.data[pos], P.indices[pos], indptr), shape=(self.n_free, rows.size)
        )

    @cached_property
    def gather_pair(self) -> sp.csc_matrix:
        """``[gather | gather]``: gathers the sum of two stacked
        ``(ne * nb, ·)`` operands in one sparse product."""
        g = self.gather
        indptr = np.concatenate([g.indptr, g.indptr[1:] + g.nnz])
        return sp.csc_matrix(
            (np.tile(g.data, 2), np.tile(g.indices, 2), indptr),
            shape=(g.shape[0], 2 * g.shape[1]),
        )

    # ------------------------------------------------------------------
    def scatter_data(self, Ce: np.ndarray) -> np.ndarray:
        """Reduced-CSR ``data`` for element blocks ``(ne, nb, nb)``."""
        return self.T @ np.ascontiguousarray(Ce).reshape(-1)

    def scatter_data_batch(self, Ce: np.ndarray) -> np.ndarray:
        """Reduced-CSR ``data`` rows for a batch of element-block sets.

        ``Ce`` has shape ``(X, ne, nb, nb)`` (or ``(X, ne*nb*nb)``); the
        scatter is one sparse matmul for the whole batch instead of ``X``
        matvecs.  Returns ``(X, nnz)``.
        """
        X = Ce.shape[0]
        flat = np.ascontiguousarray(Ce).reshape(X, -1)
        return np.ascontiguousarray((self.T @ flat.T).T)

    def matrix(self, data: np.ndarray) -> sp.csr_matrix:
        """Wrap a ``data`` vector with the cached structure (zero copies
        of the index arrays)."""
        A = sp.csr_matrix(
            (data, self.indices, self.indptr),
            shape=(self.n_free, self.n_free),
            copy=False,
        )
        A.has_sorted_indices = True
        A.has_canonical_format = True
        self.builds += 1
        return A

    def assemble(self, Ce: np.ndarray) -> sp.csr_matrix:
        """Structure-reusing equivalent of the COO→CSR ``_scatter`` path."""
        return self.matrix(self.scatter_data(Ce))


def get_scatter_map(fs: FunctionSpace) -> ScatterMap:
    """The (lazily built, per-space cached) :class:`ScatterMap` of ``fs``."""
    sm = getattr(fs, "_scatter_map", None)
    if sm is None:
        sm = ScatterMap(fs)
        fs._scatter_map = sm
    return sm


def element_mass_blocks(fs: FunctionSpace, coefficient: np.ndarray | None = None) -> np.ndarray:
    """Per-element mass blocks ``C[e,a,b] = sum_q w r (c) psi_a psi_b``."""
    w = fs.qweights if coefficient is None else fs.qweights * coefficient
    return np.einsum("eq,qa,qb->eab", w, fs.B, fs.B)


def assemble_mass(fs: FunctionSpace) -> sp.csr_matrix:
    """Cylindrically weighted mass matrix ``M_ab = int r psi_a psi_b``."""
    return _scatter(fs, element_mass_blocks(fs))


def assemble_weighted_mass(fs: FunctionSpace, coefficient: np.ndarray) -> sp.csr_matrix:
    """Mass matrix with an extra scalar coefficient given at quadrature points.

    ``coefficient`` has shape ``(ne, nq)``.
    """
    return _scatter(fs, element_mass_blocks(fs, coefficient))


def assemble_z_advection(fs: FunctionSpace) -> sp.csr_matrix:
    """``A_ab = int r psi_a  d(psi_b)/dz`` — the E-field advection operator.

    The acceleration term of eq. (1) contributes ``(z_s m0/m_s) E~ A f`` to
    the left-hand side for species ``s``.
    """
    # physical z-gradient of the trial basis per element
    dz = np.einsum("qb,e->eqb", fs.Dref[:, :, 1], fs.inv_jac[:, 1])
    Ce = np.einsum("eq,qa,eqb->eab", fs.qweights, fs.B, dz)
    return _scatter(fs, Ce)


def assemble_coefficient_operator(
    fs: FunctionSpace,
    D_q: np.ndarray,
    K_q: np.ndarray,
    structure: "ScatterMap | None" = None,
) -> sp.csr_matrix:
    """Assemble the Landau weak form for given point-wise coefficients.

    Implements (5) + (6) with the signs supplied by the caller:

    ``C_ab = sum_q w r [ grad(psi_a) . D_q . grad(psi_b) + grad(psi_a) . K_q psi_b ]``

    Parameters
    ----------
    D_q:
        ``(ne, nq, 2, 2)`` diffusion tensor at quadrature points.
    K_q:
        ``(ne, nq, 2)`` friction vector at quadrature points.
    structure:
        optional precomputed :class:`ScatterMap`; when given, the sparse
        structure work (COO build, dedup, constraint folding) is skipped
        and only the ``data`` vector is recomputed.
    """
    ne, nq = fs.qweights.shape
    if D_q.shape != (ne, nq, 2, 2) or K_q.shape != (ne, nq, 2):
        raise ValueError(
            f"coefficient shapes must be ({ne},{nq},2,2) and ({ne},{nq},2); "
            f"got {D_q.shape} and {K_q.shape}"
        )
    # physical gradients of basis: (e, q, b, d)
    gphys = (
        structure.gphys
        if structure is not None
        else np.einsum("qbd,ed->eqbd", fs.Dref, fs.inv_jac)
    )
    w = fs.qweights
    Ce = np.einsum("eq,eqad,eqdc,eqbc->eab", w, gphys, D_q, gphys, optimize=True)
    Ce += np.einsum("eq,eqad,eqd,qb->eab", w, gphys, K_q, fs.B, optimize=True)
    if structure is not None:
        return structure.assemble(Ce)
    return _scatter(fs, Ce)


def lumped_counts(fs: FunctionSpace) -> dict[str, int]:
    """Bookkeeping used by Table I: IP count, tensor count and equations."""
    N = fs.n_integration_points
    return {
        "integration_points": N,
        "landau_tensors": N * N,
        "equations": fs.ndofs,
        "cells": fs.nelem,
    }
