"""The conservative finite-element Landau collision operator.

This is the CPU reference implementation of the optimized formulation of
section III-A: the species sum is pulled into the inner integral (eq. 10),
so the O(N^2) work computes the *species-independent* fields

    G_D(x_i) = sum_j w_j T_D(x_j) U^D(x_i, x_j),   T_D = sum_b z_b^2 f_b
    G_K(x_i) = sum_j w_j U^K(x_i, x_j) . T_K(x_j), T_K = sum_b z_b^2 (m0/m_b) grad f_b

after which each species' weak-form coefficients are cheap rescalings
(Algorithm 1 lines 13-16):

    K_q(a) = +nu z_a^2 (m0/m_a)   G_K
    D_q(a) = -nu z_a^2 (m0/m_a)^2 G_D

and a standard finite element assembly produces the (block-diagonal over
species) Jacobian.  The complexity is O(N^2 S) instead of the naive
O(N^2 S^2).

The pair tensors U^D/U^K depend only on quadrature geometry.  Two exact
symmetries of the axisymmetric tensors — ``U^K_rz == U^D_rz`` and
``U^K_zz == U^D_zz`` — mean only *five* distinct ``N x N`` components
exist.  The same linearity that moves the species sum inside the
integral reaches further: ``T_D`` and ``T_K`` are fixed linear maps of
two species-summed *dof* vectors, ``u_D = sum_b z_b^2 f_b`` and ``u_K =
sum_b z_b^2 (m0/m_b) f_b`` (weights, basis tabulation and hanging-node
constraints).  So a cached operator contracts the five components
against those maps into **field-response tables** once — ``R_D``
(``Drr``, ``Drz``, ``Dzz`` against values) and ``R_K`` (``Krr d/dr + Krz
d/dz`` and ``Kzr d/dr + Kzz d/dz``, the pairs pre-summed since ``G_K``
only uses their sums), five ``(n, N)`` components — row block by row
block, each block's rows as soon as they are complete, so no ``N x N``
table is ever whole (:meth:`LandauOperator._build_response`).  A
batch's fields are then two GEMMs on dof vectors, ``5 * 2Nn`` flops per
vertex instead of ``7 * 2N^2``.  The CUDA-model kernel
(:mod:`repro.core.kernel_cuda`) instead recomputes the tensors on the
fly exactly as Algorithm 1 does on a GPU — the two paths
are verified against each other in the test suite
(``tests/test_backend_equivalence.py``).

Both the response build and the operator's own on-the-fly launch
(tables not cached) run one pair-symmetric row-block kernel,
:func:`repro.core.landau_tensor.pair_block_tensors` (the launch behind
:meth:`repro.backend.NumpyBackend.field_rows`): a block of field rows
evaluates the azimuthal integrals against the sources at or after its
first row only and serves the pairs below it through the exchange
symmetry of the tensors.  On a space that is its own reflection ``z ->
-z`` (every ``landau_mesh`` space) the launch also uses the reflection
symmetry of the tensors: its blocks run over the upper half of the
points only, against the upper sources and their reflections, and the
lower half's fields follow by ``S = diag(1, -1)`` conjugation, so a
launch evaluates about ``N^2 / 4`` pairs instead of ``N^2 / 2``.  The
cached path uses it too, when the space's free dofs reflect
(:func:`dof_reflection`): the response build evaluates the same pairs
and keeps the upper points' columns only, ``(n, 3N/2)`` and ``(n,
N)``, and the lower points' fields are those columns read with the
reflected dofs.  The operator snaps its own copy of the point ``z`` so
the reflection is exact, and the response build reads the same copy.
Blocks are cut by pair count (:meth:`LandauOperator._row_blocks`).

The response tables depend on the space's quadrature geometry alone, so
they are built once per space and shared, read-only, by every cached
operator on that space
(:func:`get_field_response`): plans that differ in species or time step
share one build.  Every matrix build is a ``data`` update through the
mesh's cached element→CSR scatter structure
(:func:`repro.fem.assembly.get_scatter_map`).
Table caching and the memory budget are configured by
:class:`repro.core.options.AssemblyOptions`; every kernel runs serially
on :class:`repro.backend.NumpyBackend`.  The operator's ``counters`` dict
records structure reuses for :class:`repro.core.solver.NewtonStats`.
"""

from __future__ import annotations

import math
import os
import threading
import weakref
from typing import Callable

import numpy as np
import scipy.sparse as sp

from ..backend.numpy_backend import NumpyBackend
from ..fem.assembly import element_mass_blocks, get_scatter_map
from ..fem.function_space import FunctionSpace
from .landau_tensor import pair_block_tensors, reflection_map, shared_block_scratch
from .options import ONTHEFLY_BYTES_PER_PAIR, AssemblyOptions, PairTableMemoryError
from .species import SpeciesSet

#: scratch bytes one row block of the O(N^2) kernels may touch: the
#: ``ONTHEFLY_BYTES_PER_PAIR`` of scratch per pair should stay cache-
#: resident while the block is evaluated.  A block sized by the memory
#: budget alone is every pair at once, which is both slower and the
#: largest allocation of a plan; 2 MiB (20 164 pairs) is in the flat
#: optimum measured on N = 504 (10 000 - 20 000 pairs per block).
ROW_BLOCK_BYTES = 2 * 1024 * 1024

#: mirror pieces a row block of the response build contracts one by one;
#: a block owed more copies them into one array first (past a few pieces
#: the per-cell GEMM calls cost more than the copy)
DIRECT_PIECES = 4

#: relative deviation within which :func:`dof_reflection` requires the
#: reflected dofs' point values and gradients, and the weights, to
#: reflect (they agree to a few ulps on every ``landau_mesh`` space)
DOF_REFLECTION_TOL = 1e-12

#: space -> (pid, build lock, [weak refs to the response tables]); the
#: operators hold the tables, this only finds them
_RESPONSES: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
_RESPONSES_LOCK = threading.Lock()
_RESPONSES_PID = os.getpid()

#: space -> its free-dof reflection or None (:func:`dof_reflection`)
_DOF_REFLECTIONS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def dof_reflection(fs: FunctionSpace) -> np.ndarray | None:
    """The free-dof reflection ``Pi`` of ``fs`` under ``z -> -z``: when
    ``u`` holds the free dofs of ``f``, ``u[Pi]`` holds those of ``f(r,
    -z)``.  ``None`` unless the space is the reflection the response
    tables can use: the quadrature points pair up
    (:func:`~repro.core.landau_tensor.reflection_map`), every cell lies
    on one side of ``z = 0`` with its points' partners in one mirror
    cell, the free nodes pair up (nodes on ``z = 0`` are their own
    partners), and under ``Pi`` the point values reflect, the
    z-gradient negated, as do the weights (within
    :data:`DOF_REFLECTION_TOL`).  Built once per space."""
    if fs not in _DOF_REFLECTIONS:
        _DOF_REFLECTIONS[fs] = _free_dof_reflection(fs)
    return _DOF_REFLECTIONS[fs]


def _free_dof_reflection(fs: FunctionSpace) -> np.ndarray | None:
    N, ne, nq = fs.n_integration_points, fs.nelem, fs.nq
    z = fs.qpoints[:, :, 1].reshape(N)
    partner = reflection_map(fs.qpoints[:, :, 0].reshape(N), z)
    if partner is None:
        return None
    mirror = partner.reshape(ne, nq) // nq
    sides = z.reshape(ne, nq) > 0.0
    if not ((mirror == mirror[:, :1]).all() and (sides == sides[:, :1]).all()):
        return None
    dm = fs.dofmap
    xy = dm.node_coords[dm.free_nodes]
    kr, kz = np.round(xy / (1e-9 * np.abs(xy).max())).astype(np.int64).T
    pi = np.empty(kr.size, dtype=np.intp)
    pi[np.lexsort((kz, kr))] = np.lexsort((-kz, kr))
    if not (np.array_equal(kr[pi], kr) and np.array_equal(kz[pi], -kz)):
        return None

    def reflects(a: np.ndarray, b: np.ndarray) -> bool:
        return bool(np.abs(a - b).max() <= DOF_REFLECTION_TOL * np.abs(b).max())

    w = fs.qweights.reshape(N)
    u = np.random.default_rng(0).standard_normal(kr.size)
    g, g_pi = (fs.eval_grad(x).reshape(N, 2) for x in (u, u[pi]))
    if not (
        np.array_equal(pi[pi], np.arange(kr.size))
        and reflects(w[partner], w)
        and reflects(fs.eval(u[pi]).reshape(N), fs.eval(u).reshape(N)[partner])
        and reflects(g_pi, g[partner] * np.array([1.0, -1.0]))
    ):
        return None
    return pi


def _space_entry(fs: FunctionSpace) -> tuple:
    """``fs``'s registry entry, its build lock made in this process: a
    lock inherited across fork may be held by a parent thread that does
    not exist in the child (the tables it finds are inherited as-is)."""
    global _RESPONSES_LOCK, _RESPONSES_PID
    pid = os.getpid()
    if _RESPONSES_PID != pid:
        _RESPONSES_LOCK, _RESPONSES_PID = threading.Lock(), pid
    with _RESPONSES_LOCK:
        entry = _RESPONSES.get(fs)
        if entry is None or entry[0] != pid:
            entry = (pid, threading.Lock(), entry[2] if entry else [])
            _RESPONSES[fs] = entry
    return entry


def get_field_response(
    fs: FunctionSpace,
    build: Callable[[], tuple[np.ndarray, np.ndarray]],
) -> tuple[np.ndarray, np.ndarray]:
    """The field-response tables ``(R_D, R_K)`` of ``fs``: the live build
    when one exists, else ``build()``'s, made read-only.  The first build
    on a space runs under the space's lock, so concurrent first callers
    build once.  The registry holds the tables weakly: they are freed
    with the last operator using them."""
    _, lock, built = _space_entry(fs)
    with lock:
        tables = tuple(ref() for ref in built)
        if not tables or any(R is None for R in tables):
            tables = build()
            for R in tables:
                R.flags.writeable = False
            built[:] = [weakref.ref(R) for R in tables]
    return tables


class LandauOperator:
    """Landau collision operator on a single shared velocity grid.

    Parameters
    ----------
    fs:
        the velocity-space function space (one scalar field per species).
    species:
        the species set; charges/masses set the per-species scalings.
    nu0:
        collision prefactor; 1.0 in code units (``nu_ee = 1``).
    options:
        assembly configuration (caching of the O(N^2) tensors as
        field-response tables, memory budget); defaults to
        :meth:`AssemblyOptions.from_env`.
    """

    def __init__(
        self,
        fs: FunctionSpace,
        species: SpeciesSet,
        nu0: float = 1.0,
        options: AssemblyOptions | None = None,
    ):
        self.fs = fs
        self.species = species
        self.nu0 = float(nu0)
        self.options = options if options is not None else AssemblyOptions.from_env()
        #: the executor every hot path dispatches through
        self.backend = NumpyBackend()
        #: assembly work accounting consumed by ``NewtonStats``:
        #: ``structure_reuses`` counts matrix builds served by the cached
        #: scatter structure.
        self.counters = {"structure_reuses": 0}

        N = fs.n_integration_points
        self.N = N
        self.r = fs.qpoints[:, :, 0].reshape(N)
        self.z = fs.qpoints[:, :, 1].reshape(N).copy()
        self.w = fs.qweights.reshape(N)
        # the launch's field rows: the points above z = 0 and, in the
        # same order, their reflections; on a space without a
        # reflection every point and none.  The operator's own copy of z
        # is snapped so the reflection is exact ("Reflection symmetry" in
        # repro.core.landau_tensor); fs.qpoints, hashed into plan and
        # checkpoint keys, is left alone.
        partner = reflection_map(self.r, self.z)
        if partner is None:
            self._upper, self._lower = np.arange(N), np.arange(0)
        else:
            self._upper = np.flatnonzero(self.z > 0.0)
            self._lower = partner[self._upper]
            self.z[self._lower] = -self.z[self._upper]
        #: the free-dof reflection the response tables are read through
        #: (:func:`dof_reflection`); None builds and reads them whole
        self._mirror = (
            None
            if partner is None or self.options.cache_pair_tables is False
            else dof_reflection(fs)
        )
        if self._mirror is not None:
            # where each point's field sits in a state's reflected GEMM
            # output rows (upper | lower, (3, M) of R_D and (M, 2) of R_K)
            M = self._upper.size
            h, a = np.divmod(np.argsort(np.r_[self._upper, self._lower]), M)
            #: flat positions of ``G_D``'s ``(N, 2, 2)`` and ``G_K``'s
            #: ``(N, 2)`` entries in them (:meth:`_reflected_fields`)
            self._field_index = (
                (3 * M * h[:, None] + M * np.array([0, 1, 1, 2]) + a[:, None]).ravel(),
                (2 * M * h[:, None] + 2 * a[:, None] + np.arange(2)).ravel(),
            )
        #: the stacked reference tabulation ``[B | dB/dxi | dB/deta]``
        #: of :meth:`point_values_batch`
        self._tab = np.concatenate([fs.B, fs.Dref[:, :, 0], fs.Dref[:, :, 1]])

        cache_pair_tables = self.options.cache_pair_tables
        reflected = self._mirror is not None
        build_bytes = self.options.cached_build_bytes(N, fs.ndofs, reflected)
        if cache_pair_tables is None:
            cache_pair_tables = build_bytes <= self.options.memory_budget
        elif cache_pair_tables and build_bytes > self.options.memory_budget:
            held = "the upper half's tables" if reflected else "the tables"
            raise PairTableMemoryError(
                f"building the field-response tables needs {build_bytes / 1e6:.2f} "
                f"MB at its peak ({held}, the pair-tensor mirror images "
                f"still owed and one row block) for N={N} integration points "
                f"and n={fs.ndofs} dofs, above the assembly memory budget "
                f"of {self.options.memory_budget / 1e6:.2f} MB; raise "
                "AssemblyOptions.memory_budget (REPRO_ASSEMBLY_MEMORY_BUDGET) "
                "or leave cache_pair_tables=None to fall back to chunked "
                "on-the-fly evaluation"
            )

        self._scatter = get_scatter_map(fs)
        self._response = (
            get_field_response(fs, self._build_response)
            if cache_pair_tables
            else None
        )
        self._mass: sp.csr_matrix | None = None
        self._projector: sp.csr_matrix | None = None
        # per-species source weights of eq. (10) and weak-form scalings
        # (Algorithm 1 lines 13-16)
        z2 = species.charges**2
        self._z2 = z2
        self._z2om = z2 / species.masses
        self._z2_both = np.stack([z2, self._z2om])
        self._fac_k = self.nu0 * z2 / species.masses
        self._fac_d = -self.nu0 * z2 / species.masses**2

    # ------------------------------------------------------------------
    def _row_blocks(
        self, N: int, step: int = 1, sets: int = 1
    ) -> list[tuple[int, int]]:
        """Row blocks ``[i0, i1)`` covering ``[0, N)`` for the O(N^2)
        response build and field launch.  Block ``[i0, i1)`` evaluates the
        pairs ``[i0, i1) x [i0, N)`` (the rest of its rows comes from
        earlier blocks' mirror images), so blocks are cut by *pair* count,
        later ones taking more rows: as many pairs as keep the kernel's
        scratch within :data:`ROW_BLOCK_BYTES` (and the memory budget, when
        that is smaller).  Blocks start on multiples of ``step`` and take
        at least ``step`` rows.

        With ``sets = 2`` a block evaluates its rows against the sources
        and against their reflections.  Each row then costs twice the
        pairs, over half as many points, and the pair budget alone would
        end the launch on one square block whose lower triangle (pairs
        the mirror serves anyway) is a large share of the whole launch;
        so such a block also takes no more than ``sqrt(pairs) / 2`` rows.
        """
        pairs = min(
            ROW_BLOCK_BYTES // ONTHEFLY_BYTES_PER_PAIR,
            self.options.row_chunk(self.N) * self.N,
        )
        most = pairs if sets == 1 else max(1, math.isqrt(pairs) // 2)
        blocks = []
        i0 = 0
        while i0 < N:
            rows = min(most, pairs // (sets * (N - i0)))
            i1 = min(N, i0 + max(step, rows // step * step))
            blocks.append((i0, i1))
            i0 = i1
        return blocks

    def _build_response(self) -> tuple[np.ndarray, np.ndarray]:
        """The field-response tables ``R_D (n, 3N)`` (laid out ``(n, 3,
        N)``: ``Drr``, ``Drz``, ``Dzz``) and ``R_K (n, 2N)`` (laid out
        ``(n, N, 2)``, so a GEMM's output is ``G_K`` as it stands).

        Each table is contracted cell by cell against the weighted
        tabulations ``w B``, ``w dB/dr`` and ``w dB/dz`` (per-cell GEMMs),
        then gathered onto the free dofs through the cached
        ``P[cell_nodes]`` map (one sparse product; the two terms of a
        ``G_K`` component are gathered as one stacked operand, so their
        sum costs nothing) — a block of rows at a time, no ``(N, N)``
        table ever whole.  The row blocks (:meth:`_row_blocks`, cut on
        cell boundaries) run in order, so once block ``[i0, i1)`` is
        evaluated its rows are complete: its own pairs at columns
        ``[i0, N)``, straight from the kernel's scratch, and the mirror
        images earlier blocks left for it at ``[0, i0)``, one piece per
        earlier block (:data:`DIRECT_PIECES`).  The block then copies out
        the pieces it owes the later blocks.  The build holds the
        response, the pieces still owed (at most ``5 N^2 / 4`` entries,
        halfway through) and one block — what
        :meth:`AssemblyOptions.cached_build_bytes` counts.

        On a space with a free-dof reflection (:func:`dof_reflection`)
        the rows are the ``N / 2`` upper points only, so the tables are
        ``(n, 3 N / 2)`` and ``(n, N)``: the lower points' fields are the
        upper rows read through the reflection (:meth:`fields_batch`).
        The contraction then runs over the points in the order ``upper |
        lower`` — the lower points of a cell are those of its mirror
        cell — with each cell's tabulations and gather columns taken in
        that order; a block evaluates its rows against the upper sources
        and their reflections (``pair_block_tensors(..., reflect=True)``)
        and owes the later blocks two pieces, the second the exchanged
        tensors conjugated by ``S = diag(1, -1)``: about ``N^2 / 4``
        pair evaluations, half the rows contracted and half the pieces
        owed."""
        fs = self.fs
        sm = self._scatter
        n, ne, nq, nb = fs.ndofs, fs.nelem, fs.nq, fs.nb
        w = fs.qweights[:, None, :]
        tabs = (
            w * fs.B.T,  # (ne, nb, nq)
            w * fs.Dref[:, :, 0].T * fs.inv_jac[:, 0, None, None],
            w * fs.Dref[:, :, 1].T * fs.inv_jac[:, 1, None, None],
        )
        gather, gather_pair = sm.gather, sm.gather_pair
        if self._mirror is None:
            halves, r, z = 1, self.r, self.z
        else:
            up = self._upper
            halves, r, z = 2, self.r[up], self.z[up]
            order = np.concatenate([up, self._lower]).reshape(ne, nq)
            cell = order[:, 0] // nq
            q = (order % nq)[:, None, :]
            tabs = tuple(
                t[cell[:, None, None], np.arange(nb)[:, None], q] for t in tabs
            )
            gather = gather[:, (cell[:, None] * nb + np.arange(nb)).ravel()]
            gather_pair = sp.hstack([gather, gather], format="csc")
        wB, wEr, wEz = tabs
        M = r.size  # table rows; columns [h M, (h + 1) M) are half h
        R_D = np.empty((n, 3, M))
        R_K = np.empty((n, M, 2))
        blocks = self._row_blocks(M, step=nq, sets=halves)
        # owed[b]: block b's rows at the columns [k0, k1) of an earlier
        # block, as (k0, k1, (5, rows, k1 - k0)) pieces
        owed: list = [[] for _ in blocks]
        with shared_block_scratch():
            for b, (i0, i1) in enumerate(blocks):
                R, W = i1 - i0, M - i0
                comps = pair_block_tensors(r, z, i0, i1, reflect=halves == 2)
                # the block's components against half h of the sources
                by_half = [
                    [comp[:, h * W : (h + 1) * W] for comp in comps]
                    for h in range(halves)
                ]
                parts, owed[b] = owed[b], None
                if len(parts) > halves * DIRECT_PIECES:
                    lower = np.empty((halves, 5, R, i0))
                    for k0, k1, piece in parts:
                        h = k0 // M
                        lower[h, :, :, k0 - h * M : k1 - h * M] = piece
                    parts = [(h * M, h * M + i0, lower[h]) for h in range(halves)]
                    del lower, piece
                parts += [
                    (h * M + i0, (h + 1) * M, by_half[h]) for h in range(halves)
                ]
                Y = np.empty((2, ne, nb, R))

                def contract(W: np.ndarray, c: int, out: np.ndarray) -> None:
                    # rows [i0, i1) of component c against each cell's points
                    for k0, k1, part in parts:
                        e = slice(k0 // nq, k1 // nq)
                        cells = part[c].reshape(R, -1, nq).transpose(1, 2, 0)
                        np.matmul(W[e], cells, out=out[e])

                for c in range(3):
                    contract(wB, c, Y[0])
                    R_D[:, c, i0:i1] = gather @ Y[0].reshape(ne * nb, -1)
                # Krz == Drz and Kzz == Dzz
                for d, (k_r, k_z) in enumerate(((3, 1), (4, 2))):
                    contract(wEr, k_r, Y[0])
                    contract(wEz, k_z, Y[1])
                    R_K[:, i0:i1, d] = gather_pair @ Y.reshape(2 * ne * nb, -1)
                del parts, Y
                # U(x_j, x_i) from the integrals of (x_i, x_j): Drr from
                # DrrT, Drz and Kzr exchanged, Dzz and Krr as they are
                for m, (m0, m1) in enumerate(blocks[b + 1 :], b + 1):
                    for h in range(halves):
                        piece = np.empty((5, m1 - m0, R))
                        for c, k in enumerate((5, 4, 2, 3, 1)):
                            piece[c] = by_half[h][k][:, m0 - i0 : m1 - i0].T
                        if h:  # S U S: the exchanged Kzr and Drz negated
                            piece[[1, 4]] *= -1.0
                        owed[m].append((h * M + i0, h * M + i1, piece))
                del comps, by_half  # the scratch may grow for the next block
        return R_D.reshape(n, 3 * M), R_K.reshape(n, 2 * M)

    @property
    def pair_tables_cached(self) -> bool:
        """Whether the pair tensors were contracted into the resident
        field-response tables rather than evaluated on the fly every
        launch."""
        return self._response is not None

    @property
    def response_tables(self) -> tuple[np.ndarray, np.ndarray] | None:
        """The resident ``(R_D (n, 3N), R_K (n, 2N))`` — ``(n, 3N/2)``
        and ``(n, N)``, the upper points' columns, on a space with a
        free-dof reflection — or ``None`` (tables not cached); read-only,
        shared by every cached operator on the space."""
        return self._response

    # ------------------------------------------------------------------
    def fields_batch(
        self,
        states: np.ndarray,
        values: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """``G_D (X, N, 2, 2)`` / ``G_K (X, N, 2)`` of ``X`` states
        ``(X, S, n)``.

        This is *the* field implementation: the per-state :meth:`fields`
        is its ``X = 1`` slice.  With cached tables the species-summed
        dof vectors ``u_D``/``u_K`` go through the response tables, one
        GEMM each for the whole batch (the
        :class:`~repro.core.batch.BatchedVertexSolver` hot path; on
        the upper half's tables, :meth:`_reflected_fields`), and
        ``values`` is not used.  Without them the sources of eq. (10) are
        formed from ``values``, the states' :meth:`point_values_batch`
        (evaluated here when not given), and the tensors are re-evaluated
        on the fly (:meth:`_launch`).
        """
        if self._response is not None:
            if self._mirror is not None:
                return self._reflected_fields(states)
            R_D, R_K = self._response
            mm = self.backend.matmul
            X, N = states.shape[0], self.N
            D = mm(self._z2 @ states, R_D).reshape(X, 3, N)
            G_D = np.empty((X, N, 2, 2))
            G_D[..., 0, 0] = D[:, 0]
            G_D[..., 0, 1] = D[:, 1]
            G_D[..., 1, 0] = D[:, 1]
            G_D[..., 1, 1] = D[:, 2]
            return G_D, mm(self._z2om @ states, R_K).reshape(X, N, 2)
        vals, gr, gz = self.point_values_batch(states) if values is None else values
        w = self.w
        return self._launch(
            w * np.einsum("s,xsn->xn", self._z2, vals),
            w * np.einsum("s,xsn->xn", self._z2om, gr),
            w * np.einsum("s,xsn->xn", self._z2om, gz),
        )

    def _reflected_fields(
        self, states: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`fields_batch` on the upper half's tables: each state's
        ``u`` and its reflection ``u[Pi]`` are adjacent GEMM rows, so the
        output rows of state ``x`` hold the upper points' fields and the
        lower points' conjugated by ``S = diag(1, -1)`` (``U(x_a', x_b) =
        S U(x_a, x_b') S``, the sources reflected with it); the rz and z
        components of the second are negated and one gather per table
        (:attr:`_field_index`) puts every point's field in place."""
        R_D, R_K = self._response
        mm = self.backend.matmul
        X, N, n, M = states.shape[0], self.N, self.fs.ndofs, self._upper.size
        u = np.empty((2, X, 2, n))  # (table, state, reflected, dof)
        np.matmul(self._z2_both, states, out=u[:, :, 0].transpose(1, 0, 2))
        u[:, :, 1] = u[:, :, 0][..., self._mirror]
        D = mm(u[0].reshape(2 * X, n), R_D).reshape(X, 2, 3, M)
        K = mm(u[1].reshape(2 * X, n), R_K).reshape(X, 2, M, 2)
        # each temporary is freed as soon as it is read: with all of them
        # alive glibc's allocator returned and re-faulted ~4 MB a call
        # (X = 64, N = 666), which cost more than the GEMMs
        del u
        D[:, 1, 1] *= -1.0
        K[:, 1, :, 1] *= -1.0
        at_D, at_K = self._field_index
        G_D = np.take(D.reshape(X, 6 * M), at_D, axis=1, mode="wrap")
        del D
        G_K = np.take(K.reshape(X, 4 * M), at_K, axis=1, mode="wrap")
        return G_D.reshape(X, N, 2, 2), G_K.reshape(X, N, 2)

    def _launch(
        self, wTD: np.ndarray, wTKr: np.ndarray, wTKz: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """The on-the-fly field launch for weighted point sources of shape
        ``(B, N)``: the tensors are re-evaluated in cache-sized row blocks
        (:meth:`_row_blocks`), each adding into its own rows and, through
        the mirror, into the rows below it.

        On a space with a reflection the blocks run over the upper
        points only, against the upper points and their reflections
        ("Reflection symmetry" in :mod:`repro.core.landau_tensor`), with
        ``2B`` columns: ``[:B]`` add up the fields at the upper points,
        ``[B:]`` those at the lower points conjugated by ``S = diag(1,
        -1)``.  So the columns against the upper points hold ``(s_up | S
        s_low)`` and those against the reflections ``(s_low | S s_up)``,
        ``S`` negating the z-gradient source."""
        N, B = self.N, wTD.shape[0]
        up, low = self._upper, self._lower
        sources = (wTD, wTKr, wTKz)
        # (n, C) column sources for the per-block contractions
        if low.size:
            flipped = (wTD, wTKr, -wTKz)  # S times the sources

            def columns(a, b):
                """The sources at points ``a``, then ``S`` times those at
                ``b``."""
                return tuple(
                    np.concatenate([s[:, a], t[:, b]]).T.copy()
                    for s, t in zip(sources, flipped)
                )

            (cTD, cTKr, cTKz), reflected = columns(up, low), columns(low, up)
        else:
            cTD, cTKr, cTKz = (np.ascontiguousarray(s.T) for s in sources)
            reflected = None
        C, n = cTD.shape[1], up.size
        # C fastest in memory: every block adds (rows, C) products
        G_D = np.zeros((n, 2, 2, C)).transpose(3, 0, 1, 2)
        G_K = np.zeros((n, 2, C)).transpose(2, 0, 1)
        r, z = self.r[up], self.z[up]
        with shared_block_scratch():
            for i0, i1 in self._row_blocks(n, sets=1 if reflected is None else 2):
                self.backend.field_rows(
                    G_D, G_K, r, z, cTD, cTKr, cTKz, i0, i1, reflected
                )
        if not low.size:
            return np.ascontiguousarray(G_D), np.ascontiguousarray(G_K)
        out_D = np.empty((B, N, 2, 2))
        out_K = np.empty((B, N, 2))
        out_D[:, up], out_K[:, up] = G_D[:B], G_K[:B]
        out_D[:, low] = G_D[B:] * np.array([[1.0, -1.0], [-1.0, 1.0]])
        out_K[:, low] = G_K[B:] * np.array([1.0, -1.0])
        return out_D, out_K

    def fields(
        self, fields: list[np.ndarray]
    ) -> tuple[np.ndarray, np.ndarray]:
        """``G_D (N, 2, 2)`` and ``G_K (N, 2)`` of one state (one
        free-space coefficient vector per species): the ``X = 1`` slice
        of :meth:`fields_batch`."""
        if len(fields) != len(self.species):
            raise ValueError(
                f"expected {len(self.species)} species fields, got {len(fields)}"
            )
        G_D, G_K = self.fields_batch(np.stack(fields)[None])
        return G_D[0], G_K[0]

    # ------------------------------------------------------------------
    # batch-shaped state evaluation and the matrix-free operator action
    def point_values_batch(
        self, states: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``f``, ``df/dr`` and ``df/dz`` of every (vertex, species) at
        the integration points: ``states (X, S, n)`` gives three
        ``(X, S, N)`` arrays.  One GEMM against the stacked reference
        tabulation ``[B | dB/dxi | dB/deta]``, then the element Jacobian
        scaling of the two gradient blocks."""
        fs = self.fs
        X, S, n = states.shape
        nq = fs.nq
        full = (fs.dofmap.P @ states.reshape(X * S, n).T).T
        cd = full[:, fs.dofmap.cell_nodes]  # (X*S, ne, nb)
        q = (cd.reshape(-1, fs.nb) @ self._tab.T).reshape(X, S, fs.nelem, 3 * nq)
        inv_jac = fs.inv_jac
        return (
            q[..., :nq].reshape(X, S, -1),
            (q[..., nq : 2 * nq] * inv_jac[:, 0, None]).reshape(X, S, -1),
            (q[..., 2 * nq :] * inv_jac[:, 1, None]).reshape(X, S, -1),
        )

    @property
    def _flux_projector(self) -> sp.csr_matrix:
        """The ``(n, 2N)`` weak-form map of a point-wise flux ``(F_r |
        F_z)``: ``sum_q w grad(psi_i) . F_q`` on the free dofs, hanging-
        node constraints folded in (``P^T``).  State-independent, built
        on first use."""
        if self._projector is None:
            fs = self.fs
            # (e, q, a, d)
            wg = fs.qweights[:, :, None, None] * self._scatter.gphys
            N = self.N
            rows = np.broadcast_to(
                fs.dofmap.cell_nodes[:, None, :, None], wg.shape
            )
            cols = np.broadcast_to(
                np.arange(N).reshape(wg.shape[:2])[:, :, None, None]
                + N * np.arange(2),
                wg.shape,
            )
            full = sp.coo_matrix(
                (wg.ravel(), (rows.ravel(), cols.ravel())),
                shape=(fs.dofmap.n_full, 2 * N),
            )
            self._projector = (fs.dofmap.P.T @ full.tocsr()).tocsr()
        return self._projector

    def action_batch(
        self,
        G_D: np.ndarray,
        G_K: np.ndarray,
        vals: np.ndarray,
        gr: np.ndarray,
        gz: np.ndarray,
    ) -> np.ndarray:
        """The frozen-coefficient operator applied matrix-free:
        ``out[x, a] = L_a(G[x]) f_a[x]``, shape ``(X, S, n)``, without
        assembling any ``L_a``.

        The weak form (5) + (6) tests the point-wise flux ``fac_d G_D .
        grad f_a + fac_k G_K f_a`` against ``grad psi_i``, so the action
        is that flux at the integration points followed by one sparse
        product with the state-independent :attr:`_flux_projector`.
        Agrees with ``species_matrices(G_D, G_K)[a] @ f_a`` to round-off.
        """
        X, S, N = vals.shape
        fac_d = self._fac_d[:, None]
        fac_k = self._fac_k[:, None]
        flux = np.empty((X, S, 2, N))
        for d in (0, 1):
            diffusion = G_D[:, None, :, d, 0] * gr + G_D[:, None, :, d, 1] * gz
            flux[:, :, d] = fac_d * diffusion + fac_k * (G_K[:, None, :, d] * vals)
        out = self._flux_projector @ flux.reshape(X * S, 2 * N).T
        return np.ascontiguousarray(out.T).reshape(X, S, -1)

    def apply_batch(self, states: np.ndarray) -> np.ndarray:
        """The weak-form collision operator ``(psi, C_a(f))`` of ``X``
        states, ``(X, S, n)`` in and out — the nonlinear evaluation, with
        no matrix assembled."""
        values = self.point_values_batch(states)
        G_D, G_K = self.fields_batch(states, values)
        return self.action_batch(G_D, G_K, *values)

    # ------------------------------------------------------------------
    def species_coefficients(
        self, s_index: int, G_D: np.ndarray, G_K: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-species weak-form coefficients (Algorithm 1 lines 13-16)."""
        ne, nq = self.fs.qweights.shape
        D_q = (self._fac_d[s_index] * G_D).reshape(ne, nq, 2, 2)
        K_q = (self._fac_k[s_index] * G_K).reshape(ne, nq, 2)
        return D_q, K_q

    def species_data_batch(
        self, G_D: np.ndarray, G_K: np.ndarray
    ) -> np.ndarray:
        """Per-species CSR ``data`` rows for a batch of field sets.

        ``G_D (X, N, 2, 2)`` / ``G_K (X, N, 2)`` hold the fields of ``X``
        independent vertex states; the result is ``(S, X, nnz)`` — the
        collision-matrix data of every (species, vertex) pair, all sharing
        the cached scatter structure's sparsity (wrap rows with
        :attr:`scatter_map` ``.matrix``).  This is *the* species-build
        implementation — :meth:`species_matrices` is its ``X = 1`` slice:
        every species' weak form is the same pair of element integrals
        scaled by per-species constants, so the diffusion and friction
        element blocks are contracted once for the whole batch (through
        :meth:`NumpyBackend.contract`), scattered once each through
        the cached structure, and the S·X data rows are axpy combinations
        sharing one sparsity.
        """
        sm = self._scatter
        fs = self.fs
        ne, nq = fs.qweights.shape
        X = G_D.shape[0]
        w = fs.qweights
        gphys = sm.gphys
        CeD = self.backend.contract(
            "eq,eqad,xeqdc,eqbc->xeab",
            w,
            gphys,
            G_D.reshape(X, ne, nq, 2, 2),
            gphys,
        )
        CeK = self.backend.contract(
            "eq,eqad,xeqd,qb->xeab",
            w,
            gphys,
            G_K.reshape(X, ne, nq, 2),
            fs.B,
        )
        dD = self.backend.scatter_apply(
            sm.T, np.ascontiguousarray(CeD).reshape(X, -1)
        )
        dK = self.backend.scatter_apply(
            sm.T, np.ascontiguousarray(CeK).reshape(X, -1)
        )
        S = len(self.species)
        out = np.empty((S, X, dD.shape[1]))
        for s_idx in range(S):
            np.multiply(dD, self._fac_d[s_idx], out=out[s_idx])
            out[s_idx] += self._fac_k[s_idx] * dK
        self.counters["structure_reuses"] += S * X
        return out

    def species_matrices(
        self, G_D: np.ndarray, G_K: np.ndarray
    ) -> list[sp.csr_matrix]:
        """All species' frozen-coefficient collision matrices ``L_a``
        (``M df_a/dt = L_a f_a`` plus field/source terms) for given
        fields — the ``X = 1`` slice of :meth:`species_data_batch`
        wrapped in the cached CSR structure."""
        data = self.species_data_batch(G_D[None], G_K[None])
        return [self._scatter.matrix(data[a, 0]) for a in range(len(self.species))]

    @property
    def scatter_map(self):
        """The mesh's cached element→CSR scatter structure."""
        return self._scatter

    def jacobian(self, fields: list[np.ndarray]) -> list[sp.csr_matrix]:
        """All species' collision matrices about the state ``fields``.

        The multi-species Jacobian is block diagonal (``I_S (x) A_1``
        pattern); this returns the per-species blocks.
        """
        G_D, G_K = self.fields(fields)
        return self.species_matrices(G_D, G_K)

    def apply(self, fields: list[np.ndarray]) -> list[np.ndarray]:
        """The weak-form collision operator applied to the current state:
        ``(psi, C_a(f))`` for each species (nonlinear evaluation) — the
        ``X = 1`` slice of :meth:`apply_batch`."""
        return list(self.apply_batch(np.stack(fields)[None])[0])

    # ------------------------------------------------------------------
    @property
    def mass_matrix(self) -> sp.csr_matrix:
        """The (r-weighted) mass matrix, cached."""
        if self._mass is None:
            self.counters["structure_reuses"] += 1
            self._mass = self._scatter.assemble(element_mass_blocks(self.fs))
        return self._mass

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"LandauOperator(S={len(self.species)}, N={self.N}, "
            f"cached={self.pair_tables_cached})"
        )
