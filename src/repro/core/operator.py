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

The pair tables U^D/U^K depend only on quadrature geometry, so on the CPU
they are computed once per mesh and cached.  Two exact symmetries of the
axisymmetric tensors — ``U^K_rz == U^D_rz`` and ``U^K_zz == U^D_zz`` —
mean only *five* distinct ``N x N`` components exist; the default packed
layout stores exactly those five, contiguously, so the field computation
is a handful of contiguous BLAS contractions (the legacy layout kept
seven strided views into the full ``(N, N, 2, 2)`` tensors).  The CUDA-
model kernel (:mod:`repro.core.kernel_cuda`) instead recomputes the
tensors on the fly exactly as Algorithm 1 does on a GPU — the two paths
are verified against each other in the test suite
(``tests/test_backend_equivalence.py``).

Both the table build and the operator's own on-the-fly launch (tables
not cached) run one pair-symmetric row-block kernel,
:func:`repro.core.landau_tensor.pair_block_tensors`, behind the backend
hooks ``pair_table_rows`` / ``field_rows``: a block of field rows
evaluates the azimuthal integrals against the sources at or after its
first row only and serves the pairs below it through the exchange
symmetry of the tensors, so a launch evaluates about ``N^2 / 2`` pairs.
Blocks are cut by pair count (:meth:`LandauOperator._row_blocks`).

Assembly behaviour (structure caching, packed tables, thread counts,
table precision, memory budget) is configured by
:class:`repro.core.options.AssemblyOptions`; the operator's ``counters``
dict records structure reuses and parallel builds for
:class:`repro.core.solver.NewtonStats`.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from ..fem.assembly import (
    assemble_coefficient_operator,
    assemble_mass,
    element_mass_blocks,
    get_scatter_map,
)
from ..fem.function_space import FunctionSpace
from .landau_tensor import landau_tensors_cyl, shared_block_scratch
from .options import ONTHEFLY_BYTES_PER_PAIR, AssemblyOptions, PairTableMemoryError
from .species import SpeciesSet

#: scratch bytes one row block of the O(N^2) kernels may touch: the
#: ``ONTHEFLY_BYTES_PER_PAIR`` of scratch per pair should stay cache-
#: resident while the block is evaluated.  A block sized by the memory
#: budget alone is every pair at once, which is both slower and the
#: largest allocation of a plan; 2 MiB (20 164 pairs) is in the flat
#: optimum measured on N = 504 (10 000 - 20 000 pairs per block).
ROW_BLOCK_BYTES = 2 * 1024 * 1024

#: packed component order: Drr, Drz, Dzz, Krr, Kzr (Krz/Kzz alias Drz/Dzz)
_PACKED_COMPONENTS = ("Drr", "Drz", "Dzz", "Krr", "Kzr")


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
    cache_pair_tables:
        force (True/False) or auto-decide (None) caching of the O(N^2)
        tensor tables; overrides ``options.cache_pair_tables``.
    options:
        assembly configuration; defaults to
        :meth:`AssemblyOptions.from_env`.
    """

    def __init__(
        self,
        fs: FunctionSpace,
        species: SpeciesSet,
        nu0: float = 1.0,
        cache_pair_tables: bool | None = None,
        options: AssemblyOptions | None = None,
    ):
        self.fs = fs
        self.species = species
        self.nu0 = float(nu0)
        self.options = options if options is not None else AssemblyOptions.from_env()
        #: the execution backend every hot path dispatches through; the
        #: default (``auto`` with no threads requested) is the serial
        #: numpy reference, bitwise-identical to inlined numpy code.
        self.backend = self.options.execution_backend()
        #: assembly work accounting consumed by ``NewtonStats``:
        #: ``structure_reuses`` counts matrix builds served by the cached
        #: scatter structure, ``parallel_builds`` counts thread-pool
        #: dispatched table/field builds.
        self.counters = {"structure_reuses": 0, "parallel_builds": 0}

        N = fs.n_integration_points
        self.N = N
        self.r = fs.qpoints[:, :, 0].reshape(N)
        self.z = fs.qpoints[:, :, 1].reshape(N)
        self.w = fs.qweights.reshape(N)

        if cache_pair_tables is None:
            cache_pair_tables = self.options.cache_pair_tables
        table_bytes = self.options.table_bytes(N)
        if cache_pair_tables is None:
            cache_pair_tables = table_bytes <= self.options.memory_budget
        elif cache_pair_tables and table_bytes > self.options.memory_budget:
            raise PairTableMemoryError(
                f"cached pair tables need {table_bytes / 1e6:.2f} MB for "
                f"N={N} integration points, above the assembly memory budget "
                f"of {self.options.memory_budget / 1e6:.2f} MB; raise "
                "AssemblyOptions.memory_budget (REPRO_ASSEMBLY_MEMORY_BUDGET), "
                "use table_dtype='float32', or leave cache_pair_tables=None "
                "to fall back to chunked on-the-fly evaluation"
            )

        self._tables: dict[str, np.ndarray] | None = None  # legacy layout
        self._packed: np.ndarray | None = None  # (5, N, N) packed layout
        if cache_pair_tables:
            if self.options.packed_tables:
                self._packed = self._build_packed_tables()
            else:
                self._tables = self._build_pair_tables()
        self._scatter = get_scatter_map(fs) if self.options.cache_structure else None
        self._mass: sp.csr_matrix | None = None
        self._projector: sp.csr_matrix | None = None
        # per-species source weights of eq. (10) and weak-form scalings
        # (Algorithm 1 lines 13-16)
        z2 = species.charges**2
        self._z2 = z2
        self._z2om = z2 / species.masses
        self._fac_k = self.nu0 * z2 / species.masses
        self._fac_d = -self.nu0 * z2 / species.masses**2

    # ------------------------------------------------------------------
    def _build_pair_tables(self) -> dict[str, np.ndarray]:
        """Legacy cache: 7 component views of U^D/U^K over all point pairs."""
        UD, UK = landau_tensors_cyl(
            self.r[:, None], self.z[:, None], self.r[None, :], self.z[None, :]
        )
        return {
            "Drr": UD[..., 0, 0],
            "Drz": UD[..., 0, 1],
            "Dzz": UD[..., 1, 1],
            "Krr": UK[..., 0, 0],
            "Krz": UK[..., 0, 1],
            "Kzr": UK[..., 1, 0],
            "Kzz": UK[..., 1, 1],
        }

    def _row_blocks(self, N: int) -> list[tuple[int, int]]:
        """Row blocks ``[i0, i1)`` covering ``[0, N)`` for the O(N^2)
        table/field work.  Block ``[i0, i1)`` evaluates the pairs
        ``[i0, i1) x [i0, N)`` (the rest of its rows comes from earlier
        blocks' mirror images), so blocks are cut by *pair* count, later
        ones taking more rows: as many pairs as keep the kernel's scratch
        within :data:`ROW_BLOCK_BYTES` (and the memory budget, when that
        is smaller), fewer when a parallel backend's workers would
        otherwise not all have work.  Never less than one row."""
        pairs = min(
            ROW_BLOCK_BYTES // ONTHEFLY_BYTES_PER_PAIR,
            self.options.row_chunk(N) * N,
        )
        workers = self.backend.workers
        if workers > 1:
            pairs = min(pairs, -(-N * (N + 1) // (2 * workers)))
        blocks = []
        i0 = 0
        while i0 < N:
            i1 = min(N, i0 + max(1, pairs // (N - i0)))
            blocks.append((i0, i1))
            i0 = i1
        return blocks

    def _build_packed_tables(self) -> np.ndarray:
        """Cache the 5 unique components contiguously; row blocks are
        dispatched through the backend (a block stores its own entries
        and their mirror images, disjoint from every other block's)."""
        N = self.N
        out = np.empty((5, N, N), dtype=self.options.dtype)

        def fill(i0: int, i1: int) -> None:
            self.backend.pair_table_rows(out, self.r, self.z, i0, i1)

        if self.backend.parallel_for(self._row_blocks(N), fill):
            self.counters["parallel_builds"] += 1
        return out

    @property
    def pair_tables_cached(self) -> bool:
        return self._tables is not None or self._packed is not None

    @property
    def packed_table_buffer(self) -> np.ndarray | None:
        """The packed ``(5, N, N)`` pair-table buffer in ``_PACKED``
        component order, or ``None`` (legacy layout / tables not cached)."""
        return self._packed

    # ------------------------------------------------------------------
    def beta_sums(self, fields: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
        """The species-summed sources ``T_D (N,)`` and ``T_K (2, N)``.

        ``fields`` holds one free-space coefficient vector per species.
        """
        if len(fields) != len(self.species):
            raise ValueError(
                f"expected {len(self.species)} species fields, got {len(fields)}"
            )
        N = self.N
        T_D = np.zeros(N)
        T_K = np.zeros((2, N))
        for s, x in zip(self.species, fields):
            z2 = s.charge**2
            T_D += z2 * self.fs.eval(x).reshape(N)
            g = self.fs.eval_grad(x)
            T_K[0] += (z2 / s.mass) * g[:, :, 0].reshape(N)
            T_K[1] += (z2 / s.mass) * g[:, :, 1].reshape(N)
        return T_D, T_K

    # ------------------------------------------------------------------
    def _table_products(
        self, wTD: np.ndarray, wTKr: np.ndarray, wTKz: np.ndarray
    ) -> tuple[np.ndarray, ...]:
        """The seven table contractions for column-stacked sources.

        Inputs have shape ``(N, K)`` (``K`` = 1 for a single state, B for
        a batch).  Returns ``(Drr_TD, Drz_TD, Dzz_TD, Krr_Kr, Kzr_Kr,
        Krz_Kz, Kzz_Kz)``, each ``(N, K)`` float64.  Requires cached
        tables.
        """
        mm = self.backend.matmul
        if self._packed is not None:
            P = self._packed
            dt = P.dtype
            K = wTD.shape[1]
            # Krz == Drz and Kzz == Dzz: evaluate both sources against the
            # shared table in one contraction so each table streams once
            rhs_dk = np.concatenate([wTD, wTKz], axis=1).astype(dt, copy=False)
            rhs_d = rhs_dk[:, :K]
            rhs_k = wTKr.astype(dt, copy=False)
            Y_rz = mm(P[1], rhs_dk)  # (N, 2K): Drz@wTD | Krz@wTKz
            Y_zz = mm(P[2], rhs_dk)  # (N, 2K): Dzz@wTD | Kzz@wTKz
            return (
                mm(P[0], rhs_d).astype(np.float64, copy=False),
                Y_rz[:, :K].astype(np.float64, copy=False),
                Y_zz[:, :K].astype(np.float64, copy=False),
                mm(P[3], rhs_k).astype(np.float64, copy=False),
                mm(P[4], rhs_k).astype(np.float64, copy=False),
                Y_rz[:, K:].astype(np.float64, copy=False),
                Y_zz[:, K:].astype(np.float64, copy=False),
            )
        t = self._tables
        if t is None:
            raise RuntimeError("table products require cached pair tables")
        return (
            mm(t["Drr"], wTD),
            mm(t["Drz"], wTD),
            mm(t["Dzz"], wTD),
            mm(t["Krr"], wTKr),
            mm(t["Kzr"], wTKr),
            mm(t["Krz"], wTKz),
            mm(t["Kzz"], wTKz),
        )

    @staticmethod
    def _fields_from_products(products) -> tuple[np.ndarray, np.ndarray]:
        """Assemble ``G_D (..., N, 2, 2)`` / ``G_K (..., N, 2)`` from the
        seven contractions, each shaped ``(N, K)`` (K batch columns)."""
        Drr, Drz, Dzz, Krr, Kzr, Krz, Kzz = products
        N, K = Drr.shape
        G_D = np.zeros((K, N, 2, 2))
        G_K = np.zeros((K, N, 2))
        G_D[:, :, 0, 0] = Drr.T
        G_D[:, :, 0, 1] = Drz.T
        G_D[:, :, 1, 0] = G_D[:, :, 0, 1]
        G_D[:, :, 1, 1] = Dzz.T
        G_K[:, :, 0] = (Krr + Krz).T
        G_K[:, :, 1] = (Kzr + Kzz).T
        return G_D, G_K

    def fields_batch(
        self, wTD: np.ndarray, wTKr: np.ndarray, wTKz: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """``G_D (B, N, 2, 2)`` / ``G_K (B, N, 2)`` for a batch of
        weighted source vectors of shape ``(B, N)``.

        This is *the* field implementation: the per-state
        :meth:`fields` is the ``B = 1`` slice of the same code.  With
        cached tables each tensor component is one contraction over the
        whole batch (the :class:`~repro.core.batch.BatchedVertexSolver`
        hot path); without them the tensors are re-evaluated on the fly
        in backend-dispatched, cache-sized row blocks (:meth:`_row_blocks`).

        A block adds into its own rows *and*, through the mirror, into
        the rows below it, so blocks that run concurrently must not share
        an output: every worker gets its own zero-initialised fields,
        is fed its blocks in order, and the per-worker fields are summed
        in worker order afterwards — deterministic run to run, and free
        on a serial backend (one worker, whose fields are the result).
        """
        if self.pair_tables_cached:
            return self._fields_from_products(
                self._table_products(
                    np.ascontiguousarray(wTD.T),
                    np.ascontiguousarray(wTKr.T),
                    np.ascontiguousarray(wTKz.T),
                )
            )
        N = self.N
        B = wTD.shape[0]
        # (N, B) column sources for the per-block contractions
        cTD = np.ascontiguousarray(wTD.T)
        cTKr = np.ascontiguousarray(wTKr.T)
        cTKz = np.ascontiguousarray(wTKz.T)
        blocks = self._row_blocks(N)
        workers = min(self.backend.workers, len(blocks))
        partial = [
            (np.zeros((B, N, 2, 2)), np.zeros((B, N, 2))) for _ in range(workers)
        ]

        def eval_blocks(g: int) -> None:
            G_D, G_K = partial[g]
            with shared_block_scratch():
                for i0, i1 in blocks[g::workers]:  # equal pairs, so equal work
                    self.backend.field_rows(
                        G_D, G_K, self.r, self.z, cTD, cTKr, cTKz, i0, i1
                    )

        if self.backend.parallel_for([(g,) for g in range(workers)], eval_blocks):
            self.counters["parallel_builds"] += 1
        G_D, G_K = partial[0]
        for D, K in partial[1:]:
            G_D += D
            G_K += K
        return G_D, G_K

    def fields(
        self, fields: list[np.ndarray]
    ) -> tuple[np.ndarray, np.ndarray]:
        """Compute ``G_D (N, 2, 2)`` and ``G_K (N, 2)`` at all IPs."""
        T_D, T_K = self.beta_sums(fields)
        G_D, G_K = self.fields_batch(
            (self.w * T_D)[None],
            (self.w * T_K[0])[None],
            (self.w * T_K[1])[None],
        )
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
        tab = np.concatenate([fs.B, fs.Dref[:, :, 0], fs.Dref[:, :, 1]])
        q = (cd.reshape(-1, fs.nb) @ tab.T).reshape(X, S, fs.nelem, 3 * nq)
        inv_jac = fs.inv_jac
        return (
            q[..., :nq].reshape(X, S, -1),
            (q[..., nq : 2 * nq] * inv_jac[:, 0, None]).reshape(X, S, -1),
            (q[..., 2 * nq :] * inv_jac[:, 1, None]).reshape(X, S, -1),
        )

    def fields_from_values(
        self, vals: np.ndarray, gr: np.ndarray, gz: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """``G_D (X, N, 2, 2)`` / ``G_K (X, N, 2)`` of ``X`` states given
        their :meth:`point_values_batch`: the species-summed sources of
        eq. (10) through one :meth:`fields_batch` launch."""
        w = self.w
        return self.fields_batch(
            w * np.einsum("s,xsn->xn", self._z2, vals),
            w * np.einsum("s,xsn->xn", self._z2om, gr),
            w * np.einsum("s,xsn->xn", self._z2om, gz),
        )

    @property
    def _flux_projector(self) -> sp.csr_matrix:
        """The ``(n, 2N)`` weak-form map of a point-wise flux ``(F_r |
        F_z)``: ``sum_q w grad(psi_i) . F_q`` on the free dofs, hanging-
        node constraints folded in (``P^T``).  State-independent, built
        on first use."""
        if self._projector is None:
            fs = self.fs
            gphys = (
                self._scatter.gphys
                if self._scatter is not None
                else np.einsum("qbd,ed->eqbd", fs.Dref, fs.inv_jac)
            )
            wg = fs.qweights[:, :, None, None] * gphys  # (e, q, a, d)
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
        vals, gr, gz = self.point_values_batch(states)
        G_D, G_K = self.fields_from_values(vals, gr, gz)
        return self.action_batch(G_D, G_K, vals, gr, gz)

    # ------------------------------------------------------------------
    def species_coefficients(
        self, s_index: int, G_D: np.ndarray, G_K: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-species weak-form coefficients (Algorithm 1 lines 13-16)."""
        ne, nq = self.fs.qweights.shape
        D_q = (self._fac_d[s_index] * G_D).reshape(ne, nq, 2, 2)
        K_q = (self._fac_k[s_index] * G_K).reshape(ne, nq, 2)
        return D_q, K_q

    def species_matrix(
        self, s_index: int, G_D: np.ndarray, G_K: np.ndarray
    ) -> sp.csr_matrix:
        """The frozen-coefficient collision matrix ``L_a`` for one species,
        such that ``M df_a/dt = L_a f_a`` (plus field/source terms)."""
        D_q, K_q = self.species_coefficients(s_index, G_D, G_K)
        return assemble_coefficient_operator(
            self.fs,
            D_q,
            K_q,
            structure=self._scatter_for_build(),
            backend=self.backend,
        )

    def _scatter_for_build(self):
        if self._scatter is not None:
            self.counters["structure_reuses"] += 1
        return self._scatter

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
        :meth:`ExecutionBackend.contract`), scattered once each through
        the cached structure, and the S·X data rows are axpy combinations
        sharing one sparsity.  Requires structure caching.
        """
        sm = self._scatter
        if sm is None:
            raise RuntimeError(
                "batched assembly requires AssemblyOptions.cache_structure"
            )
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
        """All species' collision matrices for given fields — the
        ``X = 1`` slice of :meth:`species_data_batch` wrapped in the
        cached CSR structure (per-element assembly when structure caching
        is off)."""
        if self._scatter is None:
            return [
                self.species_matrix(a, G_D, G_K)
                for a in range(len(self.species))
            ]
        data = self.species_data_batch(G_D[None], G_K[None])
        return [self._scatter.matrix(data[a, 0]) for a in range(len(self.species))]

    @property
    def scatter_map(self):
        """The cached element→CSR scatter structure (``None`` when
        structure caching is off)."""
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
            if self._scatter is not None:
                self._mass = self._scatter_for_build().assemble(
                    element_mass_blocks(self.fs)
                )
            else:
                self._mass = assemble_mass(self.fs)
        return self._mass

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"LandauOperator(S={len(self.species)}, N={self.N}, "
            f"cached={self.pair_tables_cached})"
        )
