"""Batched vertex solves (the paper's §VI "future work", and the batched
LU data in the artifact repository).

In an operator-split kinetic application every configuration-space vertex
advances its own collision problem on the same velocity mesh with the same
species — thousands of independent solves per GPU.  The paper's harness
dispatches them asynchronously from MPI ranks; the conclusion proposes
*batching* them instead, "to reduce the number of kernel launches".

:class:`BatchedVertexSolver` implements that: one quasi-Newton sweep
advances all B vertex states together.  The field-response tables are
shared (they depend only on the mesh) and the G-field computation becomes
two dense matrix-matrix products over the batch instead of B
matrix-vector products.

**Factor once per step.**  The paper wrote its own band LU (§III-G)
because the factorization dominated once the kernel was fast; the
follow-up (arXiv 2209.03228) assembles once, keeps the factors resident
and solves many times behind a cheap preconditioner.  A step here does
the same.  Sweep 0 assembles and factors ``A0 = M - dt L(f^n)`` per
(vertex, species) — two batched einsum contractions plus two sparse
matmuls through the cached scatter structure, then one shared-symbolic
batched band LU (:class:`~repro.sparse.band.CachedBandSolverFactory`),
done in vertex blocks straight into preallocated factor slots.  On Q3
and higher spaces that LU sees only the cell skeleton: each cell's
interior dofs, which couple to nothing outside the cell, are statically
condensed out at factor time and back-substituted in every solve.  Every
sweep then evaluates the backward-Euler residual

    r = M (f^n - f_k) + dt C(f_k)[f_k]

*matrix-free* (:meth:`LandauOperator.action_batch`: the flux at the
integration points and one sparse product — nothing is assembled or
factored) and takes the chord update ``g = f_k + A0^-1 r``; at sweep 0,
where ``f_k = f^n``, that is the Picard update ``A0^-1 M f^n``.  The fixed
point is ``r = 0``, the state Picard converges to; the lagged factors
only set the path to it.  Measured, the chord iteration tracks Picard sweep
for sweep (identical counts without mixing, within one sweep with it on
``tests/test_factor_once.py``'s matrix up to 10x the benchmark's dt), so
there is no inner Krylov iteration and no periodic refresh: a factor is
rebuilt only by a per-vertex **divergence guard**, when that vertex's own
update norm is back at the norm of the first update those factors
produced — no net contraction since they were built (counted in
``BatchStats.refactorizations``; zero on every tracked workload).  The
convergence test and the optional per-vertex Anderson mixing
(``accel_m``) are applied to ``g`` exactly as they would be to a Picard
image.  :class:`~repro.core.solver.ImplicitLandauSolver` deliberately
stays plain Picard with a fresh factorization per iteration: it
is the independent oracle the tests, the benchmark's correctness gate and
the serve tier's retry path check this iteration against.

The counters expose the effects the paper predicts: launch-equivalents
drop from O(B * iterations) to O(iterations), and factorizations from
O(B * S * iterations) to B * S.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..fem.function_space import FunctionSpace
from ..sparse.band import CachedBandSolverFactory
from .operator import LandauOperator
from .options import AssemblyOptions
from .species import SpeciesSet

#: vertices assembled and factored per block at sweep 0: bounds the
#: assembly temporaries (element blocks, CSR data rows, lhs) to O(block)
#: instead of O(batch) — 2 MB instead of 12 MB at B = 64 on the Q3 mesh,
#: below the later sweeps' field temporaries, so smaller buys nothing —
#: while the einsum contractions stay large enough to plan well
FACTOR_BLOCK = 8

#: interior nodes per cell from which the step factors statically
#: condensed systems (Q3 and up): at Q3 the 80 interior dofs of the
#: 193-dof electron mesh leave a 113-dof skeleton; Q2's one interior
#: node per cell saves less than the per-cell block work costs
CONDENSE_MIN_INTERIOR = 4


@dataclass
class BatchStats:
    """Work accounting for the batched advance.

    ``equivalent_unbatched_launches`` counts, per sweep, the *active*
    (not yet converged) vertices a per-vertex dispatcher would have
    launched a field computation for; ``field_launches`` counts the
    batched launches actually issued.  ``factorizations`` is one per
    (vertex, species) per step plus ``refactorizations``, the rebuilds
    forced by the divergence guard.  ``symbolic_setups`` /
    ``symbolic_reuses`` record the band solver's symbolic work: one RCM /
    scatter setup serves every factorization.  ``accelerated_sweeps``
    counts sweeps that applied Anderson mixing on top of the plain update.
    """

    vertices: int = 0
    newton_sweeps: int = 0
    field_launches: int = 0  # batched G-field computations
    factorizations: int = 0
    refactorizations: int = 0
    equivalent_unbatched_launches: int = 0
    symbolic_setups: int = 0
    symbolic_reuses: int = 0
    accelerated_sweeps: int = 0

    @property
    def launch_reduction(self) -> float:
        # no launches (e.g. a batch fully shed before work started) means
        # no reduction to report, not a 0/0
        if self.field_launches == 0:
            return 0.0
        return self.equivalent_unbatched_launches / self.field_launches


def _update_norm(g: np.ndarray, f: np.ndarray, norms: np.ndarray) -> np.ndarray:
    """Per-vertex convergence measure ``max_s |g_s - f_s| / |f^n|``."""
    return np.linalg.norm(g - f, axis=2).max(axis=1) / norms


class BatchedVertexSolver:
    """Advance many independent vertex states through one implicit step.

    Parameters
    ----------
    fs, species:
        shared velocity mesh and species set.
    nu0:
        collision prefactor.
    rtol, max_newton:
        per-vertex quasi-Newton controls (``rtol > 0``,
        ``max_newton >= 1``); vertices that converge early are
        frozen (masked out of subsequent sweeps), mirroring warp-level
        early exit.
    accel_m:
        Anderson mixing depth for the sweeps (``0`` disables; the
        default ``2`` roughly halves the sweep count at identical fixed
        points — each vertex mixes its own flattened ``(S, ndofs)`` state).
    options:
        assembly configuration of the shared operator (table caching,
        memory budget).

    After each :meth:`step`, ``last_converged`` holds the per-vertex
    convergence mask and ``last_sweeps`` the sweep count at which each
    vertex froze (callers route non-converged vertices through the
    resilience retry path instead of failing the whole batch).
    """

    def __init__(
        self,
        fs: FunctionSpace,
        species: SpeciesSet,
        nu0: float = 1.0,
        rtol: float = 1e-8,
        max_newton: int = 50,
        accel_m: int = 2,
        options: AssemblyOptions | None = None,
    ):
        if rtol <= 0:
            raise ValueError(f"rtol must be positive, got {rtol}")
        if max_newton < 1:
            raise ValueError(f"max_newton must be >= 1, got {max_newton}")
        if accel_m < 0:
            raise ValueError(f"accel_m must be >= 0, got {accel_m}")
        self.fs = fs
        self.species = species
        self.op = LandauOperator(fs, species, nu0=nu0, options=options)
        self.rtol = float(rtol)
        self.max_newton = int(max_newton)
        self.accel_m = int(accel_m)
        # one symbolic band setup serves every (species, vertex)
        # factorization — the pattern never changes
        self._factory = CachedBandSolverFactory()
        self.stats = BatchStats()
        self.last_converged: np.ndarray | None = None
        self.last_sweeps: np.ndarray | None = None

    # ------------------------------------------------------------------
    def _factor(self, resident, rows: np.ndarray, G_D, G_K, dt: float):
        """(Re)build the factors of ``A = M - dt L(G)`` for the vertices
        ``rows`` (``G_D``/``G_K`` hold those vertices' fields, in order)
        inside the step's resident factor state, which is returned;
        ``resident=None`` allocates it, with ``rows`` naming every vertex
        of the batch.

        The systems are assembled
        (:meth:`LandauOperator.species_data_batch`) and factored in
        vertex blocks straight into the preallocated slots of the
        shared-symbolic batched band LU, so assembly temporaries are
        O(block) and the factors are the only O(batch) state; with at
        least :data:`CONDENSE_MIN_INTERIOR` interior nodes per cell the
        interiors are condensed out and only the skeleton is factored
        (a refill replaces a slot's interior blocks with it).
        """
        op = self.op
        M = op.mass_matrix
        S = len(self.species)
        self.stats.factorizations += S * rows.size
        capacity = S * rows.size
        species = np.arange(S)[:, None]
        interior = op.scatter_map.interior
        if interior.shape[1] < CONDENSE_MIN_INTERIOR:
            interior = None
        for k0 in range(0, rows.size, FACTOR_BLOCK):
            blk = slice(k0, k0 + FACTOR_BLOCK)
            data = op.species_data_batch(G_D[blk], G_K[blk])  # (S, xb, nnz)
            # shared pattern: lhs data rows are M.data - dt * L.data directly
            lhs = M.data[None, None, :] - dt * data
            resident = self._factory.factor_batch(
                M,
                lhs.reshape(-1, lhs.shape[2]),
                into=resident,
                rows=(rows[blk] * S + species).ravel(),
                capacity=capacity,
                interior=interior,
            )
        return resident

    def _solve(self, resident, rows: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        """``A_x^-1 rhs[k]`` per species for the vertices ``x = rows[k]``
        against their resident factors; ``rhs`` and the result are
        ``(len(rows), S, n)``."""
        S = len(self.species)
        slots = (rows[:, None] * S + np.arange(S)).ravel()
        return resident.solve_many(
            rhs.reshape(slots.size, -1), rows=slots
        ).reshape(rhs.shape)

    # ------------------------------------------------------------------
    def step(self, states: np.ndarray, dt: float) -> np.ndarray:
        """One backward-Euler step for every vertex.

        Parameters
        ----------
        states:
            ``(B, S, ndofs)`` batch of per-vertex, per-species coefficients.
        dt:
            time step (shared across the batch, as in a split application).
        """
        states = np.asarray(states, dtype=float)
        if states.ndim != 3 or states.shape[1] != len(self.species):
            raise ValueError(
                f"states must be (B, {len(self.species)}, ndofs); got {states.shape}"
            )
        if dt <= 0:
            raise ValueError(f"dt must be positive, got {dt}")
        B, S, n = states.shape
        op = self.op
        M = op.mass_matrix
        fk = states.copy()
        idx = np.arange(B)  # the still-active vertices
        converged = np.zeros(B, dtype=bool)
        sweeps_at = np.full(B, self.max_newton, dtype=int)
        norms = np.maximum(np.linalg.norm(states, axis=(1, 2)), 1e-300)
        # divergence-guard reference per vertex: the norm of the first
        # update its current factors produced
        first_delta = np.full(B, np.inf)

        sym0_setups = self._factory.symbolic_setups
        sym0_reuses = self._factory.symbolic_reuses
        self.stats.vertices += B
        resident = None  # every (vertex, species) LU, alive for this step
        # Anderson history rings: images g and residuals g - f of the last
        # accel_m + 1 sweeps; only still-active rows are written or read
        depth = self.accel_m + 1 if self.accel_m > 0 else 0
        hist_g = np.empty((depth, B, S * n))
        hist_r = np.empty((depth, B, S * n))
        ring: list[int] = []  # history slots in use, oldest first
        sweeps = 0
        while sweeps < self.max_newton:
            sweeps += 1
            # frozen vertices are sliced out *before* the field launch —
            # the early-exit mask saves their G_D/G_K recomputation too
            f_act = fk[idx]
            values = op.point_values_batch(f_act)
            G_D, G_K = op.fields_batch(f_act, values)
            self.stats.field_launches += 1
            self.stats.equivalent_unbatched_launches += int(idx.size)
            if sweeps == 1:
                resident = self._factor(None, idx, G_D, G_K, dt)  # A0, f_k = f^n
            # chord update: the exact backward-Euler residual, evaluated
            # matrix-free, corrected through the resident (lagged) factors
            res = (M @ (states[idx] - f_act).reshape(-1, n).T).T.reshape(
                f_act.shape
            ) + dt * op.action_batch(G_D, G_K, *values)
            g = f_act + self._solve(resident, idx, res)
            delta = _update_norm(g, f_act, norms[idx])
            done = delta < self.rtol

            # divergence guard: a vertex whose update norm is back at (or
            # above) that of the first update its current factors produced
            # has made no net progress with them.  Its factors are rebuilt
            # at its current iterate and its update redone from them — a
            # Picard step.  (Sweep-to-sweep growth is no signal: mixed
            # iterates legitimately bump the norm for a few sweeps.)
            stalled = np.nonzero(~done & (delta >= first_delta[idx]))[0]
            if stalled.size:
                rows = idx[stalled]
                self._factor(resident, rows, G_D[stalled], G_K[stalled], dt)
                self.stats.refactorizations += S * stalled.size
                g[stalled] = f_act[stalled] + self._solve(
                    resident, rows, res[stalled]
                )
                delta[stalled] = _update_norm(
                    g[stalled], f_act[stalled], norms[rows]
                )
                done = delta < self.rtol
            rebuilt = slice(None) if sweeps == 1 else stalled
            first_delta[idx[rebuilt]] = delta[rebuilt]

            just = idx[done]
            converged[just] = True
            sweeps_at[just] = sweeps
            fk[just] = g[done]
            idx = idx[~done]
            if idx.size == 0:
                break
            g = g[~done].reshape(idx.size, -1)
            if depth:
                slot = (sweeps - 1) % depth
                hist_g[slot, idx] = g
                hist_r[slot, idx] = g - f_act[~done].reshape(idx.size, -1)
                ring = (ring + [slot])[-depth:]
                pick = np.ix_(ring, idx)
                mixed = self._anderson_mix(hist_g[pick], hist_r[pick])
                if mixed is not None:
                    g = mixed
                    self.stats.accelerated_sweeps += 1
            fk[idx] = g.reshape(idx.size, S, n)
        self.stats.newton_sweeps += sweeps
        self.stats.symbolic_setups += self._factory.symbolic_setups - sym0_setups
        self.stats.symbolic_reuses += self._factory.symbolic_reuses - sym0_reuses
        self.last_converged = converged
        self.last_sweeps = sweeps_at
        return fk

    # ------------------------------------------------------------------
    @staticmethod
    def _anderson_mix(G: np.ndarray, R: np.ndarray) -> np.ndarray | None:
        """Per-vertex Anderson(m) mixing of the fixed-point iteration.

        ``G`` and ``R`` are the chronological history ``(m + 1, X, D)``
        of the images ``g(f_j)`` and residuals ``g(f_j) - f_j`` of the
        ``X`` active vertices.  Each vertex solves its own tiny
        least-squares problem (normal equations over the residual
        differences) for the mixing weights; returns the mixed iterates
        ``(X, D)`` or ``None`` when there is no usable history yet
        (callers then take the plain update).  Ill-conditioned or
        non-finite mixes fall back to the plain update row-wise —
        acceleration never changes the fixed point, only the path to it.
        """
        mk = G.shape[0] - 1
        if mk < 1:
            return None
        dR = R[1:] - R[:-1]  # (mk, X, D)
        dG = G[1:] - G[:-1]
        gram = np.einsum("iad,jad->aij", dR, dR)
        rhs = np.einsum("iad,ad->ai", dR, R[-1])
        # Tikhonov guard keeps near-singular Gram matrices solvable
        trace = np.trace(gram, axis1=1, axis2=2)
        reg = 1e-14 * np.maximum(trace, 1e-300)
        gram = gram + reg[:, None, None] * np.eye(mk)
        try:
            theta = np.linalg.solve(gram, rhs[..., None])[..., 0]
        except np.linalg.LinAlgError:
            return None
        mixed = G[-1] - np.einsum("ai,iad->ad", theta, dG)
        bad = ~np.isfinite(mixed).all(axis=1)
        if bad.any():
            mixed[bad] = G[-1][bad]
        return mixed
