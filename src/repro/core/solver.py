"""Implicit time advance of the collision operator with a quasi-Newton solve.

The full linearization of the Landau operator is dense; as in the paper the
practical approximate Jacobian freezes ``D`` and ``K`` at the current state,
making the operator *linear in each species* per iteration (section III):

    (M - dt L_s(f^k) + dt a_s A) f_s^{k+1} = M f_s^n + dt b_s

with the z-advection operator ``A`` (E-field acceleration,
``a_s = z_s E~ / m_s``) and source projection ``b_s``.  The iteration is a
quasi-Newton / Picard scheme that converges linearly, is robust, and matches
the production solver in XGC.  The per-species blocks are independent — the
multi-species Jacobian is block diagonal — which the linear solver exploits.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from ..fem.assembly import assemble_z_advection
from .operator import LandauOperator


@dataclass
class NewtonStats:
    """Work counters — the throughput figure of merit is Newton iterations.

    Besides the raw work counters, the stats record the assembly fast
    path's activity (``structure_reuses`` counts matrix builds served by
    the cached scatter structure) and the resilience layer's:
    ``step_rejections``/``dt_backoffs`` count retried steps and
    ``events`` is a log of structured ``{"kind": ..., ...}`` dicts
    (rejections, checkpoints).

    ``events`` and ``residual_history`` are *bounded rings*: long quench
    runs merge thousands of substep stats, so only the most recent
    ``max_events``/``max_residuals`` entries are kept and
    ``events_dropped``/``residuals_dropped`` count the evicted ones.
    """

    time_steps: int = 0
    newton_iterations: int = 0
    jacobian_builds: int = 0
    factorizations: int = 0
    solves: int = 0
    converged_last: bool = True
    residual_history: list = field(default_factory=list)
    step_rejections: int = 0
    dt_backoffs: int = 0
    events: list = field(default_factory=list)
    structure_reuses: int = 0
    max_events: int = 256
    max_residuals: int = 512
    events_dropped: int = 0
    residuals_dropped: int = 0

    def _trim(self) -> None:
        excess = len(self.events) - self.max_events
        if excess > 0:
            del self.events[:excess]
            self.events_dropped += excess
        excess = len(self.residual_history) - self.max_residuals
        if excess > 0:
            del self.residual_history[:excess]
            self.residuals_dropped += excess

    def record_event(self, kind: str, **info) -> None:
        self.events.append({"kind": kind, **info})
        self._trim()

    def record_residual(self, value: float) -> None:
        self.residual_history.append(value)
        self._trim()

    def merge(self, other: "NewtonStats") -> None:
        self.time_steps += other.time_steps
        self.newton_iterations += other.newton_iterations
        self.jacobian_builds += other.jacobian_builds
        self.factorizations += other.factorizations
        self.solves += other.solves
        self.converged_last = self.converged_last and other.converged_last
        self.residual_history.extend(other.residual_history)
        self.step_rejections += other.step_rejections
        self.dt_backoffs += other.dt_backoffs
        self.structure_reuses += other.structure_reuses
        self.events.extend(other.events)
        self.events_dropped += other.events_dropped
        self.residuals_dropped += other.residuals_dropped
        self._trim()


def _splu_factory(A: sp.csr_matrix) -> Callable[[np.ndarray], np.ndarray]:
    lu = spla.splu(A.tocsc())
    return lu.solve


class ImplicitLandauSolver:
    """Backward-Euler integrator for eq. (1) on one grid.

    Parameters
    ----------
    operator:
        the Landau collision operator (holds the species and the space).
    linear_solver:
        ``"splu"`` (scipy sparse LU) or ``"band"`` (the custom RCM band
        solver of section III-G), or a ``factory(A) -> solve(b)`` callable.
    rtol, atol, max_newton:
        quasi-Newton stopping controls (``rtol > 0``, ``max_newton >= 1``).
    """

    def __init__(
        self,
        operator: LandauOperator,
        linear_solver: str | Callable = "splu",
        rtol: float = 1e-9,
        atol: float = 1e-14,
        max_newton: int = 50,
    ):
        if rtol <= 0:
            raise ValueError(f"rtol must be positive, got {rtol}")
        if max_newton < 1:
            raise ValueError(f"max_newton must be >= 1, got {max_newton}")
        self.op = operator
        self.fs = operator.fs
        self.species = operator.species
        self.rtol = float(rtol)
        self.atol = float(atol)
        self.max_newton = int(max_newton)
        self.stats = NewtonStats()
        self._last_step_newton = 0

        if callable(linear_solver):
            self._factor = linear_solver
        elif linear_solver == "splu":
            self._factor = _splu_factory
        elif linear_solver == "band":
            # reuse the RCM ordering and band symbolic setup between
            # refactorizations — the Jacobian sparsity is fixed
            from ..sparse.band import CachedBandSolverFactory

            self._factor = CachedBandSolverFactory()
        else:
            raise ValueError(
                f"unknown linear solver {linear_solver!r}: expected 'splu', "
                "'band' or a factory(A) -> solve(b) callable"
            )

        self.M = operator.mass_matrix
        self._A_adv: sp.csr_matrix | None = None

    @property
    def advection(self) -> sp.csr_matrix:
        if self._A_adv is None:
            self._A_adv = assemble_z_advection(self.fs)
        return self._A_adv

    # ------------------------------------------------------------------
    def step(
        self,
        fields: list[np.ndarray],
        dt: float,
        efield: float = 0.0,
        sources: list[np.ndarray] | None = None,
    ) -> list[np.ndarray]:
        """Advance all species by one implicit step of size ``dt``.

        ``sources`` optionally holds per-species weak-form source vectors
        ``b_s = (psi, S_s)`` (already reduced to free dofs).
        """
        if dt <= 0:
            raise ValueError(f"dt must be positive, got {dt}")
        S = len(self.species)
        if len(fields) != S:
            raise ValueError(f"expected {S} fields, got {len(fields)}")
        fn = [np.asarray(x, dtype=float) for x in fields]
        fk = [x.copy() for x in fn]
        M = self.M
        A = self.advection if efield != 0.0 else None

        step_stats = NewtonStats(time_steps=1)
        op_counters0 = dict(getattr(self.op, "counters", {}))
        norms0 = [max(np.linalg.norm(x), self.atol) for x in fn]
        converged = False
        for _it in range(self.max_newton):
            L = self.op.jacobian(fk)
            step_stats.jacobian_builds += 1
            step_stats.newton_iterations += 1
            delta = 0.0
            fk1 = []
            for s_idx, s in enumerate(self.species):
                lhs = M - dt * L[s_idx]
                rhs = M @ fn[s_idx]
                if A is not None:
                    a_s = s.charge * efield / s.mass
                    lhs = lhs + dt * a_s * A
                if sources is not None and sources[s_idx] is not None:
                    rhs = rhs + dt * sources[s_idx]
                solve = self._factor(lhs.tocsr())
                step_stats.factorizations += 1
                x = solve(rhs)
                step_stats.solves += 1
                # np.maximum, not max(): max(0.0, nan) is 0.0, which
                # would report a NaN solve as converged
                delta = float(np.maximum(
                    delta, np.linalg.norm(x - fk[s_idx]) / norms0[s_idx]
                ))
                fk1.append(x)
            fk = fk1
            step_stats.record_residual(delta)
            if not np.isfinite(delta):
                # a NaN/Inf residual never recovers under a stationary
                # iteration — stop burning Newton iterations and let the
                # caller's guard/controller handle the rejection
                break
            if delta < self.rtol:
                converged = True
                break
        step_stats.converged_last = converged
        op_counters = getattr(self.op, "counters", {})
        step_stats.structure_reuses = op_counters.get(
            "structure_reuses", 0
        ) - op_counters0.get("structure_reuses", 0)
        self.stats.merge(step_stats)
        # the long-lived stats expose the *last* step's convergence state
        # and residual trace (merge ANDs/extends, which is right for
        # combining sibling stats but not for "how did the last step go")
        self.stats.converged_last = converged
        self.stats.residual_history = step_stats.residual_history
        self._last_step_newton = step_stats.newton_iterations
        return fk

    # ------------------------------------------------------------------
    def integrate(
        self,
        fields: list[np.ndarray],
        dt: float,
        nsteps: int,
        efield: float = 0.0,
        sources: list[np.ndarray] | None = None,
        callback: Callable | None = None,
    ) -> list[np.ndarray]:
        """Run ``nsteps`` implicit steps; ``callback(step, t, fields)``."""
        f = [np.asarray(x, dtype=float) for x in fields]
        for k in range(nsteps):
            f = self.step(f, dt, efield=efield, sources=sources)
            if callback is not None:
                callback(k + 1, (k + 1) * dt, f)
        return f

    # ------------------------------------------------------------------
    def advance(
        self,
        fields: list[np.ndarray],
        t_final: float,
        controller,
        *,
        t0: float = 0.0,
        efield: float = 0.0,
        sources: list[np.ndarray] | None = None,
        guard=None,
        callback: Callable | None = None,
    ) -> tuple[list[np.ndarray], float]:
        """Advance from ``t0`` to ``t_final`` with adaptive retry/backoff.

        The resilient replacement for a fixed-``dt`` loop: each substep
        takes the controller's current ``dt`` (clipped to land exactly on
        ``t_final``); on quasi-Newton non-convergence, a tripped
        :class:`~repro.resilience.guards.StepGuard`, or a recoverable
        linear-algebra failure, the pre-step state is restored, the
        controller backs ``dt`` off (``controller.on_reject``, which
        raises :class:`~repro.resilience.exceptions.SolveFailure` once its
        budget is spent) and the substep is retried.  After a streak of
        easy accepts the controller re-grows ``dt``.

        Parameters
        ----------
        controller:
            a :class:`repro.resilience.controller.TimeStepController`.
        guard:
            optional :class:`repro.resilience.guards.StepGuard`; checked
            on every accepted substep.
        callback:
            ``callback(t, fields)`` after each accepted substep.

        Returns the advanced fields and the reached time (``== t_final``).
        """
        from ..resilience.exceptions import RECOVERABLE_ERRORS, StepRejected

        f = [np.asarray(x, dtype=float) for x in fields]
        t = float(t0)
        span = abs(t_final - t0)
        eps = 1e-12 * max(1.0, span, abs(t_final))
        while t < t_final - eps:
            dt = min(controller.dt, t_final - t)
            reference = guard.reference(f) if guard is not None else None
            try:
                f_new = self.step(f, dt, efield=efield, sources=sources)
                if not self.stats.converged_last:
                    raise StepRejected(
                        "quasi-Newton iteration did not converge",
                        diagnostics={
                            "dt": dt,
                            "t": t,
                            "newton_iterations": self._last_step_newton,
                            "residual": (
                                self.stats.residual_history[-1]
                                if self.stats.residual_history
                                else None
                            ),
                        },
                    )
                if guard is not None:
                    guard.check(
                        f_new,
                        reference,
                        dt=dt,
                        efield=efield,
                        has_sources=sources is not None,
                    )
            except RECOVERABLE_ERRORS as err:
                self.stats.step_rejections += 1
                diag = getattr(err, "diagnostics", {})
                self.stats.record_event(
                    "step_rejected",
                    t=t,
                    dt=dt,
                    reason=f"{type(err).__name__}: {err}",
                    **{k: v for k, v in diag.items() if k in ("guard", "species")},
                )
                controller.on_reject(reason=type(err).__name__)
                self.stats.dt_backoffs += 1
                continue
            t += dt
            f = f_new
            controller.on_accept(self._last_step_newton)
            if callback is not None:
                callback(t, f)
        return f, t
