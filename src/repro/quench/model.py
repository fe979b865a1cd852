"""The thermal quench driver (section IV-C) and the Spitzer verification run.

The model is a velocity-space Vlasov-Poisson-Landau system for electrons
plus ions under a parallel electric field:

* **Phase 1 (current ramp).**  A fixed field ``E = E0`` (e.g. 0.5 E_c)
  accelerates electrons against collisional friction; the current ``J``
  asymptotes to a quasi-equilibrium.  ``eta = E / J`` there is the
  computed resistivity (the Fig. 4 verification quantity).
* **Phase 2 (quasi-equilibrium).**  Once ``dJ/dt`` is small the driver
  switches to ``E <- eta_Spitzer(T_e) * J``, holding the plasma in Ohmic
  balance.
* **Phase 3 (quench).**  A pulse of cold plasma is injected; ``T_e``
  collapses, Spitzer ``eta`` rises, hence ``E`` rises and accelerates the
  remaining hot electrons — the seed-runaway mechanism the paper shows in
  Fig. 5.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields as dataclass_fields

import numpy as np

from ..amr import landau_mesh
from ..fem.function_space import FunctionSpace
from ..units import DEFAULT_UNITS, UnitSystem
from ..core.maxwellian import species_maxwellian
from ..core.moments import Moments
from ..core.operator import LandauOperator
from ..core.options import AssemblyOptions
from ..core.solver import ImplicitLandauSolver
from ..core.species import Species, SpeciesSet, electron
from ..resilience import (
    CheckpointError,
    GuardConfig,
    StepGuard,
    TimeStepController,
    load_checkpoint,
    save_checkpoint,
)
from .runaway import connor_hastie_field_code
from .source import ColdPlasmaSource
from .spitzer import spitzer_eta_code


def _validate_stepping(dt: float, max_steps: int, label: str) -> None:
    if not (np.isfinite(dt) and dt > 0):
        raise ValueError(f"{label}: dt must be positive and finite, got {dt}")
    if int(max_steps) != max_steps or max_steps < 1:
        raise ValueError(f"{label}: max_steps must be a positive integer, got {max_steps}")


@dataclass(frozen=True)
class QuenchParameters:
    """The scenario knobs of the §IV-C quench, lifted out of the driver.

    One frozen dataclass holds everything that distinguishes two quench
    scenarios on the same mesh: the ion charge, the drive strength, the
    cold-plasma injection pulse, Maxwellian-parameter perturbations of
    the initial condition, and a drifted runaway-electron seed
    population.  Both the single-run :class:`ThermalQuenchModel` and the
    ensemble sampler (:mod:`repro.ensemble.sampling`) accept it, so a
    sampled scenario can be replayed through the full Fig.-5 driver
    unchanged.

    Validation names the offending field — a campaign of hundreds of
    sampled members must fail with ``QuenchParameters.injection_duration
    must be positive`` rather than a bare ``ValueError``.
    """

    #: fully stripped main-ion charge (hydrogenic A ~ 2Z chain)
    Z: float = 1.0
    #: initial parallel field in units of the Connor-Hastie critical field
    E0_over_Ec: float = 0.5
    #: total injected electron density in units of the initial density
    injection_total: float = 5.0
    #: delay of the cold pulse after the quench phase begins (code time)
    injection_start: float = 0.0
    #: cold-pulse duration (code time)
    injection_duration: float = 10.0
    #: injected-population temperature in units of T0
    cold_temperature: float = 0.15
    #: multiplies the initial electron (and quasineutral ion) density
    density_factor: float = 1.0
    #: multiplies the initial temperature of every species
    temperature_factor: float = 1.0
    #: fraction of the initial electron density seeded as a drifted tail
    runaway_seed_fraction: float = 0.0
    #: seed-tail drift in units of the electron thermal velocity
    runaway_seed_drift: float = 2.0

    def __post_init__(self):
        rules = (
            ("Z", self.Z, self.Z >= 1.0, "must be >= 1"),
            (
                "E0_over_Ec",
                self.E0_over_Ec,
                self.E0_over_Ec >= 0.0,
                "must be non-negative",
            ),
            (
                "injection_total",
                self.injection_total,
                self.injection_total >= 0.0,
                "must be non-negative",
            ),
            (
                "injection_start",
                self.injection_start,
                self.injection_start >= 0.0,
                "must be non-negative",
            ),
            (
                "injection_duration",
                self.injection_duration,
                self.injection_duration > 0.0,
                "must be positive",
            ),
            (
                "cold_temperature",
                self.cold_temperature,
                self.cold_temperature > 0.0,
                "must be positive",
            ),
            (
                "density_factor",
                self.density_factor,
                self.density_factor > 0.0,
                "must be positive",
            ),
            (
                "temperature_factor",
                self.temperature_factor,
                self.temperature_factor > 0.0,
                "must be positive",
            ),
            (
                "runaway_seed_fraction",
                self.runaway_seed_fraction,
                0.0 <= self.runaway_seed_fraction < 1.0,
                "must be in [0, 1)",
            ),
            (
                "runaway_seed_drift",
                self.runaway_seed_drift,
                True,
                "must be finite",
            ),
        )
        for name, value, ok, requirement in rules:
            if not (np.isfinite(value) and ok):
                raise ValueError(
                    f"QuenchParameters.{name} {requirement}, got {value}"
                )

    # ------------------------------------------------------------------
    def species(self) -> SpeciesSet:
        """Electron + ion(Z) species set with the perturbation factors
        applied (quasineutral by construction)."""
        ion = _ion_for_Z(self.Z)
        ion = Species(
            ion.name,
            charge=ion.charge,
            mass=ion.mass,
            density=ion.density * self.density_factor,
            temperature=ion.temperature * self.temperature_factor,
        )
        return SpeciesSet(
            [
                electron(
                    density=self.Z * ion.density,
                    temperature=self.temperature_factor,
                ),
                ion,
            ]
        )

    def source(self, species: SpeciesSet) -> ColdPlasmaSource:
        """The scenario's cold-plasma pulse (``t_start`` is anchored by
        the driver when the quench phase begins)."""
        return ColdPlasmaSource(
            species,
            total_injected=self.injection_total,
            duration=self.injection_duration,
            cold_temperature=self.cold_temperature,
        )

    def initial_fields(self, fs, species: SpeciesSet) -> list[np.ndarray]:
        """Per-species initial coefficients: Maxwellians at the perturbed
        parameters, with ``runaway_seed_fraction`` of the electron
        density moved into a tail drifting at ``runaway_seed_drift``
        thermal velocities (the seed population the quench accelerates)."""
        from ..core.maxwellian import shifted_maxwellian_rz

        fields = []
        for idx, s in enumerate(species):
            frac = self.runaway_seed_fraction if idx == 0 else 0.0
            if frac == 0.0:
                fields.append(fs.interpolate(species_maxwellian(s)))
                continue
            vth, n = s.thermal_velocity, s.density
            drift = self.runaway_seed_drift * vth

            def f(r, z):
                bulk = shifted_maxwellian_rz(r, z, (1.0 - frac) * n, vth)
                tail = shifted_maxwellian_rz(r, z, frac * n, vth, drift)
                return bulk + tail

            fields.append(fs.interpolate(f))
        return fields

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-able image (stable field order; content-hash input)."""
        return {
            f.name: float(getattr(self, f.name))
            for f in sorted(dataclass_fields(self), key=lambda f: f.name)
        }

    @classmethod
    def from_dict(cls, data: dict) -> "QuenchParameters":
        return cls(**{k: float(v) for k, v in data.items()})

    def content_key(self) -> str:
        """Stable content hash — the scenario's cache/checkpoint identity."""
        import hashlib
        import json

        blob = json.dumps(self.to_dict(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()


@dataclass
class QuenchHistory:
    """Time series of the Fig. 5 profile quantities."""

    t: list[float] = field(default_factory=list)
    n_e: list[float] = field(default_factory=list)
    J: list[float] = field(default_factory=list)
    E: list[float] = field(default_factory=list)
    T_e: list[float] = field(default_factory=list)
    phase: list[str] = field(default_factory=list)

    def record(self, t, n_e, J, E, T_e, phase) -> None:
        self.t.append(float(t))
        self.n_e.append(float(n_e))
        self.J.append(float(J))
        self.E.append(float(E))
        self.T_e.append(float(T_e))
        self.phase.append(phase)

    def as_arrays(self) -> dict[str, np.ndarray]:
        return {
            "t": np.array(self.t),
            "n_e": np.array(self.n_e),
            "J": np.array(self.J),
            "E": np.array(self.E),
            "T_e": np.array(self.T_e),
        }


def _ion_for_Z(Z: float) -> Species:
    """A fully stripped ion of charge Z (A ~ 2Z hydrogenic-like chain)."""
    from ..core.species import deuterium, hydrogenic

    if Z == 1.0:
        return deuterium(density=1.0)
    return hydrogenic(Z, density=1.0 / Z)


def measure_resistivity(
    Z: float = 1.0,
    efield: float = 0.02,
    dt: float = 0.5,
    max_steps: int = 60,
    settle_tol: float = 0.003,
    order: int = 3,
    mesh_kwargs: dict | None = None,
    units: UnitSystem = DEFAULT_UNITS,
    rtol: float = 1e-6,
    linear_solver="splu",
    max_newton: int = 50,
    controller: TimeStepController | None = None,
    guard: StepGuard | GuardConfig | bool = True,
    assembly_options: "AssemblyOptions | None" = None,
) -> dict:
    """Run an e + ion(Z) plasma to quasi-equilibrium; return eta = E/J.

    The Fig. 4 experiment: computed resistivity vs the Spitzer value as a
    function of the ion charge Z.  ``settle_tol`` is the relative change of
    J over a step below which the current is called quasi-steady.

    The run is resilient by default: every settle step is advanced by the
    adaptive retry/backoff loop of
    :meth:`~repro.core.solver.ImplicitLandauSolver.advance` under a
    :class:`~repro.resilience.guards.StepGuard` (density conservation,
    finiteness, positivity — momentum/energy are driven by the field and
    therefore not checked).  ``linear_solver`` accepts the usual plugs
    (``"splu"``, ``"band"`` or a ``factory(A) -> solve(b)`` callable,
    e.g. a fault-injected one), so the whole recovery stack can be
    exercised on this ramp.
    """
    _validate_stepping(dt, max_steps, "measure_resistivity")
    if not np.isfinite(efield):
        raise ValueError(f"measure_resistivity: efield must be finite, got {efield}")
    if not (np.isfinite(settle_tol) and settle_tol > 0):
        raise ValueError(
            f"measure_resistivity: settle_tol must be positive, got {settle_tol}"
        )
    ion = _ion_for_Z(Z)
    spc = SpeciesSet([electron(density=Z * ion.density), ion])
    mesh = landau_mesh(
        [s.thermal_velocity for s in spc], **(mesh_kwargs or {})
    )
    fs = FunctionSpace(mesh, order=order)
    op = LandauOperator(fs, spc, options=assembly_options)
    solver = ImplicitLandauSolver(
        op, rtol=rtol, linear_solver=linear_solver, max_newton=max_newton
    )
    mom = Moments(fs, spc)
    if guard is True:
        guard = StepGuard(mom)
    elif isinstance(guard, GuardConfig):
        guard = StepGuard(mom, guard)
    elif guard is False:
        guard = None
    controller = controller or TimeStepController(dt_init=dt)
    fields = [fs.interpolate(species_maxwellian(s)) for s in spc]

    J_prev = 0.0
    steps = 0
    t = 0.0
    for _ in range(max_steps):
        fields, t = solver.advance(
            fields, t + dt, controller, t0=t, efield=efield, guard=guard
        )
        steps += 1
        J = mom.current_z(fields)
        if J_prev != 0.0 and abs(J - J_prev) < settle_tol * abs(J):
            J_prev = J
            break
        J_prev = J
    eta = efield / J_prev if J_prev else float("inf")
    eta_sp = spitzer_eta_code(units, mom.electron_temperature(fields), Z)
    return {
        "Z": Z,
        "eta": float(eta),
        "eta_spitzer": float(eta_sp),
        "ratio": float(eta / eta_sp),
        "J": float(J_prev),
        "T_e": float(mom.electron_temperature(fields)),
        "steps": steps,
        "newton_iterations": solver.stats.newton_iterations,
        "step_rejections": solver.stats.step_rejections,
        "dt_backoffs": solver.stats.dt_backoffs,
        "converged_last": bool(solver.stats.converged_last),
        "stats": solver.stats,
    }


class ThermalQuenchModel:
    """The full Fig. 5 experiment driver, with adaptive stepping and
    checkpoint/restart.

    Each macro step of size ``dt`` (the history cadence) is advanced by
    the adaptive retry/backoff loop of
    :meth:`~repro.core.solver.ImplicitLandauSolver.advance`: when the
    quench collapses ``T_e`` and the quasi-Newton iteration stalls, the
    step is retried at half the ``dt`` (down to ``dt_min``) and the step
    size re-grows once the solve gets easy again.  ``run`` can write
    periodic checkpoints and ``resume`` continues a killed run so that the
    completed :class:`QuenchHistory` bitwise-matches an uninterrupted one.
    """

    def __init__(
        self,
        units: UnitSystem = DEFAULT_UNITS,
        Z: float = 1.0,
        E0_over_Ec: float = 0.5,
        order: int = 3,
        dt: float = 0.5,
        settle_tol: float = 0.005,
        source: ColdPlasmaSource | None = None,
        mesh_kwargs: dict | None = None,
        rtol: float = 1e-6,
        linear_solver="splu",
        max_newton: int = 50,
        controller: TimeStepController | None = None,
        guard: StepGuard | GuardConfig | bool = True,
        dt_min: float | None = None,
        assembly_options: "AssemblyOptions | None" = None,
        params: QuenchParameters | None = None,
    ):
        _validate_stepping(dt, 1, "ThermalQuenchModel")
        if params is None:
            # legacy knob path: Z / E0_over_Ec kwargs become the scenario
            params = QuenchParameters(Z=Z, E0_over_Ec=E0_over_Ec)
        elif not isinstance(params, QuenchParameters):
            raise TypeError(
                f"ThermalQuenchModel: params must be QuenchParameters, got {type(params).__name__}"
            )
        else:
            Z, E0_over_Ec = params.Z, params.E0_over_Ec
        if not (np.isfinite(settle_tol) and settle_tol > 0):
            raise ValueError(
                f"ThermalQuenchModel: settle_tol must be positive, got {settle_tol}"
            )
        if int(order) != order or order < 1:
            raise ValueError(f"ThermalQuenchModel: order must be >= 1, got {order}")
        self.units = units
        self.params = params
        self.species = params.species()
        self.source = source or params.source(self.species)
        # the mesh must resolve the *cold injected* electron population as
        # well as the initial Maxwellians, or the collapsed post-quench bulk
        # develops Gibbs oscillations (negative lobes -> unphysical J).
        import math

        cold = [
            math.sqrt(math.pi)
            / 2.0
            * math.sqrt(self.source.cold_temperature / s.mass)
            for s in self.species
        ]
        vths = [s.thermal_velocity for s in self.species] + cold
        kw = {"h_factor": 0.8}
        kw.update(mesh_kwargs or {})
        mesh = landau_mesh(vths, **kw)
        self.fs = FunctionSpace(mesh, order=order)
        self.order = int(order)
        self.op = LandauOperator(self.fs, self.species, options=assembly_options)
        self.solver = ImplicitLandauSolver(
            self.op, rtol=rtol, linear_solver=linear_solver, max_newton=max_newton
        )
        self.moments = Moments(self.fs, self.species)
        self.dt = float(dt)
        self.settle_tol = float(settle_tol)
        self.Z = Z
        self.E_c = connor_hastie_field_code(units, self.species[0].density)
        self.E0 = E0_over_Ec * self.E_c
        self._source_shapes = self.source.shape_vectors(self.fs)
        self.controller = controller or TimeStepController(dt_init=self.dt, dt_min=dt_min)
        if guard is True:
            self.guard = StepGuard(self.moments)
        elif isinstance(guard, GuardConfig):
            self.guard = StepGuard(self.moments, guard)
        elif guard is False:
            self.guard = None
        else:
            self.guard = guard

    # ------------------------------------------------------------------
    def _fingerprint(self) -> dict:
        """Configuration identity stored in checkpoints and validated on
        resume — resuming onto a different mesh/species/dt silently
        produces garbage, so it is refused instead."""
        return {
            "ndofs": int(self.fs.ndofs),
            "n_species": len(self.species),
            "Z": float(self.Z),
            "dt": float(self.dt),
            "order": self.order,
            "params": self.params.content_key(),
        }

    def _advance_macro(self, fields, t, efield, sources=None):
        """One history-cadence step of size ``dt``, adaptively substepped."""
        f, _ = self.solver.advance(
            fields,
            t + self.dt,
            self.controller,
            t0=t,
            efield=efield,
            sources=sources,
            guard=self.guard,
        )
        return f

    # ------------------------------------------------------------------
    def run(
        self,
        ramp_steps: int = 30,
        quench_steps: int = 40,
        post_steps: int = 10,
        *,
        checkpoint_path: str | None = None,
        checkpoint_every: int = 0,
        stop_after: int | None = None,
    ) -> QuenchHistory:
        """Execute the three phases; returns the Fig. 5 history.

        ``checkpoint_path`` + ``checkpoint_every=k`` writes a restartable
        checkpoint (atomically, overwriting) every ``k`` accepted macro
        steps.  ``stop_after=n`` stops the run after ``n`` macro steps —
        writing a final checkpoint when a path is given — and returns the
        partial history; :meth:`resume` picks the run back up.
        """
        for name, v in (("ramp_steps", ramp_steps), ("quench_steps", quench_steps)):
            if v < 1:
                raise ValueError(f"run: {name} must be >= 1, got {v}")
        if post_steps < 0:
            raise ValueError(f"run: post_steps must be >= 0, got {post_steps}")
        hist = QuenchHistory()
        fields = self.params.initial_fields(self.fs, self.species)
        s = self.moments.summary(fields)
        hist.record(0.0, s["n_e"], s["J_z"], self.E0, s["T_e"], "ramp")
        state = {
            "stage": "ramp",
            "k": 0,
            "E": self.E0,
            "J_prev": 0.0,
            "macro_steps": 0,
            "source_t_start": None,
            "ramp_steps": int(ramp_steps),
            "quench_steps": int(quench_steps),
            "post_steps": int(post_steps),
        }
        return self._run_loop(
            fields, 0.0, state, hist, checkpoint_path, checkpoint_every, stop_after
        )

    def resume(
        self,
        checkpoint_path: str,
        *,
        checkpoint_every: int = 0,
        new_checkpoint_path: str | None = None,
        stop_after: int | None = None,
    ) -> QuenchHistory:
        """Continue a checkpointed run to completion.

        The model must be constructed with the same configuration as the
        writer (the checkpoint's fingerprint is validated).  Returns the
        *full* history — the loaded prefix plus the continued steps —
        which bitwise-matches the history of an uninterrupted run.
        """
        ckpt = load_checkpoint(checkpoint_path)
        state = ckpt.extra
        fp = self._fingerprint()
        saved_fp = {k: state.get(k) for k in fp}
        if saved_fp != fp:
            raise CheckpointError(
                "checkpoint belongs to a different model configuration",
                diagnostics={"saved": saved_fp, "current": fp},
            )
        if ckpt.controller_state is not None:
            self.controller.load_state_vector(ckpt.controller_state)
        if state.get("source_t_start") is not None:
            self.source.t_start = state["source_t_start"]
        hist = ckpt.history if ckpt.history is not None else QuenchHistory()
        return self._run_loop(
            ckpt.fields,
            ckpt.t,
            state,
            hist,
            new_checkpoint_path or checkpoint_path,
            checkpoint_every,
            stop_after,
        )

    # ------------------------------------------------------------------
    def _run_loop(
        self,
        fields,
        t,
        state,
        hist,
        checkpoint_path,
        checkpoint_every,
        stop_after,
    ) -> QuenchHistory:
        mom = self.moments
        ramp_steps = state["ramp_steps"]
        quench_steps = state["quench_steps"]
        post_steps = state["post_steps"]
        E = state["E"]
        J_prev = state["J_prev"]
        macro = state["macro_steps"]

        def snapshot(stage: str, k: int) -> dict:
            return {
                "stage": stage,
                "k": int(k),
                "E": float(E),
                "J_prev": float(J_prev),
                "macro_steps": int(macro),
                "source_t_start": (
                    None if stage == "ramp" else float(self.source.t_start)
                ),
                "ramp_steps": ramp_steps,
                "quench_steps": quench_steps,
                "post_steps": post_steps,
                **self._fingerprint(),
            }

        def write_checkpoint(stage: str, k: int) -> None:
            save_checkpoint(
                checkpoint_path,
                fields=fields,
                t=t,
                controller=self.controller,
                history=hist,
                extra=snapshot(stage, k),
            )
            self.solver.stats.record_event("checkpoint", t=t, stage=stage, step=k)

        def after_step(stage: str, k: int) -> bool:
            """Checkpoint cadence + stop budget; True means stop now."""
            if stop_after is not None and macro >= stop_after:
                if checkpoint_path:
                    write_checkpoint(stage, k)
                return True
            if checkpoint_path and checkpoint_every and macro % checkpoint_every == 0:
                write_checkpoint(stage, k)
            return False

        def record(phase: str) -> None:
            s = mom.summary(fields)
            hist.record(t, s["n_e"], s["J_z"], E, s["T_e"], phase)

        # --- phase 1: fixed E, wait for quasi-equilibrium current -----------
        if state["stage"] == "ramp":
            k = state["k"]
            while k < ramp_steps:
                fields = self._advance_macro(fields, t, E)
                t += self.dt
                macro += 1
                J = mom.current_z(fields)
                record("ramp")
                settled = (
                    J_prev != 0.0 and abs(J - J_prev) < self.settle_tol * abs(J)
                )
                J_prev = J
                k = ramp_steps if settled else k + 1
                if after_step("ramp", k):
                    return hist
            self.source.t_start = t + self.params.injection_start
            state = {**state, "stage": "quench", "k": 0}

        # --- phases 2+3: E <- eta_Spitzer(T_e) J, with the cold pulse --------
        # The Ohmic feedback is integrated explicitly; under-relaxation keeps
        # the stiff eta(T_e) J coupling stable at quench time steps.
        rate_shapes = self._source_shapes
        relax = 0.3
        k = state["k"]
        while k < quench_steps + post_steps:
            T_e = max(mom.electron_temperature(fields), 1e-3)
            eta_sp = spitzer_eta_code(self.units, T_e, self.Z)
            J = mom.current_z(fields)
            E = (1.0 - relax) * E + relax * eta_sp * J
            rate = self.source.rate(t + 0.5 * self.dt)
            sources = [
                None if b is None else rate * b for b in rate_shapes
            ]
            fields = self._advance_macro(fields, t, E, sources=sources)
            t += self.dt
            macro += 1
            phase = "quench" if rate > 0.0 else "post"
            record(phase)
            k += 1
            if after_step("quench", k):
                return hist
        self.final_fields = fields
        return hist
