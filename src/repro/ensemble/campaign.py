"""Fault-tolerant ensemble campaigns over the serve tier.

A campaign drives every sampled :class:`~repro.ensemble.sampling.QuenchScenario`
through the :class:`~repro.serve.service.CollisionSolveService` as a
sequence of per-member collision-solve jobs, with the cold-plasma pulse
applied as an analytic quasineutral state increment between steps (the
serve tier solves pure collision steps; the pulse is the prescribed
density ramp of :class:`~repro.quench.source.ColdPlasmaSource`, which is
exact in time).  The drive field enters the member diagnostics through
the Connor-Hastie/Dreicer machinery (runaway boundary ``v_c``), and the
post-quench resistivity is the Spitzer value at the member's final
``T_e`` — the Fig. 5 quantities, now as distributions.

Determinism is by construction, not by executor luck:

* members advance in **lock-step rounds**; within a round the active
  members are submitted in canonical ``member_key`` order and executed
  with the service's deterministic :meth:`drain`, so batch composition —
  and therefore every BLAS reduction ordering — depends only on the
  design, never on scenario-list order or the executor type;
* all members share one mesh/function space; members sharing an impurity
  charge share a serve plan, so the warm plan cache is hit across the
  whole campaign.

Fault tolerance reuses the resilience machinery rather than reimplementing it:
failed jobs get a bounded per-member retry, and the campaign ledger —
completed member results plus in-progress member states — is written
atomically under the ``RPROCKSUM1`` checksum envelope every round.  A
SIGKILLed campaign re-run with the same design resumes from the ledger
and re-executes only unfinished members (``rerun_overlap == 0``
accounting, as a restored service does for its jobs).
"""

from __future__ import annotations

import hashlib
import math
import os
import pickle
from dataclasses import dataclass, field

import numpy as np

from ..amr import landau_mesh
from ..core.maxwellian import maxwellian_rz
from ..core.moments import Moments
from ..fem.function_space import FunctionSpace
from ..quench.model import QuenchParameters
from ..quench.runaway import (
    connor_hastie_field_code,
    runaway_critical_velocity_code,
)
from ..quench.source import ColdPlasmaSource
from ..quench.spitzer import spitzer_eta_code
from ..resilience.checkpoint import (
    CheckpointError,
    read_checksummed,
    write_checksummed,
)
from ..serve.plan import SolvePlan
from ..serve.service import CollisionSolveService, ServeOptions
from ..units import DEFAULT_UNITS, UnitSystem
from .sampling import QuenchScenario, ScenarioDesign, sample_scenarios
from .statistics import EnsembleAccumulator, oat_sensitivity

__all__ = [
    "CampaignOptions",
    "CampaignDriver",
    "MemberResult",
    "LEDGER_NAME",
]

LEDGER_NAME = "campaign.ckpt"
LEDGER_VERSION = 1

#: the campaign outputs reduced to distributions
OUTPUTS = ("quench_time", "T_e_final", "eta_post", "runaway_fraction")


@dataclass
class CampaignOptions:
    """Campaign sizing/physics knobs (env overrides: ``REPRO_ENSEMBLE_*``)."""

    name: str = "ensemble"
    dt: float = 0.5
    #: collision steps appended after the member's injection window closes
    post_steps: int = 4
    #: hard cap on per-member steps (bounds campaign wall-clock)
    max_steps: int = 48
    order: int = 2
    mesh_kwargs: dict | None = None
    #: member quench time = first crossing of ``T_e < threshold * T_e(0)``
    quench_threshold: float = 0.5
    #: directory for the campaign ledger; None disables checkpointing
    checkpoint_dir: str | None = None
    checkpoint_every_rounds: int = 1
    #: per-member failed-job resubmission budget
    max_retries: int = 1
    #: runaway-seed boundary in units of the *final* (collapsed-bulk)
    #: electron thermal velocity; the Connor-Hastie ``v_c`` caps it when
    #: the sampled drive approaches the Dreicer field
    seed_velocity_factor: float = 3.0
    #: bounded concurrency: jobs admitted per drain chunk
    max_inflight: int = 64
    rtol: float = 1e-7
    max_newton: int = 50

    def __post_init__(self):
        if not (np.isfinite(self.dt) and self.dt > 0):
            raise ValueError(f"CampaignOptions.dt must be positive, got {self.dt}")
        if self.max_steps < 1:
            raise ValueError(
                f"CampaignOptions.max_steps must be >= 1, got {self.max_steps}"
            )
        if self.post_steps < 0:
            raise ValueError(
                f"CampaignOptions.post_steps must be >= 0, got {self.post_steps}"
            )
        if not (0.0 < self.quench_threshold < 1.0):
            raise ValueError(
                "CampaignOptions.quench_threshold must be in (0, 1), "
                f"got {self.quench_threshold}"
            )
        if self.max_inflight < 1:
            raise ValueError(
                f"CampaignOptions.max_inflight must be >= 1, got {self.max_inflight}"
            )
        if self.max_retries < 0:
            raise ValueError(
                f"CampaignOptions.max_retries must be >= 0, got {self.max_retries}"
            )
        if not (np.isfinite(self.seed_velocity_factor) and self.seed_velocity_factor > 0):
            raise ValueError(
                "CampaignOptions.seed_velocity_factor must be positive, "
                f"got {self.seed_velocity_factor}"
            )

    @classmethod
    def from_env(cls, **overrides) -> "CampaignOptions":
        env = os.environ
        kw = dict(
            dt=float(env.get("REPRO_ENSEMBLE_DT", cls.dt)),
            max_steps=int(env.get("REPRO_ENSEMBLE_MAX_STEPS", cls.max_steps)),
            checkpoint_dir=env.get("REPRO_ENSEMBLE_CHECKPOINT_DIR") or None,
            max_inflight=int(
                env.get("REPRO_ENSEMBLE_MAX_INFLIGHT", cls.max_inflight)
            ),
        )
        kw.update(overrides)
        return cls(**kw)


@dataclass
class MemberResult:
    """Terminal record of one ensemble member (JSON-able via ``to_dict``)."""

    index: int
    member_key: str
    status: str  # "ok" | "failed"
    steps: int = 0
    quench_time: float = float("nan")
    T_e_final: float = float("nan")
    n_e_final: float = float("nan")
    eta_post: float = float("nan")
    runaway_fraction: float = float("nan")
    state_sha256: str = ""
    retried_jobs: int = 0
    inputs: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "member_key": self.member_key,
            "status": self.status,
            "steps": self.steps,
            "quench_time": self.quench_time,
            "T_e_final": self.T_e_final,
            "n_e_final": self.n_e_final,
            "eta_post": self.eta_post,
            "runaway_fraction": self.runaway_fraction,
            "state_sha256": self.state_sha256,
            "retried_jobs": self.retried_jobs,
            "inputs": dict(self.inputs),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "MemberResult":
        return cls(**d)


class _MemberRun:
    """In-flight state of one member between lock-step rounds."""

    def __init__(self, scenario: QuenchScenario, driver: "CampaignDriver"):
        self.scenario = scenario
        self.key = scenario.member_key
        p = scenario.params
        fs = driver.fs
        self.state = np.stack(
            p.initial_fields(fs, driver.species_for(p.Z))
        )  # (S, ndofs)
        self.t = 0.0
        self.step = 0
        self.retries = 0
        self.retried_jobs = 0
        window = p.injection_start + p.injection_duration
        self.total_steps = min(
            driver.options.max_steps,
            int(math.ceil(window / driver.options.dt)) + driver.options.post_steps,
        )
        # the member's prescribed density ramp (campaign time 0 = quench
        # onset, so t_start is the sampled injection delay directly)
        self.source = ColdPlasmaSource(
            driver.species_for(p.Z),
            total_injected=p.injection_total,
            t_start=p.injection_start,
            duration=p.injection_duration,
            cold_temperature=p.cold_temperature,
        )
        vth_e = math.sqrt(math.pi) / 2.0 * math.sqrt(p.cold_temperature)
        ion = driver.species_for(p.Z)[1]
        vth_i = math.sqrt(math.pi) / 2.0 * math.sqrt(p.cold_temperature / ion.mass)
        # unit-density cold Maxwellian nodal coefficients per species
        self.cold_e = fs.interpolate(lambda r, z: maxwellian_rz(r, z, 1.0, vth_e))
        self.cold_i = fs.interpolate(lambda r, z: maxwellian_rz(r, z, 1.0, vth_i))
        mom = driver.moments_for(p.Z)
        self.T_e0 = mom.species_moments(0, self.state[0]).temperature
        self.trace: list[tuple[float, float]] = [(0.0, self.T_e0)]

    def job_id(self) -> str:
        base = f"{self.key[:12]}:s{self.step}"
        return base if self.retries == 0 else f"{base}:r{self.retries}"

    def apply_injection(self, driver: "CampaignDriver") -> None:
        """Add the pulse's analytic quasineutral increment for the step
        just taken (``injected_by`` is exact, so no rate-quadrature
        drift accumulates)."""
        dn = self.source.injected_by(self.t) - self.source.injected_by(
            self.t - driver.options.dt
        )
        if dn > 0.0:
            Z = self.scenario.params.Z
            self.state[0] = self.state[0] + dn * self.cold_e
            self.state[1] = self.state[1] + (dn / Z) * self.cold_i

    def record(self, driver: "CampaignDriver") -> None:
        mom = driver.moments_for(self.scenario.params.Z)
        T_e = mom.species_moments(0, self.state[0]).temperature
        self.trace.append((self.t, T_e))

    @property
    def done(self) -> bool:
        return self.step >= self.total_steps

    def ledger_entry(self) -> dict:
        return {
            "state": self.state,
            "t": self.t,
            "step": self.step,
            "retries": self.retries,
            "retried_jobs": self.retried_jobs,
            "T_e0": self.T_e0,
            "trace": list(self.trace),
        }

    def restore(self, entry: dict) -> None:
        self.state = np.asarray(entry["state"], dtype=float)
        self.t = float(entry["t"])
        self.step = int(entry["step"])
        self.retries = int(entry["retries"])
        self.retried_jobs = int(entry["retried_jobs"])
        self.T_e0 = float(entry["T_e0"])
        self.trace = [tuple(x) for x in entry["trace"]]


class CampaignDriver:
    """Run a sampled scenario ensemble through the serve tier.

    Parameters
    ----------
    design:
        the :class:`ScenarioDesign` to sample (ignored for sampling when
        ``scenarios`` is given explicitly, but still the ledger identity).
    options:
        campaign knobs; defaults are test-sized.
    service:
        an existing *non-started* :class:`CollisionSolveService`; the
        driver creates a thread-executor one when omitted.  The service
        must stay in deterministic drain mode — a started service's
        dispatcher timing would make batch composition racy.
    scenarios:
        pre-sampled member list (the shuffled-submission regression test
        passes the same members in a different order; results are
        order-independent because rounds submit in canonical
        ``member_key`` order).
    """

    def __init__(
        self,
        design: ScenarioDesign,
        options: CampaignOptions | None = None,
        *,
        units: UnitSystem = DEFAULT_UNITS,
        service: CollisionSolveService | None = None,
        serve_options: ServeOptions | None = None,
        scenarios: list[QuenchScenario] | None = None,
    ):
        self.design = design
        self.options = options or CampaignOptions()
        self.units = units
        self.scenarios = (
            list(scenarios) if scenarios is not None else sample_scenarios(design)
        )
        if len(self.scenarios) != design.members:
            raise ValueError(
                f"scenario count {len(self.scenarios)} does not match "
                f"design.members {design.members}"
            )
        # ---- shared discretization: one mesh for the whole campaign ----
        self._species = {
            float(Z): QuenchParameters(Z=float(Z)).species()
            for Z in design.Z_choices
        }
        self.fs = FunctionSpace(
            landau_mesh(self._design_vths(), **(self.options.mesh_kwargs or {})),
            order=self.options.order,
        )
        self._moments = {
            Z: Moments(self.fs, spc) for Z, spc in self._species.items()
        }
        self._plans = {
            Z: SolvePlan(
                self.fs,
                spc,
                dt=self.options.dt,
                rtol=self.options.rtol,
                max_newton=self.options.max_newton,
            )
            for Z, spc in self._species.items()
        }
        if service is not None and service._started:
            raise ValueError(
                "CampaignDriver needs a non-started service (deterministic "
                "drain mode); don't call service.start()"
            )
        self._own_service = service is None
        self.service = service or CollisionSolveService(
            serve_options or ServeOptions(num_shards=2, max_batch=32)
        )
        # ---- campaign state -------------------------------------------
        self.completed: dict[str, MemberResult] = {}
        self.active: dict[str, _MemberRun] = {}
        self.rounds = 0
        self.resumed_members = 0
        self.ledger_writes = 0
        self.executed_job_ids: list[str] = []
        self._ledger_job_ids: set[str] = set()
        self.rerun_overlap = 0
        self.jobs = {"submitted": 0, "ok": 0, "failed": 0, "shed": 0, "retried": 0}
        self.accumulators = {
            name: EnsembleAccumulator(name, seed=design.seed)
            for name in OUTPUTS
        }
        self._oat_inputs: list[dict] = []
        self._oat_outputs: dict[str, list[float]] = {n: [] for n in OUTPUTS}

    # ------------------------------------------------------------------
    def _design_vths(self) -> list[float]:
        """Thermal-velocity envelope the shared mesh must resolve — a
        function of the *design*, so the mesh is identical across runs
        and across resumes regardless of which members were sampled."""
        d = self.design
        tf_lo = math.exp(-3.0 * d.kl_sigma_temperature)
        tf_hi = math.exp(+3.0 * d.kl_sigma_temperature)
        cold_T = d.cold_temperature[0]
        vths: list[float] = []
        for Z, spc in sorted(self._species.items()):
            for s in spc:
                base = s.thermal_velocity
                vths += [base * math.sqrt(tf_lo), base * math.sqrt(tf_hi)]
                vths.append(
                    math.sqrt(math.pi) / 2.0 * math.sqrt(cold_T / s.mass)
                )
        return vths

    def species_for(self, Z: float):
        return self._species[float(Z)]

    def moments_for(self, Z: float) -> Moments:
        return self._moments[float(Z)]

    def plan_for(self, Z: float) -> SolvePlan:
        return self._plans[float(Z)]

    # ------------------------------------------------------------------
    # ledger (RPROCKSUM1 envelope, atomic)
    @property
    def ledger_path(self) -> str | None:
        if self.options.checkpoint_dir is None:
            return None
        return os.path.join(self.options.checkpoint_dir, LEDGER_NAME)

    def _fingerprint(self) -> dict:
        return {
            "design_key": self.design.content_key(),
            "ndofs": int(self.fs.ndofs),
            "dt": float(self.options.dt),
            "order": int(self.options.order),
        }

    def write_ledger(self) -> str | None:
        path = self.ledger_path
        if path is None:
            return None
        os.makedirs(self.options.checkpoint_dir, exist_ok=True)
        payload = {
            "version": LEDGER_VERSION,
            "fingerprint": self._fingerprint(),
            "round": self.rounds,
            "completed": {k: r.to_dict() for k, r in self.completed.items()},
            "in_progress": {
                k: run.ledger_entry() for k, run in self.active.items()
            },
            "executed_job_ids": sorted(
                set(self.executed_job_ids) | self._ledger_job_ids
            ),
            "jobs": dict(self.jobs),
        }
        write_checksummed(path, pickle.dumps(payload, protocol=4))
        self.ledger_writes += 1
        return path

    def load_ledger(self) -> dict:
        path = self.ledger_path
        if path is None or not os.path.exists(path):
            raise CheckpointError(
                "no campaign ledger to resume from",
                diagnostics={"path": path},
            )
        blob = read_checksummed(path)  # CheckpointError on corruption
        try:
            payload = pickle.loads(blob)
            version = payload.get("version")
        except Exception as err:
            raise CheckpointError(
                "failed to read campaign ledger",
                diagnostics={"path": path, "error": f"{type(err).__name__}: {err}"},
            ) from err
        if version != LEDGER_VERSION:
            raise CheckpointError(
                f"unsupported campaign ledger version {version}",
                diagnostics={"path": path},
            )
        fp = self._fingerprint()
        if payload.get("fingerprint") != fp:
            raise CheckpointError(
                "campaign ledger belongs to a different design/configuration",
                diagnostics={"saved": payload.get("fingerprint"), "current": fp},
            )
        return payload

    # ------------------------------------------------------------------
    def _finalize_member(self, run: _MemberRun) -> MemberResult:
        """Member-at-a-time diagnostics: the Fig. 5 outputs as scalars."""
        p = run.scenario.params
        mom = self.moments_for(p.Z)
        sm = mom.species_moments(0, run.state[0])
        T_e = max(sm.temperature, 1e-6)
        n_e = sm.density
        # quench time: first threshold crossing, linearly interpolated
        target = self.options.quench_threshold * run.T_e0
        quench_time = float("nan")
        for (t0, T0), (t1, T1) in zip(run.trace, run.trace[1:]):
            if T0 > target >= T1:
                frac = (T0 - target) / max(T0 - T1, 1e-300)
                quench_time = t0 + frac * (t1 - t0)
                break
        eta_post = spitzer_eta_code(self.units, T_e, p.Z)
        # runaway-seed fraction: the electrons left beyond the seed
        # boundary of the *collapsed* bulk.  The Connor-Hastie v_c of the
        # sampled drive caps the boundary (at E -> E_D it enters the
        # thermal bulk); far below the Dreicer field v_c is tens of
        # thermal speeds out, and the measurable seed population is the
        # hot remnant beyond ``seed_velocity_factor`` collapsed thermal
        # velocities — the paper's seed-runaway mechanism.
        E_c = connor_hastie_field_code(self.units, n_e_code=1.0)
        v_c = runaway_critical_velocity_code(
            self.units,
            p.E0_over_Ec * E_c,
            n_e_code=max(n_e, 1e-12),
            Te_over_T0=T_e,
        )
        vte_final = math.sqrt(math.pi) / 2.0 * math.sqrt(T_e)
        v_seed = min(v_c, self.options.seed_velocity_factor * vte_final)
        f_q = self.fs.eval(run.state[0])
        r, z = self.fs.qpoints[:, :, 0], self.fs.qpoints[:, :, 1]
        mask = (r * r + z * z) > v_seed * v_seed
        total = self.fs.integrate(f_q)
        tail = self.fs.integrate(np.where(mask, f_q, 0.0))
        runaway_fraction = tail / total if total > 0 else float("nan")
        result = MemberResult(
            index=run.scenario.index,
            member_key=run.key,
            status="ok",
            steps=run.step,
            quench_time=quench_time,
            T_e_final=float(sm.temperature),
            n_e_final=float(n_e),
            eta_post=float(eta_post),
            runaway_fraction=float(runaway_fraction),
            state_sha256=hashlib.sha256(
                np.ascontiguousarray(run.state).tobytes()
            ).hexdigest(),
            retried_jobs=run.retried_jobs,
            inputs=dict(run.scenario.inputs),
        )
        return result

    def _absorb_result(self, result: MemberResult) -> None:
        """Feed one terminal member into the streaming reductions."""
        self.completed[result.member_key] = result
        if result.status != "ok":
            return
        for name in OUTPUTS:
            value = getattr(result, name)
            self.accumulators[name].add(value)
            self._oat_outputs[name].append(value)
        self._oat_inputs.append(dict(result.inputs))

    # ------------------------------------------------------------------
    def run(self, resume: bool = False) -> list[MemberResult]:
        """Execute (or resume) the campaign to completion.

        Returns every member's :class:`MemberResult` in member-index
        order.  ``resume=True`` loads the ledger and re-runs only
        unfinished members; job ids executed by both the previous and
        the current incarnation are counted in :attr:`rerun_overlap`
        (a correct resume keeps it at 0).
        """
        order = sorted(self.scenarios, key=lambda sc: sc.member_key)
        ledger = None
        if resume:
            ledger = self.load_ledger()
            self._ledger_job_ids = set(ledger["executed_job_ids"])
            for key, rd in ledger["completed"].items():
                self._absorb_result(MemberResult.from_dict(rd))
            self.jobs.update(
                {k: int(v) for k, v in ledger.get("jobs", {}).items()}
            )
        for sc in order:
            if sc.member_key in self.completed:
                continue
            run = _MemberRun(sc, self)
            if ledger is not None and sc.member_key in ledger["in_progress"]:
                run.restore(ledger["in_progress"][sc.member_key])
                self.resumed_members += 1
            self.active[sc.member_key] = run
        if resume:
            self.resumed_members += len(ledger["completed"])

        while self.active:
            self._round()
            if (
                self.ledger_path is not None
                and self.rounds % max(1, self.options.checkpoint_every_rounds) == 0
            ):
                self.write_ledger()
        if self.ledger_path is not None:
            self.write_ledger()
        self.rerun_overlap = len(
            set(self.executed_job_ids) & self._ledger_job_ids
        )
        results = sorted(self.completed.values(), key=lambda r: r.index)
        if self._own_service:
            self.service.close()
        return results

    def _round(self) -> None:
        """One lock-step round: every active member takes one collision
        step through the serve tier, in canonical order, chunked under
        ``max_inflight``, executed with the deterministic drain."""
        actives = [self.active[k] for k in sorted(self.active)]
        chunk = max(1, self.options.max_inflight)
        for lo in range(0, len(actives), chunk):
            group = actives[lo : lo + chunk]
            handles = []
            for run in group:
                plan = self.plan_for(run.scenario.params.Z)
                jid = run.job_id()
                handles.append(
                    (
                        run,
                        jid,
                        self.service.submit(
                            plan,
                            run.state,
                            job_id=jid,
                            tag=f"{self.options.name}:{run.key[:12]}",
                        ),
                    )
                )
                self.jobs["submitted"] += 1
            self.service.drain()
            for run, jid, handle in handles:
                res = handle.result(timeout=600.0)
                self.executed_job_ids.append(jid)
                if res.ok:
                    self.jobs["ok"] += 1
                    run.state = np.asarray(res.state, dtype=float)
                    run.t += self.options.dt
                    run.step += 1
                    run.retries = 0
                    run.apply_injection(self)
                    run.record(self)
                    if run.done:
                        self._absorb_result(self._finalize_member(run))
                        del self.active[run.key]
                    continue
                self.jobs["shed" if res.status == "shed" else "failed"] += 1
                if run.retries < self.options.max_retries:
                    run.retries += 1
                    run.retried_jobs += 1
                    self.jobs["retried"] += 1
                else:
                    self._absorb_result(
                        MemberResult(
                            index=run.scenario.index,
                            member_key=run.key,
                            status="failed",
                            steps=run.step,
                            retried_jobs=run.retried_jobs,
                            inputs=dict(run.scenario.inputs),
                        )
                    )
                    del self.active[run.key]
        self.rounds += 1

    # ------------------------------------------------------------------
    def statistics(self, n_boot: int = 400) -> dict:
        """Streaming distribution summaries + OAT sensitivity indices."""
        distributions = {
            name: acc.summary(n_boot=n_boot)
            for name, acc in self.accumulators.items()
        }
        sensitivity = {
            name: oat_sensitivity(self._oat_inputs, self._oat_outputs[name])
            for name in OUTPUTS
        }
        return {"distributions": distributions, "sensitivity": sensitivity}

    def snapshot(self) -> dict:
        """Campaign rollup for :func:`repro.report.serve_summary`."""
        failed = sum(
            1 for r in self.completed.values() if r.status != "ok"
        )
        return {
            "name": self.options.name,
            "design": {
                "members": self.design.members,
                "design": self.design.design,
                "seed": self.design.seed,
                "design_key": self.design.content_key()[:12],
            },
            "members": {
                "total": len(self.scenarios),
                "completed": len(self.completed) - failed,
                "failed": failed,
                "resumed": self.resumed_members,
                "pending": len(self.active),
            },
            "jobs": {**self.jobs, "rerun_overlap": self.rerun_overlap},
            "rounds": self.rounds,
            "checkpoint": {
                "path": self.ledger_path,
                "writes": self.ledger_writes,
            },
        }
