"""One benchmark workload, in its own process.

``run.py`` starts this file once per workload so that every workload gets
a fresh interpreter with the BLAS/OpenMP thread pools pinned to one
thread *before* numpy is imported (on the 2-CPU reference box the served
Q3 round takes 1.9 s with OpenBLAS's default 64-thread pool and 0.70 s
pinned).  It builds the inputs from ``--seed``, measures closed-loop
rounds for ``--seconds``, checks the outputs, and prints one JSON record
as the last line of stdout.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from typing import NamedTuple  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from repro.amr import landau_mesh  # noqa: E402
from repro.backend.kernel_spec import (  # noqa: E402
    TENSOR_ADD,
    TENSOR_FMA,
    TENSOR_MUL,
    TENSOR_SPECIAL,
)
from repro.core import (  # noqa: E402
    ImplicitLandauSolver,
    LandauOperator,
    SpeciesSet,
    deuterium,
    electron,
)
from repro.core.maxwellian import shifted_maxwellian_rz  # noqa: E402
from repro.core.options import AssemblyOptions  # noqa: E402
from repro.ensemble import (  # noqa: E402
    CampaignDriver,
    CampaignOptions,
    ScenarioDesign,
    sample_scenarios,
)
from repro.fem import FunctionSpace  # noqa: E402
from repro.fem.assembly import assemble_mass  # noqa: E402
from repro.serve import (  # noqa: E402
    CollisionSolveService,
    ServeOptions,
    SolvePlan,
    percentile,
)
from repro.sparse import bandwidth, rcm_permutation  # noqa: E402

import spec  # noqa: E402
from tracing import Tracer  # noqa: E402

RTOL = 1e-11  # tight, so served and sequential land on the same fixed point
ACCEL_M = 3
MAX_NEWTON = 50
DT = 0.2
JOB_TIMEOUT_S = 120.0
COARSE_H_FACTOR = 1.6  # --quick meshes
SETUP_REPEATS = 9
SETUP_BUDGET_S = 3.0


# ----------------------------------------------------------------------
# workloads


class RoundResult(NamedTuple):
    attempted: int
    failed: int
    #: ``JobResult.latency_s`` of every job, one list per closed-loop wave
    #: (a serve round is one wave; a campaign is one wave per lock-step round)
    waves_s: list
    #: what the correctness gate compares (JobResults, or state hashes)
    outputs: object


class ServeSpec(NamedTuple):
    species: tuple
    order: int
    jobs: int
    num_shards: int
    max_batch: int
    executor: str = "thread"
    started: bool = False
    plans_per_shard: int = 1
    on_the_fly: bool = False
    check_jobs: int = 8
    h_factor: float | None = None

    def quick(self) -> "ServeSpec":
        return self._replace(
            order=2,
            jobs=min(self.jobs, 8),
            max_batch=min(self.max_batch, 4),
            check_jobs=2,
            h_factor=COARSE_H_FACTOR,
        )


_SPECIES = {"e": electron, "d": deuterium}

SERVE_SPECS = {
    "serve_e_q3_b64": ServeSpec(("e",), 3, 64, num_shards=1, max_batch=64),
    "live_e_q2_b8": ServeSpec(
        ("e",), 2, 64, num_shards=2, max_batch=8, started=True, plans_per_shard=2
    ),
    "serve_ed_q2_otf_b16": ServeSpec(
        ("e", "d"), 2, 16, num_shards=1, max_batch=16, on_the_fly=True, check_jobs=4
    ),
    "live_e_q3_proc": ServeSpec(
        ("e",), 3, 64, num_shards=2, max_batch=32, executor="process", started=True
    ),
}


class _OwnsService:
    """The service under measurement; ``cold_setup`` replaces it."""

    svc: CollisionSolveService | None = None

    def close(self) -> None:
        if self.svc is not None:
            self.svc.close()
            self.svc = None


class ServeWorkload(_OwnsService):
    """Closed-loop waves of jobs through a :class:`CollisionSolveService`.

    A wave is ``solve_many`` spelled out so that it can mix plans: submit
    every job, drain if the service is not started, wait for every handle.
    """

    def __init__(self, spec_: ServeSpec, seed: int):
        self.spec = spec_
        self.seed = seed

    # -- set-up ---------------------------------------------------------
    def _state(self, vth_factor: float, drift: float) -> np.ndarray:
        """Drifting Maxwellians, one row per species; the factors scale
        each species' own thermal velocity."""
        return np.stack(
            [
                self.fs.interpolate(
                    lambda r, z: shifted_maxwellian_rz(
                        r,
                        z,
                        1.0,
                        vth_factor * s.thermal_velocity,
                        drift * s.thermal_velocity,
                    )
                )
                for s in self.species
            ]
        )

    def _plans(self) -> list[SolvePlan]:
        """``plans_per_shard`` plans on every shard: dt variants are tried
        in a fixed order until the hash ring has placed enough on each."""
        sp = self.spec
        options = (
            AssemblyOptions(cache_pair_tables=False)
            if sp.on_the_fly
            else AssemblyOptions()
        )
        placed: dict[int, list] = {s: [] for s in range(sp.num_shards)}
        k = 0
        while any(len(v) < sp.plans_per_shard for v in placed.values()):
            plan = SolvePlan(
                fs=self.fs,
                species=self.species,
                dt=DT * (1.0 + k / 100.0),
                rtol=RTOL,
                max_newton=MAX_NEWTON,
                accel_m=ACCEL_M,
                options=options,
            )
            shard = self.svc.ring.route(plan.key)
            if len(placed[shard]) < sp.plans_per_shard:
                placed[shard].append(plan)
            k += 1
        return [p for shard in sorted(placed) for p in placed[shard]]

    def cold_setup(self) -> None:
        """Fresh space, plans and service, up to the first one-job result."""
        sp = self.spec
        self.species = SpeciesSet([_SPECIES[k]() for k in sp.species])
        mesh_kw = {} if sp.h_factor is None else {"h_factor": sp.h_factor}
        self.fs = FunctionSpace(
            landau_mesh([s.thermal_velocity for s in self.species], **mesh_kw),
            order=sp.order,
        )
        self.svc = CollisionSolveService(
            ServeOptions(
                num_shards=sp.num_shards,
                max_batch=sp.max_batch,
                executor=sp.executor,
            )
        )
        self.plans = self._plans()
        if sp.started:
            self.svc.start()
        # the same unperturbed job for every seed: set-up time must not
        # depend on how hard the seed's first state happens to be
        first = self.svc.solve_many(
            self.plans[0], [self._state(1.0, 0.0)], timeout=JOB_TIMEOUT_S
        )
        if not first[0].ok:
            raise RuntimeError(f"set-up job failed: {first[0].error}")

    def make_inputs(self) -> str:
        """Perturbed Maxwellians (cool/warm, drifting) from a seeded Latin
        hypercube over (temperature, drift): every seed gives different
        states in a different order, but one of each stratum, so the
        sweeps a round needs barely depend on the seed (factorizations
        per round vary 0.6 % across seeds, against 2.3 % for iid draws)."""
        rng = np.random.default_rng(self.seed)
        n = self.spec.jobs
        u = (rng.permutation(n) + rng.uniform(size=n)) / n
        v = (rng.permutation(n) + rng.uniform(size=n)) / n
        self.jobs = [
            (
                self.plans[i % len(self.plans)],
                self._state(0.75 + 0.40 * u[i], -0.15 + 0.30 * v[i]),
            )
            for i in range(n)
        ]
        return hashlib.sha256(
            np.stack([s for _, s in self.jobs]).tobytes()
        ).hexdigest()

    def warm(self) -> None:
        """One untimed wave: builds the runtimes of every plan, not only
        the one the set-up job used."""
        self.round()

    # -- measurement ----------------------------------------------------
    def round(self) -> RoundResult:
        svc = self.svc
        handles = [svc.submit(plan, state) for plan, state in self.jobs]
        if not self.spec.started:
            svc.drain()
        results = [h.result(JOB_TIMEOUT_S) for h in handles]
        return RoundResult(
            attempted=len(results),
            failed=sum(not r.ok for r in results),
            waves_s=[[r.latency_s for r in results]],
            outputs=results,
        )

    def check(self, rounds: list[RoundResult]) -> tuple[float, list[str]]:
        """Served states of the last round against a sequential
        :class:`ImplicitLandauSolver` on its own cached-table operator
        (for the on-the-fly workload that is a different field path)."""
        errors = [
            f"job {i} of round {n}: {r.status} ({r.error})"
            for n, rnd in enumerate(rounds)
            for i, r in enumerate(rnd.outputs)
            if not r.ok
        ]
        solver = ImplicitLandauSolver(
            LandauOperator(self.fs, self.species), rtol=RTOL, max_newton=MAX_NEWTON
        )
        worst = 0.0
        for i in range(self.spec.check_jobs):
            plan, state = self.jobs[i]
            served = rounds[-1].outputs[i]
            if not served.ok:
                continue
            ref = np.stack(solver.step([row.copy() for row in state], plan.dt))
            err = float(np.abs(served.state - ref).max() / np.abs(ref).max())
            worst = max(worst, err)
            if not err <= spec.MAX_REL_ERR:
                errors.append(f"job {i}: rel err {err:.3e} vs sequential solve")
        return worst, errors

    def extras(self) -> dict:
        return {}


class _HandleRecorder:
    """Service stand-in for :class:`CampaignDriver` that keeps every
    :class:`JobHandle` the driver is given, grouped by the ``drain()``
    that executed it, so job latencies can be read afterwards without
    tracing."""

    def __init__(self, svc: CollisionSolveService):
        self._svc = svc
        self.waves: list[list] = [[]]

    def submit(self, *args, **kwargs):
        handle = self._svc.submit(*args, **kwargs)
        self.waves[-1].append(handle)
        return handle

    def drain(self, *args, **kwargs):
        done = self._svc.drain(*args, **kwargs)
        self.waves.append([])
        return done

    def __getattr__(self, name):
        return getattr(self._svc, name)


class CampaignWorkload(_OwnsService):
    """Whole campaigns on one benchmark-owned service."""

    def __init__(self, quick: bool, seed: int, workdir: str):
        self.quick = quick
        # injection_total is capped at 4 (the design default reaches 8):
        # beyond ~5 some seeds draw a Z=2 member whose batch misses the
        # 50-sweep limit at dt=0.5 and falls to the sequential retry path,
        # which turns a 6 s campaign into a 60 s one (seeds 102, 109)
        self.design = ScenarioDesign(
            members=4 if quick else 16,
            seed=seed,
            Z_choices=(1.0, 2.0),
            injection_total=(2.0, 4.0),
        )
        self.ckpt = os.path.join(workdir, "campaign")
        self.last_driver: CampaignDriver | None = None

    def _options(self, **overrides) -> CampaignOptions:
        kw = dict(
            name="campaign_q2_m16",
            dt=0.5,
            max_steps=3 if self.quick else 12,
            post_steps=2,
            order=2,
            mesh_kwargs={"h_factor": COARSE_H_FACTOR} if self.quick else None,
            quench_threshold=0.8,
            checkpoint_dir=self.ckpt,
            rtol=RTOL,
            max_newton=MAX_NEWTON,
        )
        kw.update(overrides)
        return CampaignOptions(**kw)

    def cold_setup(self) -> None:
        """Fresh service and driver through a one-round campaign, which
        builds both plans' runtimes: the first results a user sees."""
        self.svc = CollisionSolveService(ServeOptions(num_shards=2, max_batch=64))
        driver = CampaignDriver(
            self.design, self._options(max_steps=1, post_steps=0), service=self.svc
        )
        results = driver.run()
        bad = [r.index for r in results if r.status != "ok"]
        if bad:
            raise RuntimeError(f"set-up campaign: members {bad} failed")

    def make_inputs(self) -> str:
        keys = [sc.member_key for sc in sample_scenarios(self.design)]
        return hashlib.sha256("".join(keys).encode()).hexdigest()

    def warm(self) -> None:
        """Nothing to do: the set-up campaign already ran a batch on both
        plans, and a full warm campaign would cost as much as a timed one."""

    def round(self) -> RoundResult:
        recorder = _HandleRecorder(self.svc)
        driver = CampaignDriver(self.design, self._options(), service=recorder)
        members = driver.run()
        driver.statistics()
        self.last_driver = driver
        waves = [[h.result(JOB_TIMEOUT_S) for h in w] for w in recorder.waves if w]
        return RoundResult(
            attempted=sum(map(len, waves)),
            failed=sum(not r.ok for w in waves for r in w)
            + sum(m.status != "ok" for m in members),
            waves_s=[[r.latency_s for r in w] for w in waves],
            outputs=[m.state_sha256 for m in members],
        )

    def check(self, rounds: list[RoundResult]) -> tuple[float, list[str]]:
        """Drain mode is deterministic: every repeat of the campaign must
        end in bitwise identical member states."""
        errors = [
            f"campaign {n}: {rnd.failed} failed jobs/members"
            for n, rnd in enumerate(rounds)
            if rnd.failed
        ]
        differing = [
            n for n, rnd in enumerate(rounds) if rnd.outputs != rounds[0].outputs
        ]
        if differing:
            errors.append(f"campaigns {differing} differ from campaign 0 in state_sha256")
        return (1.0 if differing else 0.0), errors

    def extras(self) -> dict:
        d = self.last_driver
        return {
            "members": self.design.members,
            "ensemble.campaign.rounds": d.rounds,
            "ensemble.campaign.write_ledger.bytes": os.path.getsize(d.ledger_path),
        }

    @property
    def fs(self):
        return self.last_driver.fs

    @property
    def plans(self):
        return [self.last_driver.plan_for(Z) for Z in self.design.Z_choices]


def build_workload(name: str, quick: bool, seed: int, workdir: str):
    if name == "campaign_q2_m16":
        return CampaignWorkload(quick, seed, workdir)
    sp = SERVE_SPECS[name]
    return ServeWorkload(sp.quick() if quick else sp, seed)


# ----------------------------------------------------------------------
# measurement


def cpu_seconds() -> float:
    """CPU time of this process, its reaped children and its live
    children (shard worker processes, read from ``/proc``)."""
    total = time.process_time()
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    total += ru.ru_utime + ru.ru_stime
    me = str(os.getpid())
    tick = os.sysconf("SC_CLK_TCK")
    for path in glob.glob("/proc/[0-9]*/stat"):
        try:
            with open(path) as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except OSError:  # the process exited between glob and open
            continue
        if fields[1] == me:  # ppid
            total += (int(fields[11]) + int(fields[12])) / tick
    return total


def peak_rss_mb() -> float:
    """Peak resident size of this process plus its largest child."""
    kb = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    )
    return kb / 1024.0


def solver_counters(snap0: dict, snap1: dict, rounds: int) -> dict:
    """Deltas of the public service snapshot over the timed rounds."""

    def delta(section: str, key: str) -> float:
        return snap1[section][key] - snap0[section][key]

    jobs = delta("jobs", "total")
    batches = sum(s["batches"] for s in snap1["shards"]) - sum(
        s["batches"] for s in snap0["shards"]
    )
    sweeps = delta("solver", "newton_sweeps")
    launches = delta("solver", "field_launches")
    lookups = delta("plan_cache", "hits") + delta("plan_cache", "misses")
    return {
        "core.batch.sweeps_per_batch": sweeps / max(1, batches),
        "core.batch.factorizations_per_job": delta("solver", "factorizations")
        / max(1, jobs),
        "core.batch.accelerated_sweep_share": delta("solver", "accelerated_sweeps")
        / max(1, sweeps),
        "core.batch.launch_reduction": delta(
            "solver", "equivalent_unbatched_launches"
        )
        / max(1, launches),
        "sparse.band.symbolic_setups": delta("solver", "symbolic_setups") / rounds,
        "serve.plan.hit_rate": delta("plan_cache", "hits") / max(1, lookups),
        "serve.plan.bytes": snap1["plan_cache"]["bytes"],
        "serve.plan.evictions": delta("plan_cache", "evictions") / rounds,
        "serve.shard.batches": batches / rounds,
        "serve.shard.batch_size_mean": jobs / max(1, batches),
        "serve.shard.warm_seconds": sum(
            s.get("warm_seconds", 0.0) for s in snap1["shards"]
        ),
        "serve.service.queue_depth_max": max(
            s["max_queue_depth"] for s in snap1["shards"]
        ),
        "serve.service.worker_restarts": delta("jobs", "worker_restarts") / rounds,
        "resilience.retried_jobs": delta("jobs", "retried") / rounds,
        "resilience.retry_steps": delta("solver", "retry_steps") / rounds,
        "resilience.degraded_jobs": delta("failures", "degraded_jobs") / rounds,
    }


def computed_sizes(wl, snap0: dict, snap1: dict) -> dict:
    """Kernel sizes from array shapes and launch counters, per job.

    Fields: 7 table contractions of 2 N^2 flops per active vertex per
    sweep; cached tables stream 5 N^2 doubles per launch, the on-the-fly
    path instead re-evaluates the N^2 pair tensors per launch (the
    kernel-spec instruction mix).  Band factor: LAPACK ``dgbtrf`` with
    ``kl = ku = B`` on ``n`` unknowns, about ``2 n B (2B + 1)`` flops.
    """
    fs = wl.fs
    N = fs.n_integration_points
    n = fs.ndofs
    M = assemble_mass(fs).tocsr()
    perm = rcm_permutation(M)
    B = bandwidth(M[perm][:, perm])
    d = {
        k: snap1["solver"][k] - snap0["solver"][k]
        for k in ("field_launches", "equivalent_unbatched_launches", "factorizations")
    }
    jobs = max(1, snap1["jobs"]["total"] - snap0["jobs"]["total"])
    launches, vertex_sweeps = d["field_launches"], d["equivalent_unbatched_launches"]
    on_the_fly = wl.plans[0].options.cache_pair_tables is False
    flops = 14.0 * N * N * vertex_sweeps
    bytes_ = 8.0 * 10 * N * vertex_sweeps  # 3 source + 7 product vectors
    if on_the_fly:
        pair = 2 * TENSOR_FMA + TENSOR_MUL + TENSOR_ADD + TENSOR_SPECIAL
        flops += float(pair) * N * N * launches
        bytes_ += 8.0 * 2 * N * launches  # r, z coordinates
    else:
        bytes_ += 8.0 * 5 * N * N * launches
    return {
        "core.operator.fields_flops_computed": flops / jobs,
        "core.operator.fields_bytes_computed": bytes_ / jobs,
        "sparse.band.factor_flops_computed": 2.0 * n * B * (2 * B + 1)
        * d["factorizations"]
        / jobs,
    }


def blas_threads() -> int:
    """Thread count of the OpenBLAS numpy loaded (its env pin otherwise)."""
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return int(os.environ["OPENBLAS_NUM_THREADS"])


def fingerprint(root: str, seed: int) -> dict:
    cpu = "unknown"
    with open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    try:
        git = subprocess.run(
            ["git", "-C", root, "rev-parse", "HEAD"], capture_output=True, text=True
        )
        commit = git.stdout.strip() if git.returncode == 0 else "unknown"
    except OSError:  # no git on this machine
        commit = "unknown"
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "git_commit": commit,
        "seed": seed,
    }


def median_iqr(values: list) -> dict:
    out = {"value": statistics.median(values), "n": len(values)}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3)
    return out


class Timed(NamedTuple):
    """What the timed rounds produced."""

    rounds: list  # RoundResult per round
    walls: list  # seconds per round
    traced: list  # whether the round ran under the tracer
    wall: float  # first round's start to last round's end
    cpu_s: float
    snap0: dict  # service snapshots around the timed rounds
    snap1: dict

    def rates(self, traced: bool) -> list:
        """ok jobs per second of every (un)traced round."""
        return [
            (r.attempted - r.failed) / w
            for r, w, t in zip(self.rounds, self.walls, self.traced)
            if t == traced
        ]


def time_rounds(wl, seconds: float, tracer: Tracer | None) -> Timed:
    """Closed-loop rounds until ``seconds`` have passed (at least two).

    A traced run alternates untraced and traced rounds, so the overhead
    estimate compares like with like in one process."""
    snap0 = wl.svc.snapshot()
    cpu0 = cpu_seconds()
    rounds, walls, traced = [], [], []
    t_begin = time.perf_counter()
    while len(rounds) < 2 or time.perf_counter() - t_begin < seconds:
        with_trace = tracer is not None and len(rounds) % 2 == 1
        if with_trace:
            tracer.round = len(rounds)
            tracer.install()
        try:
            t0 = time.perf_counter()
            rounds.append(wl.round())
            walls.append(time.perf_counter() - t0)
        finally:
            if with_trace:
                tracer.uninstall()
        traced.append(with_trace)
    wall = time.perf_counter() - t_begin
    return Timed(
        rounds, walls, traced, wall, cpu_seconds() - cpu0, snap0, wl.svc.snapshot()
    )


def end_to_end_values(timed: Timed, setups: list, max_rel_err: float, extras: dict):
    """``name -> {value, ...}`` for the untraced run."""
    attempted = sum(r.attempted for r in timed.rounds)
    failed = sum(r.failed for r in timed.rounds)
    # a wave's percentile, then the median wave: one slow wave on a noisy
    # box must not set the tail of the whole run
    lat = [sorted(1e3 * x for x in w) for r in timed.rounds for w in r.waves_s]
    out = {"jobs_per_s": median_iqr(timed.rates(traced=False))}
    for p in (50, 90, 99):
        out[f"job_latency_ms_p{p}"] = median_iqr(
            [percentile(x, p) for x in lat]
        ) | {"samples": sum(map(len, lat))}
    if "members" in extras:
        out["members_per_hour"] = {
            "value": extras["members"] / statistics.median(timed.walls) * 3600.0
        }
    out["fail_share"] = {"value": failed / attempted}
    out["max_rel_err"] = {"value": max_rel_err}
    out["setup_s"] = median_iqr(setups)
    out["peak_rss_mb"] = {"value": peak_rss_mb()}
    return out


def per_layer_values(timed: Timed, tracer: Tracer, wl, extras: dict, leaked: int):
    """``name -> {value}`` for the traced run: spans, then counters."""
    traced_wall = sum(w for w, t in zip(timed.walls, timed.traced) if t)
    n_traced = sum(timed.traced)
    totals = tracer.totals()
    out = {}
    for name, (calls, self_s, _total) in totals.items():
        out[f"{name}.calls"] = calls / n_traced
        out[f"{name}.self_s"] = self_s / n_traced
        out[f"{name}.share"] = self_s / traced_wall
    out.update(solver_counters(timed.snap0, timed.snap1, len(timed.rounds)))
    out.update(computed_sizes(wl, timed.snap0, timed.snap1))
    busy = totals["serve.shard.execute_batch"][2]
    out["serve.shard.idle_share"] = (
        1.0 - busy / (traced_wall * len(timed.snap1["shards"])) if busy else 0.0
    )
    out["backend.shm_segments_leaked"] = leaked
    for key in ("ensemble.campaign.rounds", "ensemble.campaign.write_ledger.bytes"):
        out[key] = extras.get(key, 0)
    out["proc.cpu_s_per_job"] = timed.cpu_s / sum(r.attempted for r in timed.rounds)
    out["proc.cpu_over_wall"] = timed.cpu_s / timed.wall
    out["trace.overhead_share"] = 1.0 - statistics.median(
        timed.rates(traced=True)
    ) / statistics.median(timed.rates(traced=False))
    out["trace.unattributed_share"] = (
        1.0 - tracer.root_seconds("MainThread") / traced_wall
    )
    return {name: {"value": value} for name, value in out.items()}


def run_workload(args, workdir: str) -> dict:
    wl = build_workload(args.workload, args.quick, args.seed, workdir)
    tracer = Tracer() if args.trace else None
    try:
        # cold set-ups, as many as fit the budget: the last service stays
        # and is measured
        n_setups = 1 if args.trace else (2 if args.quick else SETUP_REPEATS)
        setups = []
        while len(setups) < n_setups and (
            len(setups) < 3 or sum(setups) < SETUP_BUDGET_S
        ):
            wl.close()
            t0 = time.perf_counter()
            wl.cold_setup()
            setups.append(time.perf_counter() - t0)
        inputs_sha256 = wl.make_inputs()
        wl.warm()
        timed = time_rounds(wl, args.seconds, tracer)
        max_rel_err, errors = wl.check(timed.rounds)
        extras = wl.extras()
    finally:
        wl.close()
    leaked = len(glob.glob(f"/dev/shm/rpro-{os.getpid()}-*"))
    if leaked:
        errors.append(f"{leaked} rpro-* shared-memory segments left behind")

    if tracer is None:
        values = end_to_end_values(timed, setups, max_rel_err, extras)
        listed = [m for m in spec.END_TO_END if m.name in values]
    else:
        values = per_layer_values(timed, tracer, wl, extras, leaked)
        listed = spec.per_layer()
        tracer.write_jsonl(
            os.path.join(args.root, ".bench_e2e", f"trace-{args.workload}.jsonl")
        )
    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": bool(args.trace),
        "quick": args.quick,
        "seconds": args.seconds,
        "rounds": len(timed.rounds),
        "correct": not errors,
        "attempted": sum(r.attempted for r in timed.rounds),
        "failed": sum(r.failed for r in timed.rounds),
        "errors": errors,
        "inputs_sha256": inputs_sha256,
        "metrics": {m.name: values[m.name] | {"unit": m.unit} for m in listed},
        "fingerprint": fingerprint(args.root, args.seed),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=list(spec.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--quick", action="store_true")
    ap.add_argument("--root", required=True, help="checkout root (outputs go below it)")
    args = ap.parse_args(argv)

    scratch = os.path.join(args.root, ".bench_e2e")
    os.makedirs(scratch, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch)
    try:
        record = run_workload(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for err in record["errors"]:
        print(f"FAIL {args.workload}: {err}", file=sys.stderr)
    print(json.dumps(record))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
