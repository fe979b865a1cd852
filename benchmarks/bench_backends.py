"""Execution-backend benchmark: one kernel spec, several executors.

Times the three backend-dispatched hot paths of a batched collision solve
at batch 64 — field construction (``fields_batch``), operator assembly
(``species_data_batch``) and the banded factor+solve
(``CachedBandSolverFactory.factor_batch`` / ``solve_many``) — for both
execution backends (``numpy`` and ``threaded``), and checks they agree
with the numpy reference to 1e-12.

Run as a script::

    PYTHONPATH=src python benchmarks/bench_backends.py \
        [--smoke] [--batch 64] [--repeats N] [--out BENCH_backends.json]

The full run asserts the >= 1.5x threaded-over-numpy speedup on the
combined assembly+solve phases *when the host has at least two CPUs*
(single-CPU runners can't demonstrate a thread-pool win); ``--smoke``
(the CI mode) uses a tiny mesh and only checks agreement and JSON
well-formedness.
"""

import argparse
import json
import os
import time

import numpy as np

from repro.backend import BACKEND_NAMES
from repro.core import AssemblyOptions, LandauOperator, SpeciesSet, deuterium, electron
from repro.core.maxwellian import species_maxwellian
from repro.fem import FunctionSpace, Mesh
from repro.sparse.band import CachedBandSolverFactory

PHASES = ("fields", "assembly", "factor_solve")


def _system(smoke: bool):
    spc = SpeciesSet([electron(), deuterium()])
    vmax = 3.0 * max(s.thermal_velocity for s in spc)
    cells = 2 if smoke else 4
    mesh = Mesh.structured(cells, cells, r_max=vmax, z_min=-vmax, z_max=vmax)
    fs = FunctionSpace(mesh, order=2 if smoke else 3)
    fields = [fs.interpolate(species_maxwellian(s)) for s in spc]
    return fs, spc, fields


def _batch_states(fields, batch: int):
    """``batch`` perturbed copies of the vertex state, ``(batch, S, n)``."""
    rng = np.random.default_rng(42)
    scale = 1.0 + 0.05 * rng.standard_normal((batch, 1, 1))
    return scale * np.stack(fields)[None]


def _time(fn, repeats: int) -> float:
    fn()  # warmup (pools, caches)
    t0 = time.perf_counter()
    for _ in range(repeats):
        fn()
    return (time.perf_counter() - t0) / repeats


def _rel_diff(a, b) -> float:
    scale = max(np.abs(b).max(), 1e-300)
    return float(np.abs(np.asarray(a) - np.asarray(b)).max() / scale)


def run_bench(smoke: bool = False, batch: int = 64, repeats: int = 3) -> dict:
    fs, spc, fields = _system(smoke)
    threads = max(1, os.cpu_count() or 1)
    results: dict[str, dict] = {}
    reference: dict[str, np.ndarray] = {}

    for name in BACKEND_NAMES:
        opts = AssemblyOptions.from_env(
            backend=name, num_threads=0 if name == "numpy" else threads
        )
        op = LandauOperator(fs, spc, options=opts)
        backend = op.backend
        states = _batch_states(fields, batch)

        # phase 1: batched field construction
        t_fields = _time(lambda: op.fields_batch(states), repeats)
        G_D, G_K = op.fields_batch(states)

        # phase 2: batched operator assembly
        t_asm = _time(lambda: op.species_data_batch(G_D, G_K), repeats)
        data = op.species_data_batch(G_D, G_K)

        # phase 3: batched band factor + solve over all (species, vertex)
        M = op.mass_matrix.tocsr()
        lhs = (M.data[None, None, :] - 0.05 * data).reshape(
            len(spc) * batch, -1
        )
        rhs = np.tile(np.stack(fields), (batch, 1))

        def factor_solve():
            solver = CachedBandSolverFactory().factor_batch(
                M, lhs, backend=backend
            )
            return solver.solve_many(rhs)

        t_fac = _time(factor_solve, repeats)
        solved = factor_solve()

        diffs = {}
        for key, val in (("fields", G_D), ("assembly", data), ("factor_solve", solved)):
            if name == "numpy":
                reference[key] = val
                diffs[key] = 0.0
            else:
                diffs[key] = _rel_diff(val, reference[key])

        results[name] = {
            "workers": backend.workers,
            "seconds": {
                "fields": t_fields,
                "assembly": t_asm,
                "factor_solve": t_fac,
            },
            "max_rel_diff": diffs,
        }

    ref_s = results["numpy"]["seconds"]
    for name, r in results.items():
        r["speedup_vs_numpy"] = {
            p: ref_s[p] / r["seconds"][p] if r["seconds"][p] > 0 else float("inf")
            for p in PHASES
        }
        asm_solve = r["seconds"]["assembly"] + r["seconds"]["factor_solve"]
        ref_asm_solve = ref_s["assembly"] + ref_s["factor_solve"]
        r["assembly_solve_speedup"] = (
            ref_asm_solve / asm_solve if asm_solve > 0 else float("inf")
        )

    return {
        "benchmark": "execution_backends",
        "smoke": bool(smoke),
        "batch": int(batch),
        "repeats": int(repeats),
        "cpus": threads,
        "mesh": {
            "cells": int(fs.nelem),
            "integration_points": int(fs.n_integration_points),
            "ndofs": int(fs.ndofs),
            "species": len(spc),
        },
        "backends": results,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument(
        "--smoke",
        action="store_true",
        help="CI mode: tiny mesh, agreement checks only, no speedup bar",
    )
    ap.add_argument("--batch", type=int, default=64)
    ap.add_argument("--repeats", type=int, default=3)
    ap.add_argument("--out", default="BENCH_backends.json")
    args = ap.parse_args(argv)

    result = run_bench(smoke=args.smoke, batch=args.batch, repeats=args.repeats)
    with open(args.out, "w") as fh:
        json.dump(result, fh, indent=2)
    print(json.dumps(result, indent=2))

    worst = max(
        d
        for r in result["backends"].values()
        for d in r["max_rel_diff"].values()
    )
    if worst > 1e-12:
        print(f"FAIL: backends disagree (max rel diff {worst:.3e})")
        return 1
    speedup = result["backends"]["threaded"]["assembly_solve_speedup"]
    if not args.smoke and result["cpus"] >= 2 and speedup < 1.5:
        print(
            f"FAIL: threaded assembly+solve speedup {speedup:.2f}x below the "
            "1.5x acceptance bar"
        )
        return 1
    note = "" if result["cpus"] >= 2 else " (single CPU: speedup bar waived)"
    print(
        f"OK: threaded assembly+solve {speedup:.2f}x vs numpy, "
        f"max rel diff {worst:.3e}{note}"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
