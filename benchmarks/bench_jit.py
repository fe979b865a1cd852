"""JIT row-block assembly benchmark: numba kernels vs threaded numpy.

Times the three Algorithm-1 hot paths the numba backend lowers to
``nopython`` kernels — the packed pair-table build, the on-the-fly
row-block field integral at batch >= 64, and the element-Jacobian
contraction — against the threaded numpy-slice execution of the same
stages, and checks agreement to 1e-12.

Run as a script::

    PYTHONPATH=src python benchmarks/bench_jit.py \
        [--smoke] [--batch 64] [--repeats N] [--out BENCH_jit.json]

The acceptance bar is a >= 2x numba-over-threaded speedup on the
combined row-block assembly (pair build + field rows) at batch >= 64.
Where numba is not installed (this container's default) the bar is
recorded as ``bar_waived`` with the reason, the threaded/numpy legs
still run, and the exit stays 0 — CI legs with numba installed enforce
the bar for real.
"""

import argparse
import dataclasses
import json
import os
import time

import numpy as np

from repro.backend import NumbaBackend, available_backends, get_backend
from repro.core import AssemblyOptions, LandauOperator, SpeciesSet, deuterium, electron
from repro.core.maxwellian import species_maxwellian
from repro.fem import FunctionSpace, Mesh

PHASES = ("pair_build", "field_rows", "element_contract")
SPEC_D = "eq,eqad,xeqdc,eqbc->xeab"
SPEC_K = "eq,eqad,xeqd,qb->xeab"
BAR = 2.0


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
    fn()  # warmup (thread pools, caches, numba JIT)
    t0 = time.perf_counter()
    for _ in range(repeats):
        fn()
    return (time.perf_counter() - t0) / repeats


def _rel_diff(a, b) -> float:
    scale = max(np.abs(b).max(), 1e-300)
    return float(np.abs(np.asarray(a) - np.asarray(b)).max() / scale)


def _bench_backend(name, fs, spc, fields, batch, repeats, threads):
    opts = AssemblyOptions.from_env(
        backend=name, num_threads=0 if name == "numpy" else threads
    )
    op = LandauOperator(fs, spc, options=opts)
    backend = op.backend
    backend.warmup()
    N = op.N
    r, z = op.r, op.z
    states = _batch_states(fields, batch)

    # phase 1: packed pair-table build over all N rows
    table = np.empty((5, N, N))

    def pair_build():
        backend.parallel_for(
            backend.batch_blocks(N),
            lambda i0, i1: backend.pair_table_rows(table, r, z, i0, i1),
        )

    t_pair = _time(pair_build, repeats)

    # phase 2: Algorithm-1 on-the-fly row-block field integral, batch B
    # (through the operator: a field_rows call adds into rows beyond its
    # block, so concurrent blocks need the per-worker outputs it sets up)
    otf = LandauOperator(
        fs, spc, options=dataclasses.replace(opts, cache_pair_tables=False)
    )
    values = otf.point_values_batch(states)

    def field_rows():
        return otf.fields_batch(states, values)

    t_field = _time(field_rows, repeats)
    G_D, G_K = field_rows()

    # phase 3: element-Jacobian contraction of the batch-B fields
    from repro.fem.assembly import get_scatter_map

    sm = get_scatter_map(fs)
    w_q = fs.qweights
    gphys = sm.gphys
    Bq = fs.B
    D_q = G_D.reshape((batch,) + w_q.shape + (2, 2))
    K_q = G_K.reshape((batch,) + w_q.shape + (2,))

    def element_contract():
        Ce = backend.contract(SPEC_D, w_q, gphys, D_q, gphys)
        Ce = Ce + backend.contract(SPEC_K, w_q, gphys, K_q, Bq)
        return backend.scatter_apply(sm.T, Ce.reshape(batch, -1))

    t_elem = _time(element_contract, repeats)
    data = element_contract()

    return {
        "workers": backend.workers,
        "seconds": {
            "pair_build": t_pair,
            "field_rows": t_field,
            "element_contract": t_elem,
        },
    }, (table, G_D, data)


def run_bench(smoke: bool = False, batch: int = 64, repeats: int = 3) -> dict:
    fs, spc, fields = _system(smoke)
    threads = max(1, os.cpu_count() or 1)
    names = [n for n in ("numpy", "threaded", "numba") if n in available_backends()]
    results: dict[str, dict] = {}
    outputs: dict[str, tuple] = {}
    for name in names:
        results[name], outputs[name] = _bench_backend(
            name, fs, spc, fields, batch, repeats, threads
        )
        diffs = {}
        for key, got, ref in zip(PHASES, outputs[name], outputs["numpy"]):
            diffs[key] = 0.0 if name == "numpy" else _rel_diff(got, ref)
        results[name]["max_rel_diff"] = diffs

    thr = results["threaded"]["seconds"]
    for name, res in results.items():
        s = res["seconds"]
        res["speedup_vs_threaded"] = {
            p: thr[p] / s[p] if s[p] > 0 else float("inf") for p in PHASES
        }
        rb = s["pair_build"] + s["field_rows"]
        rb_thr = thr["pair_build"] + thr["field_rows"]
        res["row_block_speedup_vs_threaded"] = (
            rb_thr / rb if rb > 0 else float("inf")
        )

    have_numba = NumbaBackend.available()
    report = {
        "benchmark": "jit_row_block_assembly",
        "smoke": bool(smoke),
        "batch": int(batch),
        "repeats": int(repeats),
        "cpus": threads,
        "bar": BAR,
        "mesh": {
            "integration_points": int(fs.n_integration_points),
            "ndofs": int(fs.ndofs),
            "species": len(spc),
        },
        "backends": results,
    }
    if have_numba:
        report["bar_waived"] = False
        report["row_block_speedup"] = results["numba"][
            "row_block_speedup_vs_threaded"
        ]
    else:
        report["bar_waived"] = True
        report["bar_waived_reason"] = (
            "numba is not installed in this container; the >= 2x row-block "
            "bar is enforced only on CI legs that install the pinned numba"
        )
    return report


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument(
        "--smoke",
        action="store_true",
        help="CI mode: tiny mesh, agreement checks only, no speedup bar",
    )
    ap.add_argument("--batch", type=int, default=64)
    ap.add_argument("--repeats", type=int, default=3)
    ap.add_argument("--out", default="BENCH_jit.json")
    args = ap.parse_args(argv)
    if args.batch < 64:
        ap.error("--batch must be >= 64 (the bar is defined at batch >= 64)")

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
    if result["bar_waived"]:
        print(f"OK: agreement {worst:.3e}; {result['bar_waived_reason']}")
        return 0
    speedup = result["row_block_speedup"]
    if not args.smoke and result["cpus"] >= 2 and speedup < BAR:
        print(
            f"FAIL: numba row-block assembly speedup {speedup:.2f}x below "
            f"the {BAR:.0f}x acceptance bar at batch {result['batch']}"
        )
        return 1
    note = "" if result["cpus"] >= 2 else " (single CPU: bar waived)"
    print(
        f"OK: numba row-block assembly {speedup:.2f}x vs threaded at "
        f"batch {result['batch']}, max rel diff {worst:.3e}{note}"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
