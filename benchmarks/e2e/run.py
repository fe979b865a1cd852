"""The repo's end-to-end benchmark: one command, every tracked number.

    python benchmarks/e2e/run.py [--workload NAME] [--seed N] [--seconds S]
                                 [--trace [0|1]] [--quick] [--repeat K]
                                 [--out FILE]
    python benchmarks/e2e/run.py --compare A.json B.json

Every workload runs in its own fresh subprocess (``workload.py``, which
pins BLAS to one thread before importing numpy).  Without ``--workload``
all five run, untraced and then traced; every metric is printed by name
with its unit, outputs are verified, and any correctness failure makes
the exit code non-zero.  With ``--workload`` the last line of stdout is
the JSON object ``BENCHMARK.json``'s contract asks for.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")

sys.path.insert(0, HERE)
import spec  # noqa: E402

DEFAULT_SEED = 11
DEFAULT_SECONDS = 16.0
QUICK_SECONDS = 0.5


class ReproEnvironmentError(RuntimeError):
    """A ``REPRO_*`` variable is set: it would silently change backends,
    batch sizes or fault plans under the benchmark."""


def refuse_repro_environment() -> None:
    offending = sorted(k for k in os.environ if k.startswith("REPRO_"))
    if offending:
        raise ReproEnvironmentError(
            "unset these before benchmarking: " + ", ".join(offending)
        )


def run_child(workload: str, seed: int, seconds: float, trace: int, quick: bool) -> dict:
    """Run one workload in a fresh interpreter and return its record."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p
    )
    cmd = [
        sys.executable,
        os.path.join(HERE, "workload.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
        "--root", ROOT,
    ]
    if quick:
        cmd.append("--quick")
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise SystemExit(
            f"FAIL {workload}: workload process exited with code "
            f"{proc.returncode} and no result"
        )
    return json.loads(lines[-1])


def print_record(record: dict) -> None:
    tag = f"{record['workload']}{' [traced]' if record['trace'] else ''}"
    for name, m in record["metrics"].items():
        spread = (
            f"  (q1 {m['q1']:.6g}, q3 {m['q3']:.6g}, n={m['n']})"
            if "q1" in m
            else (f"  (n={m['n']})" if "n" in m else "")
        )
        print(f"{tag:32s} {name:44s} {m['value']:.6g} {m['unit']}{spread}")
    status = "ok" if record["correct"] else "FAIL: " + "; ".join(record["errors"])
    print(
        f"{tag:32s} rounds={record['rounds']} attempted={record['attempted']} "
        f"failed={record['failed']} {status}"
    )


def contract_line(record: dict) -> str:
    """The driver-facing result: exactly the metrics BENCHMARK.json lists."""
    wanted = (
        spec.per_layer()
        if record["trace"]
        else [m for m in spec.END_TO_END if m.tracked]
    )
    return json.dumps(
        {
            "correct": record["correct"],
            "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": {
                m.name: {
                    "value": record["metrics"][m.name]["value"],
                    "unit": record["metrics"][m.name]["unit"],
                }
                for m in wanted
            },
        }
    )


# ----------------------------------------------------------------------
# --compare


def _values(doc: dict) -> dict:
    """``(workload, metric) -> values`` over a file's untraced runs."""
    out: dict = {}
    for rec in doc["runs"]:
        if rec["trace"]:
            continue
        for name, m in rec["metrics"].items():
            out.setdefault((rec["workload"], name), []).append(m["value"])
    return out


def _spread(values: list) -> float:
    """Interquartile range over the median; 0 for a single run."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(statistics.median(values))


def compare(path_a: str, path_b: str) -> int:
    with open(path_a) as fa, open(path_b) as fb:
        a, b = _values(json.load(fa)), _values(json.load(fb))
    regressed = 0
    print(
        f"{'workload':22s} {'metric':20s} {'A':>12s} {'B':>12s} "
        f"{'worse by':>9s} {'bound':>6s} {'spread':>7s}  verdict"
    )
    for workload in spec.WORKLOADS:
        for m in spec.END_TO_END:
            va, vb = a.get((workload, m.name)), b.get((workload, m.name))
            if not va or not vb:
                continue
            ma, mb = statistics.median(va), statistics.median(vb)
            if m.bound is None:  # max_rel_err: an absolute ceiling
                verdict = "ok" if mb <= spec.MAX_REL_ERR else "regressed"
                worse, spread, bound = mb - ma, 0.0, spec.MAX_REL_ERR
            else:
                sign = 1.0 if m.better == "lower" else -1.0
                worse = sign * (mb - ma) / abs(ma) if ma else sign * (mb - ma)
                spread = max(_spread(va), _spread(vb))
                bound = m.bound
                separated = (
                    max(vb) < min(va) if m.better == "lower" else min(vb) > max(va)
                )
                if spread > bound and not separated:
                    verdict = "unresolved"
                elif worse > bound:
                    verdict = "regressed"
                else:
                    verdict = "ok"
            regressed += verdict == "regressed"
            print(
                f"{workload:22s} {m.name:20s} {ma:12.5g} {mb:12.5g} "
                f"{worse:+9.1%} {bound:6.2g} {spread:7.1%}  {verdict}"
            )
    return 1 if regressed else 0


# ----------------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    ap.add_argument("--workload", choices=list(spec.WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, help="timed seconds per run")
    ap.add_argument(
        "--trace", type=int, nargs="?", const=1, choices=(0, 1),
        help="1: the traced run (per-layer metrics); 0: untraced (end to end); "
        "default: both",
    )
    ap.add_argument("--quick", action="store_true", help="tiny sizes (self-test)")
    ap.add_argument("--repeat", type=int, default=1, help="sets of runs (for --compare)")
    ap.add_argument("--out", help="write every run's full record to this JSON file")
    ap.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = ap.parse_args(argv)

    if args.compare:
        return compare(*args.compare)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: no source tree at {SRC}; run from a full checkout", file=sys.stderr)
        return 2

    refuse_repro_environment()
    seconds = args.seconds or (QUICK_SECONDS if args.quick else DEFAULT_SECONDS)
    workloads = [args.workload] if args.workload else list(spec.WORKLOADS)
    traces = [args.trace] if args.trace is not None else [0, 1]
    runs = []
    for _ in range(args.repeat):
        for workload in workloads:
            for trace in traces:
                record = run_child(workload, args.seed, seconds, trace, args.quick)
                print_record(record)
                runs.append(record)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"fingerprint": runs[0]["fingerprint"], "runs": runs}, fh, indent=1)
    if args.workload and args.trace is not None and args.repeat == 1:
        print(contract_line(runs[0]))
    return 0 if all(r["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
