"""Self-test of the benchmark harness (``pytest benchmarks/e2e``).

Runs every workload once at ``--quick`` sizes, traced and untraced, and
checks the harness — not the performance: names and units, the span
arithmetic, that tracing leaves the library as it found it, and that
``--seed`` only changes the inputs.
"""

from __future__ import annotations

import copy
import json
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
RUN = os.path.join(HERE, "run.py")
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import run  # noqa: E402
import spec  # noqa: E402
from tracing import _MISSING, Tracer  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _run(*args, env=None):
    return subprocess.run(
        [sys.executable, RUN, *args], capture_output=True, text=True, env=env
    )


@pytest.fixture(scope="module")
def quick(tmp_path_factory):
    out = tmp_path_factory.mktemp("e2e") / "quick.json"
    proc = _run("--quick", "--out", str(out))
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    with open(out) as fh:
        doc = json.load(fh)
    return {(r["workload"], r["trace"]): r for r in doc["runs"]}, str(out)


def test_benchmark_json_lists_what_the_spec_defines():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert bench["paths"] == ["benchmarks/e2e"]
    assert bench["command"] == ["python3", "benchmarks/e2e/run.py"]
    assert bench["run_seconds"] == run.DEFAULT_SECONDS
    assert {w["name"]: w["why"] for w in bench["workloads"]} == spec.WORKLOADS
    assert bench["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in spec.END_TO_END
        if m.tracked
    ]
    assert bench["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better} for m in spec.per_layer()
    ]


def test_every_workload_reports_every_metric_with_a_unit(quick):
    records, _ = quick
    for workload in spec.WORKLOADS:
        for trace, wanted in (
            (False, [m for m in spec.END_TO_END if m.tracked]),
            (True, spec.per_layer()),
        ):
            rec = records[workload, trace]
            assert rec["correct"] and rec["failed"] == 0, rec["errors"]
            assert rec["attempted"] >= 1
            for m in wanted:
                got = rec["metrics"][m.name]
                assert NAME.fullmatch(m.name)
                assert got["unit"] == m.unit
                assert isinstance(got["value"], (int, float))
            line = json.loads(run.contract_line(rec))
            assert list(line) == ["correct", "attempted", "failed", "metrics"]
            assert list(line["metrics"]) == [m.name for m in wanted]
        fp = records[workload, False]["fingerprint"]
        assert fp["blas_threads"] == 1 and fp["nproc"] >= 1 and fp["seed"] == 11
    assert records["campaign_q2_m16", False]["metrics"]["members_per_hour"]["value"] > 0


def test_span_self_times_and_unattributed_share_add_up_to_the_round_wall(quick):
    records, _ = quick
    # drain mode: every span is on the caller's thread, so self times
    # plus the uncovered remainder must partition the traced wall
    for workload in ("serve_e_q3_b64", "serve_ed_q2_otf_b16", "campaign_q2_m16"):
        metrics = records[workload, True]["metrics"]
        shares = sum(metrics[f"{s}.share"]["value"] for s in spec.SPANS)
        total = shares + metrics["trace.unattributed_share"]["value"]
        assert total == pytest.approx(1.0, abs=0.02)

    # and the reported self times match a recomputation from the raw spans
    rec = records["serve_e_q3_b64", True]
    with open(os.path.join(ROOT, ".bench_e2e", "trace-serve_e_q3_b64.jsonl")) as fh:
        spans = [json.loads(line) for line in fh]
    self_s = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            self_s[s["parent"]] -= s["end"] - s["start"]
    traced_rounds = len({s["round"] for s in spans})
    assert traced_rounds == rec["rounds"] // 2
    for name in spec.SPANS:
        recomputed = sum(t for t, s in zip(self_s, spans) if s["name"] == name)
        reported = rec["metrics"][f"{name}.self_s"]["value"] * traced_rounds
        assert recomputed == pytest.approx(reported, rel=1e-6, abs=1e-9)


def test_tracer_restores_the_wrapped_callables_by_identity():
    tracer = Tracer()
    targets = list(tracer._targets.values())
    before = [cls.__dict__.get(attr, _MISSING) for cls, attr in targets]
    tracer.install()
    assert all(
        cls.__dict__[attr] is not orig for (cls, attr), orig in zip(targets, before)
    )
    tracer.uninstall()
    after = [cls.__dict__.get(attr, _MISSING) for cls, attr in targets]
    assert all(a is b for a, b in zip(after, before))


def test_seed_changes_the_inputs_but_not_the_job_counts(quick, tmp_path):
    records, _ = quick
    out = tmp_path / "seed12.json"
    proc = _run(
        "--quick", "--workload", "live_e_q2_b8", "--trace", "0",
        "--seed", "12", "--out", str(out),
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    with open(out) as fh:
        other = json.load(fh)["runs"][0]
    base = records["live_e_q2_b8", False]
    assert other["inputs_sha256"] != base["inputs_sha256"]
    assert other["attempted"] // other["rounds"] == base["attempted"] // base["rounds"]
    # the driver-facing result is the last line of stdout
    assert json.loads(proc.stdout.strip().splitlines()[-1])["correct"] is True


def test_compare_separates_ok_from_regressed(quick, tmp_path, capsys):
    _, path = quick
    assert run.compare(path, path) == 0
    with open(path) as fh:
        slower = copy.deepcopy(json.load(fh))
    for rec in slower["runs"]:
        if rec["workload"] == "serve_e_q3_b64" and not rec["trace"]:
            rec["metrics"]["jobs_per_s"]["value"] *= 0.7
    worse = tmp_path / "slower.json"
    worse.write_text(json.dumps(slower))
    capsys.readouterr()
    assert run.compare(path, str(worse)) == 1
    verdicts = [
        line.split()[-1]
        for line in capsys.readouterr().out.splitlines()
        if line.startswith("serve_e_q3_b64") and " jobs_per_s " in line
    ]
    assert verdicts == ["regressed"]


def test_refuses_to_run_with_a_repro_variable_set():
    proc = _run("--quick", "--workload", "serve_e_q3_b64", env={**os.environ, "REPRO_BACKEND": "numpy"})
    assert proc.returncode != 0
    assert "ReproEnvironmentError" in proc.stderr and "REPRO_BACKEND" in proc.stderr
