"""Golden-trace regression for the serve tier.

A fixed, seeded drain workload is hashed bitwise and pinned in
``tests/golden/serve_trace.json`` under the key ``numpy``: refactors of
the hot paths (pair-table builds, contraction dispatch) must never
perturb it.  The file's ``threaded`` entry is the record of a deleted
second executor; nothing reads it.

Golden hashes are keyed to a platform fingerprint (arch + numpy
version): on a different platform the recorded-hash comparison is
replaced by a run-to-run determinism assertion (two drains, identical
bytes).  Re-record with ``REPRO_GOLDEN_UPDATE=1``; a missing golden file
self-records on first run.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
from pathlib import Path

import numpy as np
import pytest

from repro.core.maxwellian import maxwellian_rz
from repro.core.options import AssemblyOptions
from repro.serve import CollisionSolveService, ServeOptions, SolvePlan
from repro.serve.jobs import STATUS_OK

GOLDEN_PATH = Path(__file__).parent / "golden" / "serve_trace.json"


def _fingerprint() -> str:
    return f"{platform.machine()}:numpy-{np.__version__}"


def _load_golden() -> dict:
    if GOLDEN_PATH.exists():
        return json.loads(GOLDEN_PATH.read_text())
    return {}


def _store_golden(golden: dict) -> None:
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")


@pytest.fixture(scope="module")
def workload(fs_q2):
    """Deterministic seeded drain workload: 8 perturbed Maxwellians."""
    rng = np.random.default_rng(20260808)
    states = []
    for _ in range(8):
        vth = 0.886 * rng.uniform(0.8, 1.1)
        drift = rng.uniform(-0.1, 0.1)
        states.append(
            fs_q2.interpolate(
                lambda r, z, v=vth, d=drift: maxwellian_rz(r, z - d, 1.0, v)
            )[None, :]
        )
    return states


def _drain(fs, species, states):
    """Run the workload through a synchronous drain; returns (sha256 hex
    digest, stacked result states)."""
    plan = SolvePlan(
        fs=fs, species=species, dt=0.3, options=AssemblyOptions()
    )
    with CollisionSolveService(
        ServeOptions(executor="thread", num_shards=2, max_batch=4)
    ) as svc:
        results = svc.solve_many(plan, states)
    h = hashlib.sha256()
    out = []
    for r in results:
        assert r.status == STATUS_OK
        h.update(np.ascontiguousarray(r.state).tobytes())
        out.append(r.state)
    return h.hexdigest(), np.stack(out)


def _check_or_record(name: str, digest: str) -> None:
    """Compare against the recorded hash for this platform; self-record
    when missing or when REPRO_GOLDEN_UPDATE=1."""
    golden = _load_golden()
    fp = _fingerprint()
    entry = golden.get(name)
    update = os.environ.get("REPRO_GOLDEN_UPDATE", "0") not in ("0", "")
    if entry is None or entry.get("fingerprint") != fp or update:
        if entry is not None and entry.get("fingerprint") != fp and not update:
            # foreign platform: determinism was already asserted by the
            # caller; do not overwrite the recording platform's hash
            return
        golden[name] = {"fingerprint": fp, "sha256": digest}
        _store_golden(golden)
        return
    assert entry["sha256"] == digest, (
        f"golden serve trace {name!r} changed on the recording "
        f"platform ({fp}); if intentional, re-record with "
        "REPRO_GOLDEN_UPDATE=1"
    )


class TestGoldenTrace:
    def test_trace_bitwise_stable(self, fs_q2, electron_species, workload):
        d1, s1 = _drain(fs_q2, electron_species, workload)
        d2, s2 = _drain(fs_q2, electron_species, workload)
        # run-to-run determinism holds on every platform
        assert d1 == d2 and np.array_equal(s1, s2)
        _check_or_record("numpy", d1)

    def test_golden_file_is_wellformed(self):
        golden = _load_golden()
        # the numpy entry exists after the suite has run once
        if "numpy" in golden:
            assert set(golden["numpy"]) >= {"fingerprint", "sha256"}
            assert len(golden["numpy"]["sha256"]) == 64
