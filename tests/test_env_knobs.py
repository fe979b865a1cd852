"""The inventory of environment knobs.

Every ``REPRO_*`` name the library can read from the environment is a
string constant in its source (a prefix a name is built from counts as
written).  The set is pinned here, so a knob added or removed shows up
as a diff of this file, and each pinned name is checked to be live:
setting it changes what its reader returns.  The retired executor knobs
are checked to be ignored.
"""

import ast
import re
from pathlib import Path

import pytest

import repro

#: every ``REPRO_*`` string constant under ``src/repro``
KNOBS = (
    "REPRO_ASSEMBLY_CACHE_TABLES",
    "REPRO_ASSEMBLY_MEMORY_BUDGET",
    "REPRO_ENSEMBLE_CHECKPOINT_DIR",
    "REPRO_ENSEMBLE_DT",
    "REPRO_ENSEMBLE_MAX_INFLIGHT",
    "REPRO_ENSEMBLE_MAX_STEPS",
    "REPRO_FAULT_PLAN",
    "REPRO_SERVE_BATCH_DEADLINE_S",
    "REPRO_SERVE_BREAKER_BACKOFF_MAX_S",
    "REPRO_SERVE_BREAKER_BACKOFF_S",
    "REPRO_SERVE_BREAKER_COOLDOWN",
    "REPRO_SERVE_BREAKER_MAX_COOLDOWN",
    "REPRO_SERVE_BREAKER_THRESHOLD",
    "REPRO_SERVE_CHECKPOINT_DIR",
    "REPRO_SERVE_CHECKPOINT_INTERVAL_S",
    "REPRO_SERVE_EXECUTOR",
    "REPRO_SERVE_HEARTBEAT_S",
    "REPRO_SERVE_MAX_BATCH",
    "REPRO_SERVE_MAX_WAIT_MS",
    "REPRO_SERVE_QUEUE_BOUND",
    "REPRO_SERVE_SHARDS",
    "REPRO_SERVE_WARM_DEADLINE_S",
)

_NAME = re.compile(r"REPRO_[A-Z0-9_]*\Z")


def _knobs_in_source() -> set:
    found = set()
    for path in Path(repro.__file__).parent.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (
                isinstance(node, ast.Constant)
                and isinstance(node.value, str)
                and _NAME.match(node.value)
            ):
                found.add(node.value)
    return found


def test_knob_inventory_is_pinned():
    found = _knobs_in_source()
    assert sorted(found) == sorted(KNOBS), (
        f"added: {sorted(found - set(KNOBS))}, "
        f"removed: {sorted(set(KNOBS) - found)}"
    )


def _assembly(field):
    from repro.core.options import AssemblyOptions

    return lambda: getattr(AssemblyOptions.from_env(), field)


def _serve(field):
    from repro.serve import ServeOptions

    return lambda: getattr(ServeOptions.from_env(), field)


def _supervisor(field):
    from repro.resilience.supervisor import SupervisorOptions

    return lambda: getattr(SupervisorOptions.from_env(), field)


def _campaign(field):
    from repro.ensemble import CampaignOptions

    return lambda: getattr(CampaignOptions.from_env(), field)


def _fault_seed():
    from repro.resilience.faults import FaultPlan

    plan = FaultPlan.from_env()
    return None if plan is None else plan.seed


#: each knob, a value it can take, the reader that sees it and what that
#: reader then returns — none of them the default
READS = {
    "REPRO_ASSEMBLY_CACHE_TABLES": ("0", _assembly("cache_pair_tables"), False),
    "REPRO_ASSEMBLY_MEMORY_BUDGET": ("3e6", _assembly("memory_budget"), 3_000_000),
    "REPRO_ENSEMBLE_CHECKPOINT_DIR": ("ck", _campaign("checkpoint_dir"), "ck"),
    "REPRO_ENSEMBLE_DT": ("0.125", _campaign("dt"), 0.125),
    "REPRO_ENSEMBLE_MAX_INFLIGHT": ("7", _campaign("max_inflight"), 7),
    "REPRO_ENSEMBLE_MAX_STEPS": ("9", _campaign("max_steps"), 9),
    "REPRO_FAULT_PLAN": ('{"seed": 11}', _fault_seed, 11),
    "REPRO_SERVE_BATCH_DEADLINE_S": ("2.5", _supervisor("batch_deadline_s"), 2.5),
    "REPRO_SERVE_BREAKER_BACKOFF_MAX_S": (
        "4.5",
        _supervisor("restart_backoff_max_s"),
        4.5,
    ),
    "REPRO_SERVE_BREAKER_BACKOFF_S": ("0.25", _supervisor("restart_backoff_s"), 0.25),
    "REPRO_SERVE_BREAKER_COOLDOWN": ("3", _supervisor("breaker_cooldown"), 3),
    "REPRO_SERVE_BREAKER_MAX_COOLDOWN": ("24", _supervisor("breaker_max_cooldown"), 24),
    "REPRO_SERVE_BREAKER_THRESHOLD": ("5", _supervisor("breaker_threshold"), 5),
    "REPRO_SERVE_CHECKPOINT_DIR": ("ck", _serve("checkpoint_dir"), "ck"),
    "REPRO_SERVE_CHECKPOINT_INTERVAL_S": ("1.5", _serve("checkpoint_interval_s"), 1.5),
    "REPRO_SERVE_EXECUTOR": ("process", _serve("executor"), "process"),
    "REPRO_SERVE_HEARTBEAT_S": ("0.75", _supervisor("heartbeat_s"), 0.75),
    "REPRO_SERVE_MAX_BATCH": ("12", _serve("max_batch"), 12),
    "REPRO_SERVE_MAX_WAIT_MS": ("6.5", _serve("max_wait_ms"), 6.5),
    "REPRO_SERVE_QUEUE_BOUND": ("99", _serve("queue_bound"), 99),
    "REPRO_SERVE_SHARDS": ("3", _serve("num_shards"), 3),
    "REPRO_SERVE_WARM_DEADLINE_S": ("8.5", _supervisor("warm_deadline_s"), 8.5),
}


def test_every_knob_has_a_read_case():
    assert sorted(READS) == sorted(KNOBS)


@pytest.mark.parametrize("name", KNOBS)
def test_knob_is_read(name, monkeypatch):
    """Setting the knob moves what its reader returns off the default to
    the value set: no pinned name is dead."""
    raw, read, expected = READS[name]
    for knob in KNOBS:
        monkeypatch.delenv(knob, raising=False)
    assert read() != expected
    monkeypatch.setenv(name, raw)
    assert read() == expected


@pytest.mark.parametrize(
    "name, raw",
    [
        ("REPRO_BACKEND", "threaded"),
        ("REPRO_BACKEND", "process"),
        ("REPRO_ASSEMBLY_THREADS", "4"),
        ("REPRO_ASSEMBLY_THREADS", "four"),
    ],
)
def test_retired_knob_is_ignored(name, raw, monkeypatch):
    """The executor and thread-count knobs are gone: an environment that
    still sets them, even to values they once rejected, gives the
    default options and the same plan key."""
    from repro.core import SpeciesSet, electron
    from repro.core.options import AssemblyOptions
    from repro.fem import FunctionSpace, Mesh
    from repro.serve import SolvePlan

    fs = FunctionSpace(Mesh.structured(2, 2, 2.0, -2.0, 2.0), order=2)
    species = SpeciesSet([electron()])
    ref = SolvePlan(fs=fs, species=species, dt=0.1, options=AssemblyOptions())
    monkeypatch.setenv(name, raw)
    assert AssemblyOptions.from_env() == AssemblyOptions()
    plan = SolvePlan(fs=fs, species=species, dt=0.1)
    assert plan.options == ref.options and plan.key == ref.key
