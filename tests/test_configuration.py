"""Configuration comes from arguments only.

Every setting of the library is a field of an options dataclass its
caller passes, or that field's default; the process environment changes
nothing.  A collision solve is then a pure function of ``(plan,
state)``, which the serve checkpoint's restore and the campaign
ledger's resume rely on.
"""

import ast
import os
from pathlib import Path

import pytest

import repro
from repro.core import LandauOperator, SpeciesSet, electron
from repro.core.options import AssemblyOptions
from repro.ensemble import CampaignDriver, CampaignOptions, ScenarioDesign
from repro.ensemble.campaign import LEDGER_NAME
from repro.fem import FunctionSpace, Mesh
from repro.resilience import FaultPlan
from repro.resilience.supervisor import SupervisorOptions
from repro.serve import CollisionSolveService, ServeOptions, SolvePlan
from repro.serve.plan import PlanCache

#: names the library once read from the environment (the 22 knobs and
#: three executor/arena knobs retired before them), each set to a valid
#: value that is not its setting's default
FORMER_KNOBS = {
    "REPRO_ASSEMBLY_CACHE_TABLES": "0",
    "REPRO_ASSEMBLY_MEMORY_BUDGET": "3e6",
    "REPRO_ENSEMBLE_CHECKPOINT_DIR": "ck",
    "REPRO_ENSEMBLE_DT": "0.125",
    "REPRO_ENSEMBLE_MAX_INFLIGHT": "7",
    "REPRO_ENSEMBLE_MAX_STEPS": "9",
    "REPRO_FAULT_PLAN": '{"seed": 11}',
    "REPRO_SERVE_BATCH_DEADLINE_S": "2.5",
    "REPRO_SERVE_BREAKER_BACKOFF_MAX_S": "4.5",
    "REPRO_SERVE_BREAKER_BACKOFF_S": "0.25",
    "REPRO_SERVE_BREAKER_COOLDOWN": "3",
    "REPRO_SERVE_BREAKER_MAX_COOLDOWN": "24",
    "REPRO_SERVE_BREAKER_THRESHOLD": "5",
    "REPRO_SERVE_CHECKPOINT_DIR": "ck",
    "REPRO_SERVE_CHECKPOINT_INTERVAL_S": "1.5",
    "REPRO_SERVE_EXECUTOR": "process",
    "REPRO_SERVE_HEARTBEAT_S": "0.75",
    "REPRO_SERVE_MAX_BATCH": "12",
    "REPRO_SERVE_MAX_WAIT_MS": "6.5",
    "REPRO_SERVE_QUEUE_BOUND": "99",
    "REPRO_SERVE_SHARDS": "3",
    "REPRO_SERVE_WARM_DEADLINE_S": "8.5",
    "REPRO_BACKEND": "threaded",
    "REPRO_ASSEMBLY_THREADS": "4",
    "REPRO_SHM_BUDGET": "0",
}

_ENV_READERS = {"environ", "environb", "getenv", "getenvb"}


def _environment_uses(tree: ast.AST) -> list[str]:
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in _ENV_READERS:
            found.append(f"os.{node.attr}")
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            found += [f"os.{a.name}" for a in node.names if a.name in _ENV_READERS]
        elif (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and "REPRO_" in node.value
        ):
            found.append(repr(node.value))
    return found


def test_library_reads_no_environment():
    """No module under ``src/repro`` reads the environment or names a
    ``REPRO_*`` variable, even in a docstring."""
    root = Path(repro.__file__).parent
    offenders = {
        str(p.relative_to(root)): uses
        for p in sorted(root.rglob("*.py"))
        if (uses := _environment_uses(ast.parse(p.read_text(), str(p))))
    }
    assert offenders == {}


def _space():
    return FunctionSpace(Mesh.structured(2, 2, 2.0, -2.0, 2.0), order=2)


def _plan_key():
    return SolvePlan(fs=_space(), species=SpeciesSet([electron()]), dt=0.1).key


def _operator_options():
    return LandauOperator(_space(), SpeciesSet([electron()])).options


def _service_settings():
    svc = CollisionSolveService()
    try:
        return svc.options, svc._fault_plan
    finally:
        svc.close()


def _campaign_settings():
    driver = CampaignDriver(
        ScenarioDesign(members=2, seed=1),
        CampaignOptions(mesh_kwargs={"h_factor": 1.6}),
    )
    try:
        keys = sorted(plan.key for plan in driver._plans.values())
        return keys, driver.service.options, driver.service._fault_plan
    finally:
        driver.service.close()


#: everything that once read one of the knobs, built with default
#: arguments
READERS = {
    "ServeOptions": ServeOptions,
    "SupervisorOptions": SupervisorOptions,
    "CampaignOptions": CampaignOptions,
    "AssemblyOptions": AssemblyOptions,
    "SolvePlan.key": _plan_key,
    "PlanCache.budget": lambda: PlanCache().budget,
    "LandauOperator.options": _operator_options,
    "CollisionSolveService": _service_settings,
    "CampaignDriver": _campaign_settings,
}


@pytest.mark.parametrize("name", READERS)
def test_former_knobs_change_nothing(name, monkeypatch):
    """With every former knob set, a default-built reader returns what
    it returns in a clean environment."""
    read = READERS[name]
    for knob in FORMER_KNOBS:
        monkeypatch.delenv(knob, raising=False)
    clean = read()
    for knob, value in FORMER_KNOBS.items():
        monkeypatch.setenv(knob, value)
    assert read() == clean


def _serve_option(name):
    def read(kw):
        svc = CollisionSolveService(ServeOptions(**kw))
        try:
            return svc.snapshot()["options"][name]
        finally:
            svc.close()

    return lambda value: read({name: value}), lambda: read({})


def _supervision(name):
    def read(kw):
        opts = ServeOptions(supervision=SupervisorOptions(**kw))
        svc = CollisionSolveService(opts)
        try:
            return svc.snapshot()["options"]["supervision"][name]
        finally:
            svc.close()

    return lambda value: read({name: value}), lambda: read({})


def _campaign(name, look):
    def read(kw):
        driver = CampaignDriver(
            ScenarioDesign(members=2, seed=1),
            CampaignOptions(mesh_kwargs={"h_factor": 1.6}, **kw),
        )
        try:
            return look(driver)
        finally:
            driver.service.close()

    return lambda value: read({name: value}), lambda: read({})


def _assembly(name):
    def read(kw):
        op = LandauOperator(
            _space(), SpeciesSet([electron()]), options=AssemblyOptions(**kw)
        )
        return getattr(op.options, name)

    return lambda value: read({name: value}), lambda: read({})


def _fault_seed(plan):
    svc = CollisionSolveService(fault_plan=plan)
    try:
        return None if svc._fault_plan is None else svc._fault_plan.seed
    finally:
        svc.close()


#: the setting each former knob carried, as an argument: how it is passed
#: to the object that uses it and read back there, the value passed and
#: what is then read — none of them the default
SETTINGS = {
    "AssemblyOptions.cache_pair_tables": (_assembly("cache_pair_tables"), False, False),
    "AssemblyOptions.memory_budget": (_assembly("memory_budget"), 3e6, 3_000_000),
    "CampaignOptions.checkpoint_dir": (
        _campaign("checkpoint_dir", lambda d: d.ledger_path),
        "ck",
        os.path.join("ck", LEDGER_NAME),
    ),
    "CampaignOptions.dt": (
        _campaign("dt", lambda d: {p.dt for p in d._plans.values()}),
        0.125,
        {0.125},
    ),
    "CampaignOptions.max_inflight": (
        _campaign("max_inflight", lambda d: d.options.max_inflight),
        7,
        7,
    ),
    "CampaignOptions.max_steps": (
        _campaign("max_steps", lambda d: d.options.max_steps),
        9,
        9,
    ),
    "fault_plan": (
        (lambda value: _fault_seed(FaultPlan(seed=value)), lambda: _fault_seed(None)),
        11,
        11,
    ),
    "SupervisorOptions.batch_deadline_s": (_supervision("batch_deadline_s"), 2.5, 2.5),
    "SupervisorOptions.restart_backoff_max_s": (
        _supervision("restart_backoff_max_s"),
        4.5,
        4.5,
    ),
    "SupervisorOptions.restart_backoff_s": (
        _supervision("restart_backoff_s"),
        0.25,
        0.25,
    ),
    "SupervisorOptions.breaker_cooldown": (_supervision("breaker_cooldown"), 3, 3),
    "SupervisorOptions.breaker_max_cooldown": (
        _supervision("breaker_max_cooldown"),
        24,
        24,
    ),
    "SupervisorOptions.breaker_threshold": (_supervision("breaker_threshold"), 5, 5),
    "ServeOptions.checkpoint_dir": (_serve_option("checkpoint_dir"), "ck", "ck"),
    "ServeOptions.checkpoint_interval_s": (
        _serve_option("checkpoint_interval_s"),
        1.5,
        1.5,
    ),
    "ServeOptions.executor": (_serve_option("executor"), "process", "process"),
    "SupervisorOptions.heartbeat_s": (_supervision("heartbeat_s"), 0.75, 0.75),
    "ServeOptions.max_batch": (_serve_option("max_batch"), 12, 12),
    "ServeOptions.max_wait_ms": (_serve_option("max_wait_ms"), 6.5, 6.5),
    "ServeOptions.queue_bound": (_serve_option("queue_bound"), 99, 99),
    "ServeOptions.num_shards": (_serve_option("num_shards"), 3, 3),
    "SupervisorOptions.warm_deadline_s": (_supervision("warm_deadline_s"), 8.5, 8.5),
}


def test_every_former_knob_has_an_argument():
    """One setting per former knob, the retired executor and arena knobs
    aside: each knob's value is still reachable, through an argument."""
    retired = {"REPRO_BACKEND", "REPRO_ASSEMBLY_THREADS", "REPRO_SHM_BUDGET"}
    assert len(SETTINGS) == len(set(FORMER_KNOBS) - retired)


@pytest.mark.parametrize("name", SETTINGS)
def test_argument_reaches_its_reader(name):
    """Passing the setting moves what the object that uses it reads off
    the default to the value passed."""
    (read, read_default), value, expected = SETTINGS[name]
    assert read_default() != expected
    assert read(value) == expected
