"""Ensemble subsystem: sampling determinism, streaming UQ estimators,
and the checkpointed campaign driver over the serve tier.

The two load-bearing guarantees exercised here:

* **bitwise reproducibility** — a seeded campaign produces identical
  member states regardless of scenario submission order or executor
  type (per-member spawned RNG streams + lock-step canonical rounds);
* **resume correctness** — a killed campaign re-run against its ledger
  re-executes only unfinished work (``rerun_overlap == 0``) and lands on
  bitwise-identical final states.
"""

from __future__ import annotations

import json
import multiprocessing as mp
import os
import signal
import time

import numpy as np
import pytest

from repro.ensemble import (
    CampaignDriver,
    CampaignOptions,
    EnsembleAccumulator,
    GaussianRandomField1D,
    LEDGER_NAME,
    P2Quantile,
    ScalarReservoir,
    ScenarioDesign,
    StreamingMoments,
    bootstrap_ci,
    campaign_report,
    distribution_table,
    member_seed_sequences,
    oat_sensitivity,
    sample_scenarios,
    write_campaign_json,
)
from repro.ensemble.campaign import _MemberRun
from repro.report import serve_summary
from repro.serve.service import CollisionSolveService, ServeOptions

# test-sized campaign: tiny mesh, few steps, early quench threshold so
# the crossing lands inside the truncated trace
FAST = dict(
    dt=0.5,
    max_steps=6,
    post_steps=2,
    order=2,
    mesh_kwargs={"h_factor": 1.6},
    quench_threshold=0.8,
)


def fast_options(**overrides) -> CampaignOptions:
    return CampaignOptions(**{**FAST, **overrides})


# ----------------------------------------------------------------------
# sampling


class TestSampling:
    def test_design_validation_names_field(self):
        with pytest.raises(ValueError, match=r"ScenarioDesign\.members"):
            ScenarioDesign(members=0)
        with pytest.raises(ValueError, match=r"ScenarioDesign\.design"):
            ScenarioDesign(design="sobol")
        with pytest.raises(ValueError, match=r"ScenarioDesign\.Z_choices"):
            ScenarioDesign(Z_choices=(0.5,))
        with pytest.raises(ValueError, match=r"ScenarioDesign\.cold_temperature"):
            ScenarioDesign(cold_temperature=(0.3, 0.1))
        with pytest.raises(ValueError, match=r"ScenarioDesign\.kl_sigma_density"):
            ScenarioDesign(kl_sigma_density=-0.1)

    def test_sampling_is_deterministic(self):
        d = ScenarioDesign(members=8, seed=42)
        a = sample_scenarios(d)
        b = sample_scenarios(d)
        assert [s.member_key for s in a] == [s.member_key for s in b]
        assert [s.inputs for s in a] == [s.inputs for s in b]
        # a different seed moves every member
        c = sample_scenarios(ScenarioDesign(members=8, seed=43))
        assert {s.member_key for s in a}.isdisjoint(s.member_key for s in c)

    def test_member_keys_distinct(self):
        keys = {s.member_key for s in sample_scenarios(ScenarioDesign(members=16))}
        assert len(keys) == 16

    def test_mc_member_draws_independent_of_member_count(self):
        # a member's stream is a pure function of (seed, index): growing
        # the "mc" ensemble must not move the existing members
        a = sample_scenarios(ScenarioDesign(members=4, design="mc", seed=3))
        b = sample_scenarios(ScenarioDesign(members=8, design="mc", seed=3))
        assert [s.inputs for s in a] == [s.inputs for s in b[:4]]

    def test_lhs_stratification(self):
        d = ScenarioDesign(members=8, seed=11)
        scenarios = sample_scenarios(d)
        for name in (
            "E0_over_Ec",
            "injection_total",
            "injection_duration",
            "cold_temperature",
        ):
            lo, hi = getattr(d, name)
            bins = {
                min(int((s.inputs[name] - lo) / (hi - lo) * d.members), d.members - 1)
                for s in scenarios
            }
            assert bins == set(range(d.members)), name
        # the discrete Z column is stratified too: 8 members, 2 charges
        zs = [s.inputs["Z"] for s in scenarios]
        assert zs.count(1.0) == 4 and zs.count(2.0) == 4

    def test_seed_sequences_spawned_per_member(self):
        d = ScenarioDesign(members=5, seed=9)
        design_child, members = member_seed_sequences(d)
        assert len(members) == 5
        states = {tuple(m.generate_state(4)) for m in members}
        states.add(tuple(design_child.generate_state(4)))
        assert len(states) == 6  # all streams distinct

    def test_scenario_params_are_valid_and_in_range(self):
        d = ScenarioDesign(members=8, seed=1)
        for s in sample_scenarios(d):
            p = s.params
            assert p.Z in d.Z_choices
            assert d.E0_over_Ec[0] <= p.E0_over_Ec <= d.E0_over_Ec[1]
            assert p.density_factor > 0 and p.temperature_factor > 0
            assert 0.0 <= p.runaway_seed_fraction < 1.0


class TestGaussianRandomField:
    def test_eigenvalues_nonnegative_descending(self):
        g = GaussianRandomField1D(modes=6, length=0.25)
        lam = g.eigenvalues
        assert np.all(lam >= 0.0)
        assert np.all(np.diff(lam) <= 1e-12)

    def test_realization_shape_guard(self):
        g = GaussianRandomField1D(modes=4)
        with pytest.raises(ValueError):
            g.realize(np.zeros(3))

    def test_midpoint_variance_matches_kl_truncation(self):
        # Var[xi(x0)] = sum_k lambda_k phi_k(x0)^2 for the truncated KL
        g = GaussianRandomField1D(modes=4, length=0.3)
        mid = len(g.x) // 2
        expected = float(
            np.sum(g.eigenvalues * g.modes_on_grid[mid, :] ** 2)
        )
        rng = np.random.default_rng(0)
        samples = [
            g.midpoint(rng.standard_normal(4)) for _ in range(4000)
        ]
        assert np.var(samples) == pytest.approx(expected, rel=0.1)
        # and the truncation can't exceed the full marginal variance C(x,x)=1
        assert expected <= 1.0 + 1e-12

    def test_ctor_guards(self):
        with pytest.raises(ValueError):
            GaussianRandomField1D(modes=0)
        with pytest.raises(ValueError):
            GaussianRandomField1D(length=0.0)
        with pytest.raises(ValueError):
            GaussianRandomField1D(modes=8, grid=4)


# ----------------------------------------------------------------------
# streaming statistics


class TestStreamingStatistics:
    def test_welford_matches_numpy(self):
        rng = np.random.default_rng(5)
        xs = rng.normal(3.0, 2.0, size=257)
        m = StreamingMoments()
        for x in xs:
            m.add(x)
        assert m.count == 257
        assert m.mean == pytest.approx(float(np.mean(xs)), rel=1e-12)
        assert m.variance == pytest.approx(float(np.var(xs, ddof=1)), rel=1e-12)

    def test_welford_skips_nonfinite(self):
        m = StreamingMoments()
        for x in (1.0, float("nan"), 2.0, float("inf")):
            m.add(x)
        assert m.count == 2 and m.mean == pytest.approx(1.5)

    def test_p2_quantile_close_to_exact(self):
        rng = np.random.default_rng(17)
        xs = rng.normal(size=2000)
        for p in (0.05, 0.5, 0.95):
            est = P2Quantile(p)
            for x in xs:
                est.add(x)
            assert est.value == pytest.approx(
                float(np.quantile(xs, p)), abs=0.08
            )

    def test_p2_exact_fallback_below_five_samples(self):
        est = P2Quantile(0.5)
        assert np.isnan(est.value)
        for x in (3.0, 1.0, 2.0):
            est.add(x)
        assert est.value == pytest.approx(2.0)

    def test_p2_guard(self):
        with pytest.raises(ValueError):
            P2Quantile(0.0)
        with pytest.raises(ValueError):
            P2Quantile(1.0)

    def test_reservoir_cap_and_dropped(self):
        r = ScalarReservoir(cap=4)
        for x in range(10):
            r.add(float(x))
        assert len(r.values) == 4 and r.dropped == 6 and r.seen == 10
        assert r.quantile(0.0) == 0.0

    def test_bootstrap_ci_deterministic_and_brackets_mean(self):
        rng = np.random.default_rng(2)
        xs = rng.normal(10.0, 1.0, size=64)
        a = bootstrap_ci(xs, n_boot=200, seed=7)
        b = bootstrap_ci(xs, n_boot=200, seed=7)
        assert a == b
        assert a[0] < float(np.mean(xs)) < a[1]
        assert bootstrap_ci([5.0]) == (5.0, 5.0)
        lo, hi = bootstrap_ci([])
        assert np.isnan(lo) and np.isnan(hi)

    def test_accumulator_summary(self):
        acc = EnsembleAccumulator("q", seed=3)
        for x in (1.0, 2.0, 3.0, 4.0, float("nan")):
            acc.add(x)
        s = acc.summary(n_boot=100)
        assert s["count"] == 4 and s["skipped"] == 1
        assert s["mean"] == pytest.approx(2.5)
        assert s["q50"] == pytest.approx(2.5)
        assert s["ci95_mean"][0] <= s["mean"] <= s["ci95_mean"][1]

    def test_oat_sensitivity_finds_the_driving_input(self):
        rng = np.random.default_rng(4)
        n = 64
        x1 = rng.uniform(0, 1, n)
        x2 = rng.uniform(0, 1, n)
        y = 5.0 * x1 + 0.1 * rng.normal(size=n)
        inputs = [{"x1": float(a), "x2": float(b)} for a, b in zip(x1, x2)]
        s = oat_sensitivity(inputs, list(y))
        assert s["x1"] > 0.6
        assert s["x2"] < s["x1"] / 2
        # degenerate cases: constant output or too few members -> empty
        assert oat_sensitivity(inputs, [1.0] * n) == {}
        assert oat_sensitivity(inputs[:3], list(y[:3])) == {}


# ----------------------------------------------------------------------
# campaign driver


def run_small_campaign(scenarios=None, checkpoint_dir=None, **opt_overrides):
    design = ScenarioDesign(members=4, seed=7)
    options = fast_options(checkpoint_dir=checkpoint_dir, **opt_overrides)
    driver = CampaignDriver(design, options, scenarios=scenarios)
    results = driver.run()
    return driver, results


class TestCampaignOptions:
    @pytest.mark.parametrize(
        "kwargs,needle",
        [
            (dict(dt=0.0), r"CampaignOptions\.dt"),
            (dict(max_steps=0), r"CampaignOptions\.max_steps"),
            (dict(post_steps=-1), r"CampaignOptions\.post_steps"),
            (dict(quench_threshold=1.5), r"CampaignOptions\.quench_threshold"),
            (dict(max_inflight=0), r"CampaignOptions\.max_inflight"),
            (dict(max_retries=-1), r"CampaignOptions\.max_retries"),
            (dict(seed_velocity_factor=0.0), r"CampaignOptions\.seed_velocity_factor"),
            (
                dict(checkpoint_every_rounds=0),
                r"CampaignOptions\.checkpoint_every_rounds",
            ),
            (
                dict(checkpoint_every_rounds=-2),
                r"CampaignOptions\.checkpoint_every_rounds",
            ),
        ],
    )
    def test_validation_names_field(self, kwargs, needle):
        with pytest.raises(ValueError, match=needle):
            CampaignOptions(**kwargs)


class TestCampaignDriver:
    def test_rejects_started_service(self):
        svc = CollisionSolveService(ServeOptions(num_shards=1))
        svc.start()
        try:
            with pytest.raises(ValueError, match="non-started"):
                CampaignDriver(
                    ScenarioDesign(members=2), fast_options(), service=svc
                )
        finally:
            svc.close()

    def test_rejects_scenario_count_mismatch(self):
        d = ScenarioDesign(members=4)
        scenarios = sample_scenarios(d)[:2]
        with pytest.raises(ValueError, match="scenario count"):
            CampaignDriver(d, fast_options(), scenarios=scenarios)

    def test_campaign_completes_with_physical_outputs(self):
        driver, results = run_small_campaign()
        assert len(results) == 4
        assert all(r.status == "ok" for r in results)
        for r in results:
            # injection + collisions cool the bulk and leave a hot tail
            assert 0.0 < r.T_e_final < 1.5
            assert r.n_e_final > r.inputs["density_factor"] * 0.9
            assert r.eta_post > 0.0
            assert 0.0 <= r.runaway_fraction < 0.5
            assert len(r.state_sha256) == 64
        snap = driver.snapshot()
        assert snap["members"]["completed"] == 4
        assert snap["members"]["failed"] == 0
        assert snap["jobs"]["ok"] == snap["jobs"]["submitted"]
        assert snap["jobs"]["rerun_overlap"] == 0

    def test_shuffled_submission_is_bitwise_identical(self):
        """Satellite regression: member results must not depend on the
        order scenarios are handed to the campaign."""
        design = ScenarioDesign(members=4, seed=7)
        scenarios = sample_scenarios(design)
        shuffled = [scenarios[i] for i in (2, 0, 3, 1)]
        _, a = run_small_campaign(scenarios=scenarios)
        _, b = run_small_campaign(scenarios=shuffled)
        assert [r.state_sha256 for r in a] == [r.state_sha256 for r in b]
        # json round-trip so NaN quench times compare equal
        assert [json.dumps(r.to_dict(), sort_keys=True) for r in a] == [
            json.dumps(r.to_dict(), sort_keys=True) for r in b
        ]

    def test_process_executor_is_bitwise_identical(self):
        """Moving the shards into worker processes changes no bit of any
        member's final state."""
        _, thread = run_small_campaign()
        driver = CampaignDriver(
            ScenarioDesign(members=4, seed=7),
            fast_options(),
            serve_options=ServeOptions(num_shards=2, max_batch=32, executor="process"),
        )
        process = driver.run()
        assert all(r.status == "ok" for r in process)
        assert [r.state_sha256 for r in process] == [r.state_sha256 for r in thread]

    def test_max_inflight_is_part_of_determinism_envelope(self):
        # chunking changes batch composition and therefore BLAS reduction
        # order: not bitwise, but agreement to solver tolerance — and any
        # FIXED max_inflight is bitwise-reproducible (the shuffled test
        # covers order independence at fixed chunking)
        _, a = run_small_campaign(max_inflight=1)
        _, b = run_small_campaign(max_inflight=64)
        _, c = run_small_campaign(max_inflight=1)
        assert [r.state_sha256 for r in a] == [r.state_sha256 for r in c]
        for ra, rb in zip(a, b):
            assert ra.T_e_final == pytest.approx(rb.T_e_final, rel=1e-9)
            assert ra.eta_post == pytest.approx(rb.eta_post, rel=1e-9)

    def test_plan_cache_shared_across_members(self):
        svc = CollisionSolveService(ServeOptions(num_shards=2, max_batch=32))
        design = ScenarioDesign(members=4, seed=7)
        driver = CampaignDriver(design, fast_options(), service=svc)
        try:
            driver.run()
            pc = svc.snapshot()["plan_cache"]
            # 4 members but only 2 charge states: at most one cold plan
            # load per (shard, Z); every later batch is a warm-cache hit
            # (hits/misses count per-batch plan lookups, not per-job)
            n_z = len({s.params.Z for s in driver.scenarios})
            assert n_z == 2
            assert pc["misses"] <= 2 * n_z
            assert pc["hits"] > pc["misses"]
            assert pc["hit_rate"] > 0.5
        finally:
            svc.close()

    def test_tag_counters_and_campaign_rollup_in_serve_summary(self):
        svc = CollisionSolveService(ServeOptions(num_shards=2, max_batch=32))
        design = ScenarioDesign(members=4, seed=7)
        driver = CampaignDriver(design, fast_options(), service=svc)
        try:
            driver.run()
            snap = svc.snapshot()
            by_tag = snap["jobs"]["by_tag"]
            assert len(by_tag) == 4  # one tag per member
            assert all(t.startswith("ensemble:") for t in by_tag)
            assert sum(c["ok"] for c in by_tag.values()) == driver.jobs["ok"]
            text = serve_summary(snap, campaign=driver.snapshot())
            assert "ensemble campaign: ensemble" in text
            assert "jobs by tag" in text
        finally:
            svc.close()

    def test_statistics_and_report(self, tmp_path):
        driver, results = run_small_campaign()
        stats = driver.statistics(n_boot=100)
        dists = stats["distributions"]
        assert set(dists) == {
            "quench_time",
            "T_e_final",
            "eta_post",
            "runaway_fraction",
        }
        finite_qt = sum(
            1 for r in results if np.isfinite(r.quench_time)
        )
        assert dists["quench_time"]["count"] == finite_qt
        assert dists["eta_post"]["count"] == 4
        text = campaign_report(driver.snapshot(), stats)
        assert "ensemble distributions" in text
        assert "eta_post" in text
        assert distribution_table(stats).count("\n") >= 4
        path = write_campaign_json(
            str(tmp_path / "BENCH_ensemble.json"), driver.snapshot(), stats
        )
        payload = json.loads(open(path).read())
        assert payload["benchmark"] == "ensemble"
        assert payload["campaign"]["members"]["completed"] == 4
        assert "q50" in payload["statistics"]["distributions"]["eta_post"]

    def test_statistics_reproducible_across_runs(self):
        a = run_small_campaign()[0].statistics(n_boot=100)
        b = run_small_campaign()[0].statistics(n_boot=100)
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


class TestCampaignResume:
    def test_resume_after_partial_run_has_zero_overlap(self, tmp_path):
        design = ScenarioDesign(members=4, seed=7)
        ckpt = str(tmp_path / "camp")

        # the uninterrupted reference
        _, ref = run_small_campaign()

        # partial incarnation: three lock-step rounds, ledger, "crash"
        d1 = CampaignDriver(design, fast_options(checkpoint_dir=ckpt))
        for sc in sorted(d1.scenarios, key=lambda s: s.member_key):
            d1.active[sc.member_key] = _MemberRun(sc, d1)
        for _ in range(3):
            d1._round()
        d1.write_ledger()
        d1.service.close()
        assert os.path.exists(os.path.join(ckpt, LEDGER_NAME))

        # resumed incarnation
        d2 = CampaignDriver(design, fast_options(checkpoint_dir=ckpt))
        results = d2.run(resume=True)
        assert d2.rerun_overlap == 0
        assert d2.resumed_members == 4
        assert all(r.status == "ok" for r in results)
        # bitwise identical to the never-interrupted campaign
        assert [r.state_sha256 for r in results] == [
            r.state_sha256 for r in ref
        ]
        assert [json.dumps(r.to_dict(), sort_keys=True) for r in results] == [
            json.dumps(r.to_dict(), sort_keys=True) for r in ref
        ]

    def test_resume_requires_matching_fingerprint(self, tmp_path):
        from repro.resilience.checkpoint import CheckpointError

        ckpt = str(tmp_path / "camp")
        design = ScenarioDesign(members=2, seed=1)
        d1 = CampaignDriver(design, fast_options(checkpoint_dir=ckpt))
        d1.write_ledger()
        d1.service.close()
        other = CampaignDriver(
            ScenarioDesign(members=2, seed=2),
            fast_options(checkpoint_dir=ckpt),
        )
        try:
            with pytest.raises(CheckpointError, match="different design"):
                other.run(resume=True)
        finally:
            other.service.close()

    def test_resume_without_ledger_raises(self, tmp_path):
        from repro.resilience.checkpoint import CheckpointError

        d = CampaignDriver(
            ScenarioDesign(members=2, seed=1),
            fast_options(checkpoint_dir=str(tmp_path / "nope")),
        )
        try:
            with pytest.raises(CheckpointError, match="no campaign ledger"):
                d.run(resume=True)
        finally:
            d.service.close()


# ----------------------------------------------------------------------
# kill/resume smoke (the chaos-harness pattern: a real SIGKILL)

KILL_DESIGN = dict(members=6, seed=13)
KILL_OPTS = dict(
    dt=0.5,
    max_steps=12,
    post_steps=2,
    order=2,
    mesh_kwargs={"h_factor": 1.6},
    quench_threshold=0.8,
)


def _campaign_child(ckpt_dir: str) -> None:
    driver = CampaignDriver(
        ScenarioDesign(**KILL_DESIGN),
        CampaignOptions(checkpoint_dir=ckpt_dir, **KILL_OPTS),
    )
    driver.run()


class TestKillResumeSmoke:
    def test_sigkilled_campaign_resumes_cleanly(self, tmp_path):
        ckpt = str(tmp_path / "camp")
        ledger = os.path.join(ckpt, LEDGER_NAME)
        ctx = mp.get_context("spawn")
        proc = ctx.Process(target=_campaign_child, args=(ckpt,))
        proc.start()
        deadline = time.monotonic() + 60.0
        while not os.path.exists(ledger) and time.monotonic() < deadline:
            if not proc.is_alive():
                break
            time.sleep(0.05)
        if proc.is_alive():
            os.kill(proc.pid, signal.SIGKILL)
        proc.join(timeout=30.0)
        assert os.path.exists(ledger), "child never wrote a ledger"

        driver = CampaignDriver(
            ScenarioDesign(**KILL_DESIGN),
            CampaignOptions(checkpoint_dir=ckpt, **KILL_OPTS),
        )
        results = driver.run(resume=True)
        assert len(results) == KILL_DESIGN["members"]
        assert all(r.status == "ok" for r in results)
        # the RPROCKSUM1 ledger is authoritative: no executed job is repeated
        assert driver.rerun_overlap == 0
        assert driver.snapshot()["members"]["pending"] == 0
