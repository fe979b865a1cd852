"""Ensemble campaigns & UQ: the Fig. 5 quench as a distribution.

Samples a seeded 8-member stochastic quench design (Karhunen-Loève
perturbed Maxwellians, randomized cold-plasma pulses, impurity mix,
runaway seeds), runs it through the batched collision-solve service as a
checkpointed campaign, and prints the quench-time / post-quench
resistivity / runaway-seed-fraction distributions with bootstrap CIs
plus the one-at-a-time sensitivity indices.

Run with::

    PYTHONPATH=src python examples/ensemble_quench.py [--fast] \
        [--checkpoint-dir DIR] [--resume]

The campaign ledger lands in ``--checkpoint-dir`` (a temp directory when
omitted); to see resume-after-kill in action, give a durable directory,
kill the process mid-run, and re-run with the same directory and
``--resume``.
"""

from __future__ import annotations

import argparse
import os
import tempfile

from repro.ensemble import (
    CampaignDriver,
    CampaignOptions,
    ScenarioDesign,
    campaign_report,
    write_campaign_json,
)
from repro.serve import CollisionSolveService, ServeOptions


def main(
    fast: bool = False, resume: bool = False, checkpoint_dir: str | None = None
) -> list:
    """Run the campaign; returns its member results."""
    design = ScenarioDesign(members=4 if fast else 8, seed=1, Z_choices=(1.0, 2.0))
    ckpt = checkpoint_dir or tempfile.mkdtemp(prefix="ensemble_quench_")
    options = CampaignOptions(
        dt=0.5,
        max_steps=6 if fast else 24,
        post_steps=2 if fast else 4,
        order=2,
        mesh_kwargs={"h_factor": 1.6} if fast else None,
        quench_threshold=0.8 if fast else 0.5,
        checkpoint_dir=ckpt,
    )

    service = CollisionSolveService(ServeOptions(num_shards=2, max_batch=64))
    driver = CampaignDriver(design, options, service=service)
    print(
        f"campaign: {design.members} members, seed {design.seed}, "
        f"{driver.fs.ndofs} dofs, ledger in {ckpt}"
    )
    try:
        results = driver.run(resume=resume)
        stats = driver.statistics()
        print()
        print(campaign_report(driver.snapshot(), stats, service.snapshot()))
        out = os.path.join(ckpt, "BENCH_ensemble.json")
        write_campaign_json(out, driver.snapshot(), stats, service.snapshot())
        print(f"\n{sum(r.status == 'ok' for r in results)}/{len(results)} "
              f"members completed; JSON artifact: {out}")
    finally:
        service.close()
    return results


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--fast", action="store_true", help="4 members, coarse mesh")
    parser.add_argument(
        "--resume", action="store_true", help="resume from the ledger in DIR"
    )
    parser.add_argument(
        "--checkpoint-dir", metavar="DIR", help="campaign ledger directory"
    )
    args = parser.parse_args()
    main(fast=args.fast, resume=args.resume, checkpoint_dir=args.checkpoint_dir)
