"""Campaign reporting: ASCII rollup + a JSON campaign artifact.

The operator-facing text report is built on :func:`repro.report.serve_summary`
(the campaign snapshot rolls into the service summary rather than a
separate print path) plus distribution/sensitivity tables; the JSON
artifact holds the campaign snapshot and its statistics.
"""

from __future__ import annotations

import json

from ..report import format_table, serve_summary

__all__ = ["campaign_report", "distribution_table", "write_campaign_json"]


def distribution_table(statistics: dict) -> str:
    """Render the per-output distribution summaries as one table."""
    headers = [
        "output",
        "count",
        "mean",
        "std",
        "q05",
        "q50",
        "q95",
        "ci95 lo",
        "ci95 hi",
    ]
    rows = []
    for name, s in statistics["distributions"].items():
        rows.append(
            [
                name,
                s["count"],
                s["mean"],
                s["std"],
                s["q05"],
                s["q50"],
                s["q95"],
                s["ci95_mean"][0],
                s["ci95_mean"][1],
            ]
        )
    return format_table(headers, rows, title="ensemble distributions")


def _sensitivity_table(statistics: dict) -> str | None:
    sens = statistics.get("sensitivity") or {}
    dims = sorted({d for table in sens.values() for d in table})
    if not dims:
        return None
    headers = ["input"] + list(sens)
    rows = [
        [d] + [sens[out].get(d, float("nan")) for out in sens] for d in dims
    ]
    return format_table(
        headers, rows, title="OAT first-order sensitivity (Var(E[Y|X])/Var(Y))"
    )


def campaign_report(
    campaign_snapshot: dict,
    statistics: dict,
    serve_snapshot: dict | None = None,
) -> str:
    """Full campaign report: serve rollup + distributions + sensitivity."""
    lines = []
    if serve_snapshot is not None:
        lines.append(serve_summary(serve_snapshot, campaign=campaign_snapshot))
    else:
        m = campaign_snapshot.get("members", {})
        j = campaign_snapshot.get("jobs", {})
        lines.append(
            format_table(
                ["members", "completed", "failed", "resumed", "jobs ok", "retried"],
                [
                    [
                        m.get("total", 0),
                        m.get("completed", 0),
                        m.get("failed", 0),
                        m.get("resumed", 0),
                        j.get("ok", 0),
                        j.get("retried", 0),
                    ]
                ],
                title=f"ensemble campaign: {campaign_snapshot.get('name', '?')}",
            )
        )
    lines += ["", distribution_table(statistics)]
    sens = _sensitivity_table(statistics)
    if sens:
        lines += ["", sens]
    return "\n".join(lines)


def write_campaign_json(
    path: str,
    campaign_snapshot: dict,
    statistics: dict,
    serve_snapshot: dict | None = None,
    extra: dict | None = None,
) -> str:
    """Write the JSON campaign artifact; returns path."""
    payload = {
        "benchmark": "ensemble",
        "campaign": campaign_snapshot,
        "statistics": statistics,
        **(extra or {}),
    }
    if serve_snapshot is not None:
        payload["serve"] = {
            "jobs": serve_snapshot.get("jobs", {}),
            "plan_cache": serve_snapshot.get("plan_cache", {}),
            "failures": serve_snapshot.get("failures", {}),
            "options": serve_snapshot.get("options", {}),
        }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=float)
        fh.write("\n")
    return path
