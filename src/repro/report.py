"""ASCII tables and line plots for examples and benchmark output.

The benchmarks print the same rows/series the paper's tables and figures
report; these helpers keep that output consistent and dependency-free.
:func:`solver_stats_table` and :func:`resilience_summary` render the
solver's :class:`~repro.core.solver.NewtonStats` — including the
resilience layer's retry/backoff counters, per-backend linear-solve
counts and the structured event log.
"""

from __future__ import annotations

import math
from typing import Sequence


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence],
    title: str | None = None,
    floatfmt: str = "{:,.4g}",
) -> str:
    """Simple fixed-width table."""
    cells = [[str(h) for h in headers]]
    for row in rows:
        cells.append(
            [
                floatfmt.format(v) if isinstance(v, float) else f"{v}"
                for v in row
            ]
        )
    widths = [max(len(r[c]) for r in cells) for c in range(len(headers))]
    lines = []
    if title:
        lines.append(title)
    for i, row in enumerate(cells):
        lines.append("  ".join(s.rjust(w) for s, w in zip(row, widths)))
        if i == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)


def ascii_plot(
    x: Sequence[float],
    series: dict[str, Sequence[float]],
    width: int = 72,
    height: int = 16,
    title: str | None = None,
    logy: bool = False,
) -> str:
    """Plot one or more series against x as ASCII art (Fig. 4 / Fig. 5)."""
    if not series:
        raise ValueError("need at least one series")
    marks = "*+o#@%&"
    xs = list(x)
    if len(xs) < 2:
        raise ValueError("need at least two points")
    ys_all = []
    for vals in series.values():
        if len(vals) != len(xs):
            raise ValueError("series length mismatch")
        ys_all.extend(float(v) for v in vals)
    if logy:
        ys_all = [math.log10(abs(v)) if v != 0 else -16.0 for v in ys_all]
    ymin, ymax = min(ys_all), max(ys_all)
    if ymax == ymin:
        ymax = ymin + 1.0
    xmin, xmax = min(xs), max(xs)
    grid = [[" "] * width for _ in range(height)]
    for si, (name, vals) in enumerate(series.items()):
        m = marks[si % len(marks)]
        for xv, yv in zip(xs, vals):
            if logy:
                yv = math.log10(abs(yv)) if yv != 0 else -16.0
            col = int((xv - xmin) / (xmax - xmin) * (width - 1))
            row = int((yv - ymin) / (ymax - ymin) * (height - 1))
            grid[height - 1 - row][col] = m
    lines = []
    if title:
        lines.append(title)
    lines.append(f"y in [{ymin:.4g}, {ymax:.4g}]" + (" (log10)" if logy else ""))
    lines.extend("|" + "".join(r) for r in grid)
    lines.append("+" + "-" * width)
    lines.append(f" x in [{xmin:.4g}, {xmax:.4g}]")
    legend = "   ".join(
        f"{marks[i % len(marks)]} = {name}" for i, name in enumerate(series)
    )
    lines.append(" " + legend)
    return "\n".join(lines)


def solver_stats_table(stats, title: str = "solver work") -> str:
    """One-row work/resilience table for a ``NewtonStats`` instance."""
    headers = [
        "steps",
        "newton",
        "jac",
        "factor",
        "solves",
        "struct-reuse",
        "rejected",
        "backoffs",
        "converged",
    ]
    rows = [
        [
            stats.time_steps,
            stats.newton_iterations,
            stats.jacobian_builds,
            stats.factorizations,
            stats.solves,
            getattr(stats, "structure_reuses", 0),
            stats.step_rejections,
            stats.dt_backoffs,
            "yes" if stats.converged_last else "NO",
        ]
    ]
    return format_table(headers, rows, title=title)


def resilience_summary(stats, max_events: int = 12) -> str:
    """Solver counters + the tail of the structured event log.

    This is the operator-facing record the acceptance runs check: every
    step-rejection event the run survived.
    """
    lines = [solver_stats_table(stats)]
    if stats.events:
        lines.append("")
        shown = stats.events[-max_events:]
        dropped = getattr(stats, "events_dropped", 0)
        total = len(stats.events) + dropped
        skipped = total - len(shown)
        title = "events" + (f" (last {len(shown)} of {total})" if skipped else "")
        rows = []
        for ev in shown:
            detail = ", ".join(
                f"{k}={v}" for k, v in ev.items() if k != "kind"
            )
            rows.append([ev.get("kind", "?"), detail[:96]])
        lines.append(format_table(["kind", "detail"], rows, title=title))
    return "\n".join(lines)


def serve_summary(snapshot: dict, campaign: dict | None = None) -> str:
    """Operator-facing rollup of a :class:`CollisionSolveService` snapshot.

    Renders the service sizing, job outcomes, the micro-batcher's
    batch-size histogram (is coalescing happening?), the operator-plan
    cache counters (are pair tables/band symbolics staying warm?) and a
    per-shard table with queue depth and latency percentiles.

    ``campaign`` accepts an ensemble campaign snapshot
    (:meth:`repro.ensemble.campaign.CampaignDriver.snapshot`): member
    completed/failed/resumed counts and campaign-job outcomes — plus the
    breaker trips and shed counts the service recorded while the
    campaign ran — are rolled into the same report instead of a separate
    print path.
    """
    opt = snapshot["options"]
    jobs = snapshot["jobs"]
    cache = snapshot["plan_cache"]
    solver = snapshot["solver"]
    lines = [
        format_table(
            ["shards", "max batch", "max wait (ms)", "queue bound", "executor"],
            [
                [
                    opt["num_shards"],
                    opt["max_batch"],
                    opt["max_wait_ms"],
                    opt["queue_bound"],
                    opt["executor"],
                ]
            ],
            title="collision solve service",
        ),
        "",
        format_table(
            ["total", "ok", "failed", "shed", "retried", "rejected"],
            [
                [
                    jobs["total"],
                    jobs["ok"],
                    jobs["failed"],
                    jobs["shed"],
                    jobs["retried"],
                    jobs["rejected_submissions"],
                ]
            ],
            title="jobs",
        ),
    ]
    if campaign is not None:
        m = campaign.get("members", {})
        lines += [
            "",
            format_table(
                [
                    "members",
                    "completed",
                    "failed",
                    "resumed",
                    "pending",
                    "retried jobs",
                    "shed jobs",
                    "breaker trips",
                ],
                [
                    [
                        m.get("total", 0),
                        m.get("completed", 0),
                        m.get("failed", 0),
                        m.get("resumed", 0),
                        m.get("pending", 0),
                        jobs["retried"],
                        jobs["shed"],
                        snapshot.get("failures", {}).get("breaker_trips", 0),
                    ]
                ],
                title=f"ensemble campaign: {campaign.get('name', '?')}",
            ),
        ]
    by_tag = jobs.get("by_tag") or {}
    if by_tag:
        shown = sorted(
            by_tag.items(), key=lambda kv: -sum(kv[1].values())
        )[:10]
        rows = [
            [
                tag,
                c.get("ok", 0),
                c.get("failed", 0),
                c.get("shed", 0),
                c.get("retried", 0),
            ]
            for tag, c in shown
        ]
        title = "jobs by tag" + (
            f" (top {len(shown)} of {len(by_tag)})"
            if len(by_tag) > len(shown)
            else ""
        )
        lines += [
            "",
            format_table(["tag", "ok", "failed", "shed", "retried"], rows, title=title),
        ]
    if snapshot["batch_size_hist"]:
        rows = [
            [size, count]
            for size, count in sorted(
                snapshot["batch_size_hist"].items(), key=lambda kv: int(kv[0])
            )
        ]
        lines += ["", format_table(["batch size", "batches"], rows, title="micro-batches")]
    lines += [
        "",
        format_table(
            ["plans", "MiB", "hits", "misses", "evictions", "hit rate"],
            [
                [
                    cache["plans"],
                    cache["bytes"] / 2**20,
                    cache["hits"],
                    cache["misses"],
                    cache["evictions"],
                    cache["hit_rate"],
                ]
            ],
            title="operator-plan cache",
        ),
        "",
        format_table(
            ["field launches", "launch equiv", "reduction", "sym setups", "sym reuses"],
            [
                [
                    solver["field_launches"],
                    solver["equivalent_unbatched_launches"],
                    solver["launch_reduction"],
                    solver["symbolic_setups"],
                    solver["symbolic_reuses"],
                ]
            ],
            title="batched solver work",
        ),
    ]
    shard_rows = [
        [
            s["shard"],
            s["jobs_ok"] + s["jobs_failed"] + s["jobs_shed"],
            s["batches"],
            s["max_queue_depth"],
            s["latency"]["p50_ms"],
            s["latency"]["p99_ms"],
        ]
        for s in snapshot["shards"]
    ]
    lines += [
        "",
        format_table(
            ["shard", "jobs", "batches", "max depth", "p50 (ms)", "p99 (ms)"],
            shard_rows,
            title="per-shard",
        ),
    ]
    return "\n".join(lines)
