"""Textual reports of the regenerated figures and of one run's wall time.

The CLI's figure mode and the claims benchmark
(``benchmarks/bench_claims.py``) print the figure tables, so every series
the paper plots is reproduced in text form; the claims benchmark prints
its claims as a paper-vs-measured table, and the CLI's ``run`` prints the
per-phase and per-worker breakdowns.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterable, List, Sequence

from repro.core.controllers import lsc_node_id
from repro.metrics.stats import fraction_at_most, percentile

if TYPE_CHECKING:  # pragma: no cover - figures imports the formatters
    from repro.experiments.figures import DistributionFigure, FigureSeries


def format_scaling_figure(figure: FigureSeries, *, x_label: str = "viewers") -> str:
    """Render a multi-curve scaling figure as an aligned text table."""
    if not figure.series:
        return f"Figure {figure.figure_id}: (no data)"
    x_values = figure.series[0].num_viewers
    header = [x_label] + [series.label for series in figure.series]
    rows: List[List[str]] = [header]
    for index, x in enumerate(x_values):
        row = [str(x)]
        for series in figure.series:
            value = series.values[index] if index < len(series.values) else float("nan")
            row.append(f"{value:.3f}" if abs(value) < 100 else f"{value:.0f}")
        rows.append(row)
    widths = [max(len(row[col]) for row in rows) for col in range(len(header))]
    lines = [f"Figure {figure.figure_id}: {figure.description}"]
    for row in rows:
        lines.append("  " + "  ".join(cell.rjust(widths[col]) for col, cell in enumerate(row)))
    return "\n".join(lines)


def format_distribution_figure(
    figure: DistributionFigure, *, thresholds: Sequence[float] = ()
) -> str:
    """Render a CDF figure as per-label summaries plus threshold fractions."""
    lines = [f"Figure {figure.figure_id}: {figure.description}"]
    for label, samples in figure.samples.items():
        if not samples:
            lines.append(f"  {label}: (no samples)")
            continue
        lines.append(
            "  {label}: n={n} min={mn:.3f} p50={p50:.3f} p95={p95:.3f} max={mx:.3f}".format(
                label=label,
                n=len(samples),
                mn=min(samples),
                p50=percentile(samples, 50.0),
                p95=percentile(samples, 95.0),
                mx=max(samples),
            )
        )
        for threshold in thresholds:
            lines.append(
                f"    fraction <= {threshold:g}: {fraction_at_most(samples, threshold):.3f}"
            )
    return "\n".join(lines)


def paper_vs_measured(rows: Iterable[Sequence[str]]) -> str:
    """Render a three-column 'quantity | paper | measured' table."""
    table = [["quantity", "paper", "measured"]] + [list(row) for row in rows]
    widths = [max(len(row[col]) for row in table) for col in range(3)]
    lines = []
    for row in table:
        lines.append("  " + "  ".join(cell.ljust(widths[col]) for col, cell in enumerate(row)))
    return "\n".join(lines)


#: Print order of the per-phase profile table.
_PROFILE_PHASES = ("build", "join", "view_change", "churn", "replay", "metrics")


def format_profile(phase_timings: Dict[str, float]) -> str:
    """Render the per-phase wall-clock breakdown of a profiled run."""
    known = [
        (phase, phase_timings[phase])
        for phase in _PROFILE_PHASES
        if phase in phase_timings
    ]
    known.extend(
        (phase, seconds)
        for phase, seconds in sorted(phase_timings.items())
        if phase not in _PROFILE_PHASES
    )
    total = sum(seconds for _phase, seconds in known)
    lines = ["phase breakdown (wall clock):"]
    for phase, seconds in known:
        share = 100.0 * seconds / total if total > 0 else 0.0
        lines.append(f"  {phase:<12} {seconds * 1000:10.1f} ms  {share:5.1f}%")
    lines.append(f"  {'total':<12} {total * 1000:10.1f} ms")
    return "\n".join(lines)


def format_worker_stats(sharded) -> str:
    """One line per shard worker: what it hosted and where its wall time went."""
    lines = []
    for index, stats in sharded.worker_stats.items():
        hosted = ",".join(
            lsc_node_id(lsc)
            for lsc, worker in enumerate(sharded.placement)
            if worker == index
        )
        lines.append(
            f"  worker {index} [{hosted}]: "
            f"{int(stats['viewers'])} viewers, {int(stats['events'])} events, "
            f"build={stats['build_s']:.2f}s busy={stats['busy_s']:.2f}s "
            f"barrier_wait={stats['barrier_wait_s']:.2f}s "
            f"finalize={stats['finalize_s']:.2f}s "
            f"maxrss={stats['ru_maxrss'] / 1024:.0f}MiB"
        )
    lines.append(f"  imbalance (max/mean busy) = {sharded.imbalance:.2f}")
    return "\n".join(lines)
