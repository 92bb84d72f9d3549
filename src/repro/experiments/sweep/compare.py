"""Compare a sweep run against a stored baseline and report regressions.

The durable half of the sweep subsystem: once a JSONL baseline is checked
in, every subsequent run can be diffed point-by-point.  Points are matched
on their stable ``point_id``; for every match the report carries the delta
of each shared scalar metric, and a *regression* is flagged when

* a point errors that previously succeeded,
* a baseline point is missing from the current run, or
* a "higher is better" quality metric (acceptance ratios) drops by more
  than the tolerance.

Config-hash drift (same point id produced by a changed configuration --
e.g. a new ``ExperimentConfig`` field) is reported as a warning, not a
regression: the deltas are still shown, but the baseline should be
regenerated.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.experiments.sweep.store import SweepRecord, latest_generation

#: Metrics where a drop beyond tolerance is a regression (higher = better).
QUALITY_METRICS: Tuple[str, ...] = ("acceptance_ratio", "request_acceptance_ratio")

#: Default allowed absolute drop of a quality metric before it regresses.
DEFAULT_TOLERANCE = 0.02


@dataclass(frozen=True)
class PointComparison:
    """Baseline-vs-current deltas of one matched sweep point."""

    point_id: str
    #: metric -> (baseline value, current value, current - baseline).
    deltas: Dict[str, Tuple[float, float, float]]
    regressed_metrics: Tuple[str, ...] = ()
    error: str = ""

    @property
    def regressed(self) -> bool:
        """Whether this point counts as a regression."""
        return bool(self.regressed_metrics) or bool(self.error)


@dataclass
class CompareReport:
    """Full outcome of comparing two record sets."""

    baseline_label: str
    current_label: str
    tolerance: float
    comparisons: List[PointComparison] = field(default_factory=list)
    missing_points: List[str] = field(default_factory=list)
    new_points: List[str] = field(default_factory=list)
    warnings: List[str] = field(default_factory=list)

    @property
    def regressions(self) -> List[PointComparison]:
        """Matched points that regressed."""
        return [comparison for comparison in self.comparisons if comparison.regressed]

    @property
    def ok(self) -> bool:
        """True when nothing regressed and no baseline point went missing."""
        return not self.regressions and not self.missing_points


def compare_records(
    baseline: List[SweepRecord],
    current: List[SweepRecord],
    *,
    tolerance: float = DEFAULT_TOLERANCE,
    baseline_label: str = "baseline",
    current_label: str = "current",
) -> CompareReport:
    """Diff the newest generation of two record sets point-by-point."""
    if tolerance < 0:
        raise ValueError("tolerance must be >= 0")
    base_by_id = latest_generation(baseline)
    current_by_id = latest_generation(current)
    report = CompareReport(
        baseline_label=baseline_label,
        current_label=current_label,
        tolerance=tolerance,
    )
    report.missing_points = sorted(set(base_by_id) - set(current_by_id))
    report.new_points = sorted(set(current_by_id) - set(base_by_id))
    for point_id in sorted(set(base_by_id) & set(current_by_id)):
        base = base_by_id[point_id]
        cur = current_by_id[point_id]
        if base.config_hash and cur.config_hash and base.config_hash != cur.config_hash:
            report.warnings.append(
                f"{point_id}: config hash drifted "
                f"({base.config_hash} -> {cur.config_hash}); regenerate the baseline"
            )
        error = ""
        if cur.error and not base.error:
            error = f"point now fails: {cur.error.strip().splitlines()[-1]}"
        deltas: Dict[str, Tuple[float, float, float]] = {}
        regressed: List[str] = []
        for metric in sorted(set(base.metrics) & set(cur.metrics)):
            before = float(base.metrics[metric])
            after = float(cur.metrics[metric])
            deltas[metric] = (before, after, after - before)
            if metric in QUALITY_METRICS and before - after > tolerance:
                regressed.append(metric)
        report.comparisons.append(
            PointComparison(
                point_id=point_id,
                deltas=deltas,
                regressed_metrics=tuple(regressed),
                error=error,
            )
        )
    return report


#: Metrics shown in the per-point table of the text report.
_REPORT_METRICS: Tuple[str, ...] = (
    "acceptance_ratio",
    "cdn_fraction",
    "cdn_outbound_mbps",
    "join_delay_p95",
)


def format_compare_report(report: CompareReport) -> str:
    """Render a comparison as an aligned text report."""
    lines = [
        f"Sweep comparison: {report.current_label} vs {report.baseline_label} "
        f"(tolerance {report.tolerance:g})"
    ]
    header = ["point", "metric", "baseline", "current", "delta"]
    rows: List[List[str]] = [header]
    for comparison in report.comparisons:
        for metric in _REPORT_METRICS:
            if metric not in comparison.deltas:
                continue
            before, after, delta = comparison.deltas[metric]
            marker = " <-- REGRESSION" if metric in comparison.regressed_metrics else ""
            rows.append(
                [
                    comparison.point_id,
                    metric,
                    f"{before:.4f}",
                    f"{after:.4f}",
                    f"{delta:+.4f}{marker}",
                ]
            )
    widths = [max(len(row[col]) for row in rows) for col in range(len(header))]
    for row in rows:
        lines.append(
            "  " + "  ".join(cell.ljust(widths[col]) for col, cell in enumerate(row))
        )
    for comparison in report.comparisons:
        if comparison.error:
            lines.append(f"  {comparison.point_id}: {comparison.error}")
    for point_id in report.missing_points:
        lines.append(f"  missing from current run: {point_id}")
    for point_id in report.new_points:
        lines.append(f"  new point (no baseline): {point_id}")
    for warning in report.warnings:
        lines.append(f"  warning: {warning}")
    verdict = "OK" if report.ok else (
        f"REGRESSIONS: {len(report.regressions)} point(s), "
        f"{len(report.missing_points)} missing"
    )
    lines.append(verdict)
    return "\n".join(lines)
