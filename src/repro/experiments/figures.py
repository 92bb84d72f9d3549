"""Regenerate the data series of every figure in the paper's evaluation.

Every function returns a small dataclass holding labelled series in the
same shape the corresponding figure plots, so the claims benchmark
(``benchmarks/bench_claims.py``) can check and record the paper's
claims against them.  Absolute values are
not expected to match the authors' testbed; the qualitative shape (who
wins, monotonicity, where curves saturate) is what the reproduction
checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.experiments.config import (
    ExperimentConfig,
    FIGURE_13_BANDWIDTH_SETTINGS,
    PAPER_CONFIG,
    viewer_counts,
)
from repro.experiments.reporting import format_distribution_figure, format_scaling_figure
from repro.experiments.runner import run_random_scenario, run_telecast_scenario
from repro.traces.workload import BandwidthDistribution


@dataclass
class ScalingSeries:
    """One labelled curve over the number of viewers."""

    label: str
    num_viewers: List[int] = field(default_factory=list)
    values: List[float] = field(default_factory=list)

    def add(self, viewers: int, value: float) -> None:
        """Append one (x, y) point."""
        self.num_viewers.append(viewers)
        self.values.append(value)

    def final_value(self) -> float:
        """Value at the largest population."""
        if not self.values:
            raise ValueError(f"series {self.label} is empty")
        return self.values[-1]


@dataclass
class FigureSeries:
    """A figure made of one or more scaling curves."""

    figure_id: str
    description: str
    series: List[ScalingSeries] = field(default_factory=list)

    def series_by_label(self, label: str) -> ScalingSeries:
        """Find a curve by its label."""
        for entry in self.series:
            if entry.label == label:
                return entry
        raise KeyError(label)


@dataclass
class DistributionFigure:
    """A CDF-style figure (Figures 14(a), 14(b) and 14(c))."""

    figure_id: str
    description: str
    #: Label -> the raw samples of that CDF.
    samples: Dict[str, List[float]] = field(default_factory=dict)

    def fraction_at_most(self, label: str, threshold: float) -> float:
        """Fraction of samples of one CDF at or below ``threshold``."""
        values = self.samples.get(label, [])
        if not values:
            return 0.0
        return sum(1 for value in values if value <= threshold) / len(values)


def _scaling_checkpoints(config: ExperimentConfig, step: int) -> List[int]:
    return viewer_counts(config.num_viewers, step)


def _snapshot_metric(result, checkpoints: Sequence[int], extract) -> List[Tuple[int, float]]:
    points: List[Tuple[int, float]] = []
    for target in checkpoints:
        snapshot = result.metrics.snapshot_at(target)
        if snapshot is None:
            snapshot = result.final_snapshot
        points.append((target, extract(snapshot)))
    return points


# ---------------------------------------------------------------------------
# Figure 13: overlay construction and content distribution
# ---------------------------------------------------------------------------


def figure_13a_cdn_bandwidth(
    config: ExperimentConfig = PAPER_CONFIG,
    *,
    bandwidth_settings: Optional[Sequence[BandwidthDistribution]] = None,
    step: int = 100,
) -> FigureSeries:
    """Figure 13(a): CDN bandwidth required to accept every request.

    The CDN is uncapped so every request is served; the reported value is
    the CDN outbound bandwidth in use as the population grows, one curve
    per viewer outbound-bandwidth setting.
    """
    settings = tuple(bandwidth_settings or FIGURE_13_BANDWIDTH_SETTINGS)
    figure = FigureSeries(
        figure_id="13a",
        description="CDN bandwidth (Mbps) required for acceptance ratio 1.0",
    )
    checkpoints = _scaling_checkpoints(config, step)
    for setting in settings:
        scenario = config.with_outbound(setting).with_uncapped_cdn()
        result = run_telecast_scenario(scenario, snapshot_every=step)
        series = ScalingSeries(label=setting.label())
        for viewers, value in _snapshot_metric(
            result, checkpoints, lambda snap: snap.cdn_outbound_mbps
        ):
            series.add(viewers, value)
        figure.series.append(series)
    return figure


def figure_13b_cdn_fraction(
    config: ExperimentConfig = PAPER_CONFIG,
    *,
    bandwidth_settings: Optional[Sequence[BandwidthDistribution]] = None,
    step: int = 100,
) -> FigureSeries:
    """Figure 13(b): fraction of stream requests served by the (capped) CDN."""
    settings = tuple(bandwidth_settings or FIGURE_13_BANDWIDTH_SETTINGS)
    figure = FigureSeries(
        figure_id="13b",
        description="Fraction of subscriptions served directly by the CDN",
    )
    checkpoints = _scaling_checkpoints(config, step)
    for setting in settings:
        result = run_telecast_scenario(config.with_outbound(setting), snapshot_every=step)
        series = ScalingSeries(label=setting.label())
        for viewers, value in _snapshot_metric(
            result, checkpoints, lambda snap: snap.cdn_fraction
        ):
            series.add(viewers, value)
        figure.series.append(series)
    return figure


def figure_13c_acceptance_ratio(
    config: ExperimentConfig = PAPER_CONFIG,
    *,
    bandwidth_settings: Optional[Sequence[BandwidthDistribution]] = None,
    step: int = 100,
) -> FigureSeries:
    """Figure 13(c): acceptance ratio vs. population size with a capped CDN."""
    settings = tuple(bandwidth_settings or FIGURE_13_BANDWIDTH_SETTINGS)
    figure = FigureSeries(
        figure_id="13c",
        description="Stream acceptance ratio with CDN capacity 6000 Mbps",
    )
    checkpoints = _scaling_checkpoints(config, step)
    for setting in settings:
        result = run_telecast_scenario(config.with_outbound(setting), snapshot_every=step)
        series = ScalingSeries(label=setting.label())
        for viewers, value in _snapshot_metric(
            result, checkpoints, lambda snap: snap.acceptance_ratio
        ):
            series.add(viewers, value)
        figure.series.append(series)
    return figure


# ---------------------------------------------------------------------------
# Figure 14: stream subscription and overhead
# ---------------------------------------------------------------------------


def figure_14a_layer_distribution(
    config: ExperimentConfig = PAPER_CONFIG,
) -> DistributionFigure:
    """Figure 14(a): CDF of the maximum layer of accepted streams per viewer."""
    scenario = config.with_outbound(BandwidthDistribution.uniform(0.0, 12.0))
    result = run_telecast_scenario(scenario, snapshot_every=None)
    max_layers, _counts = result.system.viewer_maps()
    layers = [float(layer) for layer in max_layers.values()]
    return DistributionFigure(
        figure_id="14a",
        description="Maximum delay layer of accepted streams per viewer",
        samples={"max_layer": layers},
    )


def figure_14b_accepted_streams(
    config: ExperimentConfig = PAPER_CONFIG,
) -> DistributionFigure:
    """Figure 14(b): CDF of the number of streams each requesting viewer receives."""
    scenario = config.with_outbound(BandwidthDistribution.uniform(0.0, 12.0))
    result = run_telecast_scenario(scenario, snapshot_every=None)
    _layers, accepted = result.system.viewer_maps()
    counts = [float(count) for count in accepted.values()]
    return DistributionFigure(
        figure_id="14b",
        description="Number of accepted streams per requesting viewer",
        samples={"accepted_streams": counts},
    )


def figure_14c_overhead(config: ExperimentConfig = PAPER_CONFIG) -> DistributionFigure:
    """Figure 14(c): CDFs of viewer join delay and view-change delay."""
    scenario = config.with_(
        outbound=BandwidthDistribution.uniform(0.0, 12.0),
        view_change_probability=0.3,
    )
    result = run_telecast_scenario(scenario, snapshot_every=None)
    joins = list(result.metrics.join_delays)
    changes = list(result.metrics.view_change_delays)
    return DistributionFigure(
        figure_id="14c",
        description="Join delay and view-change delay at the viewers (seconds)",
        samples={"join_delay": joins, "view_change_delay": changes},
    )


# ---------------------------------------------------------------------------
# Figure 15: comparison with Random dissemination
# ---------------------------------------------------------------------------


def figure_15a_vs_random_bandwidth(config: ExperimentConfig = PAPER_CONFIG) -> FigureSeries:
    """Figure 15(a): acceptance ratio vs. per-viewer outbound bandwidth.

    One point per fixed outbound value, for 4D TeleCast and for the Random
    baseline, at the configured population size.
    """
    figure = FigureSeries(
        figure_id="15a",
        description="Acceptance ratio vs. outbound bandwidth per viewer",
    )
    telecast = ScalingSeries(label="TeleCast")
    random_series = ScalingSeries(label="Random")
    for value in (0.0, 2.0, 4.0, 6.0, 8.0, 10.0):
        scenario = config.with_outbound(BandwidthDistribution.fixed(value))
        telecast_result = run_telecast_scenario(scenario, snapshot_every=None)
        random_result = run_random_scenario(scenario, snapshot_every=None)
        # The x axis of this figure is bandwidth, not population size; the
        # ScalingSeries container is reused with bandwidth on the x axis.
        telecast.add(int(value), telecast_result.acceptance_ratio)
        random_series.add(int(value), random_result.acceptance_ratio)
    figure.series.extend([telecast, random_series])
    return figure


def figure_15b_vs_random_scale(
    config: ExperimentConfig = PAPER_CONFIG,
    *,
    step: int = 100,
) -> FigureSeries:
    """Figure 15(b): acceptance ratio vs. population, TeleCast vs. Random.

    Viewers contribute 2--14 Mbps of outbound bandwidth as in the paper.
    """
    scenario = config.with_outbound(BandwidthDistribution.uniform(2.0, 14.0))
    checkpoints = _scaling_checkpoints(scenario, step)
    figure = FigureSeries(
        figure_id="15b",
        description="Acceptance ratio vs. number of viewers (2-14 Mbps outbound)",
    )
    telecast_result = run_telecast_scenario(scenario, snapshot_every=step)
    random_result = run_random_scenario(scenario, snapshot_every=step)
    telecast = ScalingSeries(label="TeleCast")
    random_series = ScalingSeries(label="Random")
    for viewers, value in _snapshot_metric(
        telecast_result, checkpoints, lambda snap: snap.acceptance_ratio
    ):
        telecast.add(viewers, value)
    for viewers, value in _snapshot_metric(
        random_result, checkpoints, lambda snap: snap.acceptance_ratio
    ):
        random_series.add(viewers, value)
    figure.series.extend([telecast, random_series])
    return figure


class FigureSpec(NamedTuple):
    """How one figure is regenerated and printed."""

    description: str
    driver: Callable[..., object]
    formatter: Callable[..., str]
    formatter_kwargs: Dict[str, object]
    #: Scaling figures take the snapshot interval as ``step=``.
    takes_step: bool

    def run(self, config: ExperimentConfig, step: int, **driver_kwargs):
        """Run the driver; extra keyword arguments reach it unchanged."""
        if self.takes_step:
            driver_kwargs["step"] = step
        return self.driver(config, **driver_kwargs)

    def format(self, figure) -> str:
        """The figure's text table."""
        return self.formatter(figure, **self.formatter_kwargs)


#: Figure id -> spec; the CLI and ``benchmarks/bench_claims.py`` both
#: regenerate figures through this table.
FIGURES: Dict[str, FigureSpec] = {
    "13a": FigureSpec(
        "CDN bandwidth required for full acceptance (uncapped CDN)",
        figure_13a_cdn_bandwidth,
        format_scaling_figure,
        {},
        True,
    ),
    "13b": FigureSpec(
        "fraction of subscriptions served by the CDN",
        figure_13b_cdn_fraction,
        format_scaling_figure,
        {},
        True,
    ),
    "13c": FigureSpec(
        "acceptance ratio with a capped CDN",
        figure_13c_acceptance_ratio,
        format_scaling_figure,
        {},
        True,
    ),
    "14a": FigureSpec(
        "delay layer distribution at the viewers",
        figure_14a_layer_distribution,
        format_distribution_figure,
        {"thresholds": (0.0, 4.0)},
        False,
    ),
    "14b": FigureSpec(
        "accepted streams per viewer",
        figure_14b_accepted_streams,
        format_distribution_figure,
        {"thresholds": (0.0, 5.0)},
        False,
    ),
    "14c": FigureSpec(
        "join and view-change overhead",
        figure_14c_overhead,
        format_distribution_figure,
        {"thresholds": (0.5, 1.5)},
        False,
    ),
    "15a": FigureSpec(
        "TeleCast vs Random over outbound bandwidth",
        figure_15a_vs_random_bandwidth,
        format_scaling_figure,
        {"x_label": "obw_mbps"},
        False,
    ),
    "15b": FigureSpec(
        "TeleCast vs Random over audience size",
        figure_15b_vs_random_scale,
        format_scaling_figure,
        {},
        True,
    ),
}
