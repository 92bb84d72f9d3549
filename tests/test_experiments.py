"""Tests for experiment configuration, the scenario runner and figure drivers.

Figure drivers are exercised at a reduced scale (tens of viewers) so the
whole suite stays fast; the full-scale shapes are checked by the benchmark
harness.
"""

import dataclasses
import math

import pytest

from repro.core.dataplane import DataPlaneConfig
from repro.experiments import runner as runner_module
from repro.experiments.config import (
    FIGURE_13_BANDWIDTH_SETTINGS,
    PAPER_CONFIG,
    ExperimentConfig,
    viewer_counts,
)
from repro.experiments.figures import (
    figure_13a_cdn_bandwidth,
    figure_13c_acceptance_ratio,
    figure_14b_accepted_streams,
    figure_14c_overhead,
    figure_15b_vs_random_scale,
)
from repro.experiments.reporting import (
    format_distribution_figure,
    format_scaling_figure,
    paper_vs_measured,
)
from repro.experiments.runner import run_random_scenario, run_telecast_scenario
from repro.traces.workload import VIEWER_INBOUND_MBPS, BandwidthDistribution


@pytest.fixture
def tiny_config():
    """A 60-viewer configuration with a proportionally scaled CDN."""
    return PAPER_CONFIG.with_(num_viewers=60, cdn_capacity_mbps=360.0, num_views=4)


class TestExperimentConfig:
    def test_paper_defaults_match_section_vii(self):
        assert PAPER_CONFIG.num_sites == 2
        assert PAPER_CONFIG.cameras_per_site == 8
        assert PAPER_CONFIG.stream_bandwidth_mbps == 2.0
        assert PAPER_CONFIG.streams_per_view == 6
        assert VIEWER_INBOUND_MBPS == 12.0
        assert PAPER_CONFIG.cdn_capacity_mbps == 6000.0
        assert PAPER_CONFIG.cdn_delta == 60.0
        assert PAPER_CONFIG.d_max == 65.0
        assert PAPER_CONFIG.buffer_duration == pytest.approx(0.3)
        assert PAPER_CONFIG.cache_duration == 25.0
        assert PAPER_CONFIG.kappa == 2
        assert PAPER_CONFIG.num_viewers == 1000

    def test_demand_matches_paper_total(self):
        assert PAPER_CONFIG.demand_mbps == 12_000.0

    def test_layer_config_derivation(self):
        layer_config = PAPER_CONFIG.layer_config()
        assert layer_config.delta == 60.0
        assert layer_config.tau == pytest.approx(0.15)
        assert layer_config.cache_duration == 25.0

    def test_with_helpers(self):
        config = PAPER_CONFIG.with_(num_viewers=10)
        assert config.num_viewers == 10
        uncapped = config.with_uncapped_cdn()
        assert math.isinf(uncapped.cdn_capacity_mbps)
        rebound = config.with_outbound(BandwidthDistribution.fixed(8.0))
        assert rebound.outbound.is_fixed

    def test_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(num_viewers=0)
        with pytest.raises(ValueError):
            ExperimentConfig(d_max=50.0, cdn_delta=60.0)

    @pytest.mark.parametrize(
        "override",
        [
            {"data_loss_rate": 1.0},
            {"data_mean_burst_length": 0.5},
            {"data_bandwidth_headroom": 0.0},
            {"data_refresh_interval": 0.0},
            {"replay_frames_per_stream": -1},
        ],
        ids=lambda override: next(iter(override)),
    )
    def test_data_plane_fields_validated_even_when_off(self, override):
        # The rules live once, on DataPlaneConfig; they must not turn lazy.
        with pytest.raises(ValueError):
            ExperimentConfig(data_plane="off", **override)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("refresh_interval", math.inf),
            ("mean_burst_length", math.nan),
            ("mean_burst_length", math.inf),
        ],
    )
    def test_non_finite_data_plane_values_are_refused_up_front(self, field, value):
        # Accepted, an infinite refresh would run every join and then
        # overflow when it fires at t = inf, and a NaN burst length would
        # turn loss off: both must fail at construction, naming the field.
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            DataPlaneConfig(**{field: value})
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            ExperimentConfig(data_plane="simulated", **{f"data_{field}": value})

    @pytest.mark.parametrize("value", [math.inf, math.nan], ids=["inf", "nan"])
    @pytest.mark.parametrize("field", ["session_duration", "control_delay_scale"])
    def test_non_finite_duration_and_delay_scale_are_refused_up_front(self, field, value):
        # Accepted, an infinite duration builds the whole world and then
        # overflows the frame clock, and an infinite delay scale serves a
        # daemon whose joins never deliver.
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            ExperimentConfig(**{field: value})

    def test_an_infinite_delay_bound_is_refused_up_front(self):
        # Accepted, d_max = inf leaked an OverflowError from the layer
        # bound floor((d_max - Delta) / tau).
        with pytest.raises(ValueError, match="d_max must be finite"):
            ExperimentConfig(d_max=math.inf)

    @pytest.mark.parametrize(
        "field, value",
        [
            pytest.param(item.name, value, id=f"{item.name}-{value}")
            for item in dataclasses.fields(ExperimentConfig)
            if item.type in ("float", "Optional[float]")
            for value in (math.inf, math.nan)
            # The uncapped CDN of Figure 13(a) is infinite by design.
            if (item.name, value) != ("cdn_capacity_mbps", math.inf)
        ],
    )
    def test_every_non_finite_float_field_is_refused_naming_it(self, field, value):
        # Accepted, a NaN frame rate failed far from its cause and an
        # infinite processing delay or stream rate ran to nonsense.  A
        # data-plane field is named as DataPlaneConfig names it, the CDN
        # delay as DelayLayerConfig's delta (or Delta).
        name = "(?i)delta" if field == "cdn_delta" else field.removeprefix("data_")
        with pytest.raises(ValueError, match=name):
            ExperimentConfig(**{field: value})

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("cdn_capacity_mbps", math.nan, "cdn_capacity_mbps must be > 0"),
            ("cdn_capacity_mbps", -5.0, "cdn_capacity_mbps must be > 0"),
            ("d_max", math.nan, "d_max must be > 0"),
            ("buffer_duration", math.nan, "buffer_duration must be > 0"),
            ("cache_duration", math.nan, "cache_duration must be >= 0"),
            ("kappa", 0, "kappa must be >= 2"),
            ("view_change_probability", math.nan, "view_change_probability must be in"),
            ("arrival_rate_per_second", math.nan, "arrival_rate_per_second must be >= 0"),
        ],
    )
    def test_substrate_rules_are_applied_at_construction(self, field, value, message):
        # Accepted, each of these is refused only once the workload and
        # the latency world are built, some under another field's name.
        with pytest.raises(ValueError, match=message):
            ExperimentConfig(**{field: value})

    def test_figure13_settings_cover_paper_legend(self):
        labels = {setting.label() for setting in FIGURE_13_BANDWIDTH_SETTINGS}
        assert "C_obw=0" in labels
        assert "C_obw=0-12" in labels
        assert "C_obw=4-14" in labels

    def test_viewer_counts(self):
        assert viewer_counts(1000)[0] == 100
        assert viewer_counts(1000)[-1] == 1000
        assert viewer_counts(250, 100) == [100, 200, 250]
        with pytest.raises(ValueError):
            viewer_counts(0)


class TestRunner:
    def test_telecast_scenario_runs(self, tiny_config):
        result = run_telecast_scenario(tiny_config, snapshot_every=20)
        assert result.final_snapshot.num_requests == 60
        assert 0.0 < result.acceptance_ratio <= 1.0
        assert result.metrics.snapshots
        assert result.cdn_outbound_mbps <= tiny_config.cdn_capacity_mbps + 1e-9

    def test_random_scenario_runs(self, tiny_config):
        result = run_random_scenario(tiny_config, snapshot_every=20)
        assert result.final_snapshot.num_requests == 60
        assert 0.0 < result.acceptance_ratio <= 1.0

    @pytest.mark.parametrize(
        "field_name, overrides",
        [
            ("control_plane", {"control_plane": "simulated"}),
            ("data_plane", {"data_plane": "simulated"}),
            ("shard_workers", {"num_lscs": 2, "shard_workers": 2}),
        ],
    )
    def test_random_scenario_refuses_what_the_baseline_cannot_run(
        self, tiny_config, monkeypatch, field_name, overrides
    ):
        # The baseline places joins alone, instantly, in one process; it
        # used to run such a config as if the field were unset.
        def no_build(*args, **kwargs):
            raise AssertionError("refused configs must not build a world")

        monkeypatch.setattr(runner_module, "build_scenario", no_build)
        with pytest.raises(ValueError, match=f"cannot run {field_name}="):
            run_random_scenario(tiny_config.with_(**overrides), snapshot_every=None)

    def test_a_negative_snapshot_cadence_is_refused(self, tiny_config):
        from repro.parallel import run_sharded_scenario

        for run in (run_telecast_scenario, run_random_scenario, run_sharded_scenario):
            with pytest.raises(ValueError, match="snapshot_every must be >= 0"):
                run(tiny_config, snapshot_every=-7)
        # 0 and None both mean "at the end only".
        for cadence in (0, None):
            result = run_telecast_scenario(tiny_config, snapshot_every=cadence)
            assert len(result.metrics.snapshots) == 1

    def test_scenarios_are_deterministic(self, tiny_config):
        first = run_telecast_scenario(tiny_config, snapshot_every=None)
        second = run_telecast_scenario(tiny_config, snapshot_every=None)
        assert first.acceptance_ratio == second.acceptance_ratio
        assert first.cdn_outbound_mbps == second.cdn_outbound_mbps

    def test_seed_changes_population(self, tiny_config):
        alternative = tiny_config.with_(seed=99)
        base = run_telecast_scenario(tiny_config, snapshot_every=None)
        other = run_telecast_scenario(alternative, snapshot_every=None)
        assert base.final_snapshot.num_requests == other.final_snapshot.num_requests


class TestFigures:
    def test_figure_13a_zero_contribution_uses_full_demand(self, tiny_config):
        figure = figure_13a_cdn_bandwidth(
            tiny_config,
            bandwidth_settings=[BandwidthDistribution.fixed(0.0)],
            step=20,
        )
        series = figure.series_by_label("C_obw=0")
        assert series.final_value() == tiny_config.demand_mbps
        assert series.num_viewers[-1] == 60

    def test_figure_13c_monotone_in_contribution(self, tiny_config):
        figure = figure_13c_acceptance_ratio(
            tiny_config,
            bandwidth_settings=[
                BandwidthDistribution.fixed(0.0),
                BandwidthDistribution.fixed(8.0),
            ],
            step=20,
        )
        zero = figure.series_by_label("C_obw=0").final_value()
        eight = figure.series_by_label("C_obw=8").final_value()
        assert eight >= zero

    def test_figure_14b_counts_cover_all_requests(self, tiny_config):
        figure = figure_14b_accepted_streams(tiny_config)
        assert len(figure.samples["accepted_streams"]) == 60
        assert set(figure.samples["accepted_streams"]) <= set(range(0, 7))

    def test_figure_14c_produces_both_cdfs(self, tiny_config):
        figure = figure_14c_overhead(tiny_config)
        assert figure.samples["join_delay"]
        assert figure.samples["view_change_delay"]

    def test_figure_15b_has_both_systems(self, tiny_config):
        figure = figure_15b_vs_random_scale(tiny_config, step=20)
        telecast = figure.series_by_label("TeleCast")
        random_series = figure.series_by_label("Random")
        assert len(telecast.values) == len(random_series.values)
        assert all(0.0 <= value <= 1.0 for value in telecast.values + random_series.values)


class TestReporting:
    def test_format_scaling_figure(self, tiny_config):
        figure = figure_13c_acceptance_ratio(
            tiny_config, bandwidth_settings=[BandwidthDistribution.fixed(4.0)], step=30
        )
        text = format_scaling_figure(figure)
        assert "Figure 13c" in text
        assert "C_obw=4" in text

    def test_format_distribution_figure(self, tiny_config):
        figure = figure_14b_accepted_streams(tiny_config)
        text = format_distribution_figure(figure, thresholds=(0.0,))
        assert "accepted_streams" in text
        assert "fraction <= 0" in text

    def test_paper_vs_measured_table(self):
        table = paper_vs_measured([("acceptance", "1.0", "0.99")])
        assert "quantity" in table and "acceptance" in table
