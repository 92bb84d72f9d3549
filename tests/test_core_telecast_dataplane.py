"""Tests for the TeleCastSystem facade and the frame-level data plane."""

import pytest

from repro.core.dataplane import OverlayDataPlane
from repro.core.telecast import TeleCastSystem, build_views
from repro.model.cdn import CDN
from repro.traces.teeve import TeeveSessionConfig, TeeveSessionTrace
from repro.traces.workload import (
    BandwidthDistribution,
    ViewerWorkload,
    WorkloadConfig,
)
from repro.sim.rng import SeededRandom
from tests.conftest import make_viewers


def _mean_delay(report, viewer_id, stream_id):
    """Mean end-to-end delay of one stream at one viewer."""
    delays = [
        record.end_to_end_delay
        for record in report.deliveries
        if record.viewer_id == viewer_id and record.stream_id == stream_id
    ]
    return sum(delays) / len(delays) if delays else None


class TestBuildViews:
    def test_number_and_size_of_views(self, producers):
        views = build_views(producers, num_views=8, streams_per_site=3)
        assert len(views) == 8
        assert all(len(view) == 6 for view in views)
        assert len({view.view_id for view in views}) == 8

    def test_single_view(self, producers):
        (view,) = build_views(producers, num_views=1, streams_per_site=3)
        assert view.site_count == 2

    def test_invalid_arguments(self, producers):
        with pytest.raises(ValueError):
            build_views(producers, num_views=0)
        with pytest.raises(ValueError):
            build_views([], num_views=1)


class TestTeleCastSystem:
    def test_join_and_snapshot(self, small_system, default_view):
        viewers = make_viewers(10, outbound=6.0)
        for viewer in viewers:
            result = small_system.join_viewer(viewer, default_view)
            assert result.accepted
        snapshot = small_system.snapshot()
        assert snapshot.num_viewers == 10
        assert snapshot.num_requests == 10
        assert snapshot.active_subscriptions == 60
        assert snapshot.acceptance_ratio == 1.0
        assert 0.0 < snapshot.cdn_fraction <= 1.0
        assert small_system.connected_viewer_count == 10

    def test_metrics_track_joins(self, small_system, default_view):
        for viewer in make_viewers(5, outbound=4.0):
            small_system.join_viewer(viewer, default_view)
        metrics = small_system.metrics
        assert metrics.total_requested_streams == 30
        assert metrics.accepted_requests == 5
        assert len(metrics.join_delays) == 5

    def test_change_view_updates_metrics(self, small_system, views):
        viewer = make_viewers(1, outbound=6.0)[0]
        small_system.join_viewer(viewer, views[0])
        result = small_system.change_view(viewer.viewer_id, views[2])
        assert result.accepted
        assert len(small_system.metrics.view_change_delays) == 1

    def test_change_view_of_unknown_viewer(self, small_system, views):
        with pytest.raises(KeyError):
            small_system.change_view("ghost", views[1])

    def test_depart_viewer(self, small_system, default_view):
        viewer = make_viewers(1)[0]
        small_system.join_viewer(viewer, default_view)
        result = small_system.depart_viewer(viewer.viewer_id)
        assert result.departed
        assert small_system.connected_viewer_count == 0
        assert not small_system.depart_viewer(viewer.viewer_id).departed

    def test_refresh_layers_runs(self, small_system, default_view):
        for viewer in make_viewers(4, outbound=6.0):
            small_system.join_viewer(viewer, default_view)
        small_system.refresh_layers_from_observed({})
        metrics = small_system.metrics
        assert (metrics.observed_layer_adjustments, metrics.observed_streams_dropped) == (0, 0)
        assert small_system.connected_viewer_count == 4

    def test_run_workload_with_dynamics(self, producers, flat_delay_model, layer_config):
        system = TeleCastSystem(producers, CDN(10_000.0, delta=60.0), flat_delay_model, layer_config)
        config = WorkloadConfig(
            num_viewers=30,
            outbound=BandwidthDistribution.uniform(0, 12),
            num_views=4,
            view_change_probability=0.3,
            departure_probability=0.2,
            arrival_rate_per_second=5.0,
        )
        workload = ViewerWorkload(config, rng=SeededRandom(5))
        viewers = workload.viewers()
        events = workload.events()
        views = build_views(producers, num_views=4, streams_per_site=3)
        metrics = system.run_workload(viewers, events, views, snapshot_every=10)
        assert metrics.accepted_requests + metrics.rejected_requests >= 30
        assert metrics.snapshots
        assert system.simulator.now >= max(event.time for event in events)
        # Overlay invariants hold after the full dynamic run.
        for lsc in system.gsc.lscs:
            for group in lsc.groups.values():
                for tree in group.trees.values():
                    tree.validate()

    def test_invalid_construction(self, flat_delay_model, layer_config):
        with pytest.raises(ValueError):
            TeleCastSystem([], CDN(100.0), flat_delay_model, layer_config)


class TestDataPlane:
    def test_replay_preserves_view_synchronization(self, small_system, default_view, producers):
        for viewer in make_viewers(6, outbound=6.0):
            small_system.join_viewer(viewer, default_view)
        trace = TeeveSessionTrace(
            producers, config=TeeveSessionConfig(duration=3.0), rng=SeededRandom(1)
        )
        report = OverlayDataPlane(small_system, trace).replay(max_frames_per_stream=20)
        assert report.deliveries
        config = small_system.layer_config
        # Layer Property 2 bounds the layer spread by kappa; because streams
        # may sit anywhere inside their layer, the delay skew is bounded by
        # d_buff plus one layer width tau (the quantisation slack).
        skew_bound = config.buffer_duration + config.tau
        for viewer_id in (f"viewer-{i:04d}" for i in range(6)):
            skew = report.skew_for(viewer_id)
            assert skew is not None
            assert skew <= skew_bound + 1e-9

    def test_replay_delays_reflect_overlay_position(self, small_system, default_view, producers):
        seed, leaf = make_viewers(2, outbound=12.0)
        leaf = leaf.__class__(viewer_id=leaf.viewer_id, outbound_capacity_mbps=0.0)
        small_system.join_viewer(seed, default_view)
        small_system.join_viewer(leaf, default_view)
        trace = TeeveSessionTrace(producers, config=TeeveSessionConfig(duration=2.0))
        report = OverlayDataPlane(small_system, trace).replay(max_frames_per_stream=10)
        stream_id = default_view.stream_ids[0]
        seed_delay = _mean_delay(report, seed.viewer_id, stream_id)
        leaf_delay = _mean_delay(report, leaf.viewer_id, stream_id)
        assert seed_delay is not None and leaf_delay is not None
        assert leaf_delay >= seed_delay
        # Every delivery respects the d_max bound of the configuration.
        assert all(
            record.end_to_end_delay <= small_system.layer_config.d_max + 1e-9
            for record in report.deliveries
        )

    def test_frames_land_in_gateway_buffers(self, small_system, default_view, producers):
        viewer = make_viewers(1, outbound=6.0)[0]
        small_system.join_viewer(viewer, default_view)
        trace = TeeveSessionTrace(producers, config=TeeveSessionConfig(duration=1.0))
        OverlayDataPlane(small_system, trace).replay(max_frames_per_stream=5)
        session = small_system.lsc_of(viewer.viewer_id).session_of(viewer.viewer_id)
        assert set(session.viewer.buffered_streams) == set(session.accepted_stream_ids)
