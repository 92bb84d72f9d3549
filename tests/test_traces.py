"""Tests for the synthetic TEEVE traces and the viewer workload generator."""

import pytest

from repro.model.producer import make_default_producers
from repro.sim.rng import SeededRandom
from repro.traces.teeve import TeeveSessionConfig, TeeveSessionTrace
from repro.traces.workload import BandwidthDistribution, ViewerWorkload, WorkloadConfig


def _mean_bandwidth_mbps(trace, stream_id):
    """Long-run bandwidth of a generated stream: megabits over its time span."""
    frames = trace.frames_for_stream(stream_id)
    total_megabits = sum(frame.size_megabits for frame in frames)
    return total_megabits / (frames[-1].capture_time - frames[0].capture_time)


class TestTeeveTrace:
    def test_frames_have_increasing_numbers_and_times(self):
        trace = TeeveSessionTrace(make_default_producers(), config=TeeveSessionConfig(duration=5.0))
        stream_id = make_default_producers()[0].stream_ids[0]
        frames = trace.frames_for_stream(stream_id)
        numbers = [frame.frame_number for frame in frames]
        times = [frame.capture_time for frame in frames]
        assert numbers == list(range(len(frames)))
        assert times == sorted(times)

    def test_bandwidth_stays_within_bound(self):
        producers = make_default_producers()
        trace = TeeveSessionTrace(producers, config=TeeveSessionConfig(duration=30.0))
        for stream in producers[0].streams[:3]:
            assert _mean_bandwidth_mbps(trace, stream.stream_id) <= stream.bandwidth_mbps + 1e-9

    def test_mean_bandwidth_close_to_nominal(self):
        producers = make_default_producers()
        trace = TeeveSessionTrace(producers, config=TeeveSessionConfig(duration=60.0))
        stream = producers[0].streams[0]
        mean = _mean_bandwidth_mbps(trace, stream.stream_id)
        assert 0.5 * stream.bandwidth_mbps <= mean <= stream.bandwidth_mbps

    def test_deterministic_for_same_rng(self):
        producers = make_default_producers()
        a = TeeveSessionTrace(producers, rng=SeededRandom(3), config=TeeveSessionConfig(duration=5.0))
        b = TeeveSessionTrace(producers, rng=SeededRandom(3), config=TeeveSessionConfig(duration=5.0))
        stream_id = producers[0].stream_ids[0]
        assert a.frames_for_stream(stream_id) == b.frames_for_stream(stream_id)

    @pytest.mark.parametrize("seed", [7, 11])
    def test_a_frame_limit_generates_a_prefix_of_the_full_trace(self, seed):
        # The generator stops at the limit; the draws before it are the
        # ones the full trace makes, so every frame is byte-identical.
        producers = make_default_producers()
        trace = TeeveSessionTrace(producers, rng=SeededRandom(seed))
        for stream in trace.streams:
            full = trace.frames_for_stream(stream.stream_id)
            assert len(full) > 60
            for limit in (0, 1, 59, 60, len(full), len(full) + 7):
                assert trace.frames_for_stream(stream.stream_id, limit) == full[:limit]

    def test_a_negative_frame_limit_is_refused(self):
        trace = TeeveSessionTrace(make_default_producers())
        stream_id = trace.streams[0].stream_id
        with pytest.raises(ValueError, match="must be >= 0 or None"):
            trace.frames_for_stream(stream_id, -1)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TeeveSessionConfig(duration=0.0)
        with pytest.raises(ValueError):
            TeeveSessionConfig(size_jitter=1.5)
        with pytest.raises(ValueError):
            TeeveSessionTrace([])


class TestBandwidthDistribution:
    def test_fixed(self):
        dist = BandwidthDistribution.fixed(6.0)
        assert dist.is_fixed
        viewers = ViewerWorkload(WorkloadConfig(num_viewers=5, outbound=dist)).viewers()
        assert {viewer.outbound_capacity_mbps for viewer in viewers} == {6.0}
        assert dist.label() == "C_obw=6"

    def test_uniform_sampling_within_range(self):
        dist = BandwidthDistribution.uniform(2.0, 10.0)
        config = WorkloadConfig(num_viewers=100, outbound=dist)
        viewers = ViewerWorkload(config, rng=SeededRandom(1)).viewers()
        assert all(2.0 <= viewer.outbound_capacity_mbps <= 10.0 for viewer in viewers)
        assert dist.label() == "C_obw=2-10"

    def test_invalid_range_rejected(self):
        with pytest.raises(ValueError):
            BandwidthDistribution.uniform(5.0, 2.0)
        with pytest.raises(ValueError):
            BandwidthDistribution.fixed(-1.0)


class TestViewerWorkload:
    def test_population_size_and_capacities(self):
        config = WorkloadConfig(num_viewers=50, outbound=BandwidthDistribution.uniform(0, 12))
        viewers = ViewerWorkload(config, rng=SeededRandom(4)).viewers()
        assert len(viewers) == 50
        assert len({viewer.viewer_id for viewer in viewers}) == 50
        assert all(0 <= viewer.outbound_capacity_mbps <= 12 for viewer in viewers)
        assert all(viewer.inbound_capacity_mbps == 12.0 for viewer in viewers)

    def test_flash_crowd_all_join_at_time_zero(self):
        config = WorkloadConfig(num_viewers=20)
        events = ViewerWorkload(config, rng=SeededRandom(4)).events()
        assert all(event.kind == "join" and event.time == 0.0 for event in events)

    def test_poisson_arrivals_are_spread_in_time(self):
        config = WorkloadConfig(num_viewers=20, arrival_rate_per_second=2.0)
        events = ViewerWorkload(config, rng=SeededRandom(4)).events()
        join_times = [event.time for event in events if event.kind == "join"]
        assert join_times == sorted(join_times)
        assert join_times[-1] > 0.0

    def test_every_viewer_joins_exactly_once(self):
        config = WorkloadConfig(num_viewers=30, view_change_probability=0.5, departure_probability=0.5)
        workload = ViewerWorkload(config, rng=SeededRandom(4))
        viewers = workload.viewers()
        events = workload.events(viewers)
        joins = [event.viewer_id for event in events if event.kind == "join"]
        assert sorted(joins) == sorted(viewer.viewer_id for viewer in viewers)

    def test_view_changes_pick_a_different_view(self):
        config = WorkloadConfig(num_viewers=40, num_views=4, view_change_probability=1.0)
        workload = ViewerWorkload(config, rng=SeededRandom(4))
        viewers = workload.viewers()
        events = workload.events(viewers)
        joins = {e.viewer_id: e.view_index for e in events if e.kind == "join"}
        changes = [e for e in events if e.kind == "view_change"]
        assert changes
        assert all(joins[event.viewer_id] != event.view_index for event in changes)

    def test_departures_follow_joins(self):
        config = WorkloadConfig(num_viewers=25, departure_probability=1.0)
        workload = ViewerWorkload(config, rng=SeededRandom(4))
        viewers = workload.viewers()
        events = workload.events(viewers)
        join_time = {e.viewer_id: e.time for e in events if e.kind == "join"}
        departures = [e for e in events if e.kind == "depart"]
        assert departures
        assert all(event.time >= join_time[event.viewer_id] for event in departures)

    def test_events_sorted_by_time(self):
        config = WorkloadConfig(
            num_viewers=30,
            arrival_rate_per_second=1.0,
            view_change_probability=0.5,
            departure_probability=0.3,
        )
        events = ViewerWorkload(config, rng=SeededRandom(4)).events()
        times = [event.time for event in events]
        assert times == sorted(times)

    def test_zipf_popularity_prefers_first_view(self):
        config = WorkloadConfig(num_viewers=400, num_views=8, view_popularity_alpha=1.0)
        events = ViewerWorkload(config, rng=SeededRandom(4)).events()
        counts = {}
        for event in events:
            counts[event.view_index] = counts.get(event.view_index, 0) + 1
        assert counts[0] == max(counts.values())

    def test_deterministic_for_seed(self):
        config = WorkloadConfig(num_viewers=10, view_change_probability=0.5)
        a = ViewerWorkload(config, rng=SeededRandom(9)).events()
        b = ViewerWorkload(config, rng=SeededRandom(9)).events()
        assert a == b

    def test_invalid_configs_rejected(self):
        with pytest.raises(ValueError):
            WorkloadConfig(num_viewers=0)
        with pytest.raises(ValueError):
            WorkloadConfig(view_change_probability=1.5)
        with pytest.raises(ValueError):
            WorkloadConfig(num_views=0)
