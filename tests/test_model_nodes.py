"""Tests for producers, viewers (buffer/cache) and the CDN model."""

import math

import pytest

from repro.model.cdn import CDN, CDN_NODE_ID
from repro.model.producer import make_default_producers, make_ring_site
from repro.model.stream import Frame, StreamId
from repro.model.viewer import StreamBuffer, Viewer


class TestProducerSite:
    def test_default_configuration(self):
        producers = make_default_producers()
        assert [site.site_id for site in producers] == ["A", "B"]
        assert all(len(site.streams) == 8 for site in producers)
        assert all(stream.bandwidth_mbps == 2.0 for site in producers for stream in site.streams)

    def test_ring_site_orientations_are_distinct(self):
        site = make_ring_site("A", 8)
        orientations = {stream.orientation for stream in site.streams}
        assert len(orientations) == 8

    def test_stream_lookup_by_camera(self):
        site = make_ring_site("A", 4)
        assert site.stream(2).stream_id == StreamId("A", 2)

    def test_local_view_selects_adjacent_cameras(self):
        site = make_ring_site("A", 8)
        view = site.local_view((1.0, 0.0), max_streams=3)
        cameras = {entry.stream.stream_id.camera_index for entry in view.streams}
        assert cameras == {0, 1, 7}

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            make_ring_site("A", 0)
        with pytest.raises(ValueError):
            make_default_producers(0)
        with pytest.raises(ValueError):
            make_ring_site("A", 4, stream_bandwidth_mbps=0.0)


class TestStreamBuffer:
    def _frame(self, number, stream=StreamId("A", 0)):
        return Frame(stream_id=stream, frame_number=number, capture_time=number * 0.1)

    def test_insert_and_latest(self):
        buffer = StreamBuffer(buffer_duration=0.3, cache_duration=1.0)
        buffer.insert(self._frame(0), received_at=1.0)
        buffer.insert(self._frame(1), received_at=1.1)
        assert buffer.latest_frame().frame_number == 1
        assert buffer.oldest_frame().frame_number == 0
        assert len(buffer) == 2

    def test_out_of_order_insert_rejected(self):
        buffer = StreamBuffer(buffer_duration=0.3, cache_duration=1.0)
        buffer.insert(self._frame(0), received_at=2.0)
        with pytest.raises(ValueError):
            buffer.insert(self._frame(1), received_at=1.0)

    def test_batch_arriving_before_the_tail_rejected_like_insert(self):
        buffer = StreamBuffer(buffer_duration=0.3, cache_duration=1.0)
        frames = [self._frame(number) for number in range(4)]
        buffer.extend(frames[:2], [1.0, 2.0])
        with pytest.raises(ValueError) as single:
            buffer.insert(frames[2], received_at=1.5)
        with pytest.raises(ValueError) as batch:
            buffer.extend(frames[2:], [1.5, 2.5])
        assert str(batch.value) == str(single.value) == (
            "frames must be inserted in arrival order"
        )
        assert buffer.held() == [(frames[0], 1.0), (frames[1], 2.0)]
        buffer.extend(frames[2:], [2.0, 2.5])
        buffer.extend([], [])
        assert [received for _, received in buffer.held()] == [1.0, 2.0, 2.0, 2.5]

    def test_buffer_and_cache_split(self):
        buffer = StreamBuffer(buffer_duration=0.3, cache_duration=5.0)
        buffer.insert(self._frame(0), received_at=0.0)
        buffer.insert(self._frame(1), received_at=1.0)
        now = 1.1
        in_buffer = {f.frame_number for f in buffer.in_buffer(now)}
        in_cache = {f.frame_number for f in buffer.in_cache(now)}
        assert in_buffer == {1}
        assert in_cache == {0}
        assert {f.frame_number for f in buffer.shareable(now)} == {0, 1}

    def test_eviction_beyond_cache(self):
        buffer = StreamBuffer(buffer_duration=0.3, cache_duration=1.0)
        buffer.insert(self._frame(0), received_at=0.0)
        buffer.insert(self._frame(1), received_at=2.0)
        buffer.evict_expired(now=2.0)
        assert [frame.frame_number for frame, _ in buffer.held()] == [1]

    def test_frame_at_or_after(self):
        buffer = StreamBuffer(buffer_duration=0.3, cache_duration=10.0)
        for number in range(5):
            buffer.insert(self._frame(number), received_at=number * 0.1)
        assert buffer.frame_at_or_after(3).frame_number == 3
        assert buffer.frame_at_or_after(10) is None


class TestViewer:
    def test_defaults_and_validation(self):
        viewer = Viewer(viewer_id="v1")
        assert viewer.node_id == "v1"
        with pytest.raises(ValueError):
            Viewer(viewer_id="")
        with pytest.raises(ValueError):
            Viewer(viewer_id="v", inbound_capacity_mbps=-1.0)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("inbound_capacity_mbps", -1.0, "inbound_capacity_mbps must be >= 0, got -1.0"),
            ("inbound_capacity_mbps", math.nan, "inbound_capacity_mbps must be >= 0, got nan"),
            ("outbound_capacity_mbps", -0.5, "outbound_capacity_mbps must be >= 0, got -0.5"),
            ("outbound_capacity_mbps", math.nan, "outbound_capacity_mbps must be >= 0, got nan"),
            ("buffer_duration", 0.0, "buffer_duration must be > 0, got 0.0"),
            ("buffer_duration", math.nan, "buffer_duration must be > 0, got nan"),
            ("cache_duration", -1.0, "cache_duration must be >= 0, got -1.0"),
            ("cache_duration", math.nan, "cache_duration must be >= 0, got nan"),
        ],
    )
    def test_each_field_refused_with_its_validator_message(self, field, value, message):
        with pytest.raises(ValueError) as raised:
            Viewer("v", **{field: value})
        assert str(raised.value) == message

    def test_first_bad_field_in_order_names_the_error(self):
        with pytest.raises(ValueError, match="^outbound_capacity_mbps"):
            Viewer("v", 12.0, math.nan, 0.0, -1.0)

    def test_buffer_created_on_demand_and_dropped(self):
        viewer = Viewer(viewer_id="v1")
        stream_id = StreamId("A", 0)
        buffer = viewer.buffer_for(stream_id)
        assert viewer.buffer_for(stream_id) is buffer
        assert viewer.buffered_streams == (stream_id,)
        viewer.drop_buffer(stream_id)
        assert viewer.buffered_streams == ()

    def test_synchronized_frames_within_skew(self):
        viewer = Viewer(viewer_id="v1", buffer_duration=0.3)
        s1, s2 = StreamId("A", 0), StreamId("B", 0)
        viewer.buffer_for(s1).insert(
            Frame(stream_id=s1, frame_number=0, capture_time=10.0), received_at=60.0
        )
        viewer.buffer_for(s2).insert(
            Frame(stream_id=s2, frame_number=0, capture_time=10.1), received_at=60.1
        )
        frames = viewer.synchronized_frames(60.2, [s1, s2])
        assert frames is not None and len(frames) == 2

    def test_synchronized_frames_missing_stream(self):
        viewer = Viewer(viewer_id="v1")
        assert viewer.synchronized_frames(0.0, [StreamId("A", 0)]) is None

    def test_synchronized_frames_excessive_skew(self):
        viewer = Viewer(viewer_id="v1", buffer_duration=0.3, cache_duration=100.0)
        s1, s2 = StreamId("A", 0), StreamId("B", 0)
        viewer.buffer_for(s1).insert(
            Frame(stream_id=s1, frame_number=0, capture_time=10.0), received_at=60.0
        )
        viewer.buffer_for(s2).insert(
            Frame(stream_id=s2, frame_number=0, capture_time=20.0), received_at=60.0
        )
        assert viewer.synchronized_frames(60.1, [s1, s2]) is None


class TestCDN:
    def test_ingest_and_serve(self):
        cdn = CDN(100.0)
        stream_id = StreamId("A", 0)
        cdn.ingest_stream(stream_id, 2.0)
        assert cdn.has_stream(stream_id)
        assert cdn.allocate(stream_id, 2.0)
        assert cdn.used_outbound_mbps == 2.0

    def test_cannot_serve_unknown_stream(self):
        cdn = CDN(100.0)
        assert not cdn.allocate(StreamId("A", 0), 2.0)

    def test_capacity_bound_enforced(self):
        cdn = CDN(4.0)
        stream_id = StreamId("A", 0)
        cdn.ingest_stream(stream_id, 2.0)
        assert cdn.allocate(stream_id, 2.0)
        assert cdn.allocate(stream_id, 2.0)
        assert not cdn.allocate(stream_id, 2.0)
        assert cdn.available_outbound_mbps == 0.0

    def test_release_restores_capacity(self):
        cdn = CDN(4.0)
        stream_id = StreamId("A", 0)
        cdn.ingest_stream(stream_id, 2.0)
        cdn.allocate(stream_id, 2.0)
        cdn.release(stream_id, 2.0)
        assert cdn.used_outbound_mbps == 0.0
        assert cdn.available_outbound_mbps == 4.0

    def test_release_never_goes_negative(self):
        cdn = CDN(4.0)
        stream_id = StreamId("A", 0)
        cdn.ingest_stream(stream_id, 2.0)
        cdn.release(stream_id, 2.0)
        assert cdn.used_outbound_mbps == 0.0

    def test_infinite_capacity(self):
        cdn = CDN(math.inf)
        stream_id = StreamId("A", 0)
        cdn.ingest_stream(stream_id, 2.0)
        for _ in range(100):
            assert cdn.allocate(stream_id, 2.0)
        assert math.isinf(cdn.available_outbound_mbps)

    def test_a_reservation_can_serve_admits_is_allocated(self):
        cdn = CDN(10.0)  # one aggregate ledger: 2.0 is left after four grants
        stream_id = StreamId("A", 0)
        cdn.ingest_stream(stream_id, 2.0)
        for _ in range(4):
            assert cdn.allocate(stream_id, 2.0)
        assert cdn.can_serve(2.0)
        assert cdn.allocate(stream_id, 2.0)

    def test_node_id_constant(self):
        assert CDN(10.0).node_id == CDN_NODE_ID

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            CDN(0.0)

    @pytest.mark.parametrize("capacity", [math.nan, -1.0])
    def test_nan_and_negative_capacity_rejected(self, capacity):
        with pytest.raises(ValueError, match="outbound_capacity_mbps"):
            CDN(capacity)
