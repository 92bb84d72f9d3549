"""Tests for the stream, frame and view models (Section II of the paper)."""

import math

import pytest

from repro.model.stream import Frame, Stream, StreamId, orientation_from_angle
from repro.model.view import (
    GlobalView,
    differentiation,
    global_priority_order,
    make_local_view,
)


def _stream(site="A", camera=0, angle=0.0, bandwidth=2.0, rate=10.0):
    return Stream(
        stream_id=StreamId(site_id=site, camera_index=camera),
        orientation=orientation_from_angle(angle),
        bandwidth_mbps=bandwidth,
        frame_rate=rate,
    )


class TestStream:
    def test_stream_id_str(self):
        assert str(StreamId("A", 4)) == "S4@A"

    def test_stream_ids_are_orderable(self):
        assert StreamId("A", 1) < StreamId("A", 2) < StreamId("B", 0)

    def test_site_id_property(self):
        assert _stream(site="B").site_id == "B"

    def test_frame_size_and_interval(self):
        stream = _stream(bandwidth=2.0, rate=10.0)
        assert stream.frame_size_megabits == pytest.approx(0.2)
        assert stream.frame_interval() == pytest.approx(0.1)

    def test_non_unit_orientation_rejected(self):
        with pytest.raises(ValueError):
            Stream(stream_id=StreamId("A", 0), orientation=(2.0, 0.0))

    def test_non_positive_bandwidth_rejected(self):
        with pytest.raises(ValueError):
            _stream(bandwidth=0.0)

    def test_frame_validation(self):
        frame = Frame(stream_id=StreamId("A", 0), frame_number=3, capture_time=0.3)
        assert frame.frame_number == 3
        with pytest.raises(ValueError):
            Frame(stream_id=StreamId("A", 0), frame_number=-1, capture_time=0.0)
        with pytest.raises(ValueError):
            Frame(stream_id=StreamId("A", 0), frame_number=0, capture_time=-1.0)

    def test_orientation_from_angle_is_unit(self):
        x, y = orientation_from_angle(1.234)
        assert math.hypot(x, y) == pytest.approx(1.0)


class TestDifferentiation:
    def test_aligned_stream_scores_one(self):
        stream = _stream(angle=0.0)
        assert differentiation(stream, (1.0, 0.0)) == pytest.approx(1.0)

    def test_opposite_stream_scores_minus_one(self):
        stream = _stream(angle=math.pi)
        assert differentiation(stream, (1.0, 0.0)) == pytest.approx(-1.0)

    def test_orthogonal_stream_scores_zero(self):
        stream = _stream(angle=math.pi / 2)
        assert differentiation(stream, (1.0, 0.0)) == pytest.approx(0.0, abs=1e-9)


class TestLocalView:
    def _site_streams(self, count=8):
        return [
            _stream(camera=i, angle=2 * math.pi * i / count) for i in range(count)
        ]

    def test_streams_ordered_by_importance(self):
        view = make_local_view(self._site_streams(), (1.0, 0.0), max_streams=3)
        dfs = [entry.df for entry in view.streams]
        assert dfs == sorted(dfs, reverse=True)
        assert [entry.eta for entry in view.streams] == [1, 2, 3]

    def test_best_matching_camera_selected_first(self):
        view = make_local_view(self._site_streams(), (1.0, 0.0), max_streams=3)
        assert view.highest_priority_stream.stream.stream_id.camera_index == 0

    def test_cutoff_removes_unimportant_streams(self):
        view = make_local_view(self._site_streams(), (1.0, 0.0), cutoff_threshold=0.5)
        assert all(entry.df >= 0.5 for entry in view.streams)
        assert len(view) < 8

    def test_cutoff_keeps_at_least_one_stream(self):
        view = make_local_view(self._site_streams(), (1.0, 0.0), cutoff_threshold=2.0)
        assert len(view) == 1

    def test_max_streams_cap(self):
        view = make_local_view(self._site_streams(), (1.0, 0.0), max_streams=3)
        assert len(view) == 3

    def test_mixed_sites_rejected(self):
        streams = [_stream(site="A", camera=0), _stream(site="B", camera=1)]
        with pytest.raises(ValueError):
            make_local_view(streams, (1.0, 0.0))

    def test_empty_site_rejected(self):
        with pytest.raises(ValueError):
            make_local_view([], (1.0, 0.0))


class TestGlobalView:
    def _global_view(self, producers, angle=0.0, view_id="v"):
        orientation = orientation_from_angle(angle)
        locals_ = tuple(p.local_view(orientation, max_streams=3) for p in producers)
        return GlobalView(view_id=view_id, local_views=locals_)

    def test_site_count_and_stream_count(self, producers):
        view = self._global_view(producers)
        assert view.site_count == 2
        assert len(view) == 6
        assert len(view.stream_ids) == 6

    def test_global_priority_interleaves_sites(self, producers):
        view = self._global_view(producers)
        top_two_sites = {sid.site_id for sid in view.stream_ids[:2]}
        assert top_two_sites == {"A", "B"}

    def test_highest_priority_per_site(self, producers):
        view = self._global_view(producers)
        per_site = view.highest_priority_per_site
        assert set(per_site) == {"A", "B"}
        for site, stream_id in per_site.items():
            assert stream_id.site_id == site

    def test_views_with_same_streams_are_equal(self, producers):
        assert self._global_view(producers, view_id="x") == self._global_view(
            producers, view_id="y"
        )

    def test_views_with_different_orientations_differ(self, producers):
        assert self._global_view(producers, angle=0.0) != self._global_view(
            producers, angle=math.pi
        )

    def test_overlapping_streams_for_adjacent_views(self, producers):
        a = self._global_view(producers, angle=0.0)
        b = self._global_view(producers, angle=math.pi / 4)
        overlap = set(a.stream_ids) & set(b.stream_ids)
        assert overlap
        assert len(overlap) < len(a.stream_ids)

    def test_duplicate_site_rejected(self, producers):
        local = producers[0].local_view((1.0, 0.0), max_streams=2)
        with pytest.raises(ValueError):
            GlobalView(view_id="bad", local_views=(local, local))

    def test_priority_order_lower_eta_minus_df_first(self, producers):
        view = self._global_view(producers)
        keys = [entry.global_priority_key for entry in view.prioritized_streams]
        assert keys == sorted(keys)

    def test_global_priority_order_deterministic(self, producers):
        view = self._global_view(producers)
        assert global_priority_order(view.local_views) == view.prioritized_streams
