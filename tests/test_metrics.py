"""Tests for metric collectors and statistics helpers."""

import pytest

from repro.metrics.collectors import SessionMetrics, SystemSnapshot
from repro.metrics.stats import describe, fraction_at_most, percentile


class TestStats:
    def test_fraction_at_most(self):
        samples = [1.0, 2.0, 3.0, 4.0]
        assert fraction_at_most(samples, 2.0) == 0.5
        assert fraction_at_most(samples, 0.0) == 0.0
        assert fraction_at_most([], 1.0) == 0.0

    def test_percentile_interpolates(self):
        samples = [0.0, 10.0]
        assert percentile(samples, 50.0) == 5.0
        assert percentile(samples, 0.0) == 0.0
        assert percentile(samples, 100.0) == 10.0
        assert percentile([7.0], 90.0) == 7.0

    def test_percentile_validation(self):
        with pytest.raises(ValueError):
            percentile([], 50.0)
        with pytest.raises(ValueError):
            percentile([1.0], 120.0)

    def test_describe(self):
        summary = describe([1.0, 2.0, 3.0, 4.0])
        assert summary.count == 4
        assert summary.mean == 2.5
        assert summary.minimum == 1.0
        assert summary.maximum == 4.0
        with pytest.raises(ValueError):
            describe([])


def snapshot(viewers=10, requests=12, subs=60, cdn=30, bw=60.0, rho=0.9):
    return SystemSnapshot(
        num_viewers=viewers,
        num_requests=requests,
        active_subscriptions=subs,
        cdn_subscriptions=cdn,
        cdn_outbound_mbps=bw,
        acceptance_ratio=rho,
    )


class TestSystemSnapshot:
    def test_cdn_fraction(self):
        assert snapshot().cdn_fraction == 0.5
        assert snapshot(subs=0, cdn=0).cdn_fraction == 0.0

    def test_p2p_subscriptions(self):
        assert snapshot().p2p_subscriptions == 30


class TestSessionMetrics:
    def test_acceptance_ratio_accumulates(self):
        metrics = SessionMetrics()
        metrics.record_join(requested=6, accepted=6, join_delay=0.5, request_accepted=True)
        metrics.record_join(requested=6, accepted=0, join_delay=0.4, request_accepted=False)
        assert metrics.acceptance_ratio == 0.5
        assert metrics.request_acceptance_ratio == 0.5
        assert metrics.accepted_requests == 1
        assert metrics.rejected_requests == 1
        assert len(metrics.join_delays) == 2

    def test_empty_metrics_default_to_one(self):
        metrics = SessionMetrics()
        assert metrics.acceptance_ratio == 1.0
        assert metrics.request_acceptance_ratio == 1.0

    def test_view_change_recorded(self):
        metrics = SessionMetrics()
        metrics.record_view_change(requested=6, accepted=4, change_delay=0.3, request_accepted=True)
        assert metrics.view_change_delays == [0.3]
        assert metrics.total_accepted_streams == 4

    def test_victim_accounting(self):
        metrics = SessionMetrics()
        metrics.record_victims(victims=3, recovered=2)
        assert metrics.victim_events == 3
        assert metrics.recovered_victims == 2
        assert metrics.lost_victim_subscriptions == 1

    def test_snapshot_lookup(self):
        metrics = SessionMetrics()
        metrics.add_snapshot(snapshot(requests=100))
        metrics.add_snapshot(snapshot(requests=200))
        assert metrics.snapshot_at(150).num_requests == 200
        assert metrics.snapshot_at(50).num_requests == 100
        assert metrics.snapshot_at(500) is None

    def test_sync_drop_counter(self):
        metrics = SessionMetrics()
        metrics.record_join(
            requested=6, accepted=5, join_delay=0.5, request_accepted=True, dropped_by_sync=1
        )
        assert metrics.sync_dropped_streams == 1
