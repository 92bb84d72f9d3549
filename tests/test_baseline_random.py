"""Tests for the Random dissemination baseline."""

import pytest

from repro.baselines.random_routing import RandomDisseminationSystem
from repro.core.layering import DelayLayerConfig
from repro.model.cdn import CDN, CDN_NODE_ID
from repro.sim.rng import SeededRandom
from tests.conftest import make_viewers


@pytest.fixture
def random_system(producers, flat_delay_model, layer_config):
    return RandomDisseminationSystem(
        producers,
        CDN(10_000.0, delta=60.0),
        flat_delay_model,
        layer_config,
        rng=SeededRandom(3),
    )


class TestJoin:
    def test_first_viewer_served_by_cdn(self, random_system, default_view):
        viewer = make_viewers(1, outbound=6.0)[0]
        assert random_system.join_viewer(viewer, default_view)
        snapshot = random_system.snapshot()
        assert snapshot.num_viewers == 1
        assert snapshot.active_subscriptions == 6
        assert snapshot.cdn_subscriptions == 6

    def test_later_viewers_can_use_peers(self, random_system, default_view):
        for viewer in make_viewers(20, outbound=12.0):
            random_system.join_viewer(viewer, default_view)
        snapshot = random_system.snapshot()
        assert snapshot.active_subscriptions == 120
        assert snapshot.cdn_subscriptions < 120

    def test_duplicate_join_rejected(self, random_system, default_view):
        viewer = make_viewers(1)[0]
        random_system.join_viewer(viewer, default_view)
        with pytest.raises(ValueError):
            random_system.join_viewer(viewer, default_view)

    def test_metrics_accumulate(self, random_system, default_view):
        for viewer in make_viewers(5, outbound=6.0):
            random_system.join_viewer(viewer, default_view)
        metrics = random_system.metrics
        assert metrics.total_requested_streams == 30
        assert metrics.total_accepted_streams == 30
        assert metrics.acceptance_ratio == 1.0

    def test_strict_admission_rejects_partial_requests(self, producers, flat_delay_model, layer_config, default_view):
        # A CDN able to serve only 2 of the 6 streams forces rejection under
        # strict (all-or-nothing) admission.
        system = RandomDisseminationSystem(
            producers,
            CDN(4.0, delta=60.0),
            flat_delay_model,
            layer_config,
            rng=SeededRandom(3),
        )
        viewer = make_viewers(1, outbound=0.0)[0]
        assert not system.join_viewer(viewer, default_view)
        assert system.metrics.total_accepted_streams == 0
        # The rolled back request must not leak CDN bandwidth.
        assert system.cdn.used_outbound_mbps == 0.0

    def test_delay_bound_respected(self, random_system, default_view):
        for viewer in make_viewers(30, outbound=2.0):
            random_system.join_viewer(viewer, default_view)
        d_max = random_system.layer_config.d_max
        for receiver in random_system._receivers.values():
            for parent_id, delay in receiver.streams.values():
                assert delay <= d_max + 1e-9

    def test_take_snapshot_appends_the_counts(self, random_system, default_view):
        for viewer in make_viewers(10, outbound=6.0):
            random_system.join_viewer(viewer, default_view)
        snapshot = random_system.take_snapshot()
        assert snapshot.num_requests == 10
        assert snapshot.active_subscriptions == sum(
            len(receiver.streams) for receiver in random_system._receivers.values()
        )
        assert random_system.metrics.snapshots[-1] is snapshot
