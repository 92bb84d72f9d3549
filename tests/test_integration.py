"""Integration tests: whole-system scenarios across modules.

These exercise the full join / stream / adapt pipeline on top of the
synthetic PlanetLab substrate and check the paper's system-level claims at
a small scale: resource accounting consistency, the overlay property,
graceful degradation under a constrained CDN, view-change dynamics and the
TeleCast-vs-Random comparison.
"""

from collections import Counter

import pytest

from repro.baselines.random_routing import RandomDisseminationSystem
from repro.core.telecast import TeleCastSystem, build_views
from repro.model.cdn import CDN
from repro.model.producer import make_default_producers
from repro.net.latency import DelayModel
from repro.net.planetlab import generate_planetlab_matrix
from repro.sim.rng import SeededRandom
from repro.traces.workload import BandwidthDistribution, ViewerWorkload, WorkloadConfig
from repro.core.layering import DelayLayerConfig


def build_system(num_viewers, outbound, cdn_capacity, *, num_views=4, seed=7):
    producers = make_default_producers()
    config = WorkloadConfig(
        num_viewers=num_viewers,
        outbound=outbound,
        num_views=num_views,
        view_popularity_alpha=1.0,
    )
    workload = ViewerWorkload(config, rng=SeededRandom(seed))
    viewers = workload.viewers()
    events = workload.events()
    matrix = generate_planetlab_matrix(
        [viewer.viewer_id for viewer in viewers] + ["GSC", "LSC-0", "CDN"],
        rng=SeededRandom(3),
    )
    delay_model = DelayModel(matrix, processing_delay=0.1, cdn_delta=60.0)
    cdn = CDN(cdn_capacity, delta=60.0)
    system = TeleCastSystem(producers, cdn, delay_model, DelayLayerConfig())
    views = build_views(producers, num_views=num_views, streams_per_site=3)
    return system, viewers, events, views


class TestResourceAccounting:
    def test_cdn_usage_matches_cdn_fed_subscriptions(self):
        system, viewers, events, views = build_system(
            80, BandwidthDistribution.uniform(0, 12), 600.0
        )
        system.run_workload(viewers, events, views)
        snapshot = system.snapshot()
        assert snapshot.cdn_outbound_mbps == pytest.approx(
            snapshot.cdn_subscriptions * 2.0
        )
        assert snapshot.cdn_outbound_mbps <= 600.0 + 1e-9

    def test_viewer_capacities_never_exceeded(self):
        system, viewers, events, views = build_system(
            60, BandwidthDistribution.uniform(0, 12), 400.0
        )
        system.run_workload(viewers, events, views)
        for lsc in system.gsc.lscs:
            for session in lsc.sessions.values():
                assert session.allocated_inbound_mbps <= session.viewer.inbound_capacity_mbps + 1e-9
            for group in lsc.groups.values():
                # The outbound reservation is held by the tree nodes alone:
                # out-degree x stream bandwidth, summed over the view's trees.
                reserved = Counter()
                for tree in group.trees.values():
                    tree.validate()
                    for node_id in tree.members():
                        node = tree.node(node_id)
                        # A viewer never forwards more children than its
                        # per-stream outbound allocation allows.
                        assert len(node.children) <= node.out_degree
                        reserved[node_id] += node.out_degree * tree.stream.bandwidth_mbps
                for viewer_id, mbps in reserved.items():
                    capacity = lsc.sessions[viewer_id].viewer.outbound_capacity_mbps
                    assert mbps <= capacity + 1e-9

    def test_every_connected_viewer_covers_all_sites(self):
        system, viewers, events, views = build_system(
            100, BandwidthDistribution.uniform(0, 12), 600.0
        )
        system.run_workload(viewers, events, views)
        for lsc in system.gsc.lscs:
            for session in lsc.sessions.values():
                sites = {sid.site_id for sid in session.accepted_stream_ids}
                assert sites == {"A", "B"}

    def test_skew_bound_holds_for_every_connected_viewer(self):
        system, viewers, events, views = build_system(
            100, BandwidthDistribution.uniform(0, 12), 600.0
        )
        system.run_workload(viewers, events, views)
        kappa = system.layer_config.kappa
        for lsc in system.gsc.lscs:
            for session in lsc.sessions.values():
                assert session.skew_bound_satisfied(kappa)
                layer = session.max_layer
                assert layer is None or layer <= system.layer_config.max_layer_index


class TestGracefulDegradation:
    def test_constrained_cdn_sheds_low_priority_streams_first(self):
        system, viewers, events, views = build_system(
            120, BandwidthDistribution.fixed(4.0), 500.0, num_views=1
        )
        system.run_workload(viewers, events, views)
        counts = list(system.viewer_maps()[1].values())
        # Under scarcity some viewers receive partial views, but connected
        # viewers always keep at least one stream per site.
        assert any(0 < count < 6 for count in counts)
        partial_sessions = [
            session
            for lsc in system.gsc.lscs
            for session in lsc.sessions.values()
            if session.num_accepted_streams < 6
        ]
        view = views[0]
        must_have = set(view.highest_priority_per_site.values())
        for session in partial_sessions:
            assert must_have.issubset(set(session.accepted_stream_ids))

    def test_acceptance_improves_with_outbound_contribution(self):
        system_low, viewers, events, views = build_system(
            150, BandwidthDistribution.fixed(0.0), 900.0, num_views=1
        )
        system_low.run_workload(viewers, events, views)
        system_high, viewers, events, views = build_system(
            150, BandwidthDistribution.fixed(8.0), 900.0, num_views=1
        )
        system_high.run_workload(viewers, events, views)
        assert (
            system_high.metrics.acceptance_ratio
            >= system_low.metrics.acceptance_ratio
        )


class TestDynamics:
    def test_churn_heavy_session_stays_consistent(self):
        producers = make_default_producers()
        config = WorkloadConfig(
            num_viewers=60,
            outbound=BandwidthDistribution.uniform(0, 12),
            num_views=4,
            view_change_probability=0.5,
            departure_probability=0.3,
            arrival_rate_per_second=10.0,
        )
        workload = ViewerWorkload(config, rng=SeededRandom(11))
        viewers = workload.viewers()
        events = workload.events()
        matrix = generate_planetlab_matrix(
            [viewer.viewer_id for viewer in viewers] + ["GSC", "LSC-0", "CDN"],
            rng=SeededRandom(3),
        )
        system = TeleCastSystem(
            producers,
            CDN(500.0, delta=60.0),
            DelayModel(matrix, processing_delay=0.1, cdn_delta=60.0),
            DelayLayerConfig(),
        )
        views = build_views(producers, num_views=4, streams_per_site=3)
        system.run_workload(viewers, events, views, snapshot_every=20)
        # Invariants survive churn: trees valid, CDN bookkeeping consistent.
        snapshot = system.snapshot()
        assert snapshot.cdn_outbound_mbps == pytest.approx(snapshot.cdn_subscriptions * 2.0)
        for lsc in system.gsc.lscs:
            for group in lsc.groups.values():
                for tree in group.trees.values():
                    tree.validate()
        # Departed viewers hold no sessions.
        departed = {event.viewer_id for event in events if event.kind == "depart"}
        for viewer_id in departed:
            assert system.gsc.lsc_of_connected_viewer(viewer_id) is None


class TestVersusRandom:
    def test_telecast_matches_or_beats_random_under_contention(self):
        outbound = BandwidthDistribution.fixed(6.0)
        system, viewers, events, views = build_system(150, outbound, 900.0, num_views=8)
        system.run_workload(viewers, events, views)

        producers = make_default_producers()
        matrix = generate_planetlab_matrix(
            [viewer.viewer_id for viewer in viewers] + ["GSC", "LSC-0", "CDN"],
            rng=SeededRandom(3),
        )
        random_system = RandomDisseminationSystem(
            producers,
            CDN(900.0, delta=60.0),
            DelayModel(matrix, processing_delay=0.1, cdn_delta=60.0),
            DelayLayerConfig(),
            rng=SeededRandom(11),
        )
        by_id = {viewer.viewer_id: viewer for viewer in viewers}
        for event in events:
            if event.kind == "join":
                random_system.join_viewer(by_id[event.viewer_id], views[event.view_index % len(views)])
        assert (
            system.metrics.acceptance_ratio
            >= random_system.metrics.acceptance_ratio - 0.02
        )
