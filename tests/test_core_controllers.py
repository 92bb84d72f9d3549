"""Tests for the GSC / LSC control plane and the join pipeline."""

import pytest

from repro.core.controllers import GSC_NODE_ID, GlobalSessionController
from repro.core.layering import DelayLayerConfig
from repro.model.cdn import CDN, CDN_NODE_ID
from repro.model.viewer import Viewer
from tests.conftest import make_viewers


@pytest.fixture
def gsc(producers, flat_delay_model, layer_config):
    cdn = CDN(10_000.0, delta=60.0)
    controller = GlobalSessionController(cdn, flat_delay_model, layer_config)
    controller.register_producer_streams(
        [stream for site in producers for stream in site.streams]
    )
    controller.add_lsc("LSC-0")
    return controller


@pytest.fixture
def lsc(gsc):
    return gsc.lsc("LSC-0")


class TestGSC:
    def test_register_streams_ingests_into_cdn(self, gsc, producers):
        for site in producers:
            for stream in site.streams:
                assert gsc.cdn.has_stream(stream.stream_id)
        assert len(gsc.monitor.latest_frame_numbers(0.0)) == 16

    def test_monitor_latest_frame_number(self, gsc, producers):
        stream = producers[0].streams[0]
        assert gsc.monitor.latest_frame_number(stream.stream_id, 0.0) == 0
        assert gsc.monitor.latest_frame_number(stream.stream_id, 5.0) == 50

    def test_lsc_for_viewer_by_region(self, gsc):
        gsc.add_lsc("LSC-1", region_name="europe")
        viewer = Viewer(viewer_id="v", region_name="europe")
        assert gsc.lsc_for_viewer(viewer).lsc_id == "LSC-1"

    def test_lsc_for_unmapped_region_falls_back(self, gsc):
        viewer = Viewer(viewer_id="v", region_name="atlantis")
        assert gsc.lsc_for_viewer(viewer).lsc_id == "LSC-0"

    def test_stale_region_mapping_falls_back_to_surviving_lsc(self, gsc):
        # Regression: remove_lsc leaves the region mapping in place (the
        # failover path repoints it later), but a join arriving in between
        # must not resolve to the dead id.
        gsc.add_lsc("LSC-1", region_name="europe")
        gsc.add_lsc("LSC-2", region_name="asia")
        gsc.remove_lsc("LSC-1")
        viewer = Viewer(viewer_id="v", region_name="europe")
        chosen = gsc.lsc_for_viewer(viewer)
        # Flat delays tie every candidate; the id breaks the tie.
        assert chosen.lsc_id == "LSC-0"
        # The stale mapping is healed, so the next lookup resolves directly.
        assert gsc.lsc_for_viewer(viewer).lsc_id == "LSC-0"

    def test_removing_last_lsc_then_region_join_raises(self, gsc):
        gsc.add_lsc("LSC-0", region_name="europe")
        gsc.remove_lsc("LSC-0")
        with pytest.raises(RuntimeError):
            gsc.lsc_for_viewer(Viewer(viewer_id="v", region_name="europe"))

    def test_no_lsc_registered_raises(self, flat_delay_model, layer_config):
        controller = GlobalSessionController(CDN(100.0), flat_delay_model, layer_config)
        with pytest.raises(RuntimeError):
            controller.lsc_for_viewer(Viewer(viewer_id="v"))

    def test_gsc_node_id(self, gsc):
        assert gsc.node_id == GSC_NODE_ID


class TestJoin:
    def test_successful_join_accepts_all_streams(self, lsc, default_view):
        viewer = Viewer(viewer_id="u1", outbound_capacity_mbps=6.0)
        result = lsc.join(viewer, default_view)
        assert result.accepted
        assert result.num_requested == 6
        assert result.num_accepted == 6
        assert set(result.cdn_stream_ids) == set(result.accepted_stream_ids)
        assert result.join_delay > 0

    def test_session_state_after_join(self, lsc, default_view):
        viewer = Viewer(viewer_id="u1", outbound_capacity_mbps=6.0)
        lsc.join(viewer, default_view)
        session = lsc.session_of("u1")
        assert session is not None
        assert session.num_accepted_streams == 6
        assert session.allocated_inbound_mbps == pytest.approx(12.0)
        table = lsc.groups[default_view.view_id].routing_table_of("u1")
        assert len(table.streams()) == 6
        assert session.skew_bound_satisfied(lsc.layer_config.kappa)

    def test_duplicate_join_rejected(self, lsc, default_view):
        viewer = Viewer(viewer_id="u1")
        lsc.join(viewer, default_view)
        with pytest.raises(ValueError):
            lsc.join(viewer, default_view)

    def test_second_viewer_prefers_p2p_parent(self, lsc, default_view):
        seed = Viewer(viewer_id="seed", outbound_capacity_mbps=12.0)
        lsc.join(seed, default_view)
        follower = Viewer(viewer_id="follower", outbound_capacity_mbps=0.0)
        result = lsc.join(follower, default_view)
        assert result.accepted
        # The follower is served at least partly by the seed, not only the CDN.
        assert len(result.cdn_stream_ids) < len(result.accepted_stream_ids)
        seed_table = lsc.groups[default_view.view_id].routing_table_of("seed")
        forwarded = [
            sid for sid in seed_table.streams()
            if "follower" in seed_table.children_of(sid)
        ]
        assert forwarded

    def test_parent_routing_table_updated(self, lsc, default_view):
        seed = Viewer(viewer_id="seed", outbound_capacity_mbps=12.0)
        lsc.join(seed, default_view)
        lsc.join(Viewer(viewer_id="child", outbound_capacity_mbps=0.0), default_view)
        seed_table = lsc.groups[default_view.view_id].routing_table_of("seed")
        children = {
            child
            for sid in seed_table.streams()
            for child in seed_table.children_of(sid)
        }
        assert "child" in children

    def test_low_inbound_viewer_gets_partial_view(self, lsc, default_view):
        viewer = Viewer(viewer_id="narrow", inbound_capacity_mbps=8.0, outbound_capacity_mbps=4.0)
        result = lsc.join(viewer, default_view)
        assert result.accepted
        assert result.num_accepted == 4

    def test_viewer_without_site_coverage_rejected(self, producers, flat_delay_model, layer_config, default_view):
        # A CDN too small to serve even one stream forces outright rejection.
        cdn = CDN(1.0, delta=60.0)
        controller = GlobalSessionController(cdn, flat_delay_model, layer_config)
        controller.register_producer_streams(
            [stream for site in producers for stream in site.streams]
        )
        lsc = controller.add_lsc("LSC-0")
        result = lsc.join(Viewer(viewer_id="u", outbound_capacity_mbps=0.0), default_view)
        assert not result.accepted
        assert lsc.session_of("u") is None
        assert cdn.used_outbound_mbps == 0.0

    def test_join_counts_against_cdn_capacity(self, lsc, default_view):
        lsc.join(Viewer(viewer_id="u1", outbound_capacity_mbps=0.0), default_view)
        assert lsc.cdn.used_outbound_mbps == pytest.approx(12.0)

    def test_view_groups_are_separate(self, lsc, views):
        lsc.join(Viewer(viewer_id="u1", outbound_capacity_mbps=6.0), views[0])
        lsc.join(Viewer(viewer_id="u2", outbound_capacity_mbps=6.0), views[4])
        assert set(lsc.groups) == {views[0].view_id, views[4].view_id}

    def test_displacement_keeps_sessions_consistent(self, lsc, default_view):
        weak = Viewer(viewer_id="weak", outbound_capacity_mbps=0.0)
        strong = Viewer(viewer_id="strong", outbound_capacity_mbps=12.0)
        lsc.join(weak, default_view)
        lsc.join(strong, default_view)
        weak_session = lsc.session_of("weak")
        group = lsc.groups[default_view.view_id]
        for stream_id, sub in weak_session.subscriptions.items():
            tree = group.tree(stream_id)
            assert tree.node("weak").parent_id == sub.parent_id
        for stream_id, tree in group.trees.items():
            tree.validate()

    def test_aggregate_counters(self, lsc, default_view):
        lsc.join(Viewer(viewer_id="u1", outbound_capacity_mbps=6.0), default_view)
        lsc.join(Viewer(viewer_id="u2", outbound_capacity_mbps=6.0), default_view)
        assert set(lsc.connected_viewers()) == {"u1", "u2"}
        subscriptions = [
            sub for session in lsc.sessions.values() for sub in session.subscriptions.values()
        ]
        assert len(subscriptions) == 12
        assert 0 < sum(sub.via_cdn for sub in subscriptions) <= 12

    def test_join_delay_within_protocol_envelope(self, lsc, default_view):
        result = lsc.join(Viewer(viewer_id="u1", outbound_capacity_mbps=6.0), default_view)
        # 6 one-way control messages at 50 ms plus processing, below 1 second here.
        assert 0.2 <= result.join_delay <= 1.0

    def test_view_change_fast_path_delay(self, lsc):
        delay = lsc.view_change_fast_path_delay(Viewer(viewer_id="u1"))
        assert 0.0 < delay < 0.5

    def test_message_legs_sum_to_analytic_delays(self, lsc):
        # The simulated control plane schedules the request and ack legs
        # as separate messages; together they must reproduce the analytic
        # protocol estimates (`_join_delay` keeps its float-op order for
        # the golden test, so equality here is approximate to the ulp).
        viewer = Viewer(viewer_id="u1")
        for parents in ((), ("p1",), ("p1", "p2")):
            assert lsc.join_request_delay(viewer) + lsc.join_ack_delay(
                viewer, parents
            ) == pytest.approx(lsc._join_delay(viewer, parents), rel=1e-12)
        assert lsc.view_change_request_delay(viewer) + lsc.view_change_ack_delay(
            viewer
        ) == pytest.approx(lsc.view_change_fast_path_delay(viewer), rel=1e-12)


class TestOverlayProperty:
    def test_higher_outbound_viewers_sit_closer_to_the_root(self, lsc, default_view):
        """The paper's overlay property: within a view group, a viewer with
        more outbound bandwidth is never deeper than a weaker viewer in any
        stream tree they share."""
        capacities = [0.0, 2.0, 4.0, 6.0, 8.0, 10.0, 12.0, 14.0]
        for index, capacity in enumerate(capacities):
            lsc.join(
                Viewer(viewer_id=f"v{index}", outbound_capacity_mbps=capacity),
                default_view,
            )
        group = lsc.groups[default_view.view_id]
        strongest = "v7"
        weakest = "v1"  # v0 contributes nothing and may sit anywhere CDN-fed
        for stream_id, tree in group.trees.items():
            if strongest in tree and weakest in tree:
                assert tree.depth_of(strongest) <= tree.depth_of(weakest)


class TestJoinLookupBudget:
    """Deterministic guard on the interpreter-level cost of one join.

    Call counts repeat exactly for a seeded scenario, so they can gate
    where wall-clock numbers cannot.
    """

    #: ``LatencyMatrix.delay`` calls the 300 joins of this scenario made
    #: before `_join_delay` stopped asking for the (LSC, viewer) pair
    #: three times per join (19.83 per join).
    LOOKUPS_BEFORE = 5950

    def test_delay_lookups_per_join_stay_under_budget(self):
        from repro.experiments.config import PAPER_CONFIG
        from repro.experiments.runner import build_scenario, run_telecast_scenario

        config = PAPER_CONFIG.with_scaled_population(300, num_lscs=3, num_views=1)
        scenario = build_scenario(config)
        matrix = scenario.delay_model.matrix
        base = type(matrix)
        lookups = [0]

        class CountingMatrix(base):
            def delay(self, a, b):
                lookups[0] += 1
                return super().delay(a, b)

        matrix.__class__ = CountingMatrix
        run_telecast_scenario(config, scenario=scenario, snapshot_every=None)
        joins = sum(1 for event in scenario.events if event.kind == "join")
        assert joins == 300
        # Two of the three (LSC, viewer) probes per join are gone.
        assert lookups[0] <= self.LOOKUPS_BEFORE - 2 * joins

    def test_hot_id_hash_is_not_a_python_function(self):
        from repro.core.routing_table import MatchField
        from repro.model.stream import StreamId

        assert "__hash__" not in vars(StreamId)
        assert "__hash__" not in vars(MatchField)
