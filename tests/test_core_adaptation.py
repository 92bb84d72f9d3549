"""Tests for run-time adaptation: departures, victims, view changes, layer refresh."""

import pytest

from repro.core.adaptation import AdaptationManager
from repro.core.controllers import CDN_FIRST, P2P_FIRST, GlobalSessionController
from repro.model.cdn import CDN, CDN_NODE_ID
from repro.model.viewer import Viewer


@pytest.fixture
def lsc(producers, flat_delay_model, layer_config):
    cdn = CDN(10_000.0, delta=60.0)
    gsc = GlobalSessionController(cdn, flat_delay_model, layer_config)
    gsc.register_producer_streams([s for site in producers for s in site.streams])
    return gsc.add_lsc("LSC-0")


@pytest.fixture
def manager(lsc):
    return AdaptationManager(lsc)


def join(lsc, viewer_id, view, outbound=6.0):
    return lsc.join(Viewer(viewer_id=viewer_id, outbound_capacity_mbps=outbound), view)


class TestDeparture:
    def test_departure_of_unknown_viewer(self, manager):
        result = manager.handle_departure("ghost")
        assert not result.departed

    def test_leaf_departure_releases_resources(self, lsc, manager, default_view):
        join(lsc, "u1", default_view, outbound=0.0)
        used_before = lsc.cdn.used_outbound_mbps
        result = manager.handle_departure("u1")
        assert result.departed
        assert result.victims == ()
        assert lsc.session_of("u1") is None
        assert lsc.cdn.used_outbound_mbps < used_before

    def test_parent_departure_creates_and_recovers_victims(self, lsc, manager, default_view):
        join(lsc, "seed", default_view, outbound=12.0)
        join(lsc, "child", default_view, outbound=0.0)
        result = manager.handle_departure("seed")
        assert result.departed
        assert result.victims, "the child should be orphaned in at least one tree"
        assert result.recovered_victims == len(result.victims)
        assert result.lost_subscriptions == 0
        # The child is still connected and still receives all its streams.
        child_session = lsc.session_of("child")
        assert child_session.num_accepted_streams == 6
        group = lsc.groups[default_view.view_id]
        for stream_id, sub in child_session.subscriptions.items():
            tree = group.tree(stream_id)
            assert tree.node("child").parent_id == sub.parent_id
            tree.validate()

    def test_victims_fall_back_to_cdn_first(self, lsc, manager, default_view):
        join(lsc, "seed", default_view, outbound=12.0)
        join(lsc, "child", default_view, outbound=0.0)
        manager.handle_departure("seed")
        child_session = lsc.session_of("child")
        # With ample CDN capacity every recovered subscription is CDN-fed.
        group = lsc.groups[default_view.view_id]
        for stream_id, sub in child_session.subscriptions.items():
            if group.tree(stream_id).node("child").parent_id == CDN_NODE_ID:
                assert sub.via_cdn

    def test_victim_dropped_when_no_capacity_anywhere(self, producers, flat_delay_model, layer_config, default_view):
        cdn = CDN(12.0, delta=60.0)  # room for exactly one full view
        gsc = GlobalSessionController(cdn, flat_delay_model, layer_config)
        gsc.register_producer_streams([s for site in producers for s in site.streams])
        lsc = gsc.add_lsc("LSC-0")
        manager = AdaptationManager(lsc)
        join(lsc, "seed", default_view, outbound=12.0)
        join(lsc, "child", default_view, outbound=0.0)
        result = manager.handle_departure("seed")
        # The CDN freed by the seed's departure can absorb some victims, but
        # bookkeeping must stay consistent either way.
        child_session = lsc.session_of("child")
        assert result.recovered_victims + result.lost_subscriptions == len(result.victims)
        assert child_session.num_accepted_streams <= 6


class TestRepairLoop:
    """The one orphan-repair loop behind graceful and abrupt departures."""

    @pytest.mark.parametrize("order", [CDN_FIRST, P2P_FIRST], ids=["cdn_first", "p2p_first"])
    def test_orphan_queued_twice_is_repaired_once(self, lsc, default_view, order):
        join(lsc, "seed", default_view, outbound=12.0)
        join(lsc, "child", default_view, outbound=0.0)
        group, orphans = lsc.teardown_session("seed")
        assert orphans and {orphan for _, orphan in orphans} == {"child"}
        used_before = lsc.cdn.used_outbound_mbps
        # The second entry of each orphan finds it already re-parented:
        # it is skipped, not re-attached (``ValueError: not an orphan``)
        # and not charged a second CDN reservation.
        p2p, cdn, lost = lsc.repair_orphans(group, orphans + orphans, 0.0, order)
        assert (p2p, cdn, lost) == (0, len(orphans), 0)
        repaired_mbps = sum(
            group.tree(stream_id).stream.bandwidth_mbps for stream_id, _ in orphans
        )
        assert lsc.cdn.used_outbound_mbps == pytest.approx(used_before + repaired_mbps)
        session = lsc.session_of("child")
        assert session.num_accepted_streams == 6
        for stream_id, sub in session.subscriptions.items():
            tree = group.tree(stream_id)
            assert tree.node("child").parent_id == sub.parent_id == CDN_NODE_ID
            tree.validate()

    def test_teardown_of_unknown_viewer_is_none(self, lsc):
        assert lsc.teardown_session("ghost") is None


class TestViewChange:
    def test_view_change_switches_groups(self, lsc, manager, views):
        join(lsc, "u1", views[0], outbound=6.0)
        result = manager.handle_view_change("u1", views[3])
        assert result.accepted
        assert result.old_view_id == views[0].view_id
        assert result.new_view_id == views[3].view_id
        session = lsc.session_of("u1")
        assert session.view.view_id == views[3].view_id
        assert set(session.accepted_stream_ids) == set(views[3].stream_ids)

    def test_view_change_fast_path_is_quick(self, lsc, manager, views):
        join(lsc, "u1", views[0])
        result = manager.handle_view_change("u1", views[2])
        assert 0.0 < result.fast_path_delay < 0.5

    def test_view_change_of_unknown_viewer(self, manager, views):
        with pytest.raises(KeyError):
            manager.handle_view_change("ghost", views[1])

    def test_view_change_creates_victims_for_children(self, lsc, manager, views):
        join(lsc, "seed", views[0], outbound=12.0)
        join(lsc, "child", views[0], outbound=0.0)
        result = manager.handle_view_change("seed", views[4])
        assert result.victims
        assert result.recovered_victims == len(result.victims)
        child_session = lsc.session_of("child")
        assert child_session.num_accepted_streams == 6

    def test_old_group_membership_removed(self, lsc, manager, views):
        join(lsc, "u1", views[0])
        manager.handle_view_change("u1", views[5])
        old_group = lsc.groups[views[0].view_id]
        assert "u1" not in old_group.sessions
        for tree in old_group.trees.values():
            assert "u1" not in tree


class TestLayerRefresh:
    def test_refresh_is_a_noop_on_consistent_state(self, lsc, manager, default_view):
        join(lsc, "u1", default_view)
        join(lsc, "u2", default_view, outbound=0.0)
        observed = {
            (viewer_id, stream_id): sub.end_to_end_delay
            for viewer_id, session in lsc.sessions.items()
            for stream_id, sub in session.subscriptions.items()
        }
        assert manager.refresh_layers_from_observed(observed) == (0, {})
        for viewer_id in ("u1", "u2"):
            assert lsc.session_of(viewer_id).skew_bound_satisfied(lsc.layer_config.kappa)

    def test_refresh_restores_skew_bound_after_delay_shift(self, lsc, manager, default_view):
        join(lsc, "seed", default_view, outbound=12.0)
        join(lsc, "child", default_view, outbound=0.0)
        child_session = lsc.session_of("child")
        # Simulate a network event: one P2P-fed stream suddenly lags far behind.
        victim_id = next(
            sid for sid, sub in child_session.subscriptions.items() if not sub.via_cdn
        )
        group = lsc.groups[default_view.view_id]
        tree = group.tree(victim_id)
        tree.node("child").end_to_end_delay = 61.5
        adjusted, _dropped = manager.refresh_layers_from_observed(
            {("child", victim_id): 61.5}
        )
        assert adjusted
        assert child_session.skew_bound_satisfied(lsc.layer_config.kappa)


class TestObservedRefresh:
    """Edge cases of the observed-delay ``kappa`` layer refresh."""

    def _p2p_stream(self, lsc, viewer_id):
        session = lsc.session_of(viewer_id)
        return next(
            stream_id
            for stream_id, sub in session.subscriptions.items()
            if not sub.via_cdn
        )

    def test_lagging_stream_pushed_down_to_observed_layer(self, lsc, manager, default_view):
        join(lsc, "seed", default_view, outbound=12.0)
        join(lsc, "child", default_view, outbound=0.0)
        session = lsc.session_of("child")
        stream_id = self._p2p_stream(lsc, "child")
        config = lsc.layer_config
        observed = config.delta + 3.2 * config.tau  # mid-layer-3 lag
        adjusted, dropped = manager.refresh_layers_from_observed(
            {("child", stream_id): observed}, now=10.0
        )
        assert adjusted >= 1
        assert dropped == {}
        sub = session.subscriptions[stream_id]
        assert sub.layer >= 3
        assert sub.effective_delay >= observed - config.tau
        # The sibling streams were pushed along: the view stays synchronous.
        assert session.skew_bound_satisfied(config.kappa)

    def test_on_schedule_streams_are_untouched(self, lsc, manager, default_view):
        join(lsc, "u1", default_view)
        session = lsc.session_of("u1")
        before = {
            sid: (sub.layer, sub.effective_delay)
            for sid, sub in session.subscriptions.items()
        }
        # Observed exactly the structural schedule: nothing may move.
        samples = {
            ("u1", sid): sub.effective_delay or sub.end_to_end_delay
            for sid, sub in session.subscriptions.items()
        }
        adjusted, dropped = manager.refresh_layers_from_observed(samples, now=5.0)
        assert (adjusted, dropped) == (0, {})
        assert before == {
            sid: (sub.layer, sub.effective_delay)
            for sid, sub in session.subscriptions.items()
        }

    def test_violation_on_last_acceptable_layer_reprovisions_from_cdn(
        self, lsc, manager, default_view
    ):
        # Ample CDN: a stream lagging beyond d_max is rescued, not dropped.
        join(lsc, "seed", default_view, outbound=12.0)
        join(lsc, "child", default_view, outbound=0.0)
        session = lsc.session_of("child")
        stream_id = self._p2p_stream(lsc, "child")
        config = lsc.layer_config
        beyond = config.d_max + 5.0  # no acceptable layer can absorb this
        adjusted, dropped = manager.refresh_layers_from_observed(
            {("child", stream_id): beyond}, now=10.0
        )
        assert adjusted >= 1
        assert dropped == {}
        sub = session.subscriptions[stream_id]
        assert sub.via_cdn
        assert sub.parent_id == CDN_NODE_ID
        assert config.is_acceptable_layer(sub.layer)
        assert session.skew_bound_satisfied(config.kappa)
        group = lsc.groups[default_view.view_id]
        group.tree(stream_id).validate()

    def test_violation_with_exhausted_cdn_drops_the_stream(
        self, producers, flat_delay_model, layer_config, default_view
    ):
        cdn = CDN(12.0, delta=60.0)  # room for exactly the seed's full view
        gsc = GlobalSessionController(cdn, flat_delay_model, layer_config)
        gsc.register_producer_streams([s for site in producers for s in site.streams])
        lsc = gsc.add_lsc("LSC-0")
        manager = AdaptationManager(lsc)
        join(lsc, "seed", default_view, outbound=12.0)
        join(lsc, "child", default_view, outbound=0.0)
        session = lsc.session_of("child")
        stream_id = next(
            sid for sid, sub in session.subscriptions.items() if not sub.via_cdn
        )
        beyond = layer_config.d_max + 5.0
        adjusted, dropped = manager.refresh_layers_from_observed(
            {("child", stream_id): beyond}, now=10.0
        )
        assert dropped == {"child": [stream_id]}
        assert stream_id not in session.subscriptions
        group = lsc.groups[default_view.view_id]
        assert "child" not in group.tree(stream_id)
        group.tree(stream_id).validate()
        # The child still holds every remaining stream consistently.
        for sid, sub in session.subscriptions.items():
            assert layer_config.is_acceptable_layer(sub.layer)

    def test_refresh_racing_a_concurrent_view_change_ignores_stale_samples(
        self, lsc, manager, views
    ):
        # The measurement window straddles a view change: by the time the
        # refresh fires, its samples reference the *old* view's streams.
        join(lsc, "u1", views[0], outbound=6.0)
        old_streams = list(lsc.session_of("u1").subscriptions)
        samples = {
            ("u1", sid): lsc.layer_config.d_max + 10.0 for sid in old_streams
        }
        manager.handle_view_change("u1", views[3], now=9.0)
        session = lsc.session_of("u1")
        before = {
            sid: (sub.layer, sub.parent_id) for sid, sub in session.subscriptions.items()
        }
        stale_only = {
            key: value
            for key, value in samples.items()
            if key[1] not in session.subscriptions
        }
        assert stale_only, "the view change must have replaced some streams"
        adjusted, dropped = manager.refresh_layers_from_observed(stale_only, now=10.0)
        assert (adjusted, dropped) == (0, {})
        assert before == {
            sid: (sub.layer, sub.parent_id) for sid, sub in session.subscriptions.items()
        }
        assert session.view.view_id == views[3].view_id
        assert session.skew_bound_satisfied(lsc.layer_config.kappa)

    def test_cdn_fed_stream_over_limit_is_kept(self, lsc, manager, default_view):
        # A stream already fed by the CDN is on the best provisioning the
        # system has: transient congestion past d_max must not drop it.
        join(lsc, "u1", default_view, outbound=0.0)
        session = lsc.session_of("u1")
        stream_id, sub = next(
            (sid, sub) for sid, sub in session.subscriptions.items() if sub.via_cdn
        )
        before = (sub.layer, sub.parent_id)
        adjusted, dropped = manager.refresh_layers_from_observed(
            {("u1", stream_id): lsc.layer_config.d_max + 20.0}, now=10.0
        )
        assert dropped == {}
        kept = session.subscriptions[stream_id]
        assert kept.via_cdn
        assert (kept.layer, kept.parent_id) == before

    def test_drop_recovers_orphaned_children(
        self, producers, flat_delay_model, layer_config, default_view
    ):
        cdn = CDN(12.0, delta=60.0)  # room for exactly the seed's full view
        gsc = GlobalSessionController(cdn, flat_delay_model, layer_config)
        gsc.register_producer_streams([s for site in producers for s in site.streams])
        lsc = gsc.add_lsc("LSC-0")
        manager = AdaptationManager(lsc)
        join(lsc, "seed", default_view, outbound=12.0)
        join(lsc, "relay", default_view, outbound=12.0)
        join(lsc, "leaf", default_view, outbound=0.0)
        group = lsc.groups[default_view.view_id]
        # Find a stream the relay forwards to the leaf via P2P.
        relay_session = lsc.session_of("relay")
        stream_id = next(
            sid
            for sid, sub in relay_session.subscriptions.items()
            if not sub.via_cdn and "leaf" in group.tree(sid).node("relay").children
        )
        adjusted, dropped = manager.refresh_layers_from_observed(
            {("relay", stream_id): layer_config.d_max + 20.0}, now=10.0
        )
        assert dropped == {"relay": [stream_id]}
        tree = group.tree(stream_id)
        tree.validate()
        assert "relay" not in tree
        # The leaf was orphaned by the drop; victim recovery either
        # re-attached it (tree parent == subscription parent) or removed
        # the subscription -- never a dangling reference to the relay.
        leaf_sub = lsc.session_of("leaf").subscriptions.get(stream_id)
        if leaf_sub is None:
            assert "leaf" not in tree
        else:
            assert leaf_sub.parent_id != "relay"
            assert tree.node("leaf").parent_id == leaf_sub.parent_id

    def test_samples_of_departed_viewer_are_ignored(self, lsc, manager, default_view):
        join(lsc, "u1", default_view)
        stream_id = next(iter(lsc.session_of("u1").subscriptions))
        manager.handle_departure("u1", now=5.0)
        adjusted, dropped = manager.refresh_layers_from_observed(
            {("u1", stream_id): 100.0}, now=6.0
        )
        assert (adjusted, dropped) == (0, {})
