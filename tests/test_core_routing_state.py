"""Tests for the session routing table (Table I) and per-viewer session state."""

import pytest

from reference_subscription import subscribed_node
from repro.core.routing_table import (
    ForwardingAction,
    MatchField,
    SessionRoutingTable,
)
from repro.core.state import ViewerSession
from repro.experiments import runner
from repro.experiments.config import PAPER_CONFIG
from repro.model.cdn import CDN_NODE_ID
from repro.model.producer import make_default_producers
from repro.model.stream import StreamId
from repro.model.viewer import Viewer


@pytest.fixture
def stream_id():
    return StreamId("A", 0)


class TestSessionRoutingTable:
    def test_upsert_and_lookup(self, stream_id):
        table = SessionRoutingTable()
        entry = table.upsert("parent-1", stream_id)
        assert table.lookup("parent-1", stream_id) is entry
        assert table.lookup("parent-2", stream_id) is None
        assert table.lookup_stream(stream_id) is entry
        assert len(table) == 1

    def test_upsert_is_idempotent(self, stream_id):
        table = SessionRoutingTable()
        assert table.upsert("p", stream_id) is table.upsert("p", stream_id)
        assert len(table) == 1

    def test_add_and_remove_children(self, stream_id):
        table = SessionRoutingTable()
        entry = table.upsert("p", stream_id)
        entry.add_child("child-1")
        entry.add_child("child-2", subscription_frame=42)
        assert set(table.children_of(stream_id)) == {"child-1", "child-2"}
        assert entry.children["child-2"].subscription_frame == 42
        assert entry.remove_child("child-1")
        assert not entry.remove_child("child-1")
        assert table.children_of(stream_id) == ["child-2"]

    def test_default_action_is_forward(self, stream_id):
        table = SessionRoutingTable()
        entry = table.upsert("p", stream_id)
        entry.add_child("c")
        assert entry.children["c"].action is ForwardingAction.FORWARD
        assert [state.child_id for state in entry.forwarding_targets()] == ["c"]

    def test_drop_action_excluded_from_forwarding(self, stream_id):
        table = SessionRoutingTable()
        entry = table.upsert("p", stream_id)
        entry.add_child("c", action=ForwardingAction.DROP)
        assert entry.forwarding_targets() == []

    def test_remove_entry_and_stream(self, stream_id):
        table = SessionRoutingTable()
        table.upsert("p1", stream_id)
        table.upsert("p2", stream_id)
        assert table.remove("p1", stream_id)
        assert not table.remove("p1", stream_id)
        assert table.remove_stream(stream_id) == 1
        assert table.streams() == []

    def test_reparent_moves_children(self, stream_id):
        table = SessionRoutingTable()
        entry = table.upsert("old-parent", stream_id)
        entry.add_child("c1")
        new_entry = table.reparent(stream_id, "new-parent")
        assert table.lookup("old-parent", stream_id) is None
        assert table.lookup("new-parent", stream_id) is new_entry
        assert "c1" in new_entry.children

    def test_match_field_str(self, stream_id):
        assert str(MatchField("p", stream_id)) == "p:S0@A"


class TestRoutingTableView:
    """Table I is read off the trees and subscriptions, so it cannot drift."""

    def test_forwarding_state_follows_a_child_that_resubscribed(self):
        # The broadcast of tests/test_join_hot_path.py: displaced children
        # re-subscribe after their parent's row exists.  The stored table
        # wrote a child's subscription point once, on install, and 154 of
        # its 874 forwarding states were stale after this run.
        config = PAPER_CONFIG.with_scaled_population(
            400, num_lscs=3, num_views=1
        ).with_seed(7)
        system = runner.run_telecast_scenario(config, snapshot_every=None).system
        states = pushed_down = 0
        for lsc in system.gsc.lscs:
            for group in lsc.groups.values():
                for viewer_id, session in group.sessions.items():
                    table = group.routing_table_of(viewer_id)
                    assert {entry.match for entry in table.entries()} == {
                        (sub.parent_id, stream_id)
                        for stream_id, sub in session.subscriptions.items()
                    }
                    for entry in table.entries():
                        stream_id = entry.match.stream_id
                        assert list(entry.children) == group.children_of(
                            viewer_id, stream_id
                        )
                        for child_id, state in entry.children.items():
                            child_sub = group.sessions[child_id].subscriptions[stream_id]
                            assert child_sub.parent_id == viewer_id
                            assert state.subscription_frame == child_sub.subscription_frame
                            states += 1
                            pushed_down += state.subscription_frame is not None
        assert (states, pushed_down) == (874, 252)


def _subscription(parent=CDN_NODE_ID, delay=60.0, layer=0):
    return subscribed_node("v1", parent, delay, layer=layer)


class TestViewerSession:
    @pytest.fixture
    def session(self, default_view):
        viewer = Viewer(viewer_id="v1", outbound_capacity_mbps=6.0)
        return ViewerSession(viewer=viewer, view=default_view, lsc_id="LSC-0")

    def test_empty_session(self, session):
        assert session.num_accepted_streams == 0
        assert session.max_layer is None
        assert session.layer_spread() == 0
        assert session.allocated_inbound_mbps == 0.0

    def test_accounting_with_subscriptions(self, session, default_view):
        streams = default_view.streams[:3]
        for index, stream in enumerate(streams):
            session.subscriptions[stream.stream_id] = _subscription(layer=index)
        assert session.num_accepted_streams == 3
        assert session.allocated_inbound_mbps == pytest.approx(6.0)
        assert session.max_layer == 2
        assert session.layer_spread() == 2
        assert session.skew_bound_satisfied(kappa=2)
        assert not session.skew_bound_satisfied(kappa=1)

    def test_drop_subscription_cleans_buffer(self, session, default_view):
        stream = default_view.streams[0]
        session.subscriptions[stream.stream_id] = _subscription()
        session.viewer.buffer_for(stream.stream_id)
        dropped = session.drop_subscription(stream.stream_id)
        assert dropped is not None
        assert session.num_accepted_streams == 0
        assert session.viewer.buffered_streams == ()
        assert session.drop_subscription(stream.stream_id) is None
