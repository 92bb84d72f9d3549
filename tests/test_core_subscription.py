"""Tests for stream subscription / view synchronization (Section V-B3)."""

import json
import os
import subprocess
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference_subscription as reference
from reference_oracles import minimum_layer_for
from repro.core.controllers import GlobalSessionController
from repro.core.layering import DelayLayerConfig
from repro.core.state import ViewerSession
from repro.core.subscription import (
    apply_plan,
    needs_resubscription,
    plan_view_synchronization,
)
from repro.core.telecast import build_views
from repro.model.cdn import CDN, CDN_NODE_ID
from repro.model.producer import make_default_producers
from repro.model.viewer import Viewer
from repro.net.latency import DelayModel, LatencyMatrix


@pytest.fixture
def config():
    return DelayLayerConfig()


@pytest.fixture
def delay_model():
    return DelayModel(LatencyMatrix(default_delay=0.05), processing_delay=0.1, cdn_delta=60.0)


def make_subscriptions(view, parents_and_delays):
    """Build subscriptions for the first len(parents_and_delays) streams of a view."""
    subs = {}
    for stream, (parent, delay) in zip(view.streams, parents_and_delays):
        subs[stream.stream_id] = reference.subscribed_node("u", parent, delay)
    return subs


class TestMinimumLayer:
    def test_cdn_parent_gives_layer_zero(self, config, delay_model):
        assert minimum_layer_for(config, delay_model, "u", CDN_NODE_ID, 60.0) == 0

    def test_viewer_parent_adds_hop(self, config, delay_model):
        assert minimum_layer_for(config, delay_model, "u", "parent", 60.0) == 1

    def test_deep_parent_gives_deep_layer(self, config, delay_model):
        assert minimum_layer_for(config, delay_model, "u", "parent", 62.0) >= 13


class TestPlanning:
    def test_all_cdn_streams_need_no_pushdown(self, config, delay_model, default_view):
        subs = make_subscriptions(default_view, [(CDN_NODE_ID, 60.0)] * 6)
        parent_delays = {sid: 60.0 for sid in subs}
        plan = plan_view_synchronization(config, delay_model, "u", subs, parent_delays)
        assert plan.dropped_stream_ids == ()
        assert plan.layer_spread() == 0
        assert all(not p.pushed_down for p in plan.per_stream.values())

    def test_spread_within_kappa_is_left_alone(self, config, delay_model, default_view):
        subs = make_subscriptions(
            default_view, [(CDN_NODE_ID, 60.0), ("p1", 60.15)]
        )
        parent_delays = {sid: sub.end_to_end_delay if sub.parent_id == CDN_NODE_ID else 60.0
                         for sid, sub in subs.items()}
        plan = plan_view_synchronization(config, delay_model, "u", subs, parent_delays)
        assert plan.layer_spread() <= config.kappa
        assert plan.dropped_stream_ids == ()

    def test_fresh_streams_pushed_down_to_lagging_one(self, config, delay_model, default_view):
        # One stream arrives via a deep parent (layer ~6); CDN streams must
        # be pushed down to within kappa of it.
        subs = make_subscriptions(
            default_view,
            [(CDN_NODE_ID, 60.0), (CDN_NODE_ID, 60.0), ("deep-parent", 60.9)],
        )
        parent_delays = {}
        for sid, sub in subs.items():
            parent_delays[sid] = 60.75 if sub.parent_id == "deep-parent" else 60.0
        plan = plan_view_synchronization(config, delay_model, "u", subs, parent_delays)
        assert plan.dropped_stream_ids == ()
        assert plan.layer_spread() <= config.kappa
        pushed = [p for p in plan.per_stream.values() if p.pushed_down]
        assert pushed, "expected the CDN-fed streams to be delayed"

    def test_pushed_down_stream_gets_larger_effective_delay(self, config, delay_model, default_view):
        subs = make_subscriptions(
            default_view, [(CDN_NODE_ID, 60.0), ("deep-parent", 61.5)]
        )
        parent_delays = {
            sid: 61.35 if sub.parent_id == "deep-parent" else 60.0
            for sid, sub in subs.items()
        }
        plan = plan_view_synchronization(config, delay_model, "u", subs, parent_delays)
        cdn_stream = next(
            sid for sid, sub in subs.items() if sub.parent_id == CDN_NODE_ID
        )
        assert plan.per_stream[cdn_stream].effective_delay > 60.0

    def test_unacceptable_layer_is_dropped(self, config, delay_model, default_view):
        # Parent so deep that the achievable layer exceeds the d_max bound.
        subs = make_subscriptions(
            default_view, [(CDN_NODE_ID, 60.0), ("very-deep", 64.99)]
        )
        parent_delays = {
            sid: 64.95 if sub.parent_id == "very-deep" else 60.0
            for sid, sub in subs.items()
        }
        plan = plan_view_synchronization(config, delay_model, "u", subs, parent_delays)
        assert len(plan.dropped_stream_ids) == 1
        kept = plan.kept_stream_ids
        assert len(kept) == 1

    def test_an_orphaned_stream_keeps_its_layer_and_sends_no_subscription_point(
        self, config, delay_model, default_view
    ):
        # A repair cascade can re-plan a viewer whose other stream is still
        # orphaned (parent ``None``, its own repair queued).  No parent is
        # read for it: it keeps its layer, which anchors the view, and a
        # push-down of it writes no subscription point.
        subs = make_subscriptions(
            default_view, [(CDN_NODE_ID, 60.0), (None, 60.6), (None, 60.3)]
        )
        orphan, low_orphan = list(subs)[1:]
        subs[orphan].layer = 4
        subs[low_orphan].layer = 1
        session = ViewerSession(viewer=Viewer(viewer_id="u"), view=default_view, lsc_id="LSC-0")
        session.subscriptions.update(subs)
        lookups = []
        propagation = delay_model.propagation
        delay_model.propagation = lambda a, b: lookups.append((a, b)) or propagation(a, b)
        plan = plan_view_synchronization(config, delay_model, "u", subs, {})
        per_stream = plan.per_stream
        assert (per_stream[orphan].minimum_layer, per_stream[orphan].target_layer) == (4, 4)
        floor_layer = 4 - config.kappa
        assert per_stream[low_orphan].pushed_down
        assert per_stream[low_orphan].target_layer == floor_layer
        latest = {sid: 1000 for sid in subs}
        assert apply_plan(config, delay_model, session, plan, latest_frame_numbers=latest) == []
        assert subs[low_orphan].layer == floor_layer
        assert subs[low_orphan].subscription_frame is None
        assert all(None not in pair for pair in lookups)

    def test_empty_subscriptions(self, config, delay_model):
        plan = plan_view_synchronization(config, delay_model, "u", {}, {})
        assert plan.per_stream == {}
        assert plan.layer_spread() == 0


class TestApplyPlan:
    def _session(self, view, subs):
        session = ViewerSession(
            viewer=Viewer(viewer_id="u"), view=view, lsc_id="LSC-0"
        )
        session.subscriptions.update(subs)
        return session

    def test_layers_and_delays_applied(self, config, delay_model, default_view):
        subs = make_subscriptions(
            default_view, [(CDN_NODE_ID, 60.0), ("deep-parent", 60.9)]
        )
        parent_delays = {
            sid: 60.75 if sub.parent_id == "deep-parent" else 60.0
            for sid, sub in subs.items()
        }
        plan = plan_view_synchronization(config, delay_model, "u", subs, parent_delays)
        session = self._session(default_view, subs)
        dropped = apply_plan(config, delay_model, session, plan)
        assert dropped == []
        assert session.layer_spread() <= config.kappa

    def test_dropped_streams_removed_from_session(self, config, delay_model, default_view):
        subs = make_subscriptions(
            default_view, [(CDN_NODE_ID, 60.0), ("very-deep", 64.99)]
        )
        parent_delays = {
            sid: 64.95 if sub.parent_id == "very-deep" else 60.0
            for sid, sub in subs.items()
        }
        plan = plan_view_synchronization(config, delay_model, "u", subs, parent_delays)
        session = self._session(default_view, subs)
        dropped = apply_plan(config, delay_model, session, plan)
        assert len(dropped) == 1
        assert session.num_accepted_streams == 1

    def test_subscription_points_computed_for_pushdowns(self, config, delay_model, default_view):
        subs = make_subscriptions(
            default_view, [("parent-a", 60.15), ("deep-parent", 61.0)]
        )
        parent_delays = {
            sid: 60.85 if sub.parent_id == "deep-parent" else 60.0
            for sid, sub in subs.items()
        }
        plan = plan_view_synchronization(config, delay_model, "u", subs, parent_delays)
        session = self._session(default_view, subs)
        latest = {sid: 1000 for sid in subs}
        apply_plan(config, delay_model, session, plan, latest_frame_numbers=latest)
        pushed = [
            session.subscriptions[sid]
            for sid, stream_plan in plan.per_stream.items()
            if stream_plan.pushed_down and sid in session.subscriptions
        ]
        assert pushed
        assert all(sub.subscription_frame is not None for sub in pushed)


class TestResubscriptionTrigger:
    def _session_with_layers(self, view, layers):
        session = ViewerSession(viewer=Viewer(viewer_id="child"), view=view, lsc_id="LSC-0")
        for stream, layer in zip(view.streams, layers):
            session.subscriptions[stream.stream_id] = reference.subscribed_node(
                "child", "parent", 60.0 + layer * 0.15, layer=layer
            )
        return session

    def test_no_resubscription_when_parent_still_supports_layer(self, config, delay_model, default_view):
        session = self._session_with_layers(default_view, [3, 3])
        stream_id = default_view.streams[0].stream_id
        assert not needs_resubscription(config, delay_model, session, stream_id, 60.0)

    def test_resubscription_when_parent_delay_grows(self, config, delay_model, default_view):
        session = self._session_with_layers(default_view, [1, 1])
        stream_id = default_view.streams[0].stream_id
        # Parent now lags far beyond the child's current worst layer.
        assert needs_resubscription(config, delay_model, session, stream_id, 61.5)

    def test_unknown_stream_is_ignored(self, config, delay_model, default_view):
        session = self._session_with_layers(default_view, [1])
        other = default_view.streams[-1].stream_id
        assert not needs_resubscription(config, delay_model, session, other, 65.0)


VIEW = build_views(make_default_producers(), num_views=1, streams_per_site=3)[0]

#: Builds a six-stream session whose first two streams come from the CDN
#: and whose last four hang under parents too deep for ``d_max``, plans
#: it, applies the plan and prints both drop orders.
_FOUR_DROPS = """
import json
from repro.core.layering import DelayLayerConfig
from repro.core.state import ViewerSession
from repro.core.subscription import apply_plan, plan_view_synchronization
from repro.core.topology import TreeNode
from repro.core.telecast import build_views
from repro.model.cdn import CDN_NODE_ID
from repro.model.producer import make_default_producers
from repro.model.viewer import Viewer
from repro.net.latency import DelayModel, LatencyMatrix

view = build_views(make_default_producers(), num_views=1, streams_per_site=3)[0]
config = DelayLayerConfig()
model = DelayModel(LatencyMatrix(default_delay=0.05), processing_delay=0.1, cdn_delta=60.0)
session = ViewerSession(viewer=Viewer(viewer_id="u"), view=view, lsc_id="LSC-0")
parent_delays = {}
for index, stream in enumerate(view.streams):
    parent = CDN_NODE_ID if index < 2 else f"deep-{index}"
    node = TreeNode("u", 0, 0.0, parent, 60.0)
    node.effective_delay = 60.0
    session.subscriptions[stream.stream_id] = node
    if parent != CDN_NODE_ID:
        parent_delays[stream.stream_id] = 64.95
plan = plan_view_synchronization(config, model, "u", session.subscriptions, parent_delays)
dropped = apply_plan(config, model, session, plan)
print(json.dumps([[str(sid) for sid in plan.dropped_stream_ids], [str(sid) for sid in dropped]]))
"""


class TestDropOrder:
    """Dropped streams come out in subscription order, whatever the hash seed.

    They used to be gathered in a ``set`` of ``StreamId`` s, which iterates
    in the order of the site-id strings' hashes.  That order decided which
    dropped stream ``_run_view_sync`` offered the CDN first -- so which one
    a nearly full CDN rescued -- and it differs between processes:
    spawn-started shard workers and restored snapshots run under other
    hash seeds.
    """

    def test_a_four_drop_plan_lists_them_in_subscription_order_under_two_hash_seeds(self):
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        in_order = [str(stream.stream_id) for stream in VIEW.streams[2:]]
        for hash_seed in ("1", "2"):
            done = subprocess.run(
                [sys.executable, "-c", _FOUR_DROPS],
                env=dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src),
                capture_output=True,
                timeout=60,
                check=False,
            )
            assert done.returncode == 0, done.stderr.decode()
            assert json.loads(done.stdout) == [in_order, in_order], f"PYTHONHASHSEED={hash_seed}"

    def test_a_cdn_with_room_for_one_rescues_the_first_subscribed_drop(
        self, producers, flat_delay_model, layer_config, default_view
    ):
        cdn = CDN(10_000.0, delta=60.0)
        gsc = GlobalSessionController(cdn, flat_delay_model, layer_config)
        gsc.register_producer_streams([s for site in producers for s in site.streams])
        lsc = gsc.add_lsc("LSC-0")
        lsc.join(Viewer(viewer_id="seed", outbound_capacity_mbps=12.0), default_view)
        lsc.join(Viewer(viewer_id="child", outbound_capacity_mbps=0.0), default_view)
        child = lsc.session_of("child")
        subscribed = list(child.subscriptions)
        assert all(sub.parent_id == "seed" for sub in child.subscriptions.values())
        # The seed now lags on the last four streams by more than any
        # acceptable layer of the child can absorb.
        deep = subscribed[2:]
        for stream_id in deep:
            lsc.session_of("seed").subscriptions[stream_id].effective_delay = (
                layer_config.d_max - 0.05
            )
        # Everything but one re-provision of the CDN is taken.
        bandwidth = child.view.stream_by_id[deep[0]].bandwidth_mbps
        elsewhere = next(
            stream.stream_id
            for site in producers
            for stream in site.streams
            if stream.stream_id not in default_view.stream_ids
        )
        assert cdn.allocate(elsewhere, cdn.available_outbound_mbps - bandwidth)

        group = lsc.groups[default_view.view_id]
        dropped = lsc._run_view_sync(group, child, now=0.0)

        assert dropped == deep[1:]
        assert list(child.subscriptions) == subscribed[:3]
        assert child.subscriptions[deep[0]].via_cdn
        assert cdn.available_outbound_mbps < bandwidth
        for stream_id in subscribed:
            group.tree(stream_id).validate()


PARENTS = (CDN_NODE_ID, "p0", "p1", "p2")


class _RecordingDelayModel(DelayModel):
    """A delay model that records every latency lookup, in order."""

    def propagation(self, a, b):
        self.lookups.append((a, b))
        return super().propagation(a, b)


def _recording_world(hops):
    """``p0`` .. ``p2`` at the given one-way delays from viewer ``u``."""
    matrix = LatencyMatrix(default_delay=0.05)
    for parent, hop in zip(PARENTS[1:], hops):
        matrix.set_delay(parent, "u", hop)
    model = _RecordingDelayModel(matrix, processing_delay=0.1, cdn_delta=60.0)
    model.lookups = []
    return model


#: Per stream: parent, structural delay, the parent's effective delay
#: (``None``: absent from the mapping), the parent the stream has when the
#: plan is applied (``None``: unchanged) and its latest frame number.
stream_specs = st.lists(
    st.tuples(
        st.sampled_from(PARENTS),
        st.floats(min_value=60.0, max_value=65.0),
        st.one_of(st.none(), st.floats(min_value=60.0, max_value=65.5)),
        st.one_of(st.none(), st.sampled_from(PARENTS)),
        st.one_of(st.none(), st.integers(min_value=0, max_value=5000)),
    ),
    min_size=1,
    max_size=len(VIEW.streams),
)


class TestPlanMatchesTheReference:
    """The row plan equals the per-stream-object planner it replaced.

    ``tests/reference_subscription.py`` is the old ``plan_view_synchronization``
    and ``apply_plan``.  Over random subscriptions -- CDN and viewer
    parents, push-downs, drops, parents that moved between planning and
    applying, with and without latest frame numbers -- both must produce
    the same per-stream plans, leave the session in the same state and
    return the same drops (in subscription order, where the old planner
    used hash order).  Their latency lookups are the same sequence, except
    that Equation 2 no longer re-reads a pair the plan read for the same
    parent.
    """

    @staticmethod
    def _run(planner, applier, specs, hops, kappa, with_latest):
        config = DelayLayerConfig(kappa=kappa)
        session = ViewerSession(viewer=Viewer(viewer_id="u"), view=VIEW, lsc_id="LSC-0")
        parent_delays = {}
        latest = {} if with_latest else None
        for stream, (parent, structural, parent_delay, _moved, frame) in zip(VIEW.streams, specs):
            sid = stream.stream_id
            session.subscriptions[sid] = reference.subscribed_node("u", parent, structural)
            if parent != CDN_NODE_ID and parent_delay is not None:
                parent_delays[sid] = parent_delay
            if latest is not None and frame is not None:
                latest[sid] = frame
        model = _recording_world(hops)
        plan = planner(config, model, "u", session.subscriptions, parent_delays)
        planned = len(model.lookups)
        for sub, (_parent, _structural, _delay, moved, _frame) in zip(
            list(session.subscriptions.values()), specs
        ):
            if moved is not None:
                sub.parent_id = moved
        dropped = applier(config, model, session, plan, latest_frame_numbers=latest)
        return plan, session, dropped, model.lookups[:planned], model.lookups[planned:], latest

    @given(
        specs=stream_specs,
        hops=st.lists(st.floats(min_value=0.0, max_value=0.5), min_size=3, max_size=3),
        kappa=st.sampled_from([2, 3]),
        with_latest=st.booleans(),
    )
    @example(  # four drops behind two CDN-fed streams
        specs=[(CDN_NODE_ID, 60.0, None, None, 100)] * 2
        + [(parent, 61.0, 64.95, None, 100) for parent in ("p0", "p1", "p2", "p0")],
        hops=[0.05, 0.05, 0.05],
        kappa=2,
        with_latest=True,
    )
    @example(  # push-downs whose parents moved both ways before the plan was applied
        specs=[
            (CDN_NODE_ID, 60.0, None, "p1", 1000),
            ("p0", 60.5, 60.3, None, 1000),
            ("p1", 61.0, 61.4, None, 1000),
            ("p0", 60.2, 60.0, CDN_NODE_ID, 1000),
        ],
        hops=[0.1, 0.2, 0.3],
        kappa=2,
        with_latest=True,
    )
    @settings(max_examples=300, deadline=None)
    def test_plan_writes_drops_and_lookups_match(self, specs, hops, kappa, with_latest):
        args = (specs, hops, kappa, with_latest)
        old_plan, old_session, old_dropped, old_plan_reads, old_apply_reads, latest = self._run(
            reference.plan_view_synchronization, reference.apply_plan, *args
        )
        plan, session, dropped, plan_reads, apply_reads, _ = self._run(
            plan_view_synchronization, apply_plan, *args
        )
        subscribed = [stream.stream_id for stream in VIEW.streams[: len(specs)]]
        planned_parent = dict(zip(subscribed, (spec[0] for spec in specs)))

        assert plan.per_stream == old_plan.per_stream
        kept = [sid for sid in subscribed if not old_plan.per_stream[sid].dropped]
        assert list(plan.kept_stream_ids) == kept
        assert plan.layer_spread() == (
            max(old_plan.per_stream[sid].target_layer for sid in kept)
            - min(old_plan.per_stream[sid].target_layer for sid in kept)
            if len(kept) > 1
            else 0
        )
        in_order = [sid for sid in subscribed if sid in old_plan.dropped_stream_ids]
        assert list(plan.dropped_stream_ids) == in_order
        assert sorted(old_dropped) == sorted(in_order)
        assert dropped == in_order
        assert list(session.subscriptions.items()) == list(old_session.subscriptions.items())

        assert plan_reads == old_plan_reads
        # The old Equation 2 read ``(current parent, u)`` for every kept,
        # pushed-down stream with a latest frame number, in subscription
        # order; the new one skips the reads of a viewer parent the plan
        # already read for that stream.
        equation_2 = [
            sid
            for sid in kept
            if old_plan.per_stream[sid].pushed_down
            and latest is not None
            and latest.get(sid) is not None
        ]
        assert old_apply_reads == [(session.subscriptions[sid].parent_id, "u") for sid in equation_2]
        assert apply_reads == [
            (session.subscriptions[sid].parent_id, "u")
            for sid in equation_2
            if planned_parent[sid] == CDN_NODE_ID
            or session.subscriptions[sid].parent_id != planned_parent[sid]
        ]
