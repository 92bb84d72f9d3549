"""Tests for the event-driven control plane (transport + driver).

Covers the three properties the refactor promises:

* **Equivalence** -- with every transit delay forced to zero, the
  simulated driver's placement and acceptance decisions match the
  instant driver exactly (the instant driver itself is pinned by the
  golden smoke test).
* **Determinism** -- the same seed with the simulated control plane
  produces byte-identical metrics summaries run over run.
* **Races as first-class outcomes** -- message arrival order decides who
  wins the last P2P slot, and a view change can arrive after its viewer
  failed without corrupting the session.
"""

from __future__ import annotations

import json

import pytest

from repro.core.session import EventDrivenSession
from repro.core.telecast import TeleCastSystem, build_views
from repro.experiments.runner import run_telecast_scenario
from repro.model.cdn import CDN, CDN_NODE_ID
from repro.model.producer import make_default_producers
from repro.model.viewer import Viewer
from repro.net.latency import DelayModel, LatencyMatrix
from repro.sim.engine import Simulator
from repro.sim.transport import ControlChannel, Heartbeat, JoinRequest
from repro.traces.workload import ViewerEvent


class TestControlChannel:
    def _channel(self, scale=1.0):
        sim = Simulator()
        model = DelayModel(
            LatencyMatrix(default_delay=0.05),
            control_processing_delay=0.05,
        )
        return sim, ControlChannel(sim, model, scale=scale)

    def test_default_transit_delay_is_propagation_plus_processing(self):
        _sim, channel = self._channel()
        assert channel.transit_delay("a", "b") == pytest.approx(0.1)

    def test_scale_is_applied_once_at_send(self):
        # Helpers return unscaled protocol delays; the scale multiplies
        # exactly at send time, so explicit and default delays behave the
        # same under scale=0 (instant delivery).
        sim, channel = self._channel(scale=0.0)
        assert channel.transit_delay("a", "b") == pytest.approx(0.1)
        delivered_at = []
        message = Heartbeat(src="a", dst="b", sent_at=0.0, viewer_id="a")
        channel.send(message, lambda _msg: delivered_at.append(sim.now))
        channel.send(message, lambda _msg: delivered_at.append(sim.now), delay=5.0)
        sim.run()
        assert delivered_at == [0.0, 0.0]

    def test_send_tracks_in_flight_and_delivers_at_transit_time(self):
        sim, channel = self._channel()
        seen = []
        message = Heartbeat(src="a", dst="b", sent_at=0.0, viewer_id="a")
        channel.send(message, seen.append)
        assert channel.sent == 1
        assert channel.in_flight == 1
        assert channel.delivered == 0
        sim.run()
        assert sim.now == pytest.approx(0.1)
        assert seen == [message]
        assert channel.in_flight == 0
        assert channel.delivered == 1

    def test_negative_scale_rejected(self):
        sim = Simulator()
        model = DelayModel(LatencyMatrix())
        with pytest.raises(ValueError):
            ControlChannel(sim, model, scale=-1.0)

    def test_messages_are_frozen(self):
        message = JoinRequest(
            src="v", dst="LSC-0", sent_at=0.0, viewer_id="v", view_index=0
        )
        with pytest.raises(AttributeError):
            message.view_index = 1


class TestZeroDelayEquivalence:
    """Acceptance criterion: simulated @ zero delay == instant, exactly."""

    def test_placement_and_acceptance_match_instant(self, dynamic_config):
        instant = run_telecast_scenario(dynamic_config, snapshot_every=10)
        simulated = run_telecast_scenario(
            dynamic_config.with_(
                control_plane="simulated", control_delay_scale=0.0
            ),
            snapshot_every=10,
        )
        si = instant.final_snapshot
        ss = simulated.final_snapshot
        assert simulated.system.viewer_maps() == instant.system.viewer_maps()
        assert ss.num_viewers == si.num_viewers
        assert ss.active_subscriptions == si.active_subscriptions
        assert ss.cdn_subscriptions == si.cdn_subscriptions
        assert simulated.cdn_outbound_mbps == si.cdn_outbound_mbps == instant.cdn_outbound_mbps
        mi = instant.metrics
        ms = simulated.metrics
        assert ms.accepted_requests == mi.accepted_requests
        assert ms.rejected_requests == mi.rejected_requests
        assert ms.total_accepted_streams == mi.total_accepted_streams
        assert ms.abrupt_departures == mi.abrupt_departures
        assert ms.repaired_subscriptions_p2p == mi.repaired_subscriptions_p2p
        assert ms.repaired_subscriptions_cdn == mi.repaired_subscriptions_cdn
        # Even the analytic delay samples coincide: the same joins were
        # admitted at the same clock times with the same parents.
        assert ms.join_delays == mi.join_delays
        assert ms.view_change_delays == mi.view_change_delays
        # The snapshot cadence (every N applied joins) is preserved too.
        assert len(ms.snapshots) == len(mi.snapshots)

    def test_zero_delay_observed_latency_is_zero(self, dynamic_config):
        simulated = run_telecast_scenario(
            dynamic_config.with_(
                control_plane="simulated", control_delay_scale=0.0
            ),
            snapshot_every=None,
        )
        assert simulated.metrics.observed_join_delays
        assert all(delay == 0.0 for delay in simulated.metrics.observed_join_delays)


class TestMessageLevelDeterminism:
    """Acceptance criterion: same seed -> byte-identical summaries."""

    def test_same_seed_twice_is_byte_identical(self, dynamic_config):
        config = dynamic_config.with_(control_plane="simulated")
        first = run_telecast_scenario(config, snapshot_every=10)
        second = run_telecast_scenario(config, snapshot_every=10)
        assert json.dumps(first.metrics.summary(), sort_keys=True) == json.dumps(
            second.metrics.summary(), sort_keys=True
        )

    def test_simulated_run_records_observed_distributions(self, dynamic_config):
        config = dynamic_config.with_(control_plane="simulated")
        result = run_telecast_scenario(config, snapshot_every=None)
        summary = result.metrics.summary()
        assert summary["control_messages_sent"] > 0
        assert "observed_join_delay_p50" in summary
        assert "join_delay_p50" in summary  # analytic prediction sits alongside
        # Uncontended joins observe exactly the analytic protocol delay, so
        # the two distributions sit on the same scale.
        assert summary["observed_join_delay_p50"] == pytest.approx(
            summary["join_delay_p50"], rel=0.5
        )


def _race_world(fast_viewer: str, slow_viewer: str):
    """One stream, one free P2P slot, two contenders with unequal delays.

    The root viewer joins first and is fed by the CDN, exhausting its
    capacity; its outbound bandwidth forwards exactly one copy.  Whichever
    contender's JoinRequest is *delivered* first takes that slot; the
    other finds neither a free slot nor CDN headroom and is rejected.
    """
    producers = make_default_producers(1, 1, stream_bandwidth_mbps=2.0)
    matrix = LatencyMatrix(default_delay=0.05)
    matrix.set_delay(fast_viewer, "LSC-0", 0.01)
    matrix.set_delay(slow_viewer, "LSC-0", 0.2)
    delay_model = DelayModel(matrix, control_processing_delay=0.05)
    cdn = CDN(2.0, delta=60.0)
    system = TeleCastSystem(producers, cdn, delay_model)
    views = build_views(producers, num_views=1, streams_per_site=1)
    viewers = [
        Viewer(viewer_id="root", inbound_capacity_mbps=12.0, outbound_capacity_mbps=2.0),
        Viewer(viewer_id="a", inbound_capacity_mbps=12.0, outbound_capacity_mbps=0.0),
        Viewer(viewer_id="b", inbound_capacity_mbps=12.0, outbound_capacity_mbps=0.0),
    ]
    events = [
        ViewerEvent(time=0.0, kind="join", viewer_id="root"),
        ViewerEvent(time=10.0, kind="join", viewer_id="a"),
        ViewerEvent(time=10.0, kind="join", viewer_id="b"),
    ]
    system.run_workload(viewers, events, views, control_plane="simulated")
    return system


class TestLastSlotRace:
    """Acceptance criterion: message arrival order decides contention."""

    def test_closer_viewer_wins_the_last_slot(self):
        system = _race_world(fast_viewer="a", slow_viewer="b")
        winner = system.lsc_of("a")
        assert winner is not None
        (subscription,) = winner.session_of("a").subscriptions.values()
        assert subscription.parent_id == "root"
        assert not subscription.via_cdn
        assert system.lsc_of("b") is None
        assert system.metrics.rejected_requests == 1

    def test_swapping_delays_flips_the_winner(self):
        system = _race_world(fast_viewer="b", slow_viewer="a")
        winner = system.lsc_of("b")
        assert winner is not None
        (subscription,) = winner.session_of("b").subscriptions.values()
        assert subscription.parent_id == "root"
        assert system.lsc_of("a") is None
        assert system.metrics.rejected_requests == 1

    def test_instant_mode_has_no_race(self):
        # Under the instant control plane the sorted event order decides:
        # viewer "a" always wins the slot regardless of network distance.
        for fast, slow in (("a", "b"), ("b", "a")):
            producers = make_default_producers(1, 1, stream_bandwidth_mbps=2.0)
            matrix = LatencyMatrix(default_delay=0.05)
            matrix.set_delay(fast, "LSC-0", 0.01)
            matrix.set_delay(slow, "LSC-0", 0.2)
            system = TeleCastSystem(
                producers, CDN(2.0, delta=60.0), DelayModel(matrix)
            )
            views = build_views(producers, num_views=1, streams_per_site=1)
            viewers = [
                Viewer("root", inbound_capacity_mbps=12.0, outbound_capacity_mbps=2.0),
                Viewer("a", inbound_capacity_mbps=12.0, outbound_capacity_mbps=0.0),
                Viewer("b", inbound_capacity_mbps=12.0, outbound_capacity_mbps=0.0),
            ]
            events = [
                ViewerEvent(time=0.0, kind="join", viewer_id="root"),
                ViewerEvent(time=10.0, kind="join", viewer_id="a"),
                ViewerEvent(time=10.0, kind="join", viewer_id="b"),
            ]
            system.run_workload(viewers, events, views)
            assert system.lsc_of("a") is not None
            assert system.lsc_of("b") is None


class TestStaleMessages:
    def test_view_change_arriving_after_viewer_failed_is_stale(
        self, small_system, producers
    ):
        system = small_system
        views = build_views(producers, num_views=2, streams_per_site=3)
        viewers = [
            Viewer("v-0", inbound_capacity_mbps=12.0, outbound_capacity_mbps=4.0),
            Viewer("v-1", inbound_capacity_mbps=12.0, outbound_capacity_mbps=4.0),
        ]
        events = [
            ViewerEvent(time=0.0, kind="join", viewer_id="v-0"),
            ViewerEvent(time=0.0, kind="join", viewer_id="v-1"),
            # The failure notice (sent 4.9, transit 0.1) lands at 5.0; the
            # view change (sent 5.0) lands at 5.1 -- after its viewer died.
            ViewerEvent(time=4.9, kind="fail", viewer_id="v-0"),
            ViewerEvent(time=5.0, kind="view_change", viewer_id="v-0", view_index=1),
        ]
        metrics = system.run_workload(viewers, events, views, control_plane="simulated")
        assert system.lsc_of("v-0") is None
        assert metrics.abrupt_departures == 1
        assert metrics.stale_control_messages >= 1
        assert metrics.view_change_delays == []  # the change was never applied
        assert system.lsc_of("v-1") is not None  # bystander unharmed

    def test_observed_join_delay_equals_the_analytic_one(self, small_system, producers):
        system = small_system
        views = build_views(producers, num_views=1, streams_per_site=3)
        viewers = [Viewer("v-0", inbound_capacity_mbps=12.0, outbound_capacity_mbps=4.0)]
        events = [ViewerEvent(time=0.0, kind="join", viewer_id="v-0")]
        system.run_workload(viewers, events, views, control_plane="simulated")
        assert system.metrics.observed_join_delays
        # Observed latency equals the analytic protocol estimate for an
        # uncontended join (same legs, same delay model).
        assert system.metrics.observed_join_delays[0] == pytest.approx(
            system.metrics.join_delays[0]
        )


class TestRejoinDepartRace:
    """A leave->rejoin racing its own DepartNotice is applied exactly once.

    With a single LSC the protocol's own delays cannot produce the
    overtake (a JoinRequest's multi-leg route through the GSC is always
    longer than the one-leg notice on the same latency pair), so these
    tests drive :class:`EventDrivenSession` directly: the workload-side
    handlers send the real in-flight notices, and a synthesized rejoin
    request is delivered while a notice is still in transit -- exactly
    the ordering an asymmetric network could produce.
    """

    def _session(self, small_system, producers, num_views=2):
        views = build_views(producers, num_views=num_views, streams_per_site=3)
        viewers = [
            Viewer("v", inbound_capacity_mbps=12.0, outbound_capacity_mbps=4.0)
        ]
        session = EventDrivenSession(
            small_system, viewers, views, heartbeat_period=100.0
        )
        sim = small_system.simulator
        sim.schedule_at(
            0.0,
            lambda: session.handle_join(
                ViewerEvent(time=0.0, kind="join", viewer_id="v")
            ),
        )
        # No periodic sweeper in this harness: close the session late so
        # post-rejoin heartbeat timers self-cancel and the sim drains.
        sim.schedule_at(20.0, session._close)
        return session, sim

    def test_rejoin_overtaking_its_own_depart_notice_is_applied_exactly_once(
        self, small_system, producers
    ):
        session, sim = self._session(small_system, producers)
        # Depart at t=10; the DepartNotice (one 50 ms leg + 50 ms
        # processing) lands at 10.1.  The rejoin is delivered at 10.05 --
        # while the viewer is still connected and its notice in flight.
        sim.schedule_at(
            10.0,
            lambda: session.handle_depart(
                ViewerEvent(time=10.0, kind="depart", viewer_id="v")
            ),
        )
        rejoin = JoinRequest(
            src="v", dst="LSC-0", sent_at=10.0, viewer_id="v", view_index=0
        )
        sim.schedule_at(10.05, lambda: session._deliver_join_request(rejoin))
        sim.run()
        metrics = small_system.metrics
        # The rejoin was deferred past the departure, then applied once:
        # the initial join plus exactly one rejoin acceptance.
        assert metrics.accepted_requests == 2
        assert metrics.rejected_requests == 0
        # Deferred, not dropped as a stale duplicate.
        assert metrics.stale_control_messages == 0
        # The viewer ends connected exactly once (single home).
        homes = [lsc for lsc in small_system.gsc.lscs if "v" in lsc.sessions]
        assert len(homes) == 1
        # The race bookkeeping fully drains.
        assert session._pending_departs == {}
        assert session._deferred_joins == {}

    def test_latest_racing_rejoin_wins(self, small_system, producers):
        session, sim = self._session(small_system, producers)
        sim.schedule_at(
            10.0,
            lambda: session.handle_depart(
                ViewerEvent(time=10.0, kind="depart", viewer_id="v")
            ),
        )
        first = JoinRequest(
            src="v", dst="LSC-0", sent_at=10.0, viewer_id="v", view_index=0
        )
        second = JoinRequest(
            src="v", dst="LSC-0", sent_at=10.02, viewer_id="v", view_index=1
        )
        sim.schedule_at(10.04, lambda: session._deliver_join_request(first))
        sim.schedule_at(10.06, lambda: session._deliver_join_request(second))
        deferred_mid_flight = []
        sim.schedule_at(
            10.08, lambda: deferred_mid_flight.append(session._deferred_joins.get("v"))
        )
        sim.run()
        # While the notice was in flight the latest rejoin had replaced
        # the earlier one; only that one was applied after the departure.
        assert deferred_mid_flight == [second]
        assert small_system.metrics.accepted_requests == 2
        homes = [lsc for lsc in small_system.gsc.lscs if "v" in lsc.sessions]
        assert len(homes) == 1
        assert session._pending_departs == {}
        assert session._deferred_joins == {}

    def test_rejoin_waits_for_the_last_of_several_inflight_departs(
        self, small_system, producers
    ):
        session, sim = self._session(small_system, producers)
        # Two departure notices in flight at once (lands 10.1 and 10.12):
        # the deferred rejoin must wait for the *last* one, and the second
        # notice -- finding the viewer already departed -- counts stale.
        for t in (10.0, 10.02):
            sim.schedule_at(
                t,
                lambda t=t: session.handle_depart(
                    ViewerEvent(time=t, kind="depart", viewer_id="v")
                ),
            )
        rejoin = JoinRequest(
            src="v", dst="LSC-0", sent_at=10.04, viewer_id="v", view_index=0
        )
        sim.schedule_at(10.05, lambda: session._deliver_join_request(rejoin))
        applied_after_first_notice = []
        sim.schedule_at(
            10.11,
            lambda: applied_after_first_notice.append(
                small_system.metrics.accepted_requests
            ),
        )
        sim.run()
        metrics = small_system.metrics
        # After the first notice landed the rejoin was still held back...
        assert applied_after_first_notice == [1]
        # ...and applied exactly once after the second one drained.
        assert metrics.accepted_requests == 2
        assert metrics.stale_control_messages == 1
        homes = [lsc for lsc in small_system.gsc.lscs if "v" in lsc.sessions]
        assert len(homes) == 1
        assert session._pending_departs == {}
        assert session._deferred_joins == {}
