"""Tests for the churn and failure-recovery subsystem (repro.core.recovery)."""

import pytest

from repro.core import FailoverResult, FailureDetector
from repro.core.telecast import TeleCastSystem, build_views
from repro.model.cdn import CDN, CDN_NODE_ID
from repro.model.viewer import Viewer
from repro.net.latency import DelayModel
from repro.net.planetlab import generate_planetlab_matrix
from repro.sim.rng import SeededRandom
from repro.traces.workload import (
    ChurnConfig,
    ChurnWorkload,
    ViewerEvent,
    ViewerWorkload,
    WorkloadConfig,
)
from tests.conftest import (
    assert_layer_invariants,
    assert_no_dangling_references,
    assert_routing_matches_trees,
    join_all,
    make_viewers,
)


def _forwards(group, viewer_id):
    """Whether the viewer has a child in any stream tree of the group."""
    return any(group.children_of(viewer_id, stream_id) for stream_id in group.trees)


class TestFailureDetector:
    def test_untracked_viewer_never_expires(self):
        detector = FailureDetector(timeout=5.0)
        assert detector.expired(1000.0) == []

    def test_expiry_after_timeout(self):
        detector = FailureDetector(timeout=5.0)
        detector.watch("a", 0.0)
        detector.watch("b", 0.0)
        detector.heartbeat("a", 8.0)
        assert detector.expired(10.0) == ["b"]
        assert detector.expired(14.0) == ["a", "b"]

    def test_forget_stops_tracking(self):
        detector = FailureDetector(timeout=5.0)
        detector.watch("a", 0.0)
        detector.forget("a")
        assert detector.expired(100.0) == []
        assert "a" not in detector

    def test_heartbeat_starts_tracking_unknown_viewer(self):
        detector = FailureDetector(timeout=5.0)
        detector.heartbeat("late", 3.0)
        assert detector._last_seen["late"] == 3.0

    def test_invalid_timeout_rejected(self):
        with pytest.raises(ValueError):
            FailureDetector(timeout=0.0)


class TestAbruptDeparture:
    def test_fail_disconnected_viewer_is_noop(self, small_system, default_view):
        result = small_system.fail_viewer("ghost")
        assert not result.departed

    def test_failure_orphans_are_repaired(self, small_system, default_view):
        viewers = make_viewers(12, outbound=8.0)
        join_all(small_system, viewers, default_view)
        # Fail a viewer that forwards streams; its children must be repaired.
        lsc = small_system.gsc.lscs[0]
        group = lsc.groups[default_view.view_id]
        forwarder = next(vid for vid in lsc.sessions if _forwards(group, vid))
        result = small_system.fail_viewer(forwarder)
        assert result.departed
        assert result.orphaned
        assert result.repaired == len(result.orphaned)
        assert result.lost_subscriptions == 0
        assert_no_dangling_references(small_system, [forwarder])
        assert_routing_matches_trees(small_system)
        assert_layer_invariants(small_system)

    def test_incremental_repair_prefers_p2p(self, small_system, default_view):
        # 24 Mbps of outbound capacity gives every viewer two forwarding
        # slots per stream, so the trees branch and keep free leaf slots.
        viewers = make_viewers(20, outbound=24.0)
        join_all(small_system, viewers, default_view)
        lsc = small_system.gsc.lscs[0]
        group = lsc.groups[default_view.view_id]
        # Fail a forwarder deeper in the tree (not CDN-fed): the rest of the
        # tree stays connected and must absorb the orphans without the CDN.
        forwarder = next(
            vid
            for vid, session in lsc.sessions.items()
            if _forwards(group, vid)
            and not any(sub.via_cdn for sub in session.subscriptions.values())
        )
        result = small_system.fail_viewer(forwarder)
        assert result.orphaned
        assert result.repaired_p2p == len(result.orphaned)
        assert result.repaired_cdn == 0

    def test_zero_capacity_population_falls_back_to_cdn(self, small_system, producers):
        system = small_system
        views = build_views(producers, num_views=1)
        viewers = make_viewers(6, outbound=2.0)
        join_all(system, viewers, views[0])
        failed = []
        for viewer in viewers[:3]:
            result = system.fail_viewer(viewer.viewer_id)
            assert result.departed
            assert result.lost_subscriptions == 0
            failed.append(viewer.viewer_id)
        assert_no_dangling_references(system, failed)
        assert_layer_invariants(system)

    def test_sequential_failures_drain_the_session(self, small_system, default_view):
        viewers = make_viewers(10, outbound=6.0)
        join_all(small_system, viewers, default_view)
        for viewer in viewers:
            small_system.fail_viewer(viewer.viewer_id)
        assert small_system.connected_viewer_count == 0
        assert_no_dangling_references(small_system, [v.viewer_id for v in viewers])
        # All CDN bandwidth must have been released with the last viewer.
        assert small_system.cdn.used_outbound_mbps == pytest.approx(0.0)

    def test_metrics_record_repairs(self, small_system, default_view):
        viewers = make_viewers(8, outbound=8.0)
        join_all(small_system, viewers, default_view)
        small_system.fail_viewer(viewers[0].viewer_id)
        assert small_system.metrics.abrupt_departures == 1


class TestTimeoutDetection:
    def test_silent_viewers_are_swept(self, small_system, default_view):
        viewers = make_viewers(6, outbound=6.0)
        join_all(small_system, viewers, default_view)
        # Everyone joined at t=0; two viewers keep their heartbeats fresh.
        small_system.heartbeat(viewers[0].viewer_id, 30.0)
        small_system.heartbeat(viewers[1].viewer_id, 30.0)
        results = small_system.detect_failures(32.0)
        departed = {r.viewer_id for r in results if r.departed}
        assert departed == {v.viewer_id for v in viewers[2:]}
        assert small_system.connected_viewer_count == 2
        assert_no_dangling_references(small_system, departed)
        assert_layer_invariants(small_system)

    def test_sweep_before_timeout_is_quiet(self, small_system, default_view):
        viewers = make_viewers(4, outbound=6.0)
        join_all(small_system, viewers, default_view)
        assert small_system.detect_failures(5.0) == []
        assert small_system.connected_viewer_count == 4

    def test_graceful_departure_stops_monitoring(self, small_system, default_view):
        viewers = make_viewers(4, outbound=6.0)
        join_all(small_system, viewers, default_view)
        small_system.depart_viewer(viewers[0].viewer_id)
        results = small_system.detect_failures(1000.0)
        assert viewers[0].viewer_id not in {r.viewer_id for r in results}


class TestLscFailover:
    @pytest.fixture
    def two_region_system(self, producers, layer_config):
        viewers = [
            Viewer(
                viewer_id=f"viewer-{index:04d}",
                inbound_capacity_mbps=12.0,
                outbound_capacity_mbps=8.0,
                region_name=f"region-{index % 2}",
            )
            for index in range(16)
        ]
        matrix = generate_planetlab_matrix(
            [v.viewer_id for v in viewers] + ["GSC", "LSC-0", "LSC-1", "CDN"],
            rng=SeededRandom(5),
        )
        delay_model = DelayModel(matrix, processing_delay=0.1, cdn_delta=60.0)
        system = TeleCastSystem(
            producers,
            CDN(10_000.0),
            delay_model,
            layer_config,
            lsc_regions=[["region-0"], ["region-1"]],
        )
        views = build_views(producers, num_views=2)
        for viewer in viewers:
            assert system.join_viewer(viewer, views[0]).accepted
        return system, viewers

    def test_failover_migrates_viewers(self, two_region_system):
        system, viewers = two_region_system
        before = system.connected_viewer_count
        moved = len(system.gsc.lsc("LSC-0").sessions)
        result = system.fail_lsc("LSC-0")
        assert result.target_lsc_id == "LSC-1"
        assert result.migrated_viewers == moved
        assert result.lost_viewers == 0
        assert result.reassigned_regions == ("region-0",)
        assert system.connected_viewer_count == before
        assert len(system.gsc.lsc("LSC-1").sessions) == before
        assert_layer_invariants(system)

    def test_failover_redirects_future_joins(self, two_region_system, producers):
        system, _ = two_region_system
        system.fail_lsc("LSC-0")
        views = build_views(producers, num_views=2)
        late = Viewer(
            viewer_id="late-viewer",
            inbound_capacity_mbps=12.0,
            outbound_capacity_mbps=8.0,
            region_name="region-0",
        )
        assert system.join_viewer(late, views[0]).accepted
        assert system.lsc_of("late-viewer").lsc_id == "LSC-1"

    def test_failover_releases_failed_regions_cdn_share(self, two_region_system):
        system, _ = two_region_system
        system.fail_lsc("LSC-0")
        # The CDN reservations now on the books must exactly match the live
        # CDN-fed subscriptions; nothing leaked from the failed controller.
        via_cdn_mbps = sum(
            session.view.stream_by_id[stream_id].bandwidth_mbps
            for lsc in system.gsc.lscs
            for session in lsc.sessions.values()
            for stream_id, sub in session.subscriptions.items()
            if sub.via_cdn
        )
        assert system.cdn.used_outbound_mbps == pytest.approx(via_cdn_mbps)

    def test_failover_without_survivor_loses_region(self, small_system, producers):
        system = small_system
        views = build_views(producers, num_views=1)
        viewers = make_viewers(4, outbound=6.0)
        join_all(system, viewers, views[0])
        result = system.fail_lsc("LSC-0")
        assert result.target_lsc_id is None
        assert result.lost_viewers == 4
        assert system.cdn.used_outbound_mbps == pytest.approx(0.0)

    def test_failover_of_unknown_lsc_raises(self, small_system):
        with pytest.raises(KeyError):
            small_system.fail_lsc("LSC-99")

    def test_lost_failover_viewers_leave_request_accounting(
        self, small_system, producers
    ):
        system = small_system
        views = build_views(producers, num_views=1)
        viewers = make_viewers(4, outbound=6.0)
        join_all(system, viewers, views[0])
        system.fail_lsc("LSC-0")  # no surviving LSC: every viewer is lost
        assert system.snapshot().num_requests == 0
        assert system.viewer_maps() == ({}, {})


class TestFailoverHalves:
    """One failover, two routes in: ``fail_lsc`` in one process, and the
    ``evict_lsc`` / ``absorb_failover`` pair a shard worker calls on
    either side of a barrier.  Both are the same two halves."""

    @staticmethod
    def _fail(system, route, lsc_id, target, viewers, views, regions=()):
        if route == "fail_lsc":
            return system.fail_lsc(lsc_id, now=5.0)
        records = system.evict_lsc(lsc_id, 5.0)
        return system.absorb_failover(
            lsc_id,
            target,
            records,
            5.0,
            viewers_by_id={viewer.viewer_id: viewer for viewer in viewers},
            views_by_id={view.view_id: view for view in views},
            regions=regions,
        )

    @pytest.mark.parametrize("route", ["fail_lsc", "evict_absorb"])
    def test_no_survivor_books_every_session_lost(self, small_system, producers, route):
        system = small_system
        views = build_views(producers, num_views=1)
        viewers = make_viewers(4, outbound=6.0)
        join_all(system, viewers, views[0])
        assert system.cdn.used_outbound_mbps > 0
        result = self._fail(system, route, "LSC-0", None, viewers, views)
        assert result == FailoverResult(
            failed_lsc_id="LSC-0", target_lsc_id=None, lost_viewers=4
        )
        assert system.cdn.used_outbound_mbps == pytest.approx(0.0)
        assert system.metrics.lsc_failovers == 1
        assert system.metrics.failover_migrated_viewers == 0
        assert system.metrics.failover_lost_viewers == 4
        assert system.snapshot().num_requests == 0
        assert system.recovery_managers() == {}

    @pytest.mark.parametrize("route", ["fail_lsc", "evict_absorb"])
    def test_both_routes_name_the_failed_lsc_and_leave_the_same_books(
        self, producers, flat_delay_model, layer_config, route
    ):
        system = TeleCastSystem(
            producers, CDN(10_000.0, delta=60.0), flat_delay_model, layer_config,
            lsc_regions=[["region-0"], ["region-1"]],
        )
        views = build_views(producers, num_views=2)
        viewers = [
            Viewer(
                viewer_id=f"viewer-{index:04d}",
                inbound_capacity_mbps=12.0,
                outbound_capacity_mbps=8.0,
                region_name=f"region-{index % 2}",
            )
            for index in range(10)
        ]
        for index, viewer in enumerate(viewers):
            assert system.join_viewer(viewer, views[index % 2], now=float(index)).accepted
        result = self._fail(
            system, route, "LSC-0", "LSC-1", viewers, views, regions=("region-0",)
        )
        assert result == FailoverResult(
            failed_lsc_id="LSC-0",
            target_lsc_id="LSC-1",
            migrated_viewers=5,
            lost_viewers=0,
            reassigned_regions=("region-0",),
        )
        assert system.viewers_per_lsc() == {"LSC-1": 10}
        assert system.metrics.lsc_failovers == 1
        assert system.metrics.failover_migrated_viewers == 5
        assert system.snapshot().num_requests == 10
        assert set(system.viewer_maps()[1].values()) == {6}
        # Migrated viewers are watched by the target's detector from the
        # failover instant; the failed controller's managers are gone.
        managers = system.recovery_managers()
        assert set(managers) == {"LSC-1"}
        detector = managers["LSC-1"].detector
        assert detector.watched() == sorted(v.viewer_id for v in viewers)
        assert {detector._last_seen[v.viewer_id] for v in viewers[0::2]} == {5.0}
        late = Viewer(
            viewer_id="late-viewer",
            inbound_capacity_mbps=12.0,
            outbound_capacity_mbps=8.0,
            region_name="region-0",
        )
        assert system.join_viewer(late, views[0]).accepted
        assert system.lsc_of("late-viewer").lsc_id == "LSC-1"
        assert_layer_invariants(system)
        assert_routing_matches_trees(system)

    def test_removed_options_are_type_errors(self, small_system, default_view):
        join_all(small_system, make_viewers(2, outbound=6.0), default_view)
        with pytest.raises(TypeError):
            small_system.fail_viewer("viewer-0000", strategy="rejoin")
        with pytest.raises(TypeError):
            small_system.fail_lsc("LSC-0", target_lsc_id="LSC-0")
        # Neither call got as far as touching the session.
        assert small_system.connected_viewer_count == 2
        assert small_system.gsc.has_lsc("LSC-0")


class TestChurnSchedules:
    def _base(self, num_viewers=30, seed=3):
        workload = ViewerWorkload(
            WorkloadConfig(num_viewers=num_viewers, num_views=2),
            rng=SeededRandom(seed),
        )
        viewers = workload.viewers()
        return viewers, workload.events()

    def test_fail_event_kind_is_valid(self):
        event = ViewerEvent(time=1.0, kind="fail", viewer_id="v")
        assert event.kind == "fail"
        with pytest.raises(ValueError):
            ViewerEvent(time=1.0, kind="explode", viewer_id="v")

    def test_poisson_failures_only_hit_connected_viewers(self):
        viewers, base = self._base()
        churn = ChurnWorkload(
            ChurnConfig(failure_rate_per_second=0.5, duration=100.0), rng=SeededRandom(9)
        )
        events = churn.events(base)
        alive = set()
        for event in events:
            if event.kind == "join":
                assert event.viewer_id not in alive
                alive.add(event.viewer_id)
            elif event.kind in ("fail", "depart"):
                assert event.viewer_id in alive
                alive.remove(event.viewer_id)
        fails = [e for e in events if e.kind == "fail"]
        assert fails, "poisson churn should generate failures"

    def test_schedules_are_deterministic(self):
        _, base = self._base()
        config = ChurnConfig(
            failure_rate_per_second=0.4, rejoin_probability=1.0, duration=120.0
        )
        first = ChurnWorkload(config, rng=SeededRandom(4)).events(base)
        second = ChurnWorkload(config, rng=SeededRandom(4)).events(base)
        assert first == second

    def test_same_timestamp_join_precedes_failure(self):
        # A mass-leave coinciding exactly with a join must still kill the
        # joining viewer: causal order (join before fail) in the schedule.
        base = [ViewerEvent(time=10.0, kind="join", viewer_id="v-a")]
        churn = ChurnWorkload(
            ChurnConfig(mass_leave_time=10.0, mass_leave_fraction=1.0, duration=100.0), rng=SeededRandom(1)
        )
        events = churn.events(base)
        assert [e.kind for e in events] == ["join", "fail"]

    def test_same_timestamp_mass_leave_disconnects_viewer(
        self, small_system, producers
    ):
        system = small_system
        views = build_views(producers, num_views=1)
        viewers = make_viewers(5, outbound=6.0)
        base = [
            ViewerEvent(time=10.0, kind="join", viewer_id=v.viewer_id) for v in viewers
        ]
        churn = ChurnWorkload(
            ChurnConfig(mass_leave_time=10.0, mass_leave_fraction=1.0, duration=100.0), rng=SeededRandom(1)
        )
        system.run_workload(viewers, churn.events(base), views)
        assert system.connected_viewer_count == 0

    def test_mass_leave_past_horizon_is_dropped(self):
        _, base = self._base()
        churn = ChurnWorkload(
            ChurnConfig(mass_leave_time=500.0, mass_leave_fraction=0.5, duration=300.0),
            rng=SeededRandom(1),
        )
        events = churn.events(base)
        assert not [e for e in events if e.kind == "fail"]

    def test_mass_leave_takes_expected_fraction(self):
        viewers, base = self._base(num_viewers=40)
        churn = ChurnWorkload(
            ChurnConfig(mass_leave_time=10.0, mass_leave_fraction=0.5, duration=100.0), rng=SeededRandom(9)
        )
        events = churn.events(base)
        fails = [e for e in events if e.kind == "fail"]
        assert len(fails) == 20
        assert all(e.time == 10.0 for e in fails)

    def test_rejoins_reuse_the_departed_view(self):
        viewers, base = self._base()
        view_at_join = {e.viewer_id: e.view_index for e in base if e.kind == "join"}
        churn = ChurnWorkload(
            ChurnConfig(
                failure_rate_per_second=1.0,
                rejoin_probability=1.0,
                rejoin_delay_mean=5.0,
                duration=150.0,
            ),
            rng=SeededRandom(2),
        )
        events = churn.events(base)
        rejoins = [
            e for e in events if e.kind == "join" and e not in base
        ]
        assert rejoins, "flash-crowd mix should generate rejoins"
        for event in rejoins:
            assert event.view_index == view_at_join[event.viewer_id]

    def test_mass_leave_then_flash_crowd_converges(self, small_system, producers):
        """The acceptance scenario: a mass-leave followed by a rejoin flash crowd."""
        system = small_system
        views = build_views(producers, num_views=2)
        viewers = make_viewers(40, outbound=8.0)
        events = [
            ViewerEvent(time=0.0, kind="join", viewer_id=v.viewer_id) for v in viewers
        ]
        # Half the population crashes at t=50...
        events += [
            ViewerEvent(time=50.0, kind="fail", viewer_id=v.viewer_id)
            for v in viewers[:20]
        ]
        # ...and storms back in a single flash crowd at t=60.
        events += [
            ViewerEvent(time=60.0, kind="join", viewer_id=v.viewer_id)
            for v in viewers[:20]
        ]
        system.run_workload(viewers, events, views)
        assert system.connected_viewer_count == 40
        assert_no_dangling_references(system, [])
        assert_routing_matches_trees(system)
        assert_layer_invariants(system)

    def test_churned_workload_leaves_no_dangling_state(self, small_system, producers):
        system = small_system
        views = build_views(producers, num_views=2)
        viewers, base = self._base(num_viewers=30)
        churn = ChurnWorkload(
            ChurnConfig(
                failure_rate_per_second=0.5,
                rejoin_probability=1.0,
                rejoin_delay_mean=10.0,
                duration=120.0,
            ),
            rng=SeededRandom(6),
        )
        events = churn.events(base)
        system.run_workload(viewers, events, views)
        connected = {
            vid for lsc in system.gsc.lscs for vid in lsc.sessions
        }
        gone = {v.viewer_id for v in viewers} - connected
        assert_no_dangling_references(system, gone)
        assert_routing_matches_trees(system)
        assert_layer_invariants(system)
        assert system.metrics.abrupt_departures > 0


class TestHeartbeatFlapping:
    """Regression: heartbeat period beyond the failure timeout.

    Viewers heartbeat every 15 s against the default 10 s detector
    timeout, so every healthy viewer goes silent longer than the
    detector tolerates and the periodic sweep spuriously repairs live
    viewers.  Spurious repairs are allowed; dangling routing state and
    leaked detector entries are not.
    """

    def test_spurious_sweep_repairs_leave_no_dangling_state(
        self, small_system, producers
    ):
        system = small_system
        views = build_views(producers, num_views=2)
        viewers = make_viewers(12, outbound=6.0)
        # The schedule contains no failure at all: everyone joins at t=0
        # and a late graceful leave/rejoin keeps the session open past
        # several sweep periods (the event horizon is the last workload
        # intent, so without the tail the run would close before the
        # first 15 s sweep ever fired).
        events = [
            ViewerEvent(time=0.0, kind="join", viewer_id=v.viewer_id)
            for v in viewers
        ] + [
            ViewerEvent(time=44.0, kind="depart", viewer_id=viewers[0].viewer_id),
            ViewerEvent(time=45.0, kind="join", viewer_id=viewers[0].viewer_id),
        ]
        metrics = system.run_workload(
            viewers,
            events,
            views,
            control_plane="simulated",
            heartbeat_period=15.0,
        )
        # The sweep repaired live viewers even though none ever failed.
        assert metrics.abrupt_departures > 0
        # Flapping never corrupts the overlay: whatever ended connected
        # is structurally sound, and the swept viewers left no residue.
        connected = {vid for lsc in system.gsc.lscs for vid in lsc.sessions}
        gone = {v.viewer_id for v in viewers} - connected
        assert_no_dangling_references(system, gone)
        assert_routing_matches_trees(system)
        assert_layer_invariants(system)
        # The detectors track exactly the connected population: no
        # evicted viewer is still watched, none connected is forgotten.
        for manager in system.recovery_managers().values():
            assert set(manager.detector.watched()) <= connected
