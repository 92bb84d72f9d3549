"""The 4D TeleCast system facade.

:class:`TeleCastSystem` wires together every component of the framework --
producers, the CDN, the latency substrate, the GSC/LSC control plane, the
overlay construction, the view-synchronization machinery and the
adaptation manager -- behind a small API::

    system = TeleCastSystem(producers, cdn, delay_model, layer_config)
    views = build_views(producers, num_views=4, streams_per_site=3)
    result = system.join_viewer(viewer, views[0])
    system.snapshot().acceptance_ratio  # 1.0

Experiments and examples drive this facade either directly (event by
event) or through :meth:`TeleCastSystem.run_workload` which replays a
generated :class:`~repro.traces.workload.ViewerWorkload` schedule.
"""

from __future__ import annotations

import math
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.adaptation import AdaptationManager, DepartureResult, ViewChangeResult
from repro.core.dataplane import DataPlaneConfig, SimulatedDataPlane
from repro.core.controllers import (
    GlobalSessionController,
    JoinResult,
    LocalSessionController,
    lsc_node_id,
)
from repro.core.layering import DelayLayerConfig
from repro.core.recovery import (
    DEFAULT_HEARTBEAT_PERIOD,
    DEFAULT_HEARTBEAT_TIMEOUT,
    FailoverResult,
    RecoveryManager,
    RepairResult,
    evict_sessions,
    failover_lsc,
    readmit_sessions,
)
from repro.core.session import EventDrivenSession, InstantDriver
from repro.metrics.collectors import SessionMetrics, SystemSnapshot
from repro.model.cdn import CDN
from repro.model.producer import ProducerSite
from repro.model.view import GlobalView
from repro.model.viewer import Viewer
from repro.model.stream import StreamId, orientation_from_angle
from repro.net.latency import DelayModel
from repro.sim.engine import Simulator
from repro.sim.rng import SeededRandom
from repro.traces.teeve import TeeveSessionTrace
from repro.traces.workload import ViewerEvent


def build_views(
    producers: Sequence[ProducerSite],
    *,
    num_views: int = 1,
    streams_per_site: int = 3,
) -> List[GlobalView]:
    """Construct ``num_views`` candidate global views spread around the scene.

    View orientations are evenly spaced angles; each produces one local
    view per producer site with ``streams_per_site`` streams, matching the
    paper's evaluation setup (each view includes 3 streams from each of the
    2 producer sites).
    """
    if num_views <= 0:
        raise ValueError("num_views must be > 0")
    if not producers:
        raise ValueError("at least one producer site is required")
    views: List[GlobalView] = []
    for index in range(num_views):
        angle = 2.0 * math.pi * index / num_views
        orientation = orientation_from_angle(angle)
        local_views = tuple(
            site.local_view(orientation, max_streams=streams_per_site)
            for site in producers
        )
        views.append(GlobalView(view_id=f"view-{index}", local_views=local_views))
    return views


class TeleCastSystem:
    """End-to-end 4D TeleCast session on top of the simulation substrates."""

    def __init__(
        self,
        producers: Sequence[ProducerSite],
        cdn: CDN,
        delay_model: DelayModel,
        layer_config: Optional[DelayLayerConfig] = None,
        *,
        lsc_regions: Sequence[Sequence[str]] = ((),),
        lsc_ids: Optional[Sequence[str]] = None,
        heartbeat_timeout: float = DEFAULT_HEARTBEAT_TIMEOUT,
    ) -> None:
        """One LSC per ``lsc_regions`` group, serving that group's regions.

        ``lsc_ids`` names them (``LSC-0``, ``LSC-1``, ... by default); a
        shard worker passes the global ids of the LSCs it hosts.  The
        default is one LSC serving no region, which every viewer joins.
        """
        if not producers:
            raise ValueError("at least one producer site is required")
        if not lsc_regions:
            raise ValueError("at least one LSC region group is required")
        if lsc_ids is None:
            lsc_ids = [lsc_node_id(index) for index in range(len(lsc_regions))]
        if len(lsc_ids) != len(lsc_regions):
            raise ValueError(
                f"lsc_ids must name one controller per region group: "
                f"got {len(lsc_ids)} ids for {len(lsc_regions)} groups"
            )
        self.producers = list(producers)
        self.cdn = cdn
        self.delay_model = delay_model
        self.layer_config = layer_config or DelayLayerConfig(delta=cdn.delta)
        self.simulator = Simulator()
        self.metrics = SessionMetrics()

        self.gsc = GlobalSessionController(cdn, delay_model, self.layer_config)
        all_streams = [stream for site in self.producers for stream in site.streams]
        self.gsc.register_producer_streams(all_streams)

        self._adaptation: Dict[str, AdaptationManager] = {}
        self._recovery: Dict[str, RecoveryManager] = {}
        for lsc_id, group in zip(lsc_ids, lsc_regions):
            lsc = self.gsc.add_lsc(lsc_id)
            for region_name in group:
                self.gsc.add_lsc(lsc.lsc_id, region_name=region_name)
            self._adaptation[lsc.lsc_id] = AdaptationManager(lsc)
            self._recovery[lsc.lsc_id] = RecoveryManager(
                lsc, heartbeat_timeout=heartbeat_timeout
            )

        #: Streams requested by every viewer that ever attempted to join,
        #: used to report per-viewer accepted stream counts including
        #: rejected viewers (Figure 14(b)).
        self._requested: Dict[str, int] = {}

    # -- viewer lifecycle --------------------------------------------------------

    def join_viewer(
        self, viewer: Viewer, view: GlobalView, now: Optional[float] = None
    ) -> JoinResult:
        """Join a viewer to the session and record its outcome in the metrics."""
        time = self.simulator.now if now is None else now
        lsc = self.gsc.lsc_for_viewer(viewer)
        result = lsc.join(viewer, view, time)
        if result.accepted:
            self._recovery[lsc.lsc_id].detector.watch(viewer.viewer_id, time)
        self._requested[viewer.viewer_id] = result.num_requested
        self.metrics.record_join(
            requested=result.num_requested,
            accepted=result.num_accepted,
            join_delay=result.join_delay,
            request_accepted=result.accepted,
            dropped_by_sync=len(result.dropped_by_sync),
        )
        return result

    def change_view(
        self, viewer_id: str, new_view: GlobalView, now: Optional[float] = None
    ) -> ViewChangeResult:
        """Switch a connected viewer to a new view."""
        time = self.simulator.now if now is None else now
        lsc = self.gsc.lsc_of_connected_viewer(viewer_id)
        if lsc is None:
            raise KeyError(f"viewer {viewer_id} is not connected")
        result = self._adaptation[lsc.lsc_id].handle_view_change(viewer_id, new_view, time)
        self._requested[viewer_id] = result.join_result.num_requested
        self.metrics.record_view_change(
            requested=result.join_result.num_requested,
            accepted=result.join_result.num_accepted,
            change_delay=result.fast_path_delay,
            request_accepted=result.accepted,
        )
        self.metrics.record_victims(
            victims=len(result.victims), recovered=result.recovered_victims
        )
        return result

    def depart_viewer(self, viewer_id: str, now: Optional[float] = None) -> DepartureResult:
        """Disconnect a viewer, recovering the victims it leaves behind."""
        time = self.simulator.now if now is None else now
        lsc = self.gsc.lsc_of_connected_viewer(viewer_id)
        if lsc is None:
            return DepartureResult(viewer_id=viewer_id, departed=False)
        result = self._adaptation[lsc.lsc_id].handle_departure(viewer_id, time)
        self._recovery[lsc.lsc_id].detector.forget(viewer_id)
        self.metrics.record_victims(
            victims=len(result.victims), recovered=result.recovered_victims
        )
        self._requested.pop(viewer_id, None)
        return result

    # -- churn and failure recovery ------------------------------------------------

    def fail_viewer(self, viewer_id: str, now: Optional[float] = None) -> RepairResult:
        """Handle an abrupt viewer departure (crash / silent disconnect).

        The subtrees the viewer strands are repaired incrementally, in
        place (:meth:`RecoveryManager.handle_abrupt_departure
        <repro.core.recovery.RecoveryManager.handle_abrupt_departure>`).
        """
        time = self.simulator.now if now is None else now
        lsc = self.gsc.lsc_of_connected_viewer(viewer_id)
        if lsc is None:
            return RepairResult(viewer_id=viewer_id, departed=False)
        result = self._recovery[lsc.lsc_id].handle_abrupt_departure(viewer_id, time)
        self.metrics.record_repair(
            repaired_p2p=result.repaired_p2p,
            repaired_cdn=result.repaired_cdn,
            lost=result.lost_subscriptions,
        )
        self._requested.pop(viewer_id, None)
        return result

    def heartbeat(self, viewer_id: str, now: Optional[float] = None) -> None:
        """Renew a connected viewer's heartbeat with its LSC."""
        time = self.simulator.now if now is None else now
        lsc = self.gsc.lsc_of_connected_viewer(viewer_id)
        if lsc is not None:
            self._recovery[lsc.lsc_id].detector.heartbeat(viewer_id, time)

    def renew_heartbeat(self, lsc_id: str, viewer_id: str, now: float) -> None:
        """Renew a heartbeat addressed to one specific LSC (delivery path).

        The simulated control plane addresses each heartbeat message to
        the LSC the viewer knew at send time; a message landing on a
        controller that no longer exists or no longer tracks the viewer
        (failover, repair, departure while in flight) is dropped, exactly
        like a datagram to a stale address.
        """
        manager = self._recovery.get(lsc_id)
        if manager is not None and viewer_id in manager.detector:
            manager.detector.heartbeat(viewer_id, now)

    def recovery_managers(self) -> Dict[str, RecoveryManager]:
        """Per-LSC recovery managers, keyed by LSC id (read-only view).

        Exposed for post-hoc invariant checks (``repro.scenarios``): a
        failure detector must never keep watching a viewer its LSC no
        longer serves, and vice versa.
        """
        return dict(self._recovery)

    def detect_failures(self, now: Optional[float] = None) -> List[RepairResult]:
        """Sweep every LSC's failure detector and repair timed-out viewers."""
        time = self.simulator.now if now is None else now
        results: List[RepairResult] = []
        for manager in self._recovery.values():
            for result in manager.sweep(time):
                if result.departed:
                    self.metrics.record_repair(
                        repaired_p2p=result.repaired_p2p,
                        repaired_cdn=result.repaired_cdn,
                        lost=result.lost_subscriptions,
                    )
                    self._requested.pop(result.viewer_id, None)
                results.append(result)
        return results

    # -- LSC failover ------------------------------------------------------------
    #
    # One failover, two halves (:func:`repro.core.recovery.evict_sessions`
    # and :func:`~repro.core.recovery.readmit_sessions`).  In one process
    # :meth:`fail_lsc` runs them back to back through
    # :func:`~repro.core.recovery.failover_lsc`; under the shard-parallel
    # engine the failed LSC and its target may live in different
    # processes, so the owning worker calls :meth:`evict_lsc`, the
    # sessions cross the barrier as records, and the target's worker calls
    # :meth:`absorb_failover`.  Either way the facade's own bookkeeping
    # (managers, request accounting, detector, metrics) is the same two
    # steps, :meth:`_lsc_evicted` and :meth:`_failover_absorbed`.

    def fail_lsc(self, lsc_id: str, now: Optional[float] = None) -> FailoverResult:
        """Fail over a Local Session Controller to its nearest surviving neighbor.

        The GSC reassigns the failed region's viewers (and region
        mappings) to the surviving LSC nearest the failed one; with no
        survivor every viewer of the region is lost.
        """
        time = self.simulator.now if now is None else now
        evicted = list(self.gsc.lsc(lsc_id).sessions)
        result = failover_lsc(self.gsc, lsc_id, time)
        self._lsc_evicted(lsc_id, evicted)
        self._failover_absorbed(result, evicted, time)
        return result

    def evict_lsc(self, lsc_id: str, now: float) -> List[Tuple[str, str, float]]:
        """Tear down a failed LSC locally; return its sessions to migrate.

        The owner-side half of a cross-shard failover.  The sessions come
        back as ``(viewer_id, view_id, join_time)`` records in the order
        the target re-admits them; hand them to :meth:`absorb_failover`
        (on the target's worker, or here with no target when no LSC
        survives anywhere).
        """
        sessions, _regions = evict_sessions(self.gsc, lsc_id)
        self._lsc_evicted(lsc_id, [session.viewer_id for session in sessions])
        return [
            (session.viewer_id, session.view.view_id, session.join_time)
            for session in sessions
        ]

    def absorb_failover(
        self,
        failed_lsc_id: str,
        target_lsc_id: Optional[str],
        sessions: Sequence[Tuple[str, str, float]],
        now: float,
        *,
        viewers_by_id: Mapping[str, Viewer],
        views_by_id: Mapping[str, GlobalView],
        regions: Sequence[str] = (),
    ) -> FailoverResult:
        """Re-admit the evicted sessions of a failed remote LSC here.

        The target-side half of a cross-shard failover: ``regions`` (the
        failed controller's service area) are repointed at the target and
        every migrated session goes through the target's normal join
        pipeline in eviction order.  With ``target_lsc_id=None`` nobody
        survives and the sessions are booked as lost.
        """
        admissions = [
            (viewers_by_id[viewer_id], views_by_id[view_id])
            for viewer_id, view_id, _join_time in sessions
        ]
        result = readmit_sessions(
            self.gsc, failed_lsc_id, target_lsc_id, admissions, now, regions
        )
        self._failover_absorbed(result, [record[0] for record in sessions], now)
        return result

    def _lsc_evicted(self, lsc_id: str, viewer_ids: Sequence[str]) -> None:
        """A failed LSC's managers and its viewers' requests leave the books."""
        self._adaptation.pop(lsc_id, None)
        self._recovery.pop(lsc_id, None)
        for viewer_id in viewer_ids:
            self._requested.pop(viewer_id, None)

    def _failover_absorbed(
        self, result: FailoverResult, viewer_ids: Sequence[str], now: float
    ) -> None:
        """Book one failover.

        The viewers the target re-admitted re-enter the request accounting
        and are watched by the target's failure detector from ``now``.
        """
        if result.target_lsc_id is not None:
            admitted = self.gsc.lsc(result.target_lsc_id).sessions
            detector = self._recovery[result.target_lsc_id].detector
            for viewer_id in viewer_ids:
                session = admitted.get(viewer_id)
                if session is not None:
                    self._requested[viewer_id] = len(session.view.stream_ids)
                    if viewer_id not in detector:
                        detector.watch(viewer_id, now)
        self.metrics.record_failover(
            migrated=result.migrated_viewers, lost=result.lost_viewers
        )

    def refresh_layers_from_observed(
        self,
        observed_delays: Mapping[Tuple[str, StreamId], float],
        now: Optional[float] = None,
    ) -> None:
        """Run the observed-delay ``kappa`` layer refresh on every LSC.

        ``observed_delays`` maps ``(viewer_id, stream_id)`` to the mean
        capture-to-gateway delay the data plane measured; each sample is
        routed to the LSC currently holding the viewer (samples whose
        viewer departed or re-homed in flight are ignored there).  The
        adjusted and dropped stream totals go to the session metrics.
        """
        time = self.simulator.now if now is None else now
        total_adjusted = 0
        total_dropped = 0
        by_lsc: Dict[str, Dict[Tuple[str, StreamId], float]] = {}
        for (viewer_id, stream_id), delay in observed_delays.items():
            lsc = self.gsc.lsc_of_connected_viewer(viewer_id)
            if lsc is None:
                continue
            by_lsc.setdefault(lsc.lsc_id, {})[(viewer_id, stream_id)] = delay
        for lsc_id, samples in by_lsc.items():
            manager = self._adaptation.get(lsc_id)
            if manager is None:
                continue
            adjusted, dropped = manager.refresh_layers_from_observed(samples, time)
            total_adjusted += adjusted
            total_dropped += sum(len(streams) for streams in dropped.values())
        if total_adjusted or total_dropped:
            self.metrics.record_observed_refresh(
                adjusted=total_adjusted, dropped=total_dropped
            )

    # -- measurement ------------------------------------------------------------------

    def snapshot(self) -> SystemSnapshot:
        """The instantaneous counts, in O(#LSCs + #trees).

        A subscription is one tree node, a CDN one also a child of the
        root: the counts are read off the trees, visiting no session.
        """
        active = via_cdn = connected = 0
        for lsc in self.gsc.lscs:
            connected += len(lsc.sessions)
            for group in lsc.groups.values():
                for tree in group.trees.values():
                    active += len(tree)
                    via_cdn += len(tree.root.children)
        return SystemSnapshot(
            num_viewers=connected,
            num_requests=len(self._requested),
            active_subscriptions=active,
            cdn_subscriptions=via_cdn,
            cdn_outbound_mbps=self.cdn.used_outbound_mbps,
            acceptance_ratio=self.metrics.acceptance_ratio,
        )

    def viewer_maps(self) -> Tuple[Dict[str, int], Dict[str, int]]:
        """``(max_layers, accepted_stream_counts)``, read off every session.

        ``max_layers`` maps each connected viewer with a stream to the
        largest delay layer among its accepted streams (Figure 14(a));
        ``accepted_stream_counts`` maps every viewer that ever requested
        to the streams it receives now, 0 when rejected (Figure 14(b)).
        Both are as large as the audience, so only those figures read them.
        """
        layers: Dict[str, int] = {}
        counts = dict.fromkeys(self._requested, 0)
        for lsc in self.gsc.lscs:
            for viewer_id, session in lsc.sessions.items():
                counts[viewer_id] = session.num_accepted_streams
                layer = session.max_layer
                if layer is not None:
                    layers[viewer_id] = layer
        return layers, counts

    def take_snapshot(self) -> SystemSnapshot:
        """Capture a snapshot and append it to the metrics history."""
        snapshot = self.snapshot()
        self.metrics.add_snapshot(snapshot)
        return snapshot

    # -- workload replay ----------------------------------------------------------------

    def run_workload(
        self,
        viewers: Sequence[Viewer],
        events: Sequence[ViewerEvent],
        views: Sequence[GlobalView],
        *,
        snapshot_every: Optional[int] = None,
        profile: bool = False,
        control_plane: str = "instant",
        heartbeat_period: Optional[float] = None,
        control_delay_scale: float = 1.0,
        data_plane: Optional[DataPlaneConfig] = None,
    ) -> SessionMetrics:
        """Replay a workload schedule through the system.

        With ``control_plane="instant"`` (the default, and the seed
        semantics) events are applied the moment they fire, in time order
        on the simulator clock.  With ``control_plane="simulated"`` every
        event instead becomes an in-flight control message delivered with
        latency drawn from the delay model
        (:class:`~repro.core.session.EventDrivenSession`): races become
        first-class outcomes, connected viewers emit heartbeat traffic
        every ``heartbeat_period`` seconds, and observed (simulated-clock)
        join and view-change latencies are recorded next to the analytic
        ones.  ``control_delay_scale`` multiplies every transit delay;
        ``0.0`` makes the simulated driver's placement and acceptance
        decisions match the instant driver exactly.

        When ``snapshot_every`` is given, a system snapshot is recorded
        after every that-many join events (and once at the end), which is
        how the scaling figures collect one curve from a single run.

        With ``profile`` set, wall-clock time is accumulated per phase
        (join / view_change / churn / metrics) into
        :attr:`SessionMetrics.phase_timings`; the replayed events and all
        recorded metrics are unaffected.

        With a ``data_plane`` configuration, both drivers append a frame
        *replay phase* on the event loop after the control-plane schedule
        drains: a synthetic TEEVE trace seeded by ``data_plane.seed`` is
        replayed through the final overlay by
        :class:`~repro.core.dataplane.SimulatedDataPlane`, and the
        resulting QoE report (startup delay, continuity, inter-stream
        skew, loss/late counters, observed-delay layer refreshes) is
        recorded into the session metrics.
        """
        if control_plane == "instant":
            driver = InstantDriver(
                self, viewers, views, snapshot_every=snapshot_every, profile=profile
            )
        elif control_plane == "simulated":
            driver = EventDrivenSession(
                self,
                viewers,
                views,
                snapshot_every=snapshot_every,
                profile=profile,
                heartbeat_period=(
                    DEFAULT_HEARTBEAT_PERIOD
                    if heartbeat_period is None
                    else heartbeat_period
                ),
                delay_scale=control_delay_scale,
            )
        else:
            raise ValueError(
                f"unknown control plane {control_plane!r}; "
                "expected 'instant' or 'simulated'"
            )
        if data_plane is not None:
            trace = TeeveSessionTrace(self.producers, rng=SeededRandom(data_plane.seed))
            driver.attach_data_plane(SimulatedDataPlane(self, trace, data_plane))
        return driver.run(events)

    # -- convenience -----------------------------------------------------------------------

    def lsc_of(self, viewer_id: str) -> Optional[LocalSessionController]:
        """The LSC a connected viewer belongs to (``None`` when not connected)."""
        return self.gsc.lsc_of_connected_viewer(viewer_id)

    def viewers_per_lsc(self) -> Dict[str, int]:
        """Connected viewer count of every registered LSC (by LSC id)."""
        return {lsc.lsc_id: len(lsc.sessions) for lsc in self.gsc.lscs}

    @property
    def connected_viewer_count(self) -> int:
        """Number of currently connected viewers."""
        return self.gsc.total_connected_viewers()
