"""Workload drivers: the instant control plane and the event-driven one.

:class:`~repro.core.telecast.TeleCastSystem` is a thin synchronous facade;
*how* a workload schedule flows through it is the job of the two drivers
in this module, which share one per-event dispatch table
(:data:`EVENT_DISPATCH`) and one ordering rule (:func:`event_sort_key`):

* :class:`InstantDriver` -- the seed semantics, pinned by the golden
  smoke-metrics test: every event is applied the moment it fires, in
  ``(time, viewer_id)`` order, with zero control-plane transit time.
  A shard worker of :mod:`repro.parallel` drives the same loop segment
  by segment (``apply`` / ``advance`` / ``finalize``).
* :class:`EventDrivenSession` -- the simulated control plane.  Each
  workload intent becomes a typed
  :class:`~repro.sim.transport.ControlMessage` put in flight on the
  :class:`~repro.sim.engine.Simulator` by a
  :class:`~repro.sim.transport.ControlChannel`; session state mutates
  only when the message is *delivered* at the controller.  Message
  arrival order -- not workload order -- decides races: two joins
  contending for the last P2P slot, a view change arriving after its
  viewer failed, a repair landing on a since-departed parent.  Connected
  viewers beat once per heartbeat period and a failure-detection sweep
  runs at the same interval, so a control path slower than the
  heartbeat timeout produces spurious repairs.  A beat is a ledger
  entry settled arithmetically, not an engine event.

With every transit delay forced to zero (``delay_scale=0.0``) deliveries
are processed in exactly the intent order, which is the instant driver's
application order -- so placement and acceptance decisions of the two
drivers coincide, a property the equivalence tests pin down.
"""

from __future__ import annotations

import math
import time as _time
from heapq import heappop, heappush
from functools import partial
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.core.recovery import DEFAULT_HEARTBEAT_PERIOD, RepairResult
from repro.model.cdn import CDN_NODE_ID
from repro.model.view import GlobalView
from repro.model.viewer import Viewer
from repro.sim.process import PeriodicProcess
from repro.sim.transport import (
    ControlChannel,
    ControlMessage,
    DepartNotice,
    FailureNotice,
    Heartbeat,
    JoinAck,
    JoinRequest,
    RepairNotify,
    ViewChange,
    ViewChangeAck,
)
from repro.traces.workload import ViewerEvent
from repro.util.validation import require_non_negative, require_positive

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (telecast imports us)
    from repro.core.telecast import TeleCastSystem

#: Workload event kind -> driver handler method.  Both drivers implement
#: every handler, so the replay loop and the race semantics cannot drift
#: apart event-kind by event-kind.
EVENT_DISPATCH: Dict[str, str] = {
    "join": "handle_join",
    "view_change": "handle_view_change",
    "depart": "handle_depart",
    "fail": "handle_fail",
    "lsc_fail": "handle_lsc_fail",
}

def event_sort_key(event: ViewerEvent):
    """Deterministic workload replay order: time, then viewer id.

    The sort is stable, so one viewer's same-timestamp events keep their
    causal list order (a churn schedule emits join before depart).
    """
    return (event.time, event.viewer_id)


def dispatch_event(driver, event: ViewerEvent) -> None:
    """Route one workload event to the driver's handler for its kind."""
    getattr(driver, EVENT_DISPATCH[event.kind])(event)


class _DriverBase:
    """State and helpers shared by both workload drivers."""

    def __init__(
        self,
        system: "TeleCastSystem",
        viewers: Sequence[Viewer],
        views: Sequence[GlobalView],
        *,
        snapshot_every: Optional[int] = None,
        profile: bool = False,
    ) -> None:
        self.system = system
        self.views = list(views)
        self.by_id = {viewer.viewer_id: viewer for viewer in viewers}
        if snapshot_every is not None:
            require_non_negative(snapshot_every, "snapshot_every")
        self.snapshot_every = snapshot_every
        self.joins_seen = 0
        self.data_plane = None
        self._clock = _time.perf_counter if profile else None

    def attach_data_plane(self, plane) -> None:
        """Attach a :class:`~repro.core.dataplane.SimulatedDataPlane`.

        Both drivers then run a frame *replay phase* on the event loop
        after the control-plane schedule drains (and before the final
        snapshot): the overlay built by the workload is exercised with
        simulated frame traffic and the QoE report lands in the metrics.
        """
        self.data_plane = plane

    def _replay_data_plane(self) -> None:
        if self.data_plane is None:
            return
        started = self._started()
        report = self.data_plane.run()
        self._timed("replay", started)
        self.system.metrics.record_qoe(report)

    def _started(self) -> float:
        return self._clock() if self._clock else 0.0

    def _timed(self, phase: str, started: float) -> None:
        if self._clock:
            self.system.metrics.add_phase_time(phase, self._clock() - started)

    def _view_for(self, view_index: int) -> GlobalView:
        return self.views[view_index % len(self.views)]

    def _snapshot(self) -> None:
        started = self._started()
        self.system.take_snapshot()
        self._timed("metrics", started)

    def _count_join(self) -> None:
        """Advance the snapshot cadence after one *applied* join."""
        self.joins_seen += 1
        if self.snapshot_every and self.joins_seen % self.snapshot_every == 0:
            self._snapshot()


class InstantDriver(_DriverBase):
    """Apply every workload event the moment it fires (seed semantics).

    :meth:`run` replays a whole schedule.  Inside a shard worker of the
    parallel engine (:mod:`repro.parallel`) the system holds only that
    worker's LSCs and the schedule arrives in *segments* separated by
    cross-shard barriers (LSC failovers), so the same loop is also
    available in resumable pieces: :meth:`apply` per segment,
    :meth:`advance` to a barrier, :meth:`finalize` once at the end.
    """

    def run(self, events: Sequence[ViewerEvent]):
        self.apply(sorted(events, key=event_sort_key))
        return self.finalize()

    def apply(self, events: Sequence[ViewerEvent]) -> None:
        """Replay one segment of events (already in replay order)."""
        system = self.system
        for event in events:
            system.simulator.run(until=event.time)
            dispatch_event(self, event)

    def advance(self, until: float) -> None:
        """Align the simulator clock to a cross-shard barrier.

        The min-timestamp side of the clock-merge rule: every shard
        aligns to the barrier's timestamp before it replays past the
        barrier (the failover target before it re-admits the sessions).
        """
        self.system.simulator.run(until=until)

    def finalize(self):
        """The run's epilogue (data-plane replay slot, final snapshot)."""
        self._replay_data_plane()
        self._snapshot()
        return self.system.metrics

    def handle_join(self, event: ViewerEvent) -> None:
        system = self.system
        if system.gsc.lsc_of_connected_viewer(event.viewer_id) is not None:
            # Duplicate join (e.g. a churn rejoin racing a base event):
            # skip the admission AND the snapshot counter, so the
            # ``snapshot_every`` cadence never drifts on skipped events.
            return
        started = self._started()
        system.join_viewer(
            self.by_id[event.viewer_id], self._view_for(event.view_index), event.time
        )
        self._timed("join", started)
        self._count_join()

    def handle_view_change(self, event: ViewerEvent) -> None:
        started = self._started()
        system = self.system
        if system.gsc.lsc_of_connected_viewer(event.viewer_id) is not None:
            system.change_view(
                event.viewer_id, self._view_for(event.view_index), event.time
            )
        self._timed("view_change", started)

    def handle_depart(self, event: ViewerEvent) -> None:
        started = self._started()
        self.system.depart_viewer(event.viewer_id, event.time)
        self._timed("churn", started)

    def handle_fail(self, event: ViewerEvent) -> None:
        started = self._started()
        self.system.fail_viewer(event.viewer_id, event.time)
        self._timed("churn", started)

    def handle_lsc_fail(self, event: ViewerEvent) -> None:
        # ``viewer_id`` carries the LSC node id.  A second crash of an
        # already-failed controller is a no-op, not an error.
        system = self.system
        if not system.gsc.has_lsc(event.viewer_id):
            return
        started = self._started()
        system.fail_lsc(event.viewer_id, event.time)
        self._timed("churn", started)


class EventDrivenSession(_DriverBase):
    """Drive a workload through simulated control messages with latency.

    Heartbeats are not scheduled on the simulator.  ``_next_beat`` holds
    the send time of each beating viewer's next beat, ``_beats_in_flight``
    (a heap by arrival) the beats sent but not yet landed, and
    :meth:`_settle` sends and lands what is due: it counts the beat on
    the channel and renews the addressed detector with the arrival time a
    ``Heartbeat`` event would have carried.  Nothing can tell the
    difference as long as a viewer is settled before anything reads or
    changes what its beats read or write:

    1. the failure sweep settles every viewer *strictly before* now, then
       detects (the sweeper is older than every beat: at a tie it fired
       first);
    2. :meth:`submit` settles its viewer *through* now (the caller has
       run the simulator through now);
    3. a delivery or batch intent that changes a viewer's connection or
       detector membership first settles it strictly before now (batch
       intents are older than every beat), so the LSC a viewer beats at
       is constant between two settles;
    4. a pause (through now) and the batch close (strictly before) hand
       the beats still in flight to the simulator as scheduled
       deliveries, so a drain ends when the last of them lands;
    5. readers of the channel's counters call :meth:`settle_heartbeats`.

    Parameters
    ----------
    system:
        The TeleCast facade whose controllers process the messages.
    viewers, views:
        The workload population and the candidate views.
    snapshot_every:
        Snapshot cadence in applied joins (same meaning as the instant
        driver's).
    profile:
        Accumulate per-phase wall-clock times into the metrics.
    heartbeat_period:
        Interval between two heartbeat messages of a connected viewer;
        also the failure-detection sweep interval.
    delay_scale:
        Multiplier on every control-message transit delay.  ``1.0`` uses
        the latency matrix as measured; ``0.0`` forces instant delivery
        (placement/acceptance then match :class:`InstantDriver` exactly).
    """

    def __init__(
        self,
        system: "TeleCastSystem",
        viewers: Sequence[Viewer],
        views: Sequence[GlobalView],
        *,
        snapshot_every: Optional[int] = None,
        profile: bool = False,
        heartbeat_period: float = DEFAULT_HEARTBEAT_PERIOD,
        delay_scale: float = 1.0,
    ) -> None:
        super().__init__(
            system, viewers, views, snapshot_every=snapshot_every, profile=profile
        )
        require_positive(heartbeat_period, "heartbeat_period")
        self.heartbeat_period = heartbeat_period
        self.channel = ControlChannel(
            system.simulator, system.delay_model, scale=delay_scale
        )
        self._closing = False
        # The heartbeat ledger: viewer -> send time of its next beat, and
        # a heap of (arrival, viewer, addressed LSC id, send time) in flight.
        self._next_beat: Dict[str, float] = {}
        self._beats_in_flight: List[Tuple[float, str, str, float]] = []
        self._sweeper: Optional[PeriodicProcess] = None
        # Oscillation support: departure notices still in flight, and the
        # rejoin requests that arrived before them (deferred, not dropped,
        # so a leave->rejoin racing its own DepartNotice applies the join
        # exactly once -- after the departure lands).
        self._pending_departs: Dict[str, int] = {}
        self._deferred_joins: Dict[str, ControlMessage] = {}

    # -- lifecycle -------------------------------------------------------------

    def run(self, events: Sequence[ViewerEvent]):
        """Replay the schedule as in-flight control traffic; return metrics.

        The whole workload is scheduled as future intents, then every
        intent and in-flight message drains.
        """
        sim = self.system.simulator
        ordered = sorted(events, key=event_sort_key)
        for event in ordered:
            sim.schedule_at(event.time, partial(dispatch_event, self, event))
        if ordered:
            self._sweeper = PeriodicProcess(sim, self.heartbeat_period, self._sweep)
            # After the last workload intent the session winds down: no new
            # beats, but everything already in flight is still delivered
            # (and can still race).
            sim.schedule_at(ordered[-1].time, self._close)
        else:
            self._closing = True
        sim.run()
        metrics = self.system.metrics
        # Stale deliveries were already counted one by one via _stale().
        metrics.record_control_traffic(
            sent=self.channel.sent, delivered=self.channel.delivered
        )
        # The data-plane replay phase runs after the control schedule has
        # drained: the overlay is final, the heartbeat plane is closed.
        self._replay_data_plane()
        self._snapshot()
        return metrics

    # -- long-lived service mode -------------------------------------------------

    def open_service(self) -> None:
        """Start (or resume) a long-lived session: sweeper on, no close.

        Used by :mod:`repro.service`: ops arrive one at a time via
        :meth:`submit` while the daemon paces the simulator against the
        wall clock, instead of a pre-baked schedule with a known end.
        Also the counterpart of :meth:`pause_service`: every connected
        viewer beats again one period from now -- on the new sweeper's
        exact phase, the sweep first.
        """
        self._closing = False
        if self._sweeper is None:
            self._sweeper = PeriodicProcess(
                self.system.simulator, self.heartbeat_period, self._sweep
            )
        for lsc in self.system.gsc.lscs:
            for viewer_id in lsc.sessions:
                self._start_heartbeats(viewer_id)

    def pause_service(self) -> None:
        """Suspend the periodic traffic of a live session.

        Stops the failure sweeper and every viewer's beats so the
        simulator queue can fully drain -- the precondition for running a
        data-plane replay (whose ``sim.run()`` would otherwise chase the
        self-rescheduling sweeper forever).  The ledger is settled
        through now and the beats still in flight become scheduled
        ``Heartbeat`` deliveries: like every other in-flight control
        message they stay queued and still deliver.  :meth:`open_service`
        resumes the periodic traffic afterwards.
        """
        self._wind_down(inclusive=True)

    def submit(self, event: ViewerEvent) -> None:
        """Inject one live op at the current simulation time.

        The op takes exactly the path a scheduled workload intent takes:
        it becomes a typed control message with in-flight latency, and
        session state mutates when the message is delivered.  The caller
        has run the simulator through now, so a beat due at this very
        instant went out before the op.
        """
        if event.kind == "lsc_fail":
            self.settle_heartbeats()
        else:
            self._settle(event.viewer_id, inclusive=True)
        dispatch_event(self, event)

    def _close(self) -> None:
        # Scheduled by ``run`` ahead of the sweeper and of every beat:
        # at a tie the close came first.
        self._wind_down(inclusive=False)

    def _wind_down(self, inclusive: bool) -> None:
        self._closing = True
        if self._sweeper is not None:
            self._sweeper.stop()
            self._sweeper = None
        self._settle(*self._next_beat, inclusive=inclusive)
        self._next_beat.clear()
        for arrival, viewer_id, lsc_id, sent_at in self._beats_in_flight:
            beat = Heartbeat(
                src=viewer_id, dst=lsc_id, sent_at=sent_at, viewer_id=viewer_id
            )
            self.channel.deliver_at(arrival, beat, self._deliver_heartbeat)
        self._beats_in_flight.clear()

    def _stale(self) -> None:
        """Count a message that arrived after its subject left the session."""
        self.system.metrics.record_stale_message()

    @property
    def _now(self) -> float:
        return self.system.simulator.now

    def _lsc_for_delay(self, viewer: Viewer):
        """The controller a viewer-side message is addressed to.

        The connected viewer's actual LSC when there is one, otherwise the
        region default -- only used to derive the transit delay; the
        delivery handler re-resolves the authoritative controller.
        """
        lsc = self.system.gsc.lsc_of_connected_viewer(viewer.viewer_id)
        return lsc if lsc is not None else self.system.gsc.lsc_for_viewer(viewer)

    # -- workload intents (viewer side) ----------------------------------------

    def handle_join(self, event: ViewerEvent) -> None:
        viewer = self.by_id[event.viewer_id]
        lsc = self.system.gsc.lsc_for_viewer(viewer)
        message = JoinRequest(
            src=viewer.viewer_id,
            dst=lsc.node_id,
            sent_at=self._now,
            viewer_id=viewer.viewer_id,
            view_index=event.view_index,
        )
        self.channel.send(
            message,
            self._deliver_join_request,
            delay=lsc.join_request_delay(viewer),
        )

    def handle_view_change(self, event: ViewerEvent) -> None:
        viewer = self.by_id[event.viewer_id]
        lsc = self._lsc_for_delay(viewer)
        message = ViewChange(
            src=viewer.viewer_id,
            dst=lsc.node_id,
            sent_at=self._now,
            viewer_id=viewer.viewer_id,
            view_index=event.view_index,
        )
        self.channel.send(
            message,
            self._deliver_view_change,
            delay=lsc.view_change_request_delay(viewer),
        )

    def handle_depart(self, event: ViewerEvent) -> None:
        # The viewer stops heartbeating the moment it decides to leave;
        # the notice still has to reach the controller.
        self._stop_heartbeats(event.viewer_id)
        viewer = self.by_id[event.viewer_id]
        lsc = self._lsc_for_delay(viewer)
        message = DepartNotice(
            src=viewer.viewer_id,
            dst=lsc.node_id,
            sent_at=self._now,
            viewer_id=viewer.viewer_id,
        )
        self._pending_departs[event.viewer_id] = (
            self._pending_departs.get(event.viewer_id, 0) + 1
        )
        self.channel.send(message, self._deliver_depart)

    def handle_fail(self, event: ViewerEvent) -> None:
        # A crash is silent on the viewer side: heartbeats simply cease.
        # What travels is the transport-level reset its parents observe.
        self._stop_heartbeats(event.viewer_id)
        viewer = self.by_id[event.viewer_id]
        lsc = self._lsc_for_delay(viewer)
        message = FailureNotice(
            src=viewer.viewer_id,
            dst=lsc.node_id,
            sent_at=self._now,
            viewer_id=viewer.viewer_id,
        )
        self._pending_departs[event.viewer_id] = (
            self._pending_departs.get(event.viewer_id, 0) + 1
        )
        self.channel.send(message, self._deliver_failure_notice)

    def handle_lsc_fail(self, event: ViewerEvent) -> None:
        """A controller crash is local, not a message: it applies at once.

        Viewers the failover could not migrate are torn down with their
        controller, so they stop beating here too (their next beat would
        find them gone, but a crashed region should not emit one more
        round of traffic first).
        """
        system = self.system
        if not system.gsc.has_lsc(event.viewer_id):
            return
        affected = list(system.gsc.lsc(event.viewer_id).sessions)
        self._settle(*affected)
        started = self._started()
        system.fail_lsc(event.viewer_id, self._now)
        self._timed("churn", started)
        for viewer_id in affected:
            if system.gsc.lsc_of_connected_viewer(viewer_id) is None:
                self._next_beat.pop(viewer_id, None)

    # -- message deliveries (controller side) -----------------------------------

    def _deliver_join_request(self, message: ControlMessage) -> None:
        self._settle(message.viewer_id)
        system = self.system
        if system.gsc.lsc_of_connected_viewer(message.viewer_id) is not None:
            if self._pending_departs.get(message.viewer_id):
                # The rejoin outran the viewer's own departure notice.
                # Dropping it would silently lose the rejoin; applying it
                # now would admit a viewer that is already connected
                # (double-counting the acceptance).  Defer it until the
                # departure lands; the latest rejoin wins.
                self._deferred_joins[message.viewer_id] = message
                return
            self._stale()  # duplicate join delivered late (e.g. churn rejoin)
            return
        started = self._started()
        viewer = self.by_id[message.viewer_id]
        lsc = system.gsc.lsc_for_viewer(viewer)
        result = system.join_viewer(viewer, self._view_for(message.view_index), self._now)
        self._timed("join", started)
        self._count_join()
        parents: tuple = ()
        if result.accepted:
            session = lsc.session_of(message.viewer_id)
            if session is not None:
                parents = tuple(
                    sub.parent_id
                    for sub in session.subscriptions.values()
                    if sub.parent_id != CDN_NODE_ID
                )
        ack = JoinAck(
            src=lsc.node_id,
            dst=message.viewer_id,
            sent_at=message.sent_at,
            viewer_id=message.viewer_id,
            accepted=result.accepted,
        )
        self.channel.send(
            ack,
            self._deliver_join_ack,
            delay=lsc.join_ack_delay(viewer, parents),
        )

    def _deliver_join_ack(self, message: ControlMessage) -> None:
        # The exchange completed either way; its observed latency is the
        # simulated-clock counterpart of the analytic join delay.
        self.system.metrics.record_observed_join(self._now - message.sent_at)
        if (
            message.accepted
            and not self._closing
            and self.system.gsc.lsc_of_connected_viewer(message.viewer_id) is not None
        ):
            self._start_heartbeats(message.viewer_id)

    def _deliver_view_change(self, message: ControlMessage) -> None:
        self._settle(message.viewer_id)
        system = self.system
        lsc = system.gsc.lsc_of_connected_viewer(message.viewer_id)
        if lsc is None:
            self._stale()  # the viewer failed/departed while this was in flight
            return
        started = self._started()
        viewer = self.by_id[message.viewer_id]
        result = system.change_view(
            message.viewer_id, self._view_for(message.view_index), self._now
        )
        self._timed("view_change", started)
        ack = ViewChangeAck(
            src=lsc.node_id,
            dst=message.viewer_id,
            sent_at=message.sent_at,
            viewer_id=message.viewer_id,
            accepted=result.accepted,
        )
        self.channel.send(
            ack,
            self._deliver_view_change_ack,
            delay=lsc.view_change_ack_delay(viewer),
        )

    def _deliver_view_change_ack(self, message: ControlMessage) -> None:
        self.system.metrics.record_observed_view_change(self._now - message.sent_at)

    def _deliver_depart(self, message: ControlMessage) -> None:
        self._settle(message.viewer_id)
        started = self._started()
        result = self.system.depart_viewer(message.viewer_id, self._now)
        self._timed("churn", started)
        if not result.departed:
            self._stale()
        self._departure_landed(message.viewer_id)

    def _deliver_failure_notice(self, message: ControlMessage) -> None:
        self._settle(message.viewer_id)
        started = self._started()
        result = self.system.fail_viewer(message.viewer_id, self._now)
        self._timed("churn", started)
        if not result.departed:
            self._stale()  # already repaired (e.g. a sweep won the race)
            self._departure_landed(message.viewer_id)
            return
        self._notify_repairs(result, self._now)
        self._departure_landed(message.viewer_id)

    def _departure_landed(self, viewer_id: str) -> None:
        """Account one delivered departure notice; release a deferred rejoin.

        The deferred join request is re-delivered only once the *last*
        in-flight departure of the viewer has landed, so an oscillating
        viewer is admitted exactly once per applied rejoin.
        """
        pending = self._pending_departs.get(viewer_id, 0)
        if pending > 1:
            self._pending_departs[viewer_id] = pending - 1
            return
        self._pending_departs.pop(viewer_id, None)
        deferred = self._deferred_joins.pop(viewer_id, None)
        if deferred is not None:
            self._deliver_join_request(deferred)

    def _deliver_repair_notify(self, message: ControlMessage) -> None:
        self.system.metrics.record_observed_repair(self._now - message.sent_at)

    def _deliver_heartbeat(self, message: ControlMessage) -> None:
        # A beat that was in flight when the session paused or closed.
        self.system.renew_heartbeat(message.dst, message.viewer_id, self._now)

    # -- the heartbeat ledger and failure sweeps --------------------------------

    def _start_heartbeats(self, viewer_id: str) -> None:
        if not self._closing and viewer_id not in self._next_beat:
            self._next_beat[viewer_id] = self._now + self.heartbeat_period

    def _stop_heartbeats(self, viewer_id: str) -> None:
        self._settle(viewer_id)
        self._next_beat.pop(viewer_id, None)

    def settle_heartbeats(self) -> None:
        """Settle every viewer through now: call it, with the simulator
        run through now, before reading the channel's counters."""
        self._settle(*self._next_beat, inclusive=True)

    def _settle(self, *viewer_ids: str, inclusive: bool = False) -> None:
        """Send these viewers' beats due strictly before now (through now
        when ``inclusive``), then land every beat in flight, whoever
        sent it, that has arrived by the same horizon."""
        due = math.nextafter(self._now, math.inf) if inclusive else self._now
        channel = self.channel
        flights = self._beats_in_flight
        for viewer_id in viewer_ids:
            beat = self._next_beat.get(viewer_id)
            if beat is None or beat >= due:
                continue
            lsc = self.system.gsc.lsc_of_connected_viewer(viewer_id)
            if lsc is None:
                # Swept away or torn down since its last beat: the viewer
                # beats again only once a new JoinAck reaches it.
                del self._next_beat[viewer_id]
                continue
            transit = channel.transit_delay(viewer_id, lsc.node_id) * channel.scale
            while beat < due:
                heappush(flights, (beat + transit, viewer_id, lsc.lsc_id, beat))
                channel.sent += 1
                beat += self.heartbeat_period
            self._next_beat[viewer_id] = beat
        while flights and flights[0][0] < due:
            arrival, viewer_id, lsc_id, _sent_at = heappop(flights)
            channel.delivered += 1
            # Addressed delivery: a beat landing on a controller that no
            # longer tracks the viewer is dropped like a stale datagram.
            self.system.renew_heartbeat(lsc_id, viewer_id, arrival)

    def _sweep(self) -> None:
        self._settle(*self._next_beat)
        started = self._started()
        now = self._now
        results = self.system.detect_failures(now)
        self._timed("churn", started)
        for result in results:
            if result.departed:
                self._next_beat.pop(result.viewer_id, None)
                self._notify_repairs(result, now)

    def _notify_repairs(self, result: RepairResult, detected_at: float) -> None:
        """Tell every still-connected orphan of a repair that it moved."""
        for orphan_id in dict.fromkeys(orphan for _stream, orphan in result.orphaned):
            lsc = self.system.gsc.lsc_of_connected_viewer(orphan_id)
            if lsc is None:
                continue
            message = RepairNotify(
                src=lsc.node_id,
                dst=orphan_id,
                sent_at=detected_at,
                viewer_id=orphan_id,
            )
            self.channel.send(message, self._deliver_repair_notify)
