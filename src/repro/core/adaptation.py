"""Run-time adaptation: view changes, departures, victims and layer refresh.

Section VI of the paper describes three adaptation mechanisms:

* **View change adaptation** -- a viewer switching views is served the new
  view's streams straight from the CDN so the change feels instantaneous,
  while a normal (background) join places it into the new view group's
  overlay; once that completes the CDN fast path is released.
* **Victim recovery** -- viewers orphaned by a departure or a view change
  keep their own subtrees and are first supported from the CDN at their
  current delay layer, then re-positioned with degree push-down.
* **Delay layer adaptation** -- viewers periodically re-evaluate stream
  delays; when the ``kappa`` bound is violated the stream-subscription
  process re-runs, and streams that exceed the maximum acceptable layer
  are dropped or re-provisioned from the CDN.

The periodic refresh,
:meth:`AdaptationManager.refresh_layers_from_observed`, is driven by
delays the simulated data plane actually measured at the gateways, not
by *structural* (overlay-position) delays -- queueing on a congested
forwarding bin shows up there long before any structural change would,
which is exactly the signal the paper's periodic re-subscription reacts
to.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Tuple

from repro.core.controllers import CDN_FIRST, JoinResult, LocalSessionController
from repro.model.stream import StreamId
from repro.model.view import GlobalView


@dataclass(frozen=True)
class ViewChangeResult:
    """Outcome of a view change."""

    viewer_id: str
    old_view_id: str
    new_view_id: str
    accepted: bool
    fast_path_delay: float
    join_result: JoinResult
    victims: Tuple[Tuple[StreamId, str], ...] = ()
    recovered_victims: int = 0


@dataclass(frozen=True)
class DepartureResult:
    """Outcome of a departure (or failure) of a connected viewer."""

    viewer_id: str
    departed: bool
    victims: Tuple[Tuple[StreamId, str], ...] = ()
    recovered_victims: int = 0
    lost_subscriptions: int = 0


class AdaptationManager:
    """Implements Section VI on top of a Local Session Controller."""

    def __init__(self, lsc: LocalSessionController) -> None:
        self.lsc = lsc

    # -- departures ------------------------------------------------------------

    def handle_departure(self, viewer_id: str, now: float = 0.0) -> DepartureResult:
        """Remove a viewer and recover the victims it leaves behind.

        Victims keep their subtrees and are supported from the CDN first,
        then re-positioned into any free P2P slot (Section VI).
        """
        torn_down = self.lsc.teardown_session(viewer_id)
        if torn_down is None:
            return DepartureResult(viewer_id=viewer_id, departed=False)
        group, victims = torn_down
        p2p, cdn, lost = self.lsc.repair_orphans(group, victims, now, CDN_FIRST)
        return DepartureResult(
            viewer_id=viewer_id,
            departed=True,
            victims=tuple(victims),
            recovered_victims=p2p + cdn,
            lost_subscriptions=lost,
        )

    # -- view changes ---------------------------------------------------------------

    def handle_view_change(
        self, viewer_id: str, new_view: GlobalView, now: float = 0.0
    ) -> ViewChangeResult:
        """Switch a connected viewer to a new view.

        The fast path (serving the new streams from the CDN) determines the
        user-perceived view-change latency; the background join determines
        the viewer's steady-state position.  In the simulation the steady
        state is applied directly and the fast-path latency is reported.
        """
        session = self.lsc.session_of(viewer_id)
        if session is None:
            raise KeyError(f"viewer {viewer_id} is not connected")
        old_view = session.view
        viewer = session.viewer
        fast_path_delay = self.lsc.view_change_fast_path_delay(viewer)

        departure = self.handle_departure(viewer_id, now)
        join_result = self.lsc.join(viewer, new_view, now)
        return ViewChangeResult(
            viewer_id=viewer_id,
            old_view_id=old_view.view_id,
            new_view_id=new_view.view_id,
            accepted=join_result.accepted,
            fast_path_delay=fast_path_delay,
            join_result=join_result,
            victims=departure.victims,
            recovered_victims=departure.recovered_victims,
        )

    # -- delay layer adaptation -------------------------------------------------------

    def refresh_layers_from_observed(
        self,
        observed_delays: Mapping[Tuple[str, StreamId], float],
        now: float = 0.0,
    ) -> Tuple[int, Dict[str, List[StreamId]]]:
        """Delay-layer refresh driven by *observed* capture-to-gateway delays.

        ``observed_delays`` maps ``(viewer_id, stream_id)`` to the mean
        end-to-end delay the data plane measured over the last window.  A
        stream observed beyond its assigned layer violates the ``kappa``
        bound the moment its lag exceeds the other streams' layers by more
        than ``kappa``; the refresh re-runs the paper's subscription
        arithmetic on the observed values:

        * streams lagging within the acceptable range are pushed down to
          their observed layer, and every sibling stream is pushed to at
          least ``anchor - kappa`` so the view stays synchronous,
        * a stream lagging beyond the *last acceptable layer* is first
          re-provisioned directly from the CDN (which resets it to
          Layer-0 and re-balances the view), and only when the CDN has no
          capacity left is it dropped and its resources released.  A
          stream *already* fed by the CDN is left in place: the CDN is
          the best provisioning the system has, so an over-limit
          observation there is transient congestion the playout
          accounting reports, not something a drop would improve.

        Samples for viewers or streams that are no longer subscribed
        (e.g. a view change raced the measurement window) are ignored.
        Children orphaned by a drop go through the normal victim
        recovery (CDN first, then any free P2P slot).
        Returns ``(adjusted_streams, dropped_per_viewer)``.
        """
        config = self.lsc.layer_config
        per_viewer: Dict[str, Dict[StreamId, float]] = {}
        for (viewer_id, stream_id), delay in observed_delays.items():
            per_viewer.setdefault(viewer_id, {})[stream_id] = delay

        adjusted = 0
        dropped_per_viewer: Dict[str, List[StreamId]] = {}
        for viewer_id, samples in per_viewer.items():
            session = self.lsc.session_of(viewer_id)
            if session is None:
                continue  # departed / switched LSC while the window ran
            group = self.lsc.groups.get(session.view.view_id)
            if group is None:
                continue
            observed_layers: Dict[StreamId, int] = {}
            lagging = False
            for stream_id, sub in session.subscriptions.items():
                sample = samples.get(stream_id)
                if sample is None:
                    observed_layers[stream_id] = sub.layer
                    continue
                layer = max(sub.layer, config.layer_for_delay(sample))
                observed_layers[stream_id] = layer
                if layer > sub.layer:
                    lagging = True
            if not lagging or not observed_layers:
                continue

            # Streams lagging past the last acceptable layer are handled
            # out of band (CDN re-provision or drop) and excluded from
            # the kappa anchor, exactly like the planner's prefix rule --
            # otherwise one hopeless stream would drag every sibling over
            # the limit.
            over_limit = [
                stream_id
                for stream_id, layer in observed_layers.items()
                if layer > config.max_layer_index
            ]
            kept_layers = {
                stream_id: layer
                for stream_id, layer in observed_layers.items()
                if layer <= config.max_layer_index
            }
            anchor = max(kept_layers.values()) if kept_layers else 0
            floor_layer = anchor - config.kappa
            reprovisioned = False
            dropped: List[StreamId] = []
            raised: List[StreamId] = []
            for stream_id in over_limit:
                # kappa violation past the last acceptable layer: CDN
                # re-provision keeps the stream (resetting it to Layer-0),
                # dropping it is the fallback when the CDN is exhausted.
                sub = session.subscriptions.get(stream_id)
                if sub is None or sub.via_cdn:
                    continue  # already on the best provisioning available
                if self.lsc._reprovision_from_cdn(group, session, stream_id):
                    reprovisioned = True
                    adjusted += 1
                else:
                    orphans = self.lsc._detach_stream(
                        group, viewer_id, stream_id, reattach_to_parent=True
                    )
                    session.drop_subscription(stream_id)
                    dropped.append(stream_id)
                    if orphans:
                        self.lsc.repair_orphans(
                            group,
                            [(stream_id, orphan) for orphan in orphans],
                            now,
                            CDN_FIRST,
                        )
            for stream_id, observed_layer in kept_layers.items():
                sub = session.subscriptions.get(stream_id)
                if sub is None:
                    continue
                target = max(observed_layer, floor_layer)
                if target > sub.layer:
                    sub.layer = target
                    sub.effective_delay = max(
                        sub.end_to_end_delay,
                        config.delay_for_layer(target, offset=config.tau),
                    )
                    adjusted += 1
                    raised.append(stream_id)
            if reprovisioned:
                # Re-balance the whole view around the reset stream(s);
                # anything the re-plan itself drops counts as dropped too.
                dropped.extend(self.lsc._run_view_sync(group, session, now))
            for stream_id in raised:
                # A raised effective delay may force forwarded children to
                # re-subscribe, exactly like a structural push-down.
                self.lsc._propagate_subscription(group, stream_id, viewer_id, now)
            if dropped:
                dropped_per_viewer[viewer_id] = dropped
        return adjusted, dropped_per_viewer
