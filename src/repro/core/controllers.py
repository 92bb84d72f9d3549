"""Session controllers: the GSC, the LSCs and the viewer join pipeline.

The Global Session Controller (GSC) manages the live session: it tracks
producer metadata (frame rates, latest frame numbers), assigns each viewer
to the Local Session Controller (LSC) of its geographic region, and serves
metadata queries.  Each LSC handles the join/leave/view-change requests of
the viewers in its cluster: bandwidth allocation, topology formation via
degree push-down and the stream-subscription (view synchronization)
process, in the order of Figure 5 of the paper.  Figure 5's routing
installation is not a step here: Table I is read off the tree nodes these
steps leave behind, each of which is also the viewer's subscription.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.bandwidth import allocate_inbound, allocate_outbound
from repro.core.group import ViewGroup
from repro.core.layering import DelayLayerConfig
from repro.core.state import ViewerSession
from repro.core.subscription import (
    apply_plan,
    needs_resubscription,
    plan_view_synchronization,
)
from repro.core.topology import InsertResult, TreeNode
from repro.model.cdn import CDN, CDN_NODE_ID
from repro.model.stream import Stream, StreamId
from repro.model.view import GlobalView
from repro.model.viewer import Viewer
from repro.net.latency import DelayModel

#: Node identifier of the Global Session Controller in the latency matrix.
GSC_NODE_ID = "GSC"


def lsc_node_id(index: int) -> str:
    """The id of the LSC with index ``index`` (``LSC-3``).

    One id names the controller everywhere: its GSC registry key, its
    latency-world node and the ``viewer_id`` of its ``lsc_fail`` event.
    This and :func:`lsc_index` are the one place an LSC id is formatted
    or parsed.
    """
    return f"LSC-{index}"


def lsc_index(lsc_id: str) -> int:
    """``LSC-3`` -> 3: the inverse of :func:`lsc_node_id`."""
    return int(lsc_id.rsplit("-", 1)[1])


def control_node_ids(num_lscs: int) -> Tuple[str, ...]:
    """The control plane's latency-world nodes: the GSC, every LSC, the CDN."""
    return (GSC_NODE_ID, *map(lsc_node_id, range(num_lscs)), CDN_NODE_ID)

#: Attempt orders of :meth:`LocalSessionController.repair_orphans`: whether
#: each attempt, in turn, goes to the CDN.  Graceful victims (Section VI)
#: are supported from the CDN first and fall back to a free P2P slot;
#: crash orphans try the overlay first and the CDN only as a last resort.
CDN_FIRST = (True, False)
P2P_FIRST = (False, True)


def _raise_effective_delay(node: TreeNode) -> None:
    """After a structural move: receive no earlier than the new position allows."""
    if node.end_to_end_delay > node.effective_delay:
        node.effective_delay = node.end_to_end_delay


def nearest_lsc(
    delay_model: DelayModel, node_id: str, lsc_ids: Iterable[str]
) -> Optional[str]:
    """The LSC (of ``lsc_ids``) with the smallest propagation delay to a node.

    The one nearest-survivor rule: the failover target of a failed
    controller and the fallback of a join whose region mapping went
    stale.  Ties are broken by LSC id, and delays are derived from seeds,
    so every process that evaluates it -- the GSC, each shard worker, the
    scenario build's ownership timeline -- resolves the same controller
    without a vote.  An LSC's latency-world node carries its id.
    """
    return min(
        lsc_ids,
        key=lambda lsc_id: (delay_model.propagation(node_id, lsc_id), lsc_id),
        default=None,
    )


@dataclass(frozen=True)
class JoinResult:
    """Outcome of a viewer join (or of the background join of a view change)."""

    viewer_id: str
    view_id: str
    accepted: bool
    requested_stream_ids: Tuple[StreamId, ...]
    accepted_stream_ids: Tuple[StreamId, ...] = ()
    cdn_stream_ids: Tuple[StreamId, ...] = ()
    dropped_by_sync: Tuple[StreamId, ...] = ()
    join_delay: float = 0.0

    @property
    def num_requested(self) -> int:
        """Number of streams in the view request."""
        return len(self.requested_stream_ids)

    @property
    def num_accepted(self) -> int:
        """Number of streams actually delivered to the viewer."""
        return len(self.accepted_stream_ids)


class GSCMonitor:
    """The GSC monitoring component: producer metadata and stream registry."""

    def __init__(self) -> None:
        self._streams: Dict[StreamId, Stream] = {}
        self._session_start: float = 0.0
        #: Single-entry memo of :meth:`latest_frame_numbers`: subscription
        #: runs triggered by one event all ask at the same timestamp.
        self._latest_cache: Optional[Tuple[float, Dict[StreamId, int]]] = None

    def register_stream(self, stream: Stream) -> None:
        """Record a producer stream's metadata (rate, bandwidth)."""
        self._streams[stream.stream_id] = stream
        self._latest_cache = None

    def stream(self, stream_id: StreamId) -> Stream:
        """Metadata of one stream."""
        return self._streams[stream_id]

    def latest_frame_number(self, stream_id: StreamId, now: float) -> int:
        """Latest frame number captured at the producer by time ``now``."""
        stream = self._streams[stream_id]
        elapsed = max(0.0, now - self._session_start)
        return int(elapsed * stream.frame_rate)

    def latest_frame_numbers(self, now: float) -> Dict[StreamId, int]:
        """Latest frame numbers of all registered streams.

        Memoized per timestamp: a join's subscription process (and every
        re-subscription it propagates down the trees) queries the same
        ``now``, so the dict is built once per event instead of once per
        affected viewer.  Callers must treat the result as read-only.
        """
        cached = self._latest_cache
        if cached is not None and cached[0] == now:
            return cached[1]
        latest = {sid: self.latest_frame_number(sid, now) for sid in self._streams}
        self._latest_cache = (now, latest)
        return latest


class LocalSessionController:
    """A region-local controller managing joins, leaves and overlay state."""

    def __init__(
        self,
        lsc_id: str,
        cdn: CDN,
        delay_model: DelayModel,
        layer_config: DelayLayerConfig,
        monitor: GSCMonitor,
    ) -> None:
        self.lsc_id = lsc_id
        self.node_id = lsc_id
        self.cdn = cdn
        self.delay_model = delay_model
        self.layer_config = layer_config
        self.monitor = monitor
        self.groups: Dict[str, ViewGroup] = {}
        self.sessions: Dict[str, ViewerSession] = {}

    # -- group management ----------------------------------------------------

    def group_for(self, view: GlobalView) -> ViewGroup:
        """Return (creating on demand) the view group of a global view."""
        if view.view_id not in self.groups:
            self.groups[view.view_id] = ViewGroup(
                view=view,
                delay_model=self.delay_model,
                d_max=self.layer_config.d_max,
            )
        return self.groups[view.view_id]

    def session_of(self, viewer_id: str) -> Optional[ViewerSession]:
        """Session of a connected viewer, ``None`` if not connected here."""
        return self.sessions.get(viewer_id)

    # -- join ------------------------------------------------------------------

    def join(self, viewer: Viewer, view: GlobalView, now: float = 0.0) -> JoinResult:
        """Handle a viewer join: bandwidth allocation, topology, subscription.

        Implements the pipeline of Figure 5: the LSC allocates inbound then
        outbound bandwidth, forms the per-stream overlay topology with
        degree push-down (falling back to the CDN), and finally runs the
        stream subscription process that bounds the inter-stream skew.
        """
        if viewer.viewer_id in self.sessions:
            raise ValueError(f"viewer {viewer.viewer_id} is already connected")
        requested = view.stream_ids
        group = self.group_for(view)

        inbound = allocate_inbound(
            view, viewer.inbound_capacity_mbps, group.supply_map(self.cdn)
        )
        if not inbound.request_accepted:
            return JoinResult(
                viewer_id=viewer.viewer_id,
                view_id=view.view_id,
                accepted=False,
                requested_stream_ids=requested,
                join_delay=self._join_delay(viewer, parents=()),
            )

        outbound = allocate_outbound(inbound.accepted, viewer.outbound_capacity_mbps)
        session = ViewerSession(
            viewer=viewer,
            view=view,
            lsc_id=self.lsc_id,
            join_time=now,
        )

        displaced: List[Tuple[StreamId, str]] = []
        for entry in inbound.accepted:
            stream = entry.stream
            stream_id = stream.stream_id
            result = self._place_stream(
                group, session, stream, outbound.out_degree.get(stream_id, 0)
            )
            if result is not None and result.displaced_node_id is not None:
                displaced.append((stream_id, result.displaced_node_id))

        if not view.must_have_stream_ids <= session.subscriptions.keys():
            self._rollback(group, session)
            return JoinResult(
                viewer_id=viewer.viewer_id,
                view_id=view.view_id,
                accepted=False,
                requested_stream_ids=requested,
                join_delay=self._join_delay(viewer, parents=()),
            )

        for stream_id, displaced_id in displaced:
            _raise_effective_delay(group.tree(stream_id).node(displaced_id))

        dropped = self._run_view_sync(group, session, now)

        group.add_session(session)
        self.sessions[viewer.viewer_id] = session

        for stream_id, displaced_id in displaced:
            self._propagate_subscription(group, stream_id, displaced_id, now)

        parents = tuple(
            sub.parent_id
            for sub in session.subscriptions.values()
            if sub.parent_id != CDN_NODE_ID
        )
        return JoinResult(
            viewer_id=viewer.viewer_id,
            view_id=view.view_id,
            accepted=True,
            requested_stream_ids=requested,
            accepted_stream_ids=tuple(session.subscriptions),
            cdn_stream_ids=tuple(
                sid for sid, sub in session.subscriptions.items() if sub.via_cdn
            ),
            dropped_by_sync=tuple(dropped),
            join_delay=self._join_delay(viewer, parents=parents),
        )

    def _place_stream(
        self,
        group: ViewGroup,
        session: ViewerSession,
        stream: Stream,
        out_degree: int,
    ) -> Optional[InsertResult]:
        """Insert one accepted stream of a joining viewer into its overlay tree."""
        tree = group.tree(stream.stream_id)
        allow_cdn = self.cdn.can_serve(stream.bandwidth_mbps)
        viewer = session.viewer
        result = tree.insert(
            viewer.viewer_id,
            out_degree,
            viewer.outbound_capacity_mbps,
            allow_cdn=allow_cdn,
        )
        if not result.accepted:
            return None
        if result.via_cdn and result.displaced_node_id is None:
            # A fresh CDN subscription; when a CDN-fed node was displaced the
            # existing CDN slot simply transfers to the joining viewer.
            if not self.cdn.allocate(stream.stream_id, stream.bandwidth_mbps):
                tree.remove(viewer.viewer_id)
                return None
        node = tree.node(viewer.viewer_id)
        # Layer 0 until the subscription process decides; the effective
        # delay is the structural one until then.
        node.effective_delay = node.end_to_end_delay
        session.subscriptions[stream.stream_id] = node
        return result

    # -- view synchronization --------------------------------------------------

    def _run_view_sync(
        self, group: ViewGroup, session: ViewerSession, now: float
    ) -> List[StreamId]:
        """Run the stream-subscription process for one viewer.

        Streams whose achievable layer exceeds the maximum acceptable layer
        are first re-provisioned directly from the CDN (Section VI's delay
        layer adaptation); only when the CDN cannot serve them either are
        they dropped and their resources released.
        """
        plan = self._plan_for(group, session)
        if plan.dropped_stream_ids:
            reprovisioned = False
            for stream_id in plan.dropped_stream_ids:
                if self._reprovision_from_cdn(group, session, stream_id):
                    reprovisioned = True
            if reprovisioned:
                plan = self._plan_for(group, session)
        dropped = apply_plan(
            self.layer_config,
            self.delay_model,
            session,
            plan,
            latest_frame_numbers=self.monitor.latest_frame_numbers(now),
        )
        for stream_id in dropped:
            self._detach_stream(group, session.viewer_id, stream_id, reattach_to_parent=True)
        return dropped

    def _plan_for(self, group: ViewGroup, session: ViewerSession):
        """Compute the view-synchronization plan from current parent delays.

        Only viewer-fed streams are resolved: the plan puts a CDN-fed
        stream in Layer-0 and keeps an orphaned one at its layer without
        reading a parent's delay.  A parent that is a member subscribed
        to the stream is read here, as
        :meth:`ViewGroup.parent_effective_delay
        <repro.core.group.ViewGroup.parent_effective_delay>` reads it; any
        other parent is left to that method.
        """
        members = group.sessions
        parent_delays = {}
        for sid, sub in session.subscriptions.items():
            parent_id = sub.parent_id
            if parent_id == CDN_NODE_ID or parent_id is None:
                continue
            parent = members.get(parent_id)
            held = parent.subscriptions.get(sid) if parent is not None else None
            if held is None:
                parent_delays[sid] = group.parent_effective_delay(sid, parent_id)
            else:
                delay = held.effective_delay
                parent_delays[sid] = delay if delay > 0 else held.end_to_end_delay
        return plan_view_synchronization(
            self.layer_config,
            self.delay_model,
            session.viewer_id,
            session.subscriptions,
            parent_delays,
        )

    def _reprovision_from_cdn(
        self, group: ViewGroup, session: ViewerSession, stream_id: StreamId
    ) -> bool:
        """Move a stream subscription of a viewer onto the CDN, keeping its subtree.

        Used when the achievable delay layer through the current (viewer)
        parent exceeds the maximum acceptable layer.  Returns ``False`` when
        the parent already is the CDN or the CDN has no capacity left.
        """
        node = session.subscriptions.get(stream_id)
        if node is None or node.via_cdn:
            return False
        tree = group.tree(stream_id)
        stream = tree.stream
        if not self.cdn.allocate(stream_id, stream.bandwidth_mbps):
            return False
        if not tree.reparent(session.viewer_id, CDN_NODE_ID).accepted:
            self.cdn.release(stream_id, stream.bandwidth_mbps)
            return False
        node.effective_delay = node.end_to_end_delay
        node.layer = 0
        return True

    def _propagate_subscription(
        self, group: ViewGroup, stream_id: StreamId, start_viewer_id: str, now: float
    ) -> None:
        """Propagate delay changes down a stream tree after a push-down.

        Walks the subtree rooted at ``start_viewer_id`` in breadth-first
        order; every affected viewer re-runs its own subscription process
        when its structural delay now exceeds its effective one (tested
        first: it reads no delay) or the parent's new effective delay can
        no longer support its current layer.
        """
        tree = group.tree(stream_id)
        if start_viewer_id not in tree:
            return
        sessions = self.sessions
        queue: Deque[str] = deque((start_viewer_id,))
        while queue:
            current_id = queue.popleft()
            current_session = sessions.get(current_id)
            if current_session is None:
                continue
            node = current_session.subscriptions.get(stream_id)
            if node is None:
                continue
            queue.extend(node.children)
            if node.end_to_end_delay > node.effective_delay or needs_resubscription(
                self.layer_config, self.delay_model, current_session, stream_id,
                group.parent_effective_delay(stream_id, node.parent_id),
            ):
                self._run_view_sync(group, current_session, now)

    # -- teardown helpers --------------------------------------------------------

    def _detach_stream(
        self,
        group: ViewGroup,
        viewer_id: str,
        stream_id: StreamId,
        *,
        reattach_to_parent: bool,
    ) -> List[str]:
        """Remove a viewer from one stream tree, releasing CDN bandwidth.

        Returns the orphaned children (victims).  With ``reattach_to_parent``
        the orphans are re-attached under the removed viewer's former parent
        when it has free capacity (used for rollbacks and sync drops, where
        the hole should be repaired in place); otherwise they are left for
        the adaptation component to recover via the CDN.
        """
        tree = group.tree(stream_id)
        if viewer_id not in tree:
            return []
        node = tree.node(viewer_id)
        former_parent = node.parent_id
        was_cdn_fed = former_parent == CDN_NODE_ID
        removal = tree.remove(viewer_id)
        if was_cdn_fed and removal.removed:
            self.cdn.release(stream_id, tree.stream.bandwidth_mbps)
        orphans = list(removal.orphaned_children)
        if reattach_to_parent and former_parent is not None:
            remaining: List[str] = []
            for orphan in orphans:
                target = former_parent
                if target == CDN_NODE_ID:
                    if not self.cdn.allocate(stream_id, tree.stream.bandwidth_mbps):
                        remaining.append(orphan)
                        continue
                result = tree.reattach_orphan(orphan, target)
                if not result.accepted:
                    if target == CDN_NODE_ID:
                        self.cdn.release(stream_id, tree.stream.bandwidth_mbps)
                    remaining.append(orphan)
                else:
                    _raise_effective_delay(tree.node(orphan))
            orphans = remaining
        return orphans

    def teardown_session(
        self, viewer_id: str
    ) -> Optional[Tuple[ViewGroup, List[Tuple[StreamId, str]]]]:
        """Disconnect a viewer: the one way a session leaves this controller.

        Every stream is detached without in-place re-attachment, the
        viewer leaves its view group and the session is dropped.  Returns
        the group and the ``(stream, orphan)`` pairs the viewer leaves
        behind -- the input of :meth:`repair_orphans` -- or ``None`` when
        the viewer is not connected here.  Graceful leaves, crashes,
        detector sweeps and view changes all disconnect through here.
        """
        session = self.sessions.get(viewer_id)
        if session is None:
            return None
        group = self.groups[session.view.view_id]
        orphans: List[Tuple[StreamId, str]] = []
        for stream_id in list(session.subscriptions):
            orphans.extend(
                (stream_id, orphan)
                for orphan in self._detach_stream(
                    group, viewer_id, stream_id, reattach_to_parent=False
                )
            )
        group.remove_session(viewer_id)
        del self.sessions[viewer_id]
        return group, orphans

    def repair_orphans(
        self,
        group: ViewGroup,
        orphans: Sequence[Tuple[StreamId, str]],
        now: float,
        order: Tuple[bool, bool],
    ) -> Tuple[int, int, int]:
        """Re-parent orphans in place; returns ``(p2p, cdn, lost)`` counts.

        Each orphan keeps its subtree and is offered, in ``order``
        (:data:`CDN_FIRST` or :data:`P2P_FIRST`), a direct CDN
        subscription and the free forwarding slot the degree push-down
        level order finds (:meth:`StreamTree.find_repair_parent
        <repro.core.topology.StreamTree.find_repair_parent>`).  After a
        successful re-parent the orphan's effective delay is raised to
        its new end-to-end delay and the view-synchronization process
        propagates down its subtree, so delay layers stay acceptable and
        within ``kappa``.
        An orphan neither attempt can place loses the subscription and
        its own children become orphans of the same stream.
        """
        repaired_p2p = repaired_cdn = lost = 0
        cdn = self.cdn
        queue = list(orphans)
        while queue:
            stream_id, orphan_id = queue.pop(0)
            orphan_session = self.sessions.get(orphan_id)
            tree = group.tree(stream_id)
            if orphan_session is None or orphan_id not in tree:
                continue
            if tree.node(orphan_id).parent_id is not None:
                continue  # queued twice: an earlier entry re-parented it
            bandwidth = tree.stream.bandwidth_mbps
            attached_to: Optional[str] = None
            for via_cdn in order:
                if not via_cdn:
                    parent_id = tree.find_repair_parent(orphan_id)
                    if parent_id is None:
                        continue
                elif cdn.allocate(stream_id, bandwidth):
                    parent_id = CDN_NODE_ID
                else:
                    continue
                if tree.reattach_orphan(orphan_id, parent_id).accepted:
                    attached_to = parent_id
                    break
                if via_cdn:
                    cdn.release(stream_id, bandwidth)
            if attached_to is None:
                lost += 1
                children = self._detach_stream(
                    group, orphan_id, stream_id, reattach_to_parent=False
                )
                orphan_session.drop_subscription(stream_id)
                queue.extend((stream_id, child) for child in children)
                continue
            if attached_to == CDN_NODE_ID:
                repaired_cdn += 1
            else:
                repaired_p2p += 1
            _raise_effective_delay(tree.node(orphan_id))
            self._propagate_subscription(group, stream_id, orphan_id, now)
        return repaired_p2p, repaired_cdn, lost

    def _rollback(self, group: ViewGroup, session: ViewerSession) -> None:
        """Undo all tree placements of a join that is ultimately rejected."""
        for stream_id in list(session.subscriptions):
            self._detach_stream(
                group, session.viewer_id, stream_id, reattach_to_parent=True
            )
            session.subscriptions.pop(stream_id, None)

    # -- control-plane delay model -----------------------------------------------
    #
    # The join protocol of Figure 5 splits into a *request* leg (everything
    # up to the LSC holding the view request and running admission) and an
    # *ack* leg (overlay fan-out plus the stream-subscription exchange with
    # the parents).  The analytic estimate `_join_delay` is the sum of
    # both; the simulated control plane schedules each leg as an in-flight
    # :class:`~repro.sim.transport.ControlMessage` instead.

    def join_request_delay(self, viewer: Viewer) -> float:
        """Transit of the join request leg (viewer -> GSC -> LSC, Figure 5).

        Registration with the GSC, forwarding to the LSC, and the view
        request exchange between the LSC and the viewer, including the two
        controller processing steps.
        """
        viewer_id = viewer.viewer_id
        return self._request_delay(
            viewer_id, self.delay_model.propagation(self.node_id, viewer_id)
        )

    def _request_delay(self, viewer_id: str, lsc_hop: float) -> float:
        """The request leg given the (symmetric) LSC <-> viewer delay."""
        dm = self.delay_model
        delay = dm.rtt(viewer_id, GSC_NODE_ID)
        delay += dm.propagation(GSC_NODE_ID, self.node_id)
        delay += lsc_hop  # view request, LSC -> viewer
        delay += lsc_hop  # and the viewer's reply
        delay += 2.0 * dm.control_processing_delay
        return delay

    def join_ack_delay(self, viewer: Viewer, parents: Sequence[str]) -> float:
        """Transit of the join ack leg (LSC -> viewer, plus parent exchange).

        Overlay information fan-out to the viewer and its parents, then the
        stream-subscription exchange between the viewer and its slowest
        parent.
        """
        dm = self.delay_model
        viewer_id = viewer.viewer_id
        fanout = dm.propagation(self.node_id, viewer_id)
        for parent in parents:
            fanout = max(fanout, dm.propagation(self.node_id, parent))
        subscription = 0.0
        for parent in parents:
            subscription = max(subscription, dm.rtt(viewer_id, parent))
        return fanout + subscription + dm.control_processing_delay

    def _join_delay(self, viewer: Viewer, parents: Sequence[str]) -> float:
        """Estimate the wall-clock duration of the join protocol (Figure 5).

        Registration with the GSC, forwarding to the LSC, the view request,
        resource allocation and topology formation at the LSC, overlay
        information fan-out, and the stream-subscription exchange with the
        parents -- i.e. the request leg plus the ack leg.  The ack
        components are summed inline rather than via :meth:`join_ack_delay`
        because the golden smoke test pins this value byte-for-byte and
        ``a + (b + c)`` differs from ``(a + b) + c`` in the last float ulp;
        ``tests/test_core_controllers.py`` asserts the two stay consistent.
        """
        dm = self.delay_model
        viewer_id = viewer.viewer_id
        # Both legs cross the same LSC <-> viewer hop: looked up once.
        lsc_hop = dm.propagation(self.node_id, viewer_id)
        delay = self._request_delay(viewer_id, lsc_hop)
        fanout = lsc_hop
        for parent in parents:
            fanout = max(fanout, dm.propagation(self.node_id, parent))
        delay += fanout
        subscription = 0.0
        for parent in parents:
            subscription = max(subscription, dm.rtt(viewer_id, parent))
        delay += subscription + dm.control_processing_delay
        return delay

    def view_change_request_delay(self, viewer: Viewer) -> float:
        """Transit of the view-change request leg (viewer -> LSC)."""
        dm = self.delay_model
        return (
            dm.propagation(viewer.viewer_id, self.node_id)
            + dm.control_processing_delay
        )

    def view_change_ack_delay(self, viewer: Viewer) -> float:
        """Transit of the view-change ack leg (LSC -> viewer, CDN fast path)."""
        dm = self.delay_model
        return dm.propagation(self.node_id, viewer.viewer_id) + dm.propagation(
            CDN_NODE_ID, viewer.viewer_id
        )

    def view_change_fast_path_delay(self, viewer: Viewer) -> float:
        """Delay until a view change is served (directly from the CDN)."""
        dm = self.delay_model
        return (
            dm.rtt(viewer.viewer_id, self.node_id)
            + dm.control_processing_delay
            + dm.propagation(CDN_NODE_ID, viewer.viewer_id)
        )

    # -- aggregate accounting -------------------------------------------------------

    def connected_viewers(self) -> List[str]:
        """All viewers currently connected through this LSC."""
        return list(self.sessions)


class GlobalSessionController:
    """The GSC: LSC registry, viewer-to-LSC assignment and monitoring."""

    def __init__(
        self,
        cdn: CDN,
        delay_model: DelayModel,
        layer_config: DelayLayerConfig,
    ) -> None:
        self.cdn = cdn
        self.delay_model = delay_model
        self.layer_config = layer_config
        self.node_id = GSC_NODE_ID
        self.monitor = GSCMonitor()
        self._lscs: Dict[str, LocalSessionController] = {}
        self._region_to_lsc: Dict[str, str] = {}

    def add_lsc(self, lsc_id: str, *, region_name: str = "") -> LocalSessionController:
        """Create and register an LSC for a region (idempotent per id)."""
        if lsc_id not in self._lscs:
            self._lscs[lsc_id] = LocalSessionController(
                lsc_id=lsc_id,
                cdn=self.cdn,
                delay_model=self.delay_model,
                layer_config=self.layer_config,
                monitor=self.monitor,
            )
        if region_name:
            self._region_to_lsc[region_name] = lsc_id
        return self._lscs[lsc_id]

    @property
    def lscs(self) -> List[LocalSessionController]:
        """All registered LSCs."""
        return list(self._lscs.values())

    def lsc(self, lsc_id: str) -> LocalSessionController:
        """A specific LSC by id."""
        return self._lscs[lsc_id]

    def has_lsc(self, lsc_id: str) -> bool:
        """Whether an LSC with this id is (still) registered."""
        return lsc_id in self._lscs

    def remove_lsc(self, lsc_id: str) -> LocalSessionController:
        """Unregister an LSC (controller failure) and return its last state.

        Region mappings pointing at the removed LSC are left in place:
        the failover path (:func:`repro.core.recovery.evict_sessions`)
        collects them with :meth:`reassign_regions` for the target to
        take over.  Until then :meth:`lsc_for_viewer` treats such mappings
        as stale and falls back to the nearest surviving LSC instead of
        the dead id.
        """
        if lsc_id not in self._lscs:
            raise KeyError(f"unknown LSC {lsc_id!r}")
        return self._lscs.pop(lsc_id)

    def reassign_regions(self, old_lsc_id: str, new_lsc_id: Optional[str]) -> Tuple[str, ...]:
        """Repoint every region mapped to ``old_lsc_id``.

        With ``new_lsc_id=None`` the mappings are dropped and affected
        regions fall back to the default LSC choice.  Returns the region
        names that were touched.
        """
        affected = tuple(
            sorted(
                region
                for region, lsc_id in self._region_to_lsc.items()
                if lsc_id == old_lsc_id
            )
        )
        for region in affected:
            if new_lsc_id is None:
                del self._region_to_lsc[region]
            else:
                self._region_to_lsc[region] = new_lsc_id
        return affected

    def lsc_for_viewer(self, viewer: Viewer) -> LocalSessionController:
        """Pick the LSC of the viewer's region (first LSC when unmapped).

        A region mapping left behind by a removed LSC is *stale*: instead
        of resolving to the dead id, the join falls back to the nearest
        surviving LSC (by propagation delay from the viewer) and the
        mapping is healed so subsequent joins of the region resolve
        directly.
        """
        if not self._lscs:
            raise RuntimeError("no LSC registered with the GSC")
        lsc_id = self._region_to_lsc.get(viewer.region_name)
        if lsc_id is None:
            return next(iter(self._lscs.values()))
        if lsc_id not in self._lscs:
            lsc_id = nearest_lsc(self.delay_model, viewer.node_id, self._lscs)
            self._region_to_lsc[viewer.region_name] = lsc_id
        return self._lscs[lsc_id]

    def lsc_of_connected_viewer(self, viewer_id: str) -> Optional[LocalSessionController]:
        """Find the LSC a connected viewer belongs to, if any."""
        for controller in self._lscs.values():
            if controller.session_of(viewer_id) is not None:
                return controller
        return None

    def register_producer_streams(self, streams: Sequence[Stream]) -> None:
        """Record producer stream metadata and ingest the streams into the CDN."""
        for stream in streams:
            self.monitor.register_stream(stream)
            self.cdn.ingest_stream(stream.stream_id, stream.bandwidth_mbps)

    def total_connected_viewers(self) -> int:
        """Number of connected viewers across all LSCs."""
        return sum(len(lsc.sessions) for lsc in self._lscs.values())
