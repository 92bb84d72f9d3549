"""View groups: the per-view unit of P2P sharing (Section III-B).

4D TeleCast groups viewers by the view they request; overlay trees are
formed separately inside each group so that popular views accumulate
enough forwarding capacity ("seeds") to support their own audience and are
not interfered with by unpopular views.  A :class:`ViewGroup` owns one
:class:`~repro.core.topology.StreamTree` per stream of its view and the
set of member sessions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.routing_table import SessionRoutingTable
from repro.core.state import ViewerSession
from repro.core.topology import StreamTree
from repro.model.cdn import CDN, CDN_NODE_ID
from repro.model.stream import Stream, StreamId
from repro.model.view import GlobalView
from repro.net.latency import DelayModel


@dataclass
class ViewGroup:
    """All state shared by viewers watching the same global view."""

    view: GlobalView
    delay_model: DelayModel
    d_max: float
    trees: Dict[StreamId, StreamTree] = field(default_factory=dict)
    sessions: Dict[str, ViewerSession] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for stream in self.view.streams:
            if stream.stream_id not in self.trees:
                self.trees[stream.stream_id] = StreamTree(
                    stream, self.delay_model, d_max=self.d_max
                )

    @property
    def view_id(self) -> str:
        """Identifier of the group's view."""
        return self.view.view_id

    def __len__(self) -> int:
        return len(self.sessions)

    def tree(self, stream_id: StreamId) -> StreamTree:
        """The overlay tree of one of the view's streams."""
        return self.trees[stream_id]

    def stream(self, stream_id: StreamId) -> Stream:
        """The stream object for one of the view's streams."""
        return self.trees[stream_id].stream

    def add_session(self, session: ViewerSession) -> None:
        """Register a member session."""
        self.sessions[session.viewer_id] = session

    def remove_session(self, viewer_id: str) -> Optional[ViewerSession]:
        """Unregister a member session (the caller tears down tree state)."""
        return self.sessions.pop(viewer_id, None)

    def session(self, viewer_id: str) -> ViewerSession:
        """Return a member session; raises ``KeyError`` when absent."""
        return self.sessions[viewer_id]

    def supply_map(self, cdn: CDN) -> Dict[StreamId, float]:
        """``abw_vm_Si`` for every stream of the view.

        A stream's supply is the free forwarding bandwidth inside the
        group's tree for it plus whatever the CDN still has available; the
        CDN's availability -- the same for all of them -- is read once.
        """
        cdn_available = cdn.available_outbound_mbps
        return {
            stream_id: tree.free_p2p_bandwidth_mbps() + cdn_available
            for stream_id, tree in self.trees.items()
        }

    def parent_effective_delay(self, stream_id: StreamId, parent_id: str) -> float:
        """Effective end-to-end delay of a stream at a (viewer) parent.

        Falls back to the structural tree delay when the parent has not yet
        run its own subscription process, and to the CDN delay for the CDN.
        """
        if parent_id == CDN_NODE_ID:
            return self.delay_model.cdn_end_to_end()
        parent_session = self.sessions.get(parent_id)
        if parent_session is not None:
            node = parent_session.subscriptions.get(stream_id)
            if node is not None:
                if node.effective_delay > 0:
                    return node.effective_delay
                return node.end_to_end_delay
        tree = self.trees[stream_id]
        if parent_id in tree:
            return tree.end_to_end_delay(parent_id)
        return self.delay_model.cdn_end_to_end()

    def children_of(self, viewer_id: str, stream_id: StreamId) -> List[str]:
        """Children of a viewer in one stream tree (empty if not a member)."""
        tree = self.trees.get(stream_id)
        if tree is None or viewer_id not in tree:
            return []
        return list(tree.node(viewer_id).children)

    def routing_table_of(self, viewer_id: str) -> SessionRoutingTable:
        """The session routing table (Table I) of a member, built on read.

        One row per subscribed tree node, matched on ``(node.parent_id,
        stream_id)``; one forwarding address per child of that node, at
        the child's current subscription point.  Nothing is stored, so
        the table cannot disagree with the trees.
        """
        table = SessionRoutingTable()
        for stream_id, node in self.sessions[viewer_id].subscriptions.items():
            entry = table.upsert(node.parent_id, stream_id)
            tree_node = self.trees[stream_id].node
            for child_id in node.children:
                entry.add_child(
                    child_id, subscription_frame=tree_node(child_id).subscription_frame
                )
        return table
