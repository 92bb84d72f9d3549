"""Run-time state of connected viewers: their sessions.

A session ties together everything the control plane knows about one
connected viewer: the view it requested and which of its streams were
accepted.  Each accepted stream maps to the viewer's
:class:`~repro.core.topology.TreeNode` in that stream's tree, the one
record of the overlay edge: parent, structural and effective delay, delay
layer, subscription point, out-degree and children.  The view group reads
the paper's Table I off those nodes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.topology import TreeNode
from repro.model.stream import StreamId
from repro.model.view import GlobalView
from repro.model.viewer import Viewer


@dataclass
class ViewerSession:
    """Everything the system tracks about one connected viewer."""

    viewer: Viewer
    view: GlobalView
    lsc_id: str
    #: Accepted stream -> the viewer's node in that stream's tree.
    subscriptions: Dict[StreamId, TreeNode] = field(default_factory=dict)
    join_time: float = 0.0

    @property
    def viewer_id(self) -> str:
        """Identifier of the viewer."""
        return self.viewer.viewer_id

    @property
    def accepted_stream_ids(self) -> List[StreamId]:
        """Streams the viewer currently receives."""
        return list(self.subscriptions)

    @property
    def num_accepted_streams(self) -> int:
        """Number of streams the viewer currently receives."""
        return len(self.subscriptions)

    @property
    def allocated_inbound_mbps(self) -> float:
        """Inbound bandwidth consumed by the accepted streams."""
        streams = self.view.stream_by_id
        return sum(streams[stream_id].bandwidth_mbps for stream_id in self.subscriptions)

    @property
    def max_layer(self) -> Optional[int]:
        """Largest (slowest) layer among accepted streams, ``None`` when empty."""
        if not self.subscriptions:
            return None
        return max(sub.layer for sub in self.subscriptions.values())

    def layer_spread(self) -> int:
        """Difference between the slowest and freshest layer (0 when <2 streams)."""
        if len(self.subscriptions) < 2:
            return 0
        layers = [sub.layer for sub in self.subscriptions.values()]
        return max(layers) - min(layers)

    def drop_subscription(self, stream_id: StreamId) -> Optional[TreeNode]:
        """Remove a stream subscription and its buffer (if present)."""
        sub = self.subscriptions.pop(stream_id, None)
        if sub is not None:
            self.viewer.drop_buffer(stream_id)
        return sub

    def skew_bound_satisfied(self, kappa: int) -> bool:
        """Layer Property 2 check: accepted streams span at most ``kappa`` layers."""
        return self.layer_spread() <= kappa
