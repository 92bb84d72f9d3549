"""Run-time state of connected viewers: subscriptions and sessions.

These records tie together everything the control plane knows about one
connected viewer: the view it requested, which streams were accepted, who
its parents are and the delay layer of every accepted stream.  What the
viewer forwards -- out-degree and children per stream -- is held by its
:class:`~repro.core.topology.TreeNode` alone; the view group reads the
paper's Table I off the two.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.model.stream import Stream, StreamId
from repro.model.view import GlobalView
from repro.model.viewer import Viewer


@dataclass(slots=True)
class StreamSubscription:
    """One accepted stream at one viewer.

    Attributes
    ----------
    stream:
        The subscribed stream.
    parent_id:
        Node currently delivering the stream (a viewer id or the CDN).
    end_to_end_delay:
        Capture-to-gateway delay of the stream at this viewer as implied by
        the overlay position (before any layer push-down).
    layer:
        Delay layer the viewer currently subscribes at (after push-down).
    effective_delay:
        End-to-end delay implied by ``layer`` (>= ``end_to_end_delay``; the
        difference is the deliberate delayed receive).
    via_cdn:
        Whether the parent is the CDN (relevant for cost accounting).
    subscription_frame:
        Frame number sent to the parent as the subscription point, when a
        push-down required requesting frames back in time.
    """

    stream: Stream
    parent_id: str
    end_to_end_delay: float
    layer: int = 0
    effective_delay: float = 0.0
    via_cdn: bool = False
    subscription_frame: Optional[int] = None

    @property
    def stream_id(self) -> StreamId:
        """Identifier of the subscribed stream."""
        return self.stream.stream_id

    @property
    def bandwidth_mbps(self) -> float:
        """Inbound bandwidth the subscription consumes."""
        return self.stream.bandwidth_mbps

    @property
    def delayed_receive(self) -> float:
        """How much the stream is deliberately delayed to stay synchronous."""
        return max(0.0, self.effective_delay - self.end_to_end_delay)


@dataclass
class ViewerSession:
    """Everything the system tracks about one connected viewer."""

    viewer: Viewer
    view: GlobalView
    lsc_id: str
    subscriptions: Dict[StreamId, StreamSubscription] = field(default_factory=dict)
    join_time: float = 0.0
    join_delay: float = 0.0
    rejected_stream_ids: Tuple[StreamId, ...] = ()

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
        return sum(sub.bandwidth_mbps for sub in self.subscriptions.values())

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

    def subscription(self, stream_id: StreamId) -> StreamSubscription:
        """Return the subscription of one stream; raises ``KeyError`` if absent."""
        return self.subscriptions[stream_id]

    def drop_subscription(self, stream_id: StreamId) -> Optional[StreamSubscription]:
        """Remove a stream subscription and its buffer (if present)."""
        sub = self.subscriptions.pop(stream_id, None)
        if sub is not None:
            self.viewer.drop_buffer(stream_id)
        return sub

    def skew_bound_satisfied(self, kappa: int) -> bool:
        """Layer Property 2 check: accepted streams span at most ``kappa`` layers."""
        return self.layer_spread() <= kappa
