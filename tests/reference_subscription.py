"""Frozen view-synchronization planner: the executable plan spec.

The stream-subscription process as it was before a plan became rows
(per-stream ``StreamSubscriptionPlan`` objects in a dict, drops gathered
in a ``set``): the bodies of ``plan_view_synchronization`` and
``apply_plan`` are kept statement for statement, comments trimmed.
``tests/test_core_subscription.py`` runs random subscriptions through
both and asserts the same per-stream plans, the same writes to the
session, the same drops and the same latency lookups.

Two differences are by design, and the test states them: drops came out
of the ``set`` in string-hash order, where :mod:`repro.core.subscription`
emits them in subscription order; and this ``apply_plan`` re-reads for
Equation 2 the ``d_prop`` its plan had just read for the same parent.

Do not use it in production code and do not "fix" it -- behaviour
changes here silently weaken the equivalence guarantee.  It reads the
subscription off a :class:`~repro.core.topology.TreeNode` and a stream's
frame rate off the session's view, as the code under test does.

:func:`subscribed_node` is not part of the spec: it builds the record a
subscription is -- a tree node outside any tree -- for tests that plan
without running the overlay.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Mapping, NamedTuple, Optional, Set, Tuple

from repro.core.layering import DelayLayerConfig, subscription_frame_number
from repro.core.state import ViewerSession
from repro.core.topology import TreeNode
from repro.model.cdn import CDN_NODE_ID
from repro.model.stream import StreamId
from repro.net.latency import DelayModel


def subscribed_node(
    viewer_id: str,
    parent_id: Optional[str],
    end_to_end_delay: float,
    *,
    layer: int = 0,
    effective_delay: Optional[float] = None,
) -> TreeNode:
    """A viewer's subscription to one stream, as the node that records it."""
    node = TreeNode(viewer_id, 0, 0.0, parent_id, end_to_end_delay)
    node.layer = layer
    node.effective_delay = (
        end_to_end_delay if effective_delay is None else effective_delay
    )
    return node


class StreamSubscriptionPlan(NamedTuple):
    """Planned subscription of one stream at one viewer."""

    stream_id: StreamId
    minimum_layer: int
    target_layer: int
    effective_delay: float
    dropped: bool = False

    @property
    def pushed_down(self) -> bool:
        """Whether the plan delays the stream beyond its minimum achievable layer."""
        return self.target_layer > self.minimum_layer


@dataclass(frozen=True)
class SubscriptionPlan:
    """The complete view-synchronization plan of one viewer."""

    per_stream: Dict[StreamId, StreamSubscriptionPlan]

    @property
    def dropped_stream_ids(self) -> Tuple[StreamId, ...]:
        """Streams that must be dropped because no acceptable layer exists."""
        return tuple(
            sid for sid, plan in self.per_stream.items() if plan.dropped
        )


def plan_view_synchronization(
    config: DelayLayerConfig,
    delay_model: DelayModel,
    viewer_id: str,
    subscriptions: Mapping[StreamId, TreeNode],
    parent_effective_delays: Mapping[StreamId, float],
) -> SubscriptionPlan:
    """Compute the layer push-down plan for a viewer's accepted streams."""
    delta = config.delta
    tau = config.tau
    max_layer = config.max_layer_index
    processing = delay_model.processing_delay
    propagation = delay_model.propagation
    minimum_layers: Dict[StreamId, int] = {}
    # Streams that cannot reach any acceptable layer at all.
    dropped: Set[StreamId] = set()
    for stream_id, sub in subscriptions.items():
        parent_id = sub.parent_id
        if parent_id == CDN_NODE_ID:
            minimum_layers[stream_id] = 0
            continue
        parent_delay = parent_effective_delays.get(stream_id, delta)
        raw = (
            parent_delay - delta + propagation(parent_id, viewer_id) + processing
        ) / tau
        layer = int(math.floor(raw))
        minimum_layers[stream_id] = layer if layer > 0 else 0
        if layer > max_layer:
            dropped.add(stream_id)

    kept_layers = (
        {sid: layer for sid, layer in minimum_layers.items() if sid not in dropped}
        if dropped
        else minimum_layers
    )
    plans: Dict[StreamId, StreamSubscriptionPlan] = {}

    if kept_layers:
        anchor = max(kept_layers.values())
        floor_layer = anchor - config.kappa
        for stream_id, minimum in kept_layers.items():
            target = minimum if minimum > floor_layer else floor_layer
            if target > max_layer:
                dropped.add(stream_id)
                continue
            sub = subscriptions[stream_id]
            if target > minimum:
                effective = delta + target * tau + tau
            else:
                effective = sub.end_to_end_delay
                nominal = delta + target * tau
                if nominal > effective:
                    effective = nominal
            plans[stream_id] = StreamSubscriptionPlan(
                stream_id, minimum, target, effective, False
            )

    for stream_id in dropped:
        plans[stream_id] = StreamSubscriptionPlan(
            stream_id=stream_id,
            minimum_layer=minimum_layers[stream_id],
            target_layer=minimum_layers[stream_id],
            effective_delay=subscriptions[stream_id].end_to_end_delay,
            dropped=True,
        )
    return SubscriptionPlan(per_stream=plans)


def apply_plan(
    config: DelayLayerConfig,
    delay_model: DelayModel,
    session: ViewerSession,
    plan: SubscriptionPlan,
    *,
    latest_frame_numbers: Optional[Mapping[StreamId, int]] = None,
) -> List[StreamId]:
    """Apply a subscription plan to a viewer session."""
    dropped: List[StreamId] = []
    subscriptions = session.subscriptions
    for stream_id, stream_plan in plan.per_stream.items():
        sub = subscriptions.get(stream_id)
        if sub is None:
            continue
        if stream_plan.dropped:
            session.drop_subscription(stream_id)
            dropped.append(stream_id)
            continue
        target_layer = stream_plan.target_layer
        sub.layer = target_layer
        sub.effective_delay = stream_plan.effective_delay
        if target_layer > stream_plan.minimum_layer and latest_frame_numbers is not None:
            latest = latest_frame_numbers.get(stream_id)
            if latest is not None:
                sub.subscription_frame = subscription_frame_number(
                    config,
                    latest,
                    session.view.stream_by_id[stream_id].frame_rate,
                    target_layer,
                    delay_model.propagation(sub.parent_id, session.viewer_id),
                    delay_model.processing_delay,
                )
    return dropped
