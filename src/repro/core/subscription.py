"""Stream subscription: solving the view synchronization problem (Section V-B3).

After a viewer joins the overlay trees of its accepted streams, the delays
of those streams can differ by more than the gateway buffer can absorb, so
the renderer would drop the lagged streams -- wasting the bandwidth spent
delivering the fresh ones.  The stream-subscription process bounds the
spread:

1. compute the minimum achievable layer index of every accepted stream
   (Equation 1) from the parent's *effective* delay,
2. find the slowest stream's layer ``L_max`` and push every other stream
   down to at least ``L_max - kappa`` (a *layer push-down*), which by Layer
   Property 2 bounds the inter-stream delay spread by ``d_buff``,
3. drop any stream whose layer would exceed the maximum acceptable layer
   (derived from ``d_max``) and release its bandwidth,
4. translate push-downs into subscription points (frame numbers) sent to
   the parents (Equation 2).

When a viewer's effective delay for a forwarded stream grows, its children
may need to re-run the process;
:meth:`LocalSessionController._propagate_subscription
<repro.core.controllers.LocalSessionController._propagate_subscription>`
walks that chain.

A plan is rows, not objects: one ``(stream_id, minimum, target, effective,
parent_id, propagation)`` tuple per kept stream in subscription order, and
the dropped streams, also in subscription order.
"""

from __future__ import annotations

import math
from typing import Dict, List, Mapping, NamedTuple, Optional, Tuple

from repro.core.layering import (
    DelayLayerConfig,
    subscription_frame_number,
)
from repro.core.state import ViewerSession
from repro.core.topology import TreeNode
from repro.model.cdn import CDN_NODE_ID
from repro.model.stream import StreamId
from repro.net.latency import DelayModel


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


#: One kept stream of a plan: ``(stream_id, minimum_layer, target_layer,
#: effective_delay, parent_id, propagation)``.  ``parent_id`` is the parent
#: the plan was made for and ``propagation`` the ``d_prop`` it read for it
#: (``None`` for a CDN parent, whose layer needs none).
PlanRow = Tuple[StreamId, int, int, float, str, Optional[float]]


class SubscriptionPlan(NamedTuple):
    """The complete view-synchronization plan of one viewer.

    ``rows`` are the kept streams and ``dropped_stream_ids`` the streams
    that must be dropped because no acceptable layer exists, both in
    subscription order; ``drops`` are the dropped streams' plans.
    """

    rows: List[PlanRow]
    dropped_stream_ids: Tuple[StreamId, ...] = ()
    drops: Tuple[StreamSubscriptionPlan, ...] = ()

    @property
    def per_stream(self) -> Dict[StreamId, StreamSubscriptionPlan]:
        """Every stream's plan, kept streams first."""
        plans = {row[0]: StreamSubscriptionPlan(*row[:4]) for row in self.rows}
        plans.update((plan.stream_id, plan) for plan in self.drops)
        return plans

    @property
    def kept_stream_ids(self) -> Tuple[StreamId, ...]:
        """Streams that remain subscribed after synchronization."""
        return tuple(row[0] for row in self.rows)

    def layer_spread(self) -> int:
        """Layer spread among kept streams (0 when fewer than two remain)."""
        layers = [row[2] for row in self.rows]
        if len(layers) < 2:
            return 0
        return max(layers) - min(layers)


def plan_view_synchronization(
    config: DelayLayerConfig,
    delay_model: DelayModel,
    viewer_id: str,
    subscriptions: Mapping[StreamId, TreeNode],
    parent_effective_delays: Mapping[StreamId, float],
) -> SubscriptionPlan:
    """Compute the layer push-down plan for a viewer's accepted streams.

    Parameters
    ----------
    subscriptions:
        The viewer's current stream subscriptions: its node in each
        stream's tree (parents already decided by the overlay
        construction).
    parent_effective_delays:
        For each stream, the *effective* end-to-end delay at the parent
        (its own layer position), which is what the child's achievable
        layer depends on.  CDN parents may be omitted.
    """
    # Equation 1 per stream, with the layer arithmetic inlined: this runs
    # for every join and every propagated re-subscription, so the
    # per-call overhead of the generic helpers adds up.  The float
    # operations are exactly those of ``minimum_layer_for`` (Equation 1
    # for one pair, kept in ``tests/reference_oracles.py``); argument
    # validation is redundant because every parent delay is a tree delay
    # (>= ``Delta`` >= 0) and every propagation delay is >= 0
    # (``set_delay`` validates it, a derived pair is an ``exp``).
    delta = config.delta
    tau = config.tau
    max_layer = config.max_layer_index
    processing = delay_model.processing_delay
    propagation = delay_model.propagation
    parent_delay = parent_effective_delays.get
    floor = math.floor
    rows: List[PlanRow] = []
    drops: List[StreamSubscriptionPlan] = []
    # "Layer_min" in the paper is the *largest* layer index among the
    # accepted streams -- the slowest stream anchors the view.
    anchor = 0
    for stream_id, sub in subscriptions.items():
        parent_id = sub.parent_id
        hop = None
        layer = 0
        if parent_id is None:
            # Orphaned, its repair still queued: no parent to read, so the
            # stream keeps its layer (and may still be pushed down).
            layer = sub.layer
            if layer > anchor:
                anchor = layer
        elif parent_id != CDN_NODE_ID:
            hop = propagation(parent_id, viewer_id)
            layer = floor(
                (parent_delay(stream_id, delta) - delta + hop + processing) / tau
            )
            if layer > max_layer:  # no acceptable layer at all
                drops.append(StreamSubscriptionPlan(
                    stream_id, layer, layer, sub.end_to_end_delay, True
                ))
                continue
            if layer < 0:
                layer = 0
            if layer > anchor:
                anchor = layer
        # Not pushed down: ``max(structural, nominal)``, the first wins a tie.
        structural = sub.end_to_end_delay
        nominal = delta + layer * tau
        rows.append((
            stream_id, layer, layer,
            nominal if nominal > structural else structural, parent_id, hop,
        ))

    # Push every stream down to within kappa of the anchor.  The anchor is
    # an acceptable layer, so no pushed-down target can exceed ``max_layer``.
    floor_layer = anchor - config.kappa
    if floor_layer > 0:
        # Positioned at the top of the target layer so the push-down fades
        # out along the child chain (R = tau * r); same floats as
        # ``delay_for_layer(floor_layer, offset=tau)``.
        pushed = delta + floor_layer * tau + tau
        for index, row in enumerate(rows):
            if floor_layer > row[1]:
                rows[index] = (row[0], row[1], floor_layer, pushed, row[4], row[5])
    if not drops:
        return SubscriptionPlan(rows)
    return SubscriptionPlan(
        rows, tuple(plan.stream_id for plan in drops), tuple(drops)
    )


def apply_plan(
    config: DelayLayerConfig,
    delay_model: DelayModel,
    session: ViewerSession,
    plan: SubscriptionPlan,
    *,
    latest_frame_numbers: Optional[Mapping[StreamId, int]] = None,
) -> List[StreamId]:
    """Apply a subscription plan to a viewer session.

    Updates the layer and effective delay of every kept subscription,
    computes subscription points for pushed-down streams, and removes the
    dropped subscriptions (returning their ids so the caller can release
    the associated overlay and bandwidth resources).

    Equation 2 reuses the ``d_prop`` the plan read for a stream only while
    the stream's parent is still the one the plan was made for; an
    orphaned stream has no parent to send a subscription point to.
    """
    subscriptions = session.subscriptions
    for stream_id, minimum, target, effective, parent_id, hop in plan.rows:
        sub = subscriptions.get(stream_id)
        if sub is None:
            continue
        sub.layer = target
        sub.effective_delay = effective
        if target > minimum and latest_frame_numbers is not None:  # pushed down
            latest = latest_frame_numbers.get(stream_id)
            if latest is not None and sub.parent_id is not None:
                if hop is None or sub.parent_id != parent_id:
                    hop = delay_model.propagation(sub.parent_id, session.viewer_id)
                sub.subscription_frame = subscription_frame_number(
                    config,
                    latest,
                    session.view.stream_by_id[stream_id].frame_rate,
                    target,
                    hop,
                    delay_model.processing_delay,
                )
    dropped: List[StreamId] = []
    for stream_id in plan.dropped_stream_ids:
        if stream_id in subscriptions:
            session.drop_subscription(stream_id)
            dropped.append(stream_id)
    return dropped


def needs_resubscription(
    config: DelayLayerConfig,
    delay_model: DelayModel,
    child_session: ViewerSession,
    stream_id: StreamId,
    parent_effective_delay: float,
) -> bool:
    """Whether a parent's new effective delay forces a child to re-subscribe.

    Mirrors the paper's rule: the child recomputes the achievable layer
    ``x`` for the stream; only if ``x`` exceeds the child's current maximum
    layer does a new subscription process start, because otherwise the
    parent can still support the child at its current layer.
    """
    subscriptions = child_session.subscriptions
    sub = subscriptions.get(stream_id)
    if sub is None:
        return False
    parent_id = sub.parent_id
    achievable = 0
    if parent_id != CDN_NODE_ID:
        # Equation 1 with the floats of ``minimum_layer_for``, inlined
        # as in :func:`plan_view_synchronization` (the validators are
        # redundant for the same reason): this runs for every viewer a
        # push-down shifts.
        raw = (
            parent_effective_delay
            - config.delta
            + delay_model.propagation(parent_id, child_session.viewer_id)
            + delay_model.processing_delay
        ) / config.tau
        achievable = int(math.floor(raw))
        if achievable < 0:
            achievable = 0
    # ``achievable > child_session.max_layer`` without the full scan: the
    # first held layer at or above the achievable one settles it.
    for held in subscriptions.values():
        if held.layer >= achievable:
            return False
    return True
