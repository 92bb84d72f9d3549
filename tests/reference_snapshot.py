"""The session-recount snapshots: the oracle of the counts read off the trees.

Statement for statement the snapshots of both systems before a snapshot
read its counts off the overlay: every connected viewer's session (or
Random receiver) is visited and its subscriptions are counted one by
one, building both per-viewer maps on the way.  A cadence snapshot's
counts, and a full snapshot field for field, must equal these.
"""

from __future__ import annotations

from typing import Dict

from repro.metrics.collectors import SystemSnapshot
from repro.model.cdn import CDN_NODE_ID


def telecast_snapshot(system) -> SystemSnapshot:
    active = 0
    via_cdn = 0
    max_layers: Dict[str, int] = {}
    accepted_counts: Dict[str, int] = {
        viewer_id: 0 for viewer_id in system._requested
    }
    connected = 0
    for lsc in system.gsc.lscs:
        for viewer_id, session in lsc.sessions.items():
            connected += 1
            active += session.num_accepted_streams
            via_cdn += sum(1 for sub in session.subscriptions.values() if sub.via_cdn)
            accepted_counts[viewer_id] = session.num_accepted_streams
            layer = session.max_layer
            if layer is not None:
                max_layers[viewer_id] = layer
    return SystemSnapshot(
        num_viewers=connected,
        num_requests=len(system._requested),
        active_subscriptions=active,
        cdn_subscriptions=via_cdn,
        cdn_outbound_mbps=system.cdn.used_outbound_mbps,
        acceptance_ratio=system.metrics.acceptance_ratio,
        max_layers=max_layers,
        accepted_stream_counts=accepted_counts,
    )


def random_snapshot(system) -> SystemSnapshot:
    active = 0
    via_cdn = 0
    accepted_counts = {viewer_id: 0 for viewer_id in system._requested}
    layers: Dict[str, int] = {}
    for viewer_id, receiver in system._receivers.items():
        accepted_counts[viewer_id] = len(receiver.streams)
        active += len(receiver.streams)
        worst_layer = 0
        for parent_id, delay in receiver.streams.values():
            if parent_id == CDN_NODE_ID:
                via_cdn += 1
            worst_layer = max(worst_layer, system.layer_config.layer_for_delay(delay))
        if receiver.streams:
            layers[viewer_id] = worst_layer
    return SystemSnapshot(
        num_viewers=len(system._receivers),
        num_requests=len(system._requested),
        active_subscriptions=active,
        cdn_subscriptions=via_cdn,
        cdn_outbound_mbps=system.cdn.used_outbound_mbps,
        acceptance_ratio=system.metrics.acceptance_ratio,
        max_layers=layers,
        accepted_stream_counts=accepted_counts,
    )


def counts(snapshot: SystemSnapshot) -> tuple:
    """Every field of a snapshot but the two per-viewer maps."""
    return (
        snapshot.num_viewers,
        snapshot.num_requests,
        snapshot.active_subscriptions,
        snapshot.cdn_subscriptions,
        snapshot.cdn_outbound_mbps,
        snapshot.acceptance_ratio,
    )
