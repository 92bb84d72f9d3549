"""The session recounts: the oracles of the counts read off the trees.

Statement for statement the snapshots of both systems before a snapshot
read its counts off the overlay: every connected viewer's session (or
Random receiver) is visited and its subscriptions are counted one by
one, building TeleCast's two per-viewer maps on the way.  Every snapshot
must equal the recount's counts, and ``TeleCastSystem.viewer_maps()``
its maps.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.metrics.collectors import SystemSnapshot
from repro.model.cdn import CDN_NODE_ID


def telecast_snapshot(
    system,
) -> Tuple[SystemSnapshot, Tuple[Dict[str, int], Dict[str, int]]]:
    """``(counts, (max_layers, accepted_stream_counts))`` of a TeleCast system."""
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
    counts = SystemSnapshot(
        num_viewers=connected,
        num_requests=len(system._requested),
        active_subscriptions=active,
        cdn_subscriptions=via_cdn,
        cdn_outbound_mbps=system.cdn.used_outbound_mbps,
        acceptance_ratio=system.metrics.acceptance_ratio,
    )
    return counts, (max_layers, accepted_counts)


def random_snapshot(system) -> SystemSnapshot:
    """The counts of a Random system (it reports no per-viewer map)."""
    active = 0
    via_cdn = 0
    for receiver in system._receivers.values():
        active += len(receiver.streams)
        for parent_id, _delay in receiver.streams.values():
            if parent_id == CDN_NODE_ID:
                via_cdn += 1
    return SystemSnapshot(
        num_viewers=len(system._receivers),
        num_requests=len(system._requested),
        active_subscriptions=active,
        cdn_subscriptions=via_cdn,
        cdn_outbound_mbps=system.cdn.used_outbound_mbps,
        acceptance_ratio=system.metrics.acceptance_ratio,
    )
