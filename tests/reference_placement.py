"""The list-and-``json.dumps`` placement digest: the streamed digest's oracle.

Statement for statement the digest before it streamed into the hash:
every edge row of the system becomes one list, the whole list becomes
one JSON string, and the string is hashed at once.
:mod:`repro.metrics.placement` must produce byte-identical digests
without ever holding either.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, List, Tuple


def lsc_placement_edges(lsc) -> List[Tuple]:
    edges: List[Tuple] = []
    for viewer_id in sorted(lsc.sessions):
        session = lsc.sessions[viewer_id]
        for stream_id in sorted(session.subscriptions, key=str):
            sub = session.subscriptions[stream_id]
            edges.append(
                (
                    lsc.lsc_id,
                    viewer_id,
                    str(stream_id),
                    sub.parent_id,
                    sub.layer,
                    bool(sub.via_cdn),
                    round(sub.end_to_end_delay, 9),
                    round(sub.effective_delay, 9),
                )
            )
    return edges


def _digest(edges: List[Tuple]) -> str:
    payload = json.dumps(edges, separators=(",", ":")).encode("ascii")
    return hashlib.sha256(payload).hexdigest()


def lsc_placement_digest(lsc) -> str:
    return _digest(lsc_placement_edges(lsc))


def per_lsc_placement_digests(system) -> Dict[str, str]:
    return {
        lsc.lsc_id: lsc_placement_digest(lsc)
        for lsc in sorted(system.gsc.lscs, key=lambda item: item.lsc_id)
    }


def placement_digest(system) -> str:
    edges: List[Tuple] = []
    for lsc in sorted(system.gsc.lscs, key=lambda item: item.lsc_id):
        edges.extend(lsc_placement_edges(lsc))
    return _digest(edges)
