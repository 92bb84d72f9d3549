"""The content-distribution network (CDN) model.

4D TeleCast treats the CDN as a black box (Section III-A): producers upload
3D frames into the distribution storage, core servers replicate them to
edge servers, and viewers can pull any stream directly from an edge server.
The only properties the overlay-construction logic relies on are

* a bounded aggregate outbound capacity ``C_cdn_obw`` available to the
  3DTI session (6000 Mbps in the capped experiments),
* a constant capture-to-first-viewer delay ``Delta`` (60 s in the
  evaluation), and
* the ability to serve *any* delay layer to its direct children (its
  distribution storage is large).

This module models exactly that: one ledger against the one aggregate
bound, so :meth:`CDN.allocate` grants exactly what :meth:`CDN.can_serve`
admits for any stream the CDN has ingested.
"""

from __future__ import annotations

import math
from typing import Dict

from repro.model.stream import StreamId
from repro.util.validation import require_non_negative, require_positive

#: Node identifier used for the CDN in overlay trees and latency lookups.
CDN_NODE_ID = "CDN"


class CDN:
    """The session-facing CDN: bounded outbound capacity + constant delay.

    Parameters
    ----------
    outbound_capacity_mbps:
        Total outbound capacity available to the session.  ``math.inf`` is
        allowed and used by the uncapped experiment of Figure 13(a).
    delta:
        ``Delta``: capture-to-viewer delay of CDN-served streams (seconds).

    The inbound capacity ``C_cdn_ibw`` is not modelled: the paper assumes
    it is always met because only the few producer sites upload.
    """

    def __init__(
        self,
        outbound_capacity_mbps: float = math.inf,
        *,
        delta: float = 60.0,
    ) -> None:
        require_positive(outbound_capacity_mbps, "outbound_capacity_mbps")
        require_non_negative(delta, "delta")
        self.outbound_capacity_mbps = outbound_capacity_mbps
        self.delta = delta
        self.node_id = CDN_NODE_ID
        self._used_outbound = 0.0
        self._per_stream_usage: Dict[StreamId, float] = {}
        self._stored_streams: Dict[StreamId, float] = {}

    # -- producer side -----------------------------------------------------

    def ingest_stream(self, stream_id: StreamId, bandwidth_mbps: float) -> None:
        """Register a producer stream uploaded into the distribution storage."""
        require_positive(bandwidth_mbps, "bandwidth_mbps")
        self._stored_streams[stream_id] = bandwidth_mbps

    def has_stream(self, stream_id: StreamId) -> bool:
        """Whether the stream has been ingested and can be served."""
        return stream_id in self._stored_streams

    # -- viewer side -------------------------------------------------------

    @property
    def used_outbound_mbps(self) -> float:
        """Outbound bandwidth currently reserved by viewer subscriptions."""
        return self._used_outbound

    @property
    def available_outbound_mbps(self) -> float:
        """Outbound bandwidth still available to new subscriptions.

        An infinite capacity stays infinite: ``inf - used`` is ``inf``.
        """
        available = self.outbound_capacity_mbps - self._used_outbound
        return available if available > 0.0 else 0.0

    def can_serve(self, bandwidth_mbps: float) -> bool:
        """Whether a new subscription of the given bandwidth fits."""
        return bandwidth_mbps <= self.available_outbound_mbps + 1e-9

    def allocate(self, stream_id: StreamId, bandwidth_mbps: float) -> bool:
        """Reserve outbound capacity for serving ``stream_id`` to one viewer.

        Returns ``False`` (and reserves nothing) when the capacity bound or
        the availability of the stream would be violated.
        """
        require_positive(bandwidth_mbps, "bandwidth_mbps")
        if not self.has_stream(stream_id):
            return False
        if not self.can_serve(bandwidth_mbps):
            return False
        self._used_outbound += bandwidth_mbps
        self._per_stream_usage[stream_id] = (
            self._per_stream_usage.get(stream_id, 0.0) + bandwidth_mbps
        )
        return True

    def release(self, stream_id: StreamId, bandwidth_mbps: float) -> None:
        """Release outbound capacity previously reserved for ``stream_id``."""
        require_positive(bandwidth_mbps, "bandwidth_mbps")
        current = self._per_stream_usage.get(stream_id, 0.0)
        released = min(current, bandwidth_mbps)
        if released <= 0:
            return
        self._per_stream_usage[stream_id] = current - released
        self._used_outbound = max(0.0, self._used_outbound - released)
