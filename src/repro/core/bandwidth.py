"""Viewer bandwidth allocation (Section IV-B1).

Two steps run at the Local Session Controller when a viewer joins (or
changes view):

1. **Inbound allocation** walks the view's streams in global priority order
   and admits the longest prefix for which (a) the viewer still has inbound
   capacity and (b) the P2P layer or the CDN still has outbound capacity to
   supply the stream.  The viewer request is accepted only if the admitted
   prefix contains the highest-priority stream of *every* producer site in
   the view.

2. **Outbound allocation** then splits the viewer's outbound capacity over
   the admitted streams **round-robin in priority order**, one
   stream-bandwidth "bin" at a time.  This guarantees the paper's
   monotonicity property: at any time the available forwarding capacity of
   a higher-priority stream is at least that of a lower-priority one, which
   in turn underpins the overlay property (viewers with more outbound
   bandwidth sit closer to the root in *all* their trees).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Sequence, Tuple

from repro.model.stream import StreamId
from repro.model.view import GlobalView, PrioritizedStream
from repro.util.validation import require_non_negative

#: Numerical slack used when comparing bandwidth sums.
_EPSILON = 1e-9


@dataclass(frozen=True)
class InboundAllocation:
    """Result of the inbound allocation step for one viewer request.

    Attributes
    ----------
    accepted:
        The admitted streams, in global priority order (a prefix of the
        view's priority order).
    rejected:
        The streams removed from the request, in priority order.
    request_accepted:
        Whether the viewer request as a whole is accepted: the admitted
        prefix must contain the highest-priority stream of every site
        (``N_accepted >= n``).
    allocated_inbound_mbps:
        Total inbound bandwidth consumed by the admitted streams.
    """

    accepted: Tuple[PrioritizedStream, ...]
    rejected: Tuple[PrioritizedStream, ...]
    request_accepted: bool
    allocated_inbound_mbps: float

    @property
    def accepted_stream_ids(self) -> Tuple[StreamId, ...]:
        """Identifiers of the admitted streams in priority order."""
        return tuple(entry.stream_id for entry in self.accepted)


def allocate_inbound(
    view: GlobalView,
    inbound_capacity_mbps: float,
    available_supply_mbps: Mapping[StreamId, float],
) -> InboundAllocation:
    """Allocate a viewer's inbound capacity over a view's streams.

    Parameters
    ----------
    view:
        The requested global view; its streams are considered in global
        priority order.
    inbound_capacity_mbps:
        ``C_ibw`` of the joining viewer.
    available_supply_mbps:
        ``abw_vm_Si``: for each stream, the outbound bandwidth currently
        available to serve one more subscription (unused P2P forwarding
        capacity inside the view group plus remaining CDN capacity).
        Streams missing from the mapping are treated as having no supply.
    """
    require_non_negative(inbound_capacity_mbps, "inbound_capacity_mbps")
    prioritized = view.prioritized_streams
    accepted: List[PrioritizedStream] = []
    rejected: List[PrioritizedStream] = []
    remaining = inbound_capacity_mbps
    cut = False
    for entry in prioritized:
        if cut:
            rejected.append(entry)
            continue
        stream = entry.stream
        bandwidth = stream.bandwidth_mbps
        supply = available_supply_mbps.get(stream.stream_id, 0.0)
        if bandwidth > remaining + _EPSILON or bandwidth > supply + _EPSILON:
            # Either condition failing removes this and all lower-priority
            # streams from the request (the paper's prefix rule).
            cut = True
            rejected.append(entry)
            continue
        accepted.append(entry)
        remaining -= bandwidth

    accepted_ids = {entry.stream.stream_id for entry in accepted}
    request_accepted = (
        view.must_have_stream_ids <= accepted_ids and len(accepted) >= view.site_count
    )

    return InboundAllocation(
        accepted=tuple(accepted),
        rejected=tuple(rejected),
        request_accepted=request_accepted,
        allocated_inbound_mbps=inbound_capacity_mbps - remaining,
    )


@dataclass(frozen=True)
class OutboundAllocation:
    """Result of the round-robin outbound allocation for one viewer.

    Attributes
    ----------
    per_stream_mbps:
        Outbound bandwidth reserved for forwarding each admitted stream.
    out_degree:
        ``oDeg_u_Si = floor(obw_u_Si / bw_Si)``: how many children the
        viewer can serve per stream.
    leftover_mbps:
        Outbound capacity too small to fit another full stream bin.
    """

    per_stream_mbps: Dict[StreamId, float]
    out_degree: Dict[StreamId, int]
    leftover_mbps: float

    @property
    def total_out_degree(self) -> int:
        """Total number of child slots across all streams."""
        return sum(self.out_degree.values())


def allocate_outbound(
    accepted: Sequence[PrioritizedStream],
    outbound_capacity_mbps: float,
) -> OutboundAllocation:
    """Round-robin outbound allocation over the admitted streams.

    Allocation proceeds in passes over the streams in priority order,
    reserving one stream-bandwidth bin per stream per pass, until the next
    bin no longer fits.  Consequently the highest-priority stream always
    ends up with at least as many bins as any lower-priority stream.
    """
    require_non_negative(outbound_capacity_mbps, "outbound_capacity_mbps")
    per_stream: Dict[StreamId, float] = {
        entry.stream.stream_id: 0.0 for entry in accepted
    }
    out_degree: Dict[StreamId, int] = dict.fromkeys(per_stream, 0)
    remaining = outbound_capacity_mbps
    if not accepted:
        return OutboundAllocation(
            per_stream_mbps=per_stream, out_degree=out_degree, leftover_mbps=remaining
        )

    progress = True
    while progress:
        progress = False
        for entry in accepted:
            stream = entry.stream
            bandwidth = stream.bandwidth_mbps
            if bandwidth <= remaining + _EPSILON:
                per_stream[stream.stream_id] += bandwidth
                out_degree[stream.stream_id] += 1
                remaining -= bandwidth
                progress = True
    return OutboundAllocation(
        per_stream_mbps=per_stream,
        out_degree=out_degree,
        leftover_mbps=max(0.0, remaining),
    )


def allocate_outbound_priority_only(
    accepted: Sequence[PrioritizedStream],
    outbound_capacity_mbps: float,
) -> OutboundAllocation:
    """Ablation policy: give the entire outbound capacity to the top stream.

    This is one end of the trade-off of Figure 8: it maximises the number
    of viewers that can be supported for the most important stream but
    starves every other stream's tree, lowering the delivered view quality.
    """
    require_non_negative(outbound_capacity_mbps, "outbound_capacity_mbps")
    per_stream: Dict[StreamId, float] = {entry.stream_id: 0.0 for entry in accepted}
    out_degree: Dict[StreamId, int] = {entry.stream_id: 0 for entry in accepted}
    remaining = outbound_capacity_mbps
    if accepted:
        top = accepted[0]
        bins = int(remaining // top.stream.bandwidth_mbps)
        per_stream[top.stream_id] = bins * top.stream.bandwidth_mbps
        out_degree[top.stream_id] = bins
        remaining -= per_stream[top.stream_id]
    return OutboundAllocation(
        per_stream_mbps=per_stream, out_degree=out_degree, leftover_mbps=max(0.0, remaining)
    )


def allocate_outbound_equal_split(
    accepted: Sequence[PrioritizedStream],
    outbound_capacity_mbps: float,
) -> OutboundAllocation:
    """Ablation policy: split the outbound capacity evenly across all streams.

    The other end of the Figure 8 trade-off: every accepted stream gets the
    same share regardless of priority, which supports fewer viewers at full
    quality and leaves the high-priority trees no better provisioned than
    the low-priority ones.
    """
    require_non_negative(outbound_capacity_mbps, "outbound_capacity_mbps")
    per_stream: Dict[StreamId, float] = {entry.stream_id: 0.0 for entry in accepted}
    out_degree: Dict[StreamId, int] = {entry.stream_id: 0 for entry in accepted}
    remaining = outbound_capacity_mbps
    if accepted:
        share = outbound_capacity_mbps / len(accepted)
        for entry in accepted:
            bins = int(share // entry.stream.bandwidth_mbps)
            per_stream[entry.stream_id] = bins * entry.stream.bandwidth_mbps
            out_degree[entry.stream_id] = bins
            remaining -= per_stream[entry.stream_id]
    return OutboundAllocation(
        per_stream_mbps=per_stream, out_degree=out_degree, leftover_mbps=max(0.0, remaining)
    )
