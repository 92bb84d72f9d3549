"""The Random dissemination baseline (Section VII, Figure 15).

The paper compares 4D TeleCast against the randomized routing scheme used
for inter-producer communication in TEEVE [19]: "a joining node is randomly
attached to another node, which can serve the request of the joining node.
No clustering or pre-allocation of outgoing bandwidth of the node is done".

Concretely, this baseline differs from 4D TeleCast in four ways:

* streams of a request are provisioned in camera order, not priority order,
  so a request can exhaust its inbound capacity (or the available supply)
  on unimportant streams and then fail the per-site acceptance rule,
* a forwarding node's outbound capacity is consumed first-come-first-served
  across whatever streams its children happen to ask for -- there is no
  round-robin pre-allocation that protects the high-priority streams,
* there is no view grouping and no pre-computed overlay: to find a parent
  the joining node *probes* a bounded number of uniformly random peers and
  attaches to the first probe that happens to receive the stream and have
  spare outbound capacity within the delay bound; with no clustering or
  pre-allocation there is no directory of who can serve what, so probes
  miss whenever free capacity is sparse,
* every probe miss falls back to the CDN, so bounded CDN capacity is
  burned on streams that peers could have served; once the CDN is
  exhausted, missed probes become failed streams -- and because the order
  is priority-agnostic, the failed stream is often one of the per-site
  must-have streams, rejecting the whole request and losing that viewer's
  outbound capacity to the system.

The class mirrors the measurement API of
:class:`~repro.core.telecast.TeleCastSystem` (``join_viewer``, ``snapshot``,
``metrics``) so experiments can swap the two systems.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence

from repro.core.layering import DelayLayerConfig
from repro.metrics.collectors import SessionMetrics, SystemSnapshot
from repro.model.cdn import CDN, CDN_NODE_ID
from repro.model.producer import ProducerSite
from repro.model.stream import Stream, StreamId
from repro.model.view import GlobalView
from repro.model.viewer import Viewer
from repro.net.latency import DelayModel
from repro.sim.rng import SeededRandom

#: Random peers probed per stream before the CDN fallback (Section VII).
PROBE_COUNT = 3


@dataclass
class _RandomReceiver:
    """Per-viewer state of the random scheme."""

    viewer: Viewer
    used_outbound_mbps: float = 0.0
    #: For each received stream: (parent id, end-to-end delay).
    streams: Dict[StreamId, tuple] = field(default_factory=dict)

    @property
    def free_outbound_mbps(self) -> float:
        return max(0.0, self.viewer.outbound_capacity_mbps - self.used_outbound_mbps)


class RandomDisseminationSystem:
    """Random-attachment dissemination of multi-stream 3DTI content."""

    def __init__(
        self,
        producers: Sequence[ProducerSite],
        cdn: CDN,
        delay_model: DelayModel,
        layer_config: Optional[DelayLayerConfig] = None,
        *,
        rng: Optional[SeededRandom] = None,
    ) -> None:
        if not producers:
            raise ValueError("at least one producer site is required")
        self.producers = list(producers)
        self.cdn = cdn
        self.delay_model = delay_model
        self.layer_config = layer_config or DelayLayerConfig(delta=cdn.delta)
        self._rng = rng or SeededRandom(0)
        self.metrics = SessionMetrics()
        self._receivers: Dict[str, _RandomReceiver] = {}
        self._requested: Dict[str, int] = {}
        #: Streams accepted, and those the CDN serves: no stream of an
        #: accepted viewer ever moves, so counting at join is exact.
        self._active = self._via_cdn = 0
        for site in self.producers:
            for stream in site.streams:
                cdn.ingest_stream(stream.stream_id, stream.bandwidth_mbps)

    # -- joining --------------------------------------------------------------

    def join_viewer(self, viewer: Viewer, view: GlobalView, now: float = 0.0) -> bool:
        """Attempt to join a viewer; returns whether the request was accepted.

        Streams are provisioned one by one in the order the sites list them
        (camera order); each stream is attached to a uniformly random
        candidate parent with spare outbound capacity (or to the CDN).  The
        random scheme has no priority-based degradation: the request is
        accepted only if *every* requested stream is served, and a
        rejected request releases whatever it had reserved.
        """
        if viewer.viewer_id in self._receivers:
            raise ValueError(f"viewer {viewer.viewer_id} already joined")
        requested = self._request_order(view)
        self._requested[viewer.viewer_id] = len(requested)
        receiver = _RandomReceiver(viewer=viewer)
        inbound_left = viewer.inbound_capacity_mbps
        allocations: List[tuple] = []  # (stream, parent_id) for rollback

        for stream in requested:
            if stream.bandwidth_mbps > inbound_left + 1e-9:
                continue
            placement = self._attach_randomly(viewer, stream)
            if placement is None:
                continue
            parent_id, delay = placement
            receiver.streams[stream.stream_id] = (parent_id, delay)
            allocations.append((stream, parent_id))
            inbound_left -= stream.bandwidth_mbps

        request_accepted = len(receiver.streams) == len(requested)
        if not request_accepted:
            for stream, parent_id in allocations:
                self._release(stream, parent_id)
            receiver.streams.clear()
        else:
            self._receivers[viewer.viewer_id] = receiver
            for parent_id, _delay in receiver.streams.values():
                self._via_cdn += parent_id == CDN_NODE_ID
            self._active += len(receiver.streams)

        self.metrics.record_join(
            requested=len(requested),
            accepted=len(receiver.streams),
            join_delay=self._join_delay(viewer, receiver),
            request_accepted=request_accepted,
        )
        return request_accepted

    def _request_order(self, view: GlobalView) -> List[Stream]:
        """Streams of the request in an arbitrary (random) order.

        The random scheme has no notion of stream priority, so nothing
        protects the per-site highest-priority streams: when capacity runs
        out mid-request, whichever streams happen to be provisioned last
        fail -- and any failed stream rejects the whole request, so the
        viewer's outbound capacity is lost to the system.  4D TeleCast's
        priority-ordered allocation is exactly what avoids this failure
        mode.
        """
        ordered: List[Stream] = [
            entry.stream for local_view in view.local_views for entry in local_view.streams
        ]
        self._rng.shuffle(ordered)
        return ordered

    def _attach_randomly(self, viewer: Viewer, stream: Stream):
        """Probe random peers for the stream; fall back to the CDN.

        Up to :data:`PROBE_COUNT` uniformly random connected viewers are
        probed; the first probe that (a) receives the stream, (b) has spare
        outbound capacity and (c) keeps the end-to-end delay within
        ``d_max`` becomes the parent.  When every probe misses, the request falls back to the
        CDN; when the CDN has no capacity left either, the stream fails.
        Without clustering or pre-allocation the scheme has no directory of
        who can serve what, which is exactly the coordination 4D TeleCast's
        LSCs provide.
        """
        connected = list(self._receivers)
        probes = min(PROBE_COUNT, len(connected))
        if probes:
            for candidate_id in self._rng.sample(connected, probes):
                receiver = self._receivers[candidate_id]
                if stream.stream_id not in receiver.streams:
                    continue
                if receiver.free_outbound_mbps + 1e-9 < stream.bandwidth_mbps:
                    continue
                parent_delay = receiver.streams[stream.stream_id][1]
                delay = parent_delay + self.delay_model.hop_delay(
                    candidate_id, viewer.viewer_id
                )
                if delay > self.layer_config.d_max:
                    continue
                receiver.used_outbound_mbps += stream.bandwidth_mbps
                return candidate_id, delay
        if self.cdn.allocate(stream.stream_id, stream.bandwidth_mbps):
            return CDN_NODE_ID, self.delay_model.cdn_end_to_end(viewer.viewer_id)
        return None

    def _release(self, stream: Stream, parent_id: str) -> None:
        if parent_id == CDN_NODE_ID:
            self.cdn.release(stream.stream_id, stream.bandwidth_mbps)
            return
        parent = self._receivers.get(parent_id)
        if parent is not None:
            parent.used_outbound_mbps = max(
                0.0, parent.used_outbound_mbps - stream.bandwidth_mbps
            )

    def _join_delay(self, viewer: Viewer, receiver: _RandomReceiver) -> float:
        """Control overhead of a random join: one round trip per contacted parent."""
        delay = self.delay_model.control_processing_delay
        for parent_id, _ in receiver.streams.values():
            if parent_id != CDN_NODE_ID:
                delay += self.delay_model.rtt(viewer.viewer_id, parent_id)
        return delay

    # -- measurement -----------------------------------------------------------

    def snapshot(self) -> SystemSnapshot:
        """Instantaneous state in the same shape TeleCast reports."""
        counts = dict.fromkeys(self._requested, 0)
        layers: Dict[str, int] = {}
        for viewer_id, receiver in self._receivers.items():
            counts[viewer_id] = len(receiver.streams)
            if receiver.streams:
                layers[viewer_id] = max(
                    self.layer_config.layer_for_delay(delay)
                    for _parent_id, delay in receiver.streams.values()
                )
        return replace(
            self.count_snapshot(), max_layers=layers, accepted_stream_counts=counts
        )

    def count_snapshot(self) -> SystemSnapshot:
        """A snapshot without the per-viewer maps, from counts kept at join."""
        return SystemSnapshot(
            num_viewers=len(self._receivers),
            num_requests=len(self._requested),
            active_subscriptions=self._active,
            cdn_subscriptions=self._via_cdn,
            cdn_outbound_mbps=self.cdn.used_outbound_mbps,
            acceptance_ratio=self.metrics.acceptance_ratio,
        )

    def take_snapshot(self) -> SystemSnapshot:
        """Capture a snapshot and append it to the metrics history."""
        snapshot = self.snapshot()
        self.metrics.add_snapshot(snapshot)
        return snapshot
