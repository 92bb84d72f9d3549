"""Viewers and their gateway buffer / cache architecture.

A viewer (Figure 2(b)) consists of a gateway (data plane + control plane)
and a renderer.  Frames received from the overlay are buffered at the
gateway; the part of the local buffer between the buffer end and the media
playback point (MPP) is the *buffer* (length ``d_buff``) and the part from
the MPP to the buffer head is the *cache* (length ``d_cache``).  Frames in
both regions can be forwarded to child viewers; only frames in the buffer
are used for local playback (Section V-B2, Figure 11).
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.model.stream import Frame, StreamId
from repro.util.validation import require_non_negative, require_positive

#: The id of viewer ``index`` of a generated population: ``VIEWER_ID % index``.
VIEWER_ID = "viewer-%05d"
#: Where the index starts in such an id: ``int(viewer_id[VIEWER_INDEX_AT:])``.
VIEWER_INDEX_AT = VIEWER_ID.index("%")


class StreamBuffer:
    """Per-stream local buffer + cache at a viewer gateway.

    Two aligned flat columns, a list of the frames and an ``array('d')``
    of their arrival times: a replay buffers one entry per delivered
    frame, and a per-entry record object would dominate its allocations
    and memory.  The arrivals are stored as raw doubles, so the buffer
    keeps no reference to the float objects a data plane delivered.

    Parameters
    ----------
    buffer_duration:
        ``d_buff``: how long a frame stays between the buffer end and the
        media playback point, i.e. how much inter-stream skew the renderer
        can absorb (300 ms in the evaluation).
    cache_duration:
        ``d_cache``: how long a frame remains available for forwarding to
        child viewers after it passes the playback point (25 s in the
        evaluation).
    """

    def __init__(self, buffer_duration: float, cache_duration: float) -> None:
        require_positive(buffer_duration, "buffer_duration")
        require_non_negative(cache_duration, "cache_duration")
        self.buffer_duration = buffer_duration
        self.cache_duration = cache_duration
        self._frames: List[Frame] = []
        self._arrivals = array("d")

    def insert(self, frame: Frame, received_at: float) -> None:
        """Insert a newly received frame.

        Frames must arrive in non-decreasing ``received_at`` order for a
        given stream; the transport (in-order streaming from a single
        parent) guarantees this.
        """
        self.extend((frame,), (received_at,))

    def extend(self, frames: Sequence[Frame], arrivals: Sequence[float]) -> None:
        """Insert frames received at the aligned ``arrivals``, in order.

        Only the first arrival is checked against the buffer's tail; the
        caller keeps the batch itself in arrival order.
        """
        if frames:
            if self._arrivals and arrivals[0] < self._arrivals[-1]:
                raise ValueError("frames must be inserted in arrival order")
            self._frames.extend(frames)
            self._arrivals.extend(arrivals)

    def held(self) -> List[Tuple[Frame, float]]:
        """Every retained ``(frame, received_at)``, oldest first."""
        return list(zip(self._frames, self._arrivals))

    def evict_expired(self, now: float) -> List[Frame]:
        """Discard frames older than ``d_buff + d_cache`` and return them.

        When the oldest frame has not expired this costs one comparison,
        so a replay can call it after every chunk it buffers.
        """
        horizon = self.buffer_duration + self.cache_duration
        arrivals = self._arrivals
        if not arrivals or now - arrivals[0] <= horizon:
            return []
        held = len(arrivals)
        expired = 1
        while expired < held and now - arrivals[expired] > horizon:
            expired += 1
        evicted = self._frames[:expired]
        del self._frames[:expired]
        del arrivals[:expired]
        return evicted

    def in_buffer(self, now: float) -> List[Frame]:
        """Frames currently between the buffer end and the playback point."""
        return [
            frame
            for frame, received_at in zip(self._frames, self._arrivals)
            if now - received_at <= self.buffer_duration
        ]

    def in_cache(self, now: float) -> List[Frame]:
        """Frames past the playback point but still available for forwarding."""
        horizon = self.buffer_duration + self.cache_duration
        return [
            frame
            for frame, received_at in zip(self._frames, self._arrivals)
            if self.buffer_duration < now - received_at <= horizon
        ]

    def shareable(self, now: float) -> List[Frame]:
        """All frames available to support child viewers (buffer + cache)."""
        self.evict_expired(now)
        return list(self._frames)

    def latest_frame(self) -> Optional[Frame]:
        """The most recently received frame, if any."""
        return self._frames[-1] if self._frames else None

    def oldest_frame(self) -> Optional[Frame]:
        """The oldest retained frame, if any."""
        return self._frames[0] if self._frames else None

    def frame_at_or_after(self, frame_number: int) -> Optional[Frame]:
        """First retained frame with ``frame_number`` >= the requested one.

        Used when a child subscribes at a specific position in the parent's
        cache (the *subscription point* of the session routing table).
        """
        for frame in self._frames:
            if frame.frame_number >= frame_number:
                return frame
        return None

    def __len__(self) -> int:
        return len(self._frames)


@dataclass
class Viewer:
    """A passive, non-interactive content viewer.

    Attributes
    ----------
    viewer_id:
        Unique identity; doubles as the network node id in the latency
        matrix.
    inbound_capacity_mbps:
        ``C_ibw``: total download capacity (12 Mbps in the evaluation).
    outbound_capacity_mbps:
        ``C_obw``: total upload capacity contributed to the P2P layer
        (varied 0--14 Mbps in the evaluation).
    buffer_duration / cache_duration:
        ``d_buff`` / ``d_cache`` of the gateway buffer architecture.
    region_name:
        Coarse geographic region, used by the GSC to pick the viewer's LSC.
    """

    viewer_id: str
    inbound_capacity_mbps: float = 12.0
    outbound_capacity_mbps: float = 4.0
    buffer_duration: float = 0.3
    cache_duration: float = 25.0
    region_name: str = ""
    _buffers: Dict[StreamId, StreamBuffer] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        if not self.viewer_id:
            raise ValueError("viewer_id must be non-empty")
        require_non_negative(self.inbound_capacity_mbps, "inbound_capacity_mbps")
        require_non_negative(self.outbound_capacity_mbps, "outbound_capacity_mbps")
        require_positive(self.buffer_duration, "buffer_duration")
        require_non_negative(self.cache_duration, "cache_duration")

    @property
    def node_id(self) -> str:
        """Network node identifier (same as the viewer id)."""
        return self.viewer_id

    def buffer_for(self, stream_id: StreamId) -> StreamBuffer:
        """Return (creating on demand) the local buffer for a stream."""
        if stream_id not in self._buffers:
            self._buffers[stream_id] = StreamBuffer(
                buffer_duration=self.buffer_duration,
                cache_duration=self.cache_duration,
            )
        return self._buffers[stream_id]

    def drop_buffer(self, stream_id: StreamId) -> None:
        """Discard the buffer of a stream the viewer no longer receives."""
        self._buffers.pop(stream_id, None)

    @property
    def buffered_streams(self) -> Tuple[StreamId, ...]:
        """Streams for which this viewer currently holds frames."""
        return tuple(self._buffers)

    def synchronized_frames(
        self, now: float, stream_ids: List[StreamId], skew_tolerance: float = 0.0
    ) -> Optional[List[Frame]]:
        """Pick one frame per stream whose capture times lie within the skew bound.

        This models the renderer picking dependent frames from the per-stream
        buffers at the media playback point.  Returns ``None`` when no
        mutually consistent set exists (the view synchronization failure the
        delay-layer hierarchy is designed to prevent).
        """
        candidate_sets: List[List[Frame]] = []
        for stream_id in stream_ids:
            buffer = self._buffers.get(stream_id)
            if buffer is None:
                return None
            frames = buffer.in_buffer(now)
            if not frames:
                return None
            candidate_sets.append(frames)

        # Greedy: anchor on the stream whose newest frame is oldest, then find
        # the closest frame of every other stream.
        anchor_frames = min(candidate_sets, key=lambda fs: fs[-1].capture_time)
        anchor = anchor_frames[-1]
        chosen: List[Frame] = []
        tolerance = self.buffer_duration + skew_tolerance
        for frames in candidate_sets:
            best = min(frames, key=lambda f: abs(f.capture_time - anchor.capture_time))
            if abs(best.capture_time - anchor.capture_time) > tolerance:
                return None
            chosen.append(best)
        return chosen
