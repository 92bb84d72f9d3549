"""Frame-level data plane: replaying 3D frames through a built overlay.

The scaling experiments of the paper reason at the bandwidth/topology
level, but the view-synchronization claim (Layer Property 2) is ultimately
about frames: dependent frames of a view must be present in the gateway
buffers simultaneously so the renderer can display a consistent scene.

There is one replay.  :func:`_collect_edges` turns the overlay into one
:class:`_EdgeState` per subscription, and a frame batch reaches its
viewer under one of two cost models, selected by what the configuration
says about the link:

* **constant delay** (:func:`_deliver_constant_delay`) -- no bandwidth
  model and no loss: every frame arrives at ``capture_time + delay``.
  Nothing in it depends on simulated time, so
  :meth:`OverlayDataPlane.replay` runs it without an engine, one call
  per edge with the whole trace.
* **FIFO link with loss** (:func:`_send_chunk`) -- each chunk is
  serialized through the parent's reserved forwarding bin
  (:class:`~repro.sim.transport.DataLink`), lost and played out in one pass.
  The departure column of the FIFO (:func:`_departures`) depends only on
  the frames, the link's ``free_at`` and its rate, so edges whose links
  are in one state share it.  Loss is one process per link, the
  Gilbert-Elliott channel :class:`~repro.sim.transport.LossProcess`, set
  by a mean rate and a mean burst length; burst length 1 is i.i.d. loss.

:class:`SimulatedDataPlane` adds what needs the
:class:`~repro.sim.engine.Simulator`: one drain event per quiet window
between control events, which pops each live edge once, per-viewer
playout accounting (:class:`QoEReport`) and the observed-delay ``kappa``
refresh of :class:`~repro.core.adaptation.AdaptationManager`.  With
``bandwidth_headroom=None`` and zero loss its chunks go through the same
constant-delay function, one call per :data:`BATCH_QUANTUM`.

Results are stored by edge, one :data:`Lane` each: the edge's frames and
an ``array('d')`` of 8-byte replay-relative arrival times, one per frame
sent, with :data:`LOST` (``-inf``; a real arrival is ``>= 0``) for a
lost frame.  Per-viewer queries (:meth:`PlaybackReport.skews_for`) read
the lanes.  The per-frame :class:`DeliveryRecord` rows are built, and
sorted once, on the first read of a row of
:attr:`PlaybackReport.deliveries`; counting them reads the lanes.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_left
from collections.abc import Sequence as SequenceABC
from dataclasses import dataclass, field
from heapq import heapify, heappop, heappush
from itertools import count, repeat
from operator import itemgetter
from typing import TYPE_CHECKING, Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from repro.model.stream import Frame, StreamId
from repro.sim.transport import DataChannel, DataLink
from repro.traces.teeve import TeeveSessionTrace
from repro.util.validation import require_positive

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (telecast imports us)
    from repro.core.telecast import TeleCastSystem


class DeliveryRecord(NamedTuple):
    """One frame delivered to one viewer.

    Tuple-backed because a replay builds one per delivered frame: the
    constructor runs in C, and reports sort by field position.
    """

    viewer_id: str
    stream_id: StreamId
    frame_number: int
    capture_time: float
    delivery_time: float

    @property
    def end_to_end_delay(self) -> float:
        """Capture-to-gateway delay of the frame."""
        return self.delivery_time - self.capture_time


#: Replay seconds of frames in one chunk of an edge, which starts at its
#: first frame's capture time.  Delivery timestamps are independent of it
#: (pinned by ``tests/test_dataplane_sim.py``).  It bounds how stale an
#: edge's layer state can be when its frames transmit: a control event
#: inside a chunk takes effect from the edge's next chunk on.  It does not
#: set the engine's granularity: one drain covers every chunk that starts
#: before the next control event.
BATCH_QUANTUM = 1.0

#: The arrival of a lost frame.  It compares equal to itself (NaN would
#: not, and arrival columns are compared), and no delivered frame arrives
#: before the replay epoch.
LOST = -math.inf

#: One edge's results: ``(viewer_id, stream_id, frames, arrivals)``, where
#: ``arrivals`` is an ``array('d')`` whose ``arrivals[i]`` is the
#: replay-relative delivery time of ``frames[i]`` (:data:`LOST` if it was
#: lost) for every frame sent on the edge.
Lane = Tuple[str, StreamId, Sequence[Frame], "array[float]"]


def _delivery_records(lanes_by_viewer: Dict[str, List[Lane]]) -> List[DeliveryRecord]:
    """The lanes' deliveries, sorted by ``(delivery_time, viewer_id)``.

    Rows are built in ``viewer_id`` order -- each viewer's lanes in
    stored order, each lane in frame order -- so one stable sort on the
    float ``delivery_time`` alone yields the ``(delivery_time,
    viewer_id)`` order, with equal keys in the order the replay sent the
    frames.  A float key costs the sort only its pointer arrays; a
    ``(delivery_time, viewer_id)`` tuple key would allocate one tuple
    per delivery.
    """
    records = [
        DeliveryRecord(viewer_id, stream_id, frame.frame_number, frame.capture_time, arrival)
        for viewer_id in sorted(lanes_by_viewer)
        for _, stream_id, frames, arrivals in lanes_by_viewer[viewer_id]
        for frame, arrival in zip(frames, arrivals)
        if arrival != LOST
    ]
    records.sort(key=itemgetter(4))
    return records


class Deliveries(SequenceABC):
    """A report's frame deliveries, sorted by ``(delivery_time, viewer_id)``.

    ``len()`` and ``bool()`` count the delivered arrivals of the lanes.
    Iterating, indexing or comparing builds the :class:`DeliveryRecord`
    rows (:func:`_delivery_records`) on first use and keeps them.
    """

    __slots__ = ("_lanes", "_rows")

    def __init__(self, lanes_by_viewer: Dict[str, List[Lane]]) -> None:
        self._lanes = lanes_by_viewer
        self._rows: Optional[List[DeliveryRecord]] = None

    def _built(self) -> List[DeliveryRecord]:
        if self._rows is None:
            self._rows = _delivery_records(self._lanes)
        return self._rows

    def __len__(self) -> int:
        if self._rows is not None:
            return len(self._rows)
        return sum(
            len(arrivals) - arrivals.count(LOST)
            for lanes in self._lanes.values()
            for _, _, _, arrivals in lanes
        )

    def __getitem__(self, index):
        return self._built()[index]

    def __iter__(self):
        return iter(self._built())

    def __eq__(self, other) -> bool:
        if isinstance(other, Deliveries):
            other = other._built()
        return self._built() == other

    __hash__ = None  # type: ignore[assignment]


class PlaybackReport:
    """Result of replaying a trace through the overlay, stored by edge.

    Per-viewer queries read that viewer's lanes; ``deliveries`` (a
    :class:`Deliveries`) builds the per-frame rows on their first read.
    """

    def __init__(self, lanes: Iterable[Lane]) -> None:
        self._lanes: Dict[str, List[Lane]] = {}
        for lane in lanes:
            self._lanes.setdefault(lane[0], []).append(lane)
        #: Every frame delivery, sorted by (delivery_time, viewer_id).
        self.deliveries = Deliveries(self._lanes)

    def skews_for(
        self, viewer_id: str, playout_point: float
    ) -> Tuple[Optional[float], Optional[float]]:
        """``(skew_for, playout_skew_for)`` from one pass over the lanes.

        The samples are the frame numbers delivered on every stream the
        viewer received (a stream with at least one delivered frame).  A
        frame lost on any received stream is not a sample, and neither is
        a frame past the shortest lane: a stream the layer refresh dropped
        mid-replay ends the samples at its last sent frame.  For each
        sample the two skews are spreads of the same dependent-frame
        delays -- raw, and clamped from below at ``playout_point`` -- so
        both follow from the fastest and slowest of those delays.  A trace
        numbers a stream's frames from 0, so frame ``i`` is row ``i`` of
        every lane, and the rows are read column-wise.  ``(None, None)``
        when the viewer received fewer than two streams.
        """
        columns = [
            [at - f.capture_time for f, at in zip(frames, arrivals)]
            for _, _, frames, arrivals in self._lanes.get(viewer_id, ())
            if arrivals.count(LOST) < len(arrivals)
        ]
        if len(columns) < 2:
            return None, None
        skew = playout_skew = 0.0
        for fastest, slowest in zip(map(min, *columns), map(max, *columns)):
            if fastest == LOST:
                # Lost on some stream (LOST minus a capture time is LOST).
                continue
            if slowest - fastest > skew:
                skew = slowest - fastest
            # Clamping at the playout point is monotone, so the aligned
            # extremes are the clamped raw extremes.
            if slowest > playout_point:
                aligned = slowest - (fastest if fastest > playout_point else playout_point)
                if aligned > playout_skew:
                    playout_skew = aligned
        return skew, playout_skew

    def skew_for(self, viewer_id: str) -> Optional[float]:
        """Worst inter-stream delay skew observed at a viewer.

        For every frame number delivered on all of the viewer's received
        streams, up to the shortest of them (the samples of
        :meth:`skews_for`), the skew is the spread of the end-to-end
        delays of those dependent frames (``|d_Si - d_Sk|`` in the paper,
        which Layer Property 2 bounds by ``d_buff``); the method returns
        the maximum spread, or ``None`` when the viewer received fewer
        than two streams.
        """
        return self.skews_for(viewer_id, 0.0)[0]

    def playout_skew_for(
        self, viewer_id: str, playout_point: float
    ) -> Optional[float]:
        """Residual inter-stream skew at the viewer's playout point.

        The gateway buffer absorbs arrival skew by holding early frames
        until the playout point ``P_v`` (the viewer's slowest structural
        stream delay): a frame's *renderer-visible* delay is
        ``max(end_to_end_delay, P_v)``.  The residual spread of those
        aligned delays is what the renderer actually observes -- zero
        when every dependent frame is co-resident in the gateway buffers
        by playout time, positive exactly when queueing (or extra
        transit) pushed a frame past ``P_v``.  Layer Property 2 bounds
        this quantity by ``d_buff``; ``None`` when the viewer received
        fewer than two streams.
        """
        return self.skews_for(viewer_id, playout_point)[1]


class OverlayDataPlane:
    """The engine-free replay: every edge delivers at its constant delay."""

    def __init__(self, system: TeleCastSystem, trace: TeeveSessionTrace) -> None:
        self.system = system
        self.trace = trace

    def replay(self, *, max_frames_per_stream: Optional[int] = None) -> PlaybackReport:
        """Deliver frames of every subscribed stream to every connected viewer.

        Each viewer receives a frame at
        ``capture_time + effective_delay(viewer, stream)`` where the
        effective delay comes from the viewer's subscription (overlay
        position plus any deliberate layer push-down).  Frames are also
        inserted into the viewer's gateway buffers so buffer/cache behaviour
        can be inspected afterwards; replaying again on the same system
        inserts nothing (each buffer already holds the newest frame).  The
        report is sorted by (delivery_time, viewer_id).
        """
        edges = _collect_edges(self.system, self.trace, max_frames_per_stream)
        for edge in edges:
            node = edge.session.subscriptions[edge.stream_id]
            _deliver_constant_delay(
                edge, edge.frames, node.effective_delay or node.end_to_end_delay
            )
        return PlaybackReport(_lanes(edges))


@dataclass(frozen=True)
class DataPlaneConfig:
    """Parameters of the event-driven (simulated) data plane.

    Attributes
    ----------
    loss_rate:
        Mean (stationary) per-frame, per-edge loss rate in ``[0, 1)``.
    mean_burst_length:
        Expected consecutive-loss run length of each edge's
        Gilbert-Elliott channel (:class:`~repro.sim.transport.LossProcess`);
        ``1.0`` gives each frame an independent fate (i.i.d. loss),
        longer runs give correlated loss bursts at the same mean rate.
    bandwidth_headroom:
        Multiplier on each edge's reserved forwarding rate (one
        stream-bandwidth bin per child, the unit of
        :func:`repro.core.bandwidth.allocate_outbound`).  ``1.0`` gives
        each edge exactly the stream's nominal bandwidth, so size jitter
        queues frames; larger values drain queues faster; ``None``
        removes the bandwidth model entirely (zero serialization delay).
    refresh_interval:
        Period (replay seconds) of the observed-delay ``kappa`` layer
        refresh (:meth:`repro.core.adaptation.AdaptationManager.\
refresh_layers_from_observed`); ``None`` disables the feedback loop.
    max_frames_per_stream:
        Truncate every stream's trace to its first N frames
        (``None`` replays the full trace).
    seed:
        Seed of the losses: a frame's fate is a function of it, the
        link's ``(src, dst, stream_id)`` key and the frame number.
    """

    loss_rate: float = 0.0
    mean_burst_length: float = 1.0
    bandwidth_headroom: Optional[float] = 1.0
    refresh_interval: Optional[float] = 5.0
    max_frames_per_stream: Optional[int] = None
    seed: int = 0

    def __post_init__(self) -> None:
        if not (0.0 <= self.loss_rate < 1.0):
            raise ValueError(f"loss_rate must be in [0, 1), got {self.loss_rate}")
        if not (1.0 <= self.mean_burst_length < math.inf):
            raise ValueError(
                f"mean_burst_length must be finite and >= 1, "
                f"got {self.mean_burst_length}"
            )
        if self.bandwidth_headroom is not None:
            require_positive(self.bandwidth_headroom, "bandwidth_headroom")
        if self.refresh_interval is not None and not (
            0.0 < self.refresh_interval < math.inf
        ):
            raise ValueError(
                f"refresh_interval must be finite and > 0, got {self.refresh_interval}"
            )
        if self.max_frames_per_stream is not None and self.max_frames_per_stream < 0:
            raise ValueError("max_frames_per_stream must be >= 0 or None")


@dataclass(frozen=True, slots=True)
class ViewerQoE:
    """Playout quality observed by one viewer over a simulated replay.

    ``startup_delay`` is the time from the replay epoch (capture time 0
    of the trace) to the latest first arrival among the viewer's streams
    that delivered any frame, so it includes the end-to-end delay of the
    slowest of them (``None`` when no stream delivered);
    ``continuity`` the fraction of expected frames that arrived before
    the viewer's playout deadline (structural playout point plus
    ``d_buff``).  Two skews are reported: ``skew`` is the raw
    gateway-arrival spread (:meth:`PlaybackReport.skew_for`, structurally
    bounded by ``d_buff + tau`` since viewers sit anywhere inside their
    delay layer), while ``playout_skew`` is the residual spread after the
    gateway aligns early frames at the playout point
    (:meth:`PlaybackReport.playout_skew_for`) -- the renderer-visible
    quantity Layer Property 2 bounds by ``d_buff``.
    """

    viewer_id: str
    startup_delay: Optional[float]
    continuity: float
    skew: Optional[float]
    playout_skew: Optional[float]
    frames_expected: int
    frames_delivered: int
    frames_lost: int
    frames_late: int
    #: Frames never sent because the layer refresh dropped the stream
    #: mid-replay; they count against ``continuity`` (losing a whole
    #: stream is a playout failure, not an excuse).
    frames_dropped: int = 0
    #: Continuity after single-frame loss concealment: an isolated
    #: missing frame whose two neighbours arrived on time is repairable
    #: by interpolation, so only un-concealable gaps (runs of >= 2, or
    #: gaps at a stream boundary) count against playback.  Linear in the
    #: loss rate for bursty channels but quadratic for i.i.d. loss, this
    #: is the metric that separates the two at matched mean loss.
    playable_continuity: float = 1.0
    #: Isolated losses repaired by concealment (both neighbours on time).
    frames_concealed: int = 0


@dataclass
class QoEReport:
    """Result of one simulated replay: deliveries plus per-viewer QoE."""

    playback: PlaybackReport
    d_buff: float
    per_viewer: Dict[str, ViewerQoE] = field(default_factory=dict)
    frames_sent: int = 0
    frames_delivered: int = 0
    frames_lost: int = 0
    frames_late: int = 0
    frames_dropped: int = 0

    @property
    def deliveries(self) -> Deliveries:
        """The frame deliveries, sorted by (delivery_time, viewer_id).

        The rows are built from the playback lanes on their first read;
        the replay itself never reads one.
        """
        return self.playback.deliveries

    def startup_delays(self) -> List[float]:
        """Per-viewer startup delays (viewers that received frames)."""
        return [
            qoe.startup_delay
            for qoe in self.per_viewer.values()
            if qoe.startup_delay is not None
        ]

    def continuities(self) -> List[float]:
        """Per-viewer playout continuity values."""
        return [qoe.continuity for qoe in self.per_viewer.values()]

    def playable_continuities(self) -> List[float]:
        """Per-viewer concealment-aware playout continuity values."""
        return [qoe.playable_continuity for qoe in self.per_viewer.values()]

    def skews(self) -> List[float]:
        """Per-viewer raw gateway-arrival skews (viewers with >= 2 streams)."""
        return [qoe.skew for qoe in self.per_viewer.values() if qoe.skew is not None]

    def playout_skews(self) -> List[float]:
        """Per-viewer renderer-visible skews at the playout point."""
        return [
            qoe.playout_skew
            for qoe in self.per_viewer.values()
            if qoe.playout_skew is not None
        ]


class _EdgeState:
    """Mutable per-subscription replay state."""

    __slots__ = (
        "viewer_id",
        "stream_id",
        "session",
        "viewer",
        "frames",
        "arrivals",
        "index",
        "deadline",
        "first_delivery",
        "last_received",
        "expected",
        "delivered",
        "lost",
        "late",
        "dropped",
        "concealed",
        "gap_len",
        "prev_ok",
        "window_sum",
        "window_count",
        "link",
        "link_parent",
    )

    def __init__(self, viewer_id, stream_id, session, frames, deadline):
        self.viewer_id = viewer_id
        self.stream_id = stream_id
        self.session = session
        self.viewer = session.viewer
        self.frames = frames
        self.arrivals = array("d")
        self.index = 0
        self.deadline = deadline
        self.first_delivery: Optional[float] = None
        self.last_received = float("-inf")
        self.expected = 0
        self.delivered = 0
        self.lost = 0
        self.late = 0
        self.dropped = 0
        # Single-frame concealment state: an unplayable frame opens a
        # gap; the next on-time frame closes it, and a closed gap of
        # exactly one frame bounded by on-time neighbours is concealed.
        self.concealed = 0
        self.gap_len = 0
        self.prev_ok = False
        self.window_sum = 0.0
        self.window_count = 0
        # The link of the current parent, looked up again only when the
        # parent changes.
        self.link: Optional[DataLink] = None
        self.link_parent: Optional[str] = None

    def frame_ok(self) -> None:
        """Record one on-time delivery, closing (maybe concealing) a gap."""
        if self.gap_len == 1 and self.prev_ok:
            self.concealed += 1
        self.gap_len = 0
        self.prev_ok = True


def _lanes(edges: Iterable[_EdgeState]) -> List[Lane]:
    """One lane per edge, sharing the edge's frame and arrival lists."""
    return [(e.viewer_id, e.stream_id, e.frames, e.arrivals) for e in edges]


def _playout_deadline(session) -> float:
    """Latest on-time delay at a viewer: its slowest stream plus ``d_buff``."""
    playout = 0.0
    for node in session.subscriptions.values():
        delay = node.effective_delay or node.end_to_end_delay
        if delay > playout:
            playout = delay
    return playout + session.viewer.buffer_duration


def _collect_edges(
    system: "TeleCastSystem", trace: TeeveSessionTrace, max_frames: Optional[int]
) -> List[_EdgeState]:
    """One edge per subscription, in lsc -> viewer -> subscription order.

    Each stream's frames are generated once, up to ``max_frames``, and
    shared by all of its subscribers; a stream without frames gets no
    edge.
    """
    edges: List[_EdgeState] = []
    frames_by_stream: Dict[StreamId, List[Frame]] = {}
    for lsc in system.gsc.lscs:
        for viewer_id, session in lsc.sessions.items():
            deadline = _playout_deadline(session)
            for stream_id in session.subscriptions:
                frames = frames_by_stream.get(stream_id)
                if frames is None:
                    frames = trace.frames_for_stream(stream_id, max_frames)
                    frames_by_stream[stream_id] = frames
                if frames:
                    edges.append(
                        _EdgeState(viewer_id, stream_id, session, frames, deadline)
                    )
    return edges


class _WindowChunks(NamedTuple):
    """The chunks of one stream's edges inside one drain window."""

    #: ``frames[bounds[i]:bounds[i + 1]]`` is the window's chunk ``i``.
    bounds: List[int]
    #: Engine start time of the window's last chunk.
    last_start: float
    #: Every frame of the window's chunks.
    frames: List[Frame]
    #: Start of the first chunk at or after the window's end; ``None``
    #: when the stream has no frame left.
    next_start: Optional[float]


def _window_chunks(
    frames: List[Frame],
    captures: List[float],
    index: int,
    start: float,
    t0: float,
    window_end: float,
) -> _WindowChunks:
    """Walk the chunks from ``frames[index]``, which starts at ``start``.

    A chunk holds the frames captured less than :data:`BATCH_QUANTUM`
    after its start (the first by ``bisect_left`` on the capture column
    ``captures``); the next chunk starts at its first frame's capture
    time.  The walk stops at the first chunk that starts at or after
    ``window_end``.
    """
    total = len(captures)
    bounds = [index]
    last_start = start
    next_start: Optional[float] = None
    while True:
        index = bisect_left(captures, (start - t0) + BATCH_QUANTUM, index)
        bounds.append(index)
        if index == total:
            break
        start = t0 + captures[index]
        if not start < window_end:
            next_start = start
            break
        last_start = start
    return _WindowChunks(bounds, last_start, frames[bounds[0] : index], next_start)


def _deliver_constant_delay(
    edge: _EdgeState, batch: Sequence[Frame], delay: float
) -> None:
    """Deliver ``batch`` on ``edge`` at ``capture_time + delay``.

    Appends the arrival times, inserts the frames into the viewer's
    gateway buffer and updates the edge's playout accounting.  A frame at
    or below the buffer's latest frame number (a repeated replay), or
    whose arrival would precede an already-buffered one (a re-provision
    shortened the path mid-replay), is skipped, so buffer contents track
    the arrivals frame for frame.  Frames are in capture order and arrive
    in that order, so the skipped frames are a prefix of the batch.  The
    buffer then evicts what arrived more than ``d_buff + d_cache`` before
    its newest frame (:meth:`~repro.model.viewer.StreamBuffer.evict_expired`),
    so it keeps the forwarding horizon, not the whole replay.
    """
    arrivals = [frame.capture_time + delay for frame in batch]
    edge.arrivals.fromlist(arrivals)
    buffer = edge.viewer.buffer_for(edge.stream_id)
    latest = buffer.latest_frame()
    floor = latest.frame_number if latest is not None else -1
    skip = 0
    for frame, received in zip(batch, arrivals):
        if frame.frame_number > floor and received >= edge.last_received:
            break
        skip += 1
    if skip < len(batch):
        buffer.extend(batch[skip:], arrivals[skip:])
        edge.last_received = arrivals[-1]
        buffer.evict_expired(arrivals[-1])
    count = len(batch)
    edge.expected += count
    edge.delivered += count
    if delay > edge.deadline + 1e-9:
        edge.late += count
        edge.gap_len += count
    else:
        # Only the first frame of the batch can close a gap; the rest
        # are consecutive on-time deliveries.
        edge.frame_ok()
    if edge.first_delivery is None:
        edge.first_delivery = arrivals[0]
    edge.window_sum += count * delay
    edge.window_count += count


def _departures(
    chunk: Sequence[Frame], epoch: float, free_at: float, rate: Optional[float]
) -> List[float]:
    """When each frame of ``chunk`` leaves a FIFO link that is free at ``free_at``.

    Each frame enters the link at ``epoch + capture_time``, starts when
    the link is free and occupies it ``size_megabits / rate`` seconds
    (``rate=None``: no time).  The column is the link's ``free_at`` after
    each frame.  Nothing in it is edge-specific, so every edge whose link
    is in the same state shares one column.
    """
    column: List[float] = []
    depart = column.append
    for frame in chunk:
        sent_at = epoch + frame.capture_time
        if sent_at > free_at:
            free_at = sent_at
        if rate is not None:
            free_at += frame.size_megabits / rate
        depart(free_at)
    return column


def _send_chunk(
    channel: DataChannel,
    link: DataLink,
    edge: _EdgeState,
    chunk: Sequence[Frame],
    epoch: float,
    path_delay: float,
    *,
    departures: Optional[Sequence[float]] = None,
) -> None:
    """Serialize, lose and play out ``chunk`` on ``edge`` in one pass.

    The frames leave ``link`` at ``departures`` (:func:`_departures` of
    the link's state, computed here unless the caller shares one) and
    arrive ``path_delay`` later; a lost frame still takes its link time.
    A lossy link's fates are those of the chunk's frame numbers
    (:meth:`~repro.sim.transport.DataChannel.fates`), so no chunk split
    and no opening frame moves one.  The
    replay-relative arrival ``departure + path_delay - epoch``
    (:data:`LOST` if lost) is collected for the edge's arrival column,
    and the same loop does the playout accounting and picks what the
    gateway buffer takes (see :func:`_deliver_constant_delay`).  The
    arrival column, the link, channel and edge counters are written once
    per chunk.
    """
    if departures is None:
        departures = _departures(chunk, epoch, link.free_at, link.rate_mbps)
    count = len(chunk)
    key = link.key
    if key is None or not count:
        fates = repeat(0)
    else:
        fates = channel.fates(key, chunk[0].frame_number, count)
    buffer = edge.viewer.buffer_for(edge.stream_id)
    latest = buffer.latest_frame()
    floor = latest.frame_number if latest is not None else -1
    deadline = edge.deadline + 1e-9
    last_received = edge.last_received
    first_delivery = edge.first_delivery
    window_sum = edge.window_sum
    concealed = edge.concealed
    gap_len = edge.gap_len
    prev_ok = edge.prev_ok
    lost = late = 0
    arrivals: List[float] = []
    arrive = arrivals.append
    held_frames: List[Frame] = []
    held_arrivals: List[float] = []
    for frame, dropped, departed in zip(chunk, fates, departures):
        if dropped:
            arrive(LOST)
            lost += 1
            gap_len += 1
            continue
        delivery_rel = departed + path_delay - epoch
        arrive(delivery_rel)
        observed = delivery_rel - frame.capture_time
        if observed > deadline:
            late += 1
            gap_len += 1
        else:
            # An on-time frame closes the gap; a closed gap of exactly
            # one frame between on-time neighbours is concealed (see
            # _EdgeState.frame_ok).
            if gap_len == 1 and prev_ok:
                concealed += 1
            gap_len = 0
            prev_ok = True
        frame_number = frame.frame_number
        if frame_number > floor and delivery_rel >= last_received:
            held_frames.append(frame)
            held_arrivals.append(delivery_rel)
            floor = frame_number
            last_received = delivery_rel
        if first_delivery is None:
            first_delivery = delivery_rel
        window_sum += observed
    if count:
        link.free_at = departures[count - 1]
    edge.arrivals.fromlist(arrivals)
    if held_frames:
        buffer.extend(held_frames, held_arrivals)
        buffer.evict_expired(last_received)
    delivered = count - lost
    channel.sent += count
    channel.lost += lost
    channel.delivered += delivered
    edge.expected += count
    edge.lost += lost
    edge.delivered += delivered
    edge.late += late
    edge.concealed = concealed
    edge.gap_len = gap_len
    edge.prev_ok = prev_ok
    edge.last_received = last_received
    edge.first_delivery = first_delivery
    edge.window_sum = window_sum
    edge.window_count += delivered


class SimulatedDataPlane:
    """Event-driven frame replay over the overlay of a TeleCast session.

    Frames of every subscribed stream travel in chunks of
    :data:`BATCH_QUANTUM` trace seconds: each chunk serializes its frames
    through the parent's reserved forwarding bin (FIFO queueing, loss),
    stamps the deliveries, inserts the frames into the viewer's gateway
    buffer and updates the playout accounting in one pass.  Edge state
    (parent, effective delay, still-subscribed) is read again after every
    control event, so the observed-delay layer refresh running on the
    same :class:`~repro.sim.engine.Simulator` feeds back into subsequent
    deliveries.

    Edges wait on the plane's own ``(start, seq)`` heap, keyed by their
    next chunk, behind one engine event, the drain.  Between two control
    events (a refresh, or any other engine event) edges share only
    additive counters (a link's losses are keyed by its edge), so the
    drain pops each edge whose next chunk starts strictly before the next
    control event once: the edge reads its subscription, deadline and
    link, walks its chunks up to that event on the stream's capture-time
    column (:func:`_window_chunks`) and sends their frames in one
    :func:`_send_chunk` call.  Within a window, edges share the chunk
    walk of their stream, the departure column of their link state and
    their viewer's playout deadline.  An edge still live goes straight
    back on the heap at its next chunk; the order in which tied edges
    pop decides nothing.

    The replay starts at the simulator's current time (frames are
    rebased onto the live clock); all recorded times are relative to the
    replay epoch so they compare directly with the offline
    :class:`OverlayDataPlane` records.
    """

    def __init__(
        self,
        system: "TeleCastSystem",
        trace: TeeveSessionTrace,
        config: Optional[DataPlaneConfig] = None,
    ) -> None:
        self.system = system
        self.trace = trace
        self.config = config or DataPlaneConfig()
        self._t0 = 0.0
        self._channel: Optional[DataChannel] = None
        self._edges: List[_EdgeState] = []
        self._due: List[Tuple[float, int, _EdgeState]] = []
        #: Capture-time column of each stream's frames, for the replay.
        self._captures: Dict[StreamId, List[float]] = {}
        self._seq = count()
        self._last_start = 0.0
        self._report: Optional[QoEReport] = None

    # -- replay ------------------------------------------------------------------

    def run(self) -> QoEReport:
        """Replay the trace through the current overlay; return the QoE report."""
        sim = self.system.simulator
        cfg = self.config
        self._t0 = sim.now
        self._channel = DataChannel(
            loss_rate=cfg.loss_rate,
            mean_burst_length=cfg.mean_burst_length,
            seed=cfg.seed,
        )
        self._edges = _collect_edges(
            self.system, self.trace, cfg.max_frames_per_stream
        )
        frames_by_stream = {edge.stream_id: edge.frames for edge in self._edges}
        self._captures = {
            stream_id: [frame.capture_time for frame in frames]
            for stream_id, frames in frames_by_stream.items()
        }
        self._report = QoEReport(
            playback=PlaybackReport(_lanes(self._edges)),
            d_buff=self.system.layer_config.buffer_duration,
        )
        for edge in self._edges:
            self._due.append((self._t0 + edge.frames[0].capture_time, next(self._seq), edge))
        heapify(self._due)
        if self._due:
            sim.schedule_at(self._due[0][0], self._drain)
        if cfg.refresh_interval is not None and self._edges:
            horizon = max(edge.frames[-1].capture_time for edge in self._edges)
            self._schedule_refresh(self._t0 + cfg.refresh_interval, horizon)
        sim.run()
        # Stop the clock where a per-chunk engine would: the last chunk start.
        sim.run(until=self._last_start)
        self._captures = {}
        return self._finalize()

    def _drain(self) -> None:
        """Send every chunk that starts before the next event on the engine,
        popping each live edge once (see :class:`SimulatedDataPlane`)."""
        sim = self.system.simulator
        cfg = self.config
        channel = self._channel
        t0 = self._t0
        constant = cfg.bandwidth_headroom is None and cfg.loss_rate == 0.0
        window_end = sim.next_time()
        due = self._due
        # Shared by the window's edges: chunk walks by (stream, index),
        # departure columns by link state, playout deadlines by viewer.
        walks: Dict[Tuple[StreamId, int], _WindowChunks] = {}
        departures: Dict[Tuple[StreamId, int, float, Optional[float]], List[float]] = {}
        deadlines: Dict[str, float] = {}
        while due and due[0][0] < window_end:
            start, _, edge = heappop(due)
            stream_id = edge.stream_id
            node = edge.session.subscriptions.get(stream_id)
            if node is None:
                # Dropped by the layer refresh: the edge terminates, and
                # the undeliverable tail still counts against the viewer's
                # continuity -- losing a whole stream IS a playout failure.
                self._last_start = max(self._last_start, start)
                remaining = len(edge.frames) - edge.index
                edge.expected += remaining
                edge.dropped += remaining
                edge.gap_len += remaining
                edge.index = len(edge.frames)
                continue
            if cfg.refresh_interval is not None:
                # The playout point tracks the refreshed layers: a
                # push-down re-buffers the viewer, moving its deadline
                # along (static without the feedback loop, so such runs
                # skip this).
                deadline = deadlines.get(edge.viewer_id)
                if deadline is None:
                    deadline = deadlines[edge.viewer_id] = _playout_deadline(edge.session)
                edge.deadline = deadline
            if not constant and edge.link_parent != node.parent_id:
                headroom = cfg.bandwidth_headroom
                rate = None
                if headroom is not None:
                    stream = edge.session.view.stream_by_id[stream_id]
                    rate = headroom * stream.bandwidth_mbps
                edge.link = channel.link(node.parent_id, edge.viewer_id, stream_id, rate)
                edge.link_parent = node.parent_id
            delay = node.effective_delay or node.end_to_end_delay
            index = edge.index
            chunks = walks.get((stream_id, index))
            if chunks is None:
                chunks = walks[(stream_id, index)] = _window_chunks(
                    edge.frames, self._captures[stream_id], index, start, t0, window_end
                )
            bounds = chunks.bounds
            edge.index = stop = bounds[-1]
            if constant:
                # No serialization, no loss: one constant-delay call per
                # chunk (its delay sum is not split-invariant).
                frames = edge.frames
                channel.sent += stop - index
                channel.delivered += stop - index
                for low, high in zip(bounds, bounds[1:]):
                    _deliver_constant_delay(edge, frames[low:high], delay)
            else:
                link = edge.link
                state = (stream_id, index, link.free_at, link.rate_mbps)
                column = departures.get(state)
                if column is None:
                    column = departures[state] = _departures(
                        chunks.frames, t0, link.free_at, link.rate_mbps
                    )
                _send_chunk(channel, link, edge, chunks.frames, t0, delay, departures=column)
            if chunks.next_start is None:
                self._last_start = max(self._last_start, chunks.last_start)
            else:
                # At or after the window's end: not popped again here.
                heappush(due, (chunks.next_start, next(self._seq), edge))
        if due:
            sim.schedule_at(due[0][0], self._drain)

    # -- observed-delay layer refresh --------------------------------------------

    def _schedule_refresh(self, at: float, horizon: float) -> None:
        sim = self.system.simulator

        def refresh() -> None:
            self._run_refresh()
            next_at = at_holder[0] + self.config.refresh_interval
            if next_at - self._t0 <= horizon:
                at_holder[0] = next_at
                sim.schedule_at(next_at, refresh)

        at_holder = [at]
        sim.schedule_at(at, refresh)

    def _run_refresh(self) -> None:
        """Feed the last window's observed delays into the layer adaptation."""
        observed: Dict[Tuple[str, StreamId], float] = {}
        for edge in self._edges:
            if edge.window_count:
                observed[(edge.viewer_id, edge.stream_id)] = (
                    edge.window_sum / edge.window_count
                )
                edge.window_sum = 0.0
                edge.window_count = 0
        if not observed:
            return
        self.system.refresh_layers_from_observed(observed, self.system.simulator.now)

    # -- reporting ----------------------------------------------------------------

    def _finalize(self) -> QoEReport:
        report = self._report
        report.frames_sent = self._channel.sent
        report.frames_delivered = self._channel.delivered
        report.frames_lost = self._channel.lost
        per_viewer_edges: Dict[str, List[_EdgeState]] = {}
        for edge in self._edges:
            per_viewer_edges.setdefault(edge.viewer_id, []).append(edge)
        for viewer_id, edges in per_viewer_edges.items():
            expected = sum(edge.expected for edge in edges)
            delivered = sum(edge.delivered for edge in edges)
            lost = sum(edge.lost for edge in edges)
            late = sum(edge.late for edge in edges)
            dropped = sum(edge.dropped for edge in edges)
            concealed = sum(edge.concealed for edge in edges)
            report.frames_late += late
            report.frames_dropped += dropped
            firsts = [
                edge.first_delivery for edge in edges if edge.first_delivery is not None
            ]
            startup = max(firsts) if firsts else None
            continuity = (delivered - late) / expected if expected else 1.0
            playable = (
                (delivered - late + concealed) / expected if expected else 1.0
            )
            playout_point = max(edge.deadline for edge in edges) - edges[
                0
            ].viewer.buffer_duration
            skew, playout_skew = report.playback.skews_for(viewer_id, playout_point)
            report.per_viewer[viewer_id] = ViewerQoE(
                viewer_id=viewer_id,
                startup_delay=startup,
                continuity=continuity,
                skew=skew,
                playout_skew=playout_skew,
                frames_expected=expected,
                frames_delivered=delivered,
                frames_lost=lost,
                frames_late=late,
                frames_dropped=dropped,
                playable_continuity=playable,
                frames_concealed=concealed,
            )
        return report
