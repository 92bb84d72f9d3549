"""Frozen chunk step and chunk schedule of the simulated data plane: the
executable specs.

**The chunk step.**  The FIFO-link branch of ``_transmit_chunk`` (below)
as it was before a chunk became one pass: ``DataLink.transmit_chunk``
computed the absolute delivery times, ``DataChannel.transmit_chunk`` folded the
channel counters, a list re-based the times onto the replay epoch, and a
playout loop consumed that list.  The three bodies are kept statement for
statement, as functions of the state-only link and channel, comments
trimmed.  ``tests/test_properties.py::TestChunkedLinkEquivalence`` runs
random chunks through it and through
:func:`repro.core.dataplane._send_chunk` and asserts equal arrival
columns, link, channel, buffer and edge state.  The step predates
gateway-buffer eviction: :func:`held_within_horizon` restricts its buffer
to the frames within ``d_buff + d_cache`` of the buffer's newest arrival,
the rule the replay goldens were re-captured by when the replay began
to evict.

**The chunk schedule.**  :class:`PerChunkSimulatedDataPlane` is the
driver ``SimulatedDataPlane`` had before one engine event drained every
due edge up to the next control event: one engine event per edge per
:data:`~repro.core.dataplane.BATCH_QUANTUM` of trace time, each
re-reading the subscription, the playout deadline and the link.  Its
``run`` and ``_transmit_chunk`` are kept statement for statement; the
callback that was stored on the edge (an ``_EdgeState.callback`` slot)
is built afresh per event, which fires the same function at the same
``(time, seq)``.  Everything else -- edge collection, the chunk
functions, the layer refresh, the report -- is the production code.
``tests/test_properties.py::TestDrainMatchesPerChunkSchedule`` runs both
drivers on identically built overlays and asserts equal deliveries,
QoE, channel counters, links, buffers, edges and the final clock.  The
chunk end is read as ``dataplane.BATCH_QUANTUM`` so that a test that
patches the constant patches both drivers.

**The report order.**  :func:`tuple_key_delivery_records` is the
``deliveries`` builder as it was before rows were built in viewer order:
one pass over the lanes in the order given, then one stable sort on a
``(delivery_time, viewer_id)`` tuple key.
``tests/test_properties.py::TestDeliveryOrder`` asserts that
``PlaybackReport(lanes).deliveries`` equals it element for element.

Do not use it in production code and do not "fix" it -- behaviour
changes here silently weaken the equivalence guarantee.
"""

from __future__ import annotations

from functools import partial
from itertools import repeat
from operator import itemgetter
from typing import Any, Iterable, List, Optional, Sequence

from repro.core import dataplane
from repro.core.dataplane import (
    LOST,
    DeliveryRecord,
    Lane,
    PlaybackReport,
    QoEReport,
    SimulatedDataPlane,
    _collect_edges,
    _deliver_constant_delay,
    _lanes,
    _playout_deadline,
    _send_chunk,
)
from repro.model.stream import Frame
from repro.sim.transport import DataChannel


def held_within_horizon(buffer) -> List[Any]:
    """``buffer.held()`` without the frames an evicting replay drops."""
    held = buffer.held()
    if not held:
        return held
    horizon = buffer.buffer_duration + buffer.cache_duration
    newest = held[-1][1]
    return [(frame, at) for frame, at in held if not newest - at > horizon]


def link_transmit_chunk(
    channel, link, frames: Sequence[Any], *, epoch: float, path_delay: float
) -> List[Optional[float]]:
    """``DataLink.transmit_chunk``: absolute delivery times, ``None`` if lost.

    A lossy link's fates are read through ``channel.fates`` (a link
    stores none), by the frame numbers of ``frames``."""
    rate = link.rate_mbps
    free_at = link.free_at
    if link.key is not None and frames:
        fates = channel.fates(link.key, frames[0].frame_number, len(frames))
    else:
        fates = repeat(False)
    delivered_at: List[Optional[float]] = []
    append = delivered_at.append
    for frame, lost in zip(frames, fates):
        sent_at = epoch + frame.capture_time
        if sent_at > free_at:
            free_at = sent_at
        if rate is not None:
            free_at += frame.size_megabits / rate
        append(None if lost else free_at + path_delay)
    link.free_at = free_at
    return delivered_at


def channel_transmit_chunk(
    channel, link, frames: Sequence[Any], *, epoch: float, path_delay: float
) -> List[Optional[float]]:
    """``DataChannel.transmit_chunk``: the link call, counters folded once."""
    delivered_at = link_transmit_chunk(
        channel, link, frames, epoch=epoch, path_delay=path_delay
    )
    lost = delivered_at.count(None)
    channel.sent += len(delivered_at)
    channel.lost += lost
    channel.delivered += len(delivered_at) - lost
    return delivered_at


def transmit_link_chunk(
    channel, link, edge, chunk: Sequence[Frame], t0: float, delay: float
) -> None:
    """The link branch of ``_transmit_chunk``, from ``chunk = frames[index:stop]``."""
    delivered_at = channel_transmit_chunk(
        channel, link, chunk, epoch=t0, path_delay=delay
    )
    deadline = edge.deadline + 1e-9
    buffer = edge.viewer.buffer_for(edge.stream_id)
    latest = buffer.latest_frame()
    floor = latest.frame_number if latest is not None else -1
    last_received = edge.last_received
    first_delivery = edge.first_delivery
    window_sum = edge.window_sum
    concealed = edge.concealed
    gap_len = edge.gap_len
    prev_ok = edge.prev_ok
    late = 0
    arrivals = [LOST if at is None else at - t0 for at in delivered_at]
    edge.arrivals.extend(arrivals)
    held_frames: List[Frame] = []
    held_arrivals: List[float] = []
    for frame, delivery_rel in zip(chunk, arrivals):
        if delivery_rel == LOST:
            gap_len += 1
            continue
        frame_number = frame.frame_number
        observed = delivery_rel - frame.capture_time
        if observed > deadline:
            late += 1
            gap_len += 1
        else:
            if gap_len == 1 and prev_ok:
                concealed += 1
            gap_len = 0
            prev_ok = True
        if frame_number > floor and delivery_rel >= last_received:
            held_frames.append(frame)
            held_arrivals.append(delivery_rel)
            floor = frame_number
            last_received = delivery_rel
        if first_delivery is None:
            first_delivery = delivery_rel
        window_sum += observed
    buffer.extend(held_frames, held_arrivals)
    lost = delivered_at.count(None)
    delivered = len(delivered_at) - lost
    edge.expected += len(delivered_at)
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


class PerChunkSimulatedDataPlane(SimulatedDataPlane):
    """The one-event-per-edge-per-quantum driver (see the module docstring)."""

    def run(self) -> QoEReport:
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
        self._report = QoEReport(
            playback=PlaybackReport(_lanes(self._edges)),
            d_buff=self.system.layer_config.buffer_duration,
        )
        for edge in self._edges:
            sim.schedule_at(
                self._t0 + edge.frames[0].capture_time,
                partial(self._transmit_chunk, edge),
            )
        if cfg.refresh_interval is not None and self._edges:
            horizon = max(edge.frames[-1].capture_time for edge in self._edges)
            self._schedule_refresh(self._t0 + cfg.refresh_interval, horizon)
        sim.run()
        return self._finalize()

    def _transmit_chunk(self, edge) -> None:
        sim = self.system.simulator
        cfg = self.config
        channel = self._channel
        sub = edge.session.subscriptions.get(edge.stream_id)
        if sub is None:
            remaining = len(edge.frames) - edge.index
            edge.expected += remaining
            edge.dropped += remaining
            edge.gap_len += remaining
            edge.index = len(edge.frames)
            return
        if cfg.refresh_interval is not None:
            edge.deadline = _playout_deadline(edge.session)
        frames = edge.frames
        total = len(frames)
        index = edge.index
        end_rel = (sim.now - self._t0) + dataplane.BATCH_QUANTUM
        delay = sub.effective_delay or sub.end_to_end_delay
        parent_id = sub.parent_id

        stop = index
        while stop < total and frames[stop].capture_time < end_rel:
            stop += 1

        if cfg.bandwidth_headroom is None and cfg.loss_rate == 0.0:
            batch = frames[index:stop]
            channel.sent += len(batch)
            channel.delivered += len(batch)
            _deliver_constant_delay(edge, batch, delay)
        else:
            if edge.link_parent != parent_id:
                rate = (
                    None
                    if cfg.bandwidth_headroom is None
                    else cfg.bandwidth_headroom
                    * edge.session.view.stream_by_id[edge.stream_id].bandwidth_mbps
                )
                edge.link = channel.link(parent_id, edge.viewer_id, edge.stream_id, rate)
                edge.link_parent = parent_id
            _send_chunk(channel, edge.link, edge, frames[index:stop], self._t0, delay)

        edge.index = stop
        if stop < total:
            sim.schedule_at(
                self._t0 + frames[stop].capture_time, partial(self._transmit_chunk, edge)
            )


def tuple_key_delivery_records(lanes: Iterable[Lane]) -> List[DeliveryRecord]:
    """The lanes' deliveries, sorted by ``(delivery_time, viewer_id)``.

    Built lane by lane, each in frame order, so equal keys keep the
    order in which the replay sent the frames.
    """
    records = [
        DeliveryRecord(viewer_id, stream_id, frame.frame_number, frame.capture_time, arrival)
        for viewer_id, stream_id, frames, arrivals in lanes
        for frame, arrival in zip(frames, arrivals)
        if arrival != LOST
    ]
    records.sort(key=itemgetter(4, 0))
    return records
