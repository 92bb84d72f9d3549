"""Frozen chunk step of the simulated data plane: the executable spec.

The FIFO-link branch of ``SimulatedDataPlane._transmit_chunk`` as it was
before a chunk became one pass: ``DataLink.transmit_chunk`` computed the
absolute delivery times, ``DataChannel.transmit_chunk`` folded the
channel counters, a list re-based the times onto the replay epoch, and a
playout loop consumed that list.  The three bodies are kept statement for
statement, as functions of the state-only link and channel, comments
trimmed.  ``tests/test_properties.py::TestChunkedLinkEquivalence`` runs
random chunks through it and through
:func:`repro.core.dataplane._send_chunk` and asserts equal arrival
columns, link, channel, buffer and edge state.

Do not use it in production code and do not "fix" it -- behaviour
changes here silently weaken the equivalence guarantee.
"""

from __future__ import annotations

from itertools import repeat
from typing import Any, List, Optional, Sequence

from repro.model.stream import Frame


def link_transmit_chunk(
    link, frames: Sequence[Any], *, epoch: float, path_delay: float
) -> List[Optional[float]]:
    """``DataLink.transmit_chunk``: absolute delivery times, ``None`` if lost."""
    rate = link.rate_mbps
    free_at = link.free_at
    if link.loss is not None and link.rng is not None:
        fates = link.loss.draw(link.rng, len(frames))
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
    delivered_at = link_transmit_chunk(link, frames, epoch=epoch, path_delay=path_delay)
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
    arrivals = [None if at is None else at - t0 for at in delivered_at]
    edge.arrivals.extend(arrivals)
    held_frames: List[Frame] = []
    held_arrivals: List[float] = []
    for frame, delivery_rel in zip(chunk, arrivals):
        if delivery_rel is None:
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
