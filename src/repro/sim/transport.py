"""Simulated transport: typed control and data messages with in-flight latency.

The synchronous control plane applies every viewer operation the instant
its workload event fires.  This module supplies the missing middle: a
:class:`ControlChannel` that turns each operation into a typed
:class:`ControlMessage` scheduled on the discrete-event
:class:`~repro.sim.engine.Simulator`, with a transit delay drawn from the
:class:`~repro.net.latency.LatencyMatrix` propagation delays plus the
:class:`~repro.net.latency.DelayModel` control processing constant.

State mutates only when a message is *delivered*, so two joins racing for
the same P2P slot, a view change arriving after its viewer failed, or a
repair landing on a since-departed parent are first-class -- and, because
the simulator breaks timestamp ties by scheduling order, fully
deterministic -- outcomes.

The channel's ``scale`` factor multiplies every transit delay; ``0.0``
collapses the message plane back to instantaneous delivery (used by the
equivalence tests that pin the simulated driver to the instant one).

The *data* plane has its own channel: :class:`DataChannel` holds the
state of the two effects the control plane does not model -- per-edge
bandwidth-constrained serialization (queueing at the parent's reserved
forwarding bin, :class:`DataLink`) and loss.  Loss is one process, the
two-state Gilbert-Elliott channel (:class:`LossProcess`), set by a mean
loss rate and a mean burst length; burst length 1 is i.i.d. loss.  A
frame's fate is a function of the plane seed, its link's edge and its
frame number (:meth:`DataChannel.fates`); no link stores a fate or a
generator.  The channel holds state only: :mod:`repro.core.dataplane`
serializes a chunk of a stream's :class:`~repro.model.stream.Frame`
objects over a link in the same loop that plays them out (there is no
per-frame message object or call).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from hashlib import shake_128
from struct import Struct
from typing import Any, Callable, Dict, Optional, Tuple

from repro.net.latency import DelayModel
from repro.sim.engine import EventHandle, Simulator
from repro.util.validation import require_non_negative


@dataclass(frozen=True, kw_only=True)
class ControlMessage:
    """Base class of every control-plane message.

    ``src``/``dst`` are latency-matrix node ids (the channel derives the
    default transit delay from them); ``sent_at`` is the simulation time
    the originating intent fired, carried along so acks can report the
    end-to-end observed latency of the exchange.
    """

    src: str
    dst: str
    sent_at: float


@dataclass(frozen=True, kw_only=True)
class JoinRequest(ControlMessage):
    """Viewer -> LSC: admit me to the session with this view."""

    viewer_id: str
    view_index: int


@dataclass(frozen=True, kw_only=True)
class JoinAck(ControlMessage):
    """LSC -> viewer: join outcome plus overlay/subscription fan-out."""

    viewer_id: str
    accepted: bool


@dataclass(frozen=True, kw_only=True)
class ViewChange(ControlMessage):
    """Viewer -> LSC: switch me to another view."""

    viewer_id: str
    view_index: int


@dataclass(frozen=True, kw_only=True)
class ViewChangeAck(ControlMessage):
    """LSC -> viewer: view change outcome (CDN fast path served)."""

    viewer_id: str
    accepted: bool


@dataclass(frozen=True, kw_only=True)
class Heartbeat(ControlMessage):
    """Viewer -> LSC: periodic liveness renewal."""

    viewer_id: str


@dataclass(frozen=True, kw_only=True)
class DepartNotice(ControlMessage):
    """Viewer -> LSC: graceful leave announcement."""

    viewer_id: str


@dataclass(frozen=True, kw_only=True)
class FailureNotice(ControlMessage):
    """Transport -> LSC: a viewer's connection dropped abruptly.

    The crashed viewer sends nothing itself; this models the reset its
    parents (or the OS) observe and report to the controller.
    """

    viewer_id: str


@dataclass(frozen=True, kw_only=True)
class RepairNotify(ControlMessage):
    """LSC -> orphan: you were re-parented after an upstream failure."""

    viewer_id: str


# -- shard-coordination plane (cross-process control traffic) -----------------
#
# The shard-parallel engine (:mod:`repro.parallel`) runs each group of
# LSCs in its own worker process; everything that crosses a process
# boundary is one of the typed messages below, put on a plain
# multiprocessing queue (which pickles it) by the worker or the
# coordinator.  Like the rest of the control plane they are frozen
# keyword-only dataclasses, so adding an unpicklable field is caught by
# the round-trip test suite.


@dataclass(frozen=True, kw_only=True)
class ShardReady(ControlMessage):
    """Worker -> coordinator: substrates rebuilt, shard event loop entered."""

    shard_index: int
    lsc_ids: Tuple[str, ...]


@dataclass(frozen=True, kw_only=True)
class ShardBarrierAck(ControlMessage):
    """Worker -> coordinator: this shard reached the ``lsc_fail`` barrier.

    Every worker sends exactly one, at the barrier's time (``sent_at``),
    carrying the failover decision it read off the build's ownership
    timeline, which the coordinator cross-checks.  The worker hosting
    the failed LSC acks as soon as it has replayed that LSC's
    pre-failure events and evicted it, attaching the serialized sessions
    to migrate, sorted by ``(join_time, viewer_id)`` -- the exact order
    the single-process :func:`repro.core.recovery.failover_lsc`
    re-admits them in.  Its ack releases the barrier.
    """

    shard_index: int
    failed_lsc_id: str
    target_lsc_id: str  # "" when no LSC survives
    #: ``(viewer_id, view_id, join_time)`` per migrated session.
    sessions: Tuple[Tuple[str, str, float], ...] = ()


@dataclass(frozen=True, kw_only=True)
class ShardResume(ControlMessage):
    """Coordinator -> the target's worker: here are the failed LSC's sessions.

    Sent once, as soon as the failed LSC's host has acked, to the worker
    the placement gives the failover target (the failed LSC's own host
    when no LSC survives), which re-admits the sessions.  That worker is
    the only one that waits for it.
    """

    sessions: Tuple[Tuple[str, str, float], ...] = ()


@dataclass(frozen=True, kw_only=True)
class ShardResult(ControlMessage):
    """Worker -> coordinator: shard schedule drained, final state attached.

    ``payload`` is an opaque pickle (metrics, placement digests, CDN
    usage) -- kept as bytes so the message itself stays a flat, cheaply
    picklable record and the round-trip tests can compare it
    byte-identically.  ``stats`` is the worker's wall-clock telemetry as
    ``(name, value)`` pairs; it rides outside the payload because it
    times the payload's pickling.
    """

    shard_index: int
    final_clock: float
    payload: bytes
    stats: Tuple[Tuple[str, float], ...] = ()


@dataclass(frozen=True, kw_only=True)
class ShardError(ControlMessage):
    """Worker -> coordinator: the shard died; traceback attached."""

    shard_index: int
    error: str


class ControlChannel:
    """Schedules typed control messages on the simulator with latency.

    Parameters
    ----------
    simulator:
        The event engine deliveries are scheduled on.
    delay_model:
        Source of per-leg propagation delays and the control processing
        constant.
    scale:
        Multiplier applied to every transit delay.  ``1.0`` models the
        network as measured; ``0.0`` makes delivery instantaneous while
        preserving the message ordering semantics.
    """

    def __init__(
        self, simulator: Simulator, delay_model: DelayModel, *, scale: float = 1.0
    ) -> None:
        require_non_negative(scale, "scale")
        self.simulator = simulator
        self.delay_model = delay_model
        self.scale = scale
        self.sent = 0
        self.delivered = 0

    @property
    def in_flight(self) -> int:
        """Messages sent but not yet delivered."""
        return self.sent - self.delivered

    def transit_delay(self, src: str, dst: str) -> float:
        """Unscaled one-leg transit delay: propagation plus processing."""
        dm = self.delay_model
        return dm.propagation(src, dst) + dm.control_processing_delay

    def send(
        self,
        message: ControlMessage,
        handler: Callable[[ControlMessage], Any],
        *,
        delay: Optional[float] = None,
    ) -> EventHandle:
        """Put a message in flight; ``handler(message)`` runs at delivery.

        ``delay`` is the message's *unscaled* protocol transit time
        (compose it from :meth:`transit_delay` or the controllers'
        per-leg delay methods); without one, the default
        single-leg :meth:`transit_delay` between the message's ``src``
        and ``dst`` applies.  The channel's ``scale`` is applied exactly
        once, here, so no caller can accidentally break the
        ``scale=0.0`` instant-delivery guarantee for one message kind.
        """
        if delay is None:
            delay = self.transit_delay(message.src, message.dst)
        delay *= self.scale
        require_non_negative(delay, "delay")
        self.sent += 1
        return self.simulator.schedule(delay, _Delivery(self, handler, message))

    def deliver_at(
        self,
        arrival: float,
        message: ControlMessage,
        handler: Callable[[ControlMessage], Any],
    ) -> EventHandle:
        """Queue the delivery of a message already counted as sent (a
        beat the session's heartbeat ledger still holds in flight)."""
        return self.simulator.schedule_at(arrival, _Delivery(self, handler, message))


class _Delivery:
    """A scheduled message delivery: counts the arrival, runs the handler.

    A module-level class (not a closure) so an in-flight message survives
    a snapshot: pickling the simulator queue carries the channel, the
    handler (a bound method of the driver) and the frozen message along,
    and the restored event fires exactly as the original would have.
    """

    __slots__ = ("channel", "handler", "message")

    def __init__(
        self,
        channel: "ControlChannel",
        handler: Callable[[ControlMessage], Any],
        message: ControlMessage,
    ) -> None:
        self.channel = channel
        self.handler = handler
        self.message = message

    def __call__(self) -> None:
        self.channel.delivered += 1
        self.handler(self.message)


class LossProcess:
    """The loss channel of a lossy plane: two-state (good/bad) Gilbert-Elliott.

    In the GOOD state a frame is lost exactly when the channel flips to
    BAD for that frame (probability ``flip``); in the BAD state every
    frame is lost until the channel recovers (each frame recovers with
    probability ``recover`` *before* its loss decision).  The stationary
    loss rate is ``a / (a + b - a*b)`` with ``a`` the flip and ``b`` the
    recovery probability, and the mean burst length is ``1/b``; the
    constructor inverts both once: ``b = 1/L``, ``a = l*b / (1 - l*(1 - b))``.
    At ``mean_burst_length=1.0`` the BAD state never survives a frame, so
    the channel is i.i.d. loss at ``loss_rate`` (``a == l`` exactly).
    """

    __slots__ = ("flip", "recover")

    def __init__(self, loss_rate: float, mean_burst_length: float = 1.0) -> None:
        if not (0.0 < loss_rate < 1.0):
            raise ValueError(f"loss_rate must be in (0, 1), got {loss_rate}")
        if not (1.0 <= mean_burst_length < math.inf):
            raise ValueError(
                f"mean_burst_length must be finite and >= 1, got {mean_burst_length}"
            )
        b = 1.0 / mean_burst_length
        self.flip = loss_rate * b / (1.0 - loss_rate * (1.0 - b))
        self.recover = b


#: One little-endian 64-bit word of a SHAKE-128 stream, and the scale
#: that makes ``(word >> 11) + 1`` a uniform in ``(0, 1]``.
_WORD = Struct("<Q").unpack_from
_ULP = 2.0**-53


class DataLink:
    """One parent's reserved forwarding bin towards one child, one stream.

    The bandwidth allocator reserves one stream-bandwidth bin per child
    (:func:`repro.core.bandwidth.allocate_outbound`), so each subscription
    edge serializes its frames over its own FIFO link of ``rate_mbps``
    (``None`` models an unconstrained link: zero serialization delay).
    State only: ``free_at`` is when the link finishes its last frame.  A
    lossy link's ``key`` names its loss stream (the plane seed and the
    edge, see :meth:`DataChannel.fates`); a lossless link has ``key=None``.
    """

    __slots__ = ("rate_mbps", "free_at", "key")

    def __init__(self, rate_mbps: Optional[float], *, key: Optional[bytes] = None) -> None:
        if rate_mbps is not None and rate_mbps <= 0:
            raise ValueError(f"rate_mbps must be > 0 or None, got {rate_mbps}")
        self.rate_mbps = rate_mbps
        self.free_at = 0.0
        self.key = key


class DataChannel:
    """Per-edge data links of one replay, with shared loss configuration.

    Links are created on first use and keyed by
    ``(src, dst, stream_id)``; a subscription that is re-parented mid-
    replay (CDN re-provision) therefore starts on a fresh link while the
    old parent's bin drains, and one re-parented back carries on where
    its old link stopped.  A lossy link draws nothing and stores no fate:
    frame ``f``'s fate is a pure function of the plane seed, the link's
    edge and ``f`` (:meth:`fates`), so it does not depend on which links
    exist, which was created first, which frame a link opened at or how
    its frames are split into chunks.
    """

    def __init__(self, *, loss_rate: float, mean_burst_length: float, seed: int) -> None:
        if not (0.0 <= loss_rate < 1.0):
            raise ValueError(f"loss_rate must be in [0, 1), got {loss_rate}")
        self._key_prefix = f"{seed}|" if loss_rate > 0.0 else None
        if loss_rate > 0.0:
            loss = LossProcess(loss_rate, mean_burst_length)
            self._log_good = math.log1p(-loss.flip)
            # ``None`` when every loss run is one frame (i.i.d. loss).
            self._log_bad = None if loss.recover == 1.0 else math.log1p(-loss.recover)
        self._links: Dict[Tuple[str, str, Any], DataLink] = {}
        self.sent = 0
        self.delivered = 0
        self.lost = 0

    def link(
        self, src: str, dst: str, stream_id: Any, rate_mbps: Optional[float]
    ) -> DataLink:
        """Get (creating on first use) the link of one subscription edge."""
        key = (src, dst, stream_id)
        existing = self._links.get(key)
        if existing is not None:
            return existing
        prefix = self._key_prefix
        loss_key = None if prefix is None else f"{prefix}{src}|{dst}|{stream_id}".encode()
        created = self._links[key] = DataLink(rate_mbps, key=loss_key)
        return created

    def fates(self, key: bytes, first: int, count: int) -> bytearray:
        """Fates (nonzero = lost) of frames ``first .. first + count - 1``
        of the lossy link whose :attr:`DataLink.key` is ``key``.

        The channel alternates runs from frame 0, GOOD first: a GOOD run
        of ``Geom0(flip)`` delivered frames, then a BAD run of
        ``Geom1(recover)`` lost ones (always 1 for i.i.d. loss, which
        draws nothing for it), each run length the next word of ``key``'s
        SHAKE-128 stream inverted as a uniform.  That is the two-state
        walk of :class:`LossProcess` in distribution.  It restarts at
        frame 0 on every call, one hash and one step per run, so no state
        rides on the link.
        """
        end = first + count
        fates = bytearray(count)
        log, log_good, log_bad = math.log, self._log_good, self._log_bad
        stream = shake_128(key)
        size = 168  # SHAKE-128's rate: one Keccak permutation's output
        digest = stream.digest(size)
        at = frame = 0
        while True:
            if at + 16 > size:  # extendable output: a longer digest starts with this one
                size *= 2
                digest = stream.digest(size)
            word = _WORD(digest, at)[0]
            frame += int(log(((word >> 11) + 1) * _ULP) / log_good)
            at += 8
            if frame >= end:
                return fates
            stop = frame + 1
            if log_bad is not None:
                word = _WORD(digest, at)[0]
                stop += int(log(((word >> 11) + 1) * _ULP) / log_bad)
                at += 8
            if stop > first:
                low = frame - first if frame > first else 0
                high = (stop if stop < end else end) - first
                fates[low:high] = b"\x01" * (high - low)
            frame = stop
