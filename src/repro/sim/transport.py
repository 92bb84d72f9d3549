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
forwarding bin, :class:`DataLink`) and configurable loss.  It holds state
only: :mod:`repro.core.dataplane` serializes a chunk of a stream's
:class:`~repro.model.stream.Frame` objects over a link in the same loop
that plays them out (there is no per-frame message object or call).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, ClassVar, Dict, List, Optional, Tuple

from repro.net.latency import DelayModel
from repro.sim.engine import EventHandle, Simulator
from repro.sim.rng import SeededRandom
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

    #: Engine event label of a delivery of this message type (read only
    #: when the simulator traces), fixed per class so ``send`` formats
    #: nothing per message.
    LABEL: ClassVar[str] = "msg:ControlMessage"

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        cls.LABEL = f"msg:{cls.__name__}"


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
    repaired_subscriptions: int


# -- shard-coordination plane (cross-process control traffic) -----------------
#
# The shard-parallel engine (:mod:`repro.parallel`) runs each group of
# LSCs in its own worker process; everything that crosses a process
# boundary is one of the typed messages below, pickled over a
# multiprocessing queue by :class:`ShardQueueTransport`.  Like the rest of
# the control plane they are frozen keyword-only dataclasses, so adding an
# unpicklable field is caught by the round-trip test suite.


@dataclass(frozen=True, kw_only=True)
class ShardReady(ControlMessage):
    """Worker -> coordinator: substrates rebuilt, shard event loop entered."""

    shard_index: int
    lsc_ids: Tuple[str, ...]


@dataclass(frozen=True, kw_only=True)
class ShardBarrierAck(ControlMessage):
    """Worker -> coordinator: this shard reached a cross-shard barrier.

    Every worker sends exactly one ack per barrier, carrying the
    barrier's timestamp (``local_clock``: the ``lsc_fail`` event's time,
    which every shard aligns to) and its view of the failover decision,
    which the coordinator cross-checks.  The worker hosting the failed
    LSC acks as soon as it has replayed that LSC's pre-failure events and
    evicted it, attaching the serialized sessions to migrate, sorted by
    ``(join_time, viewer_id)`` -- the exact order the single-process
    :func:`repro.core.recovery.failover_lsc` re-admits them in.  Its ack
    releases the barrier; every other ack only confirms the decision.
    """

    shard_index: int
    barrier_seq: int
    local_clock: float
    failed_lsc_id: str
    target_lsc_id: str  # "" when no LSC survives
    #: ``(viewer_id, view_id, join_time)`` per migrated session.
    sessions: Tuple[Tuple[str, str, float], ...] = ()


@dataclass(frozen=True, kw_only=True)
class ShardResume(ControlMessage):
    """Coordinator -> the target's worker: here are the failed LSC's sessions.

    Sent once per barrier, as soon as the failed LSC's host has acked, to
    the worker hosting the failover target (the failed LSC's own host
    when no LSC survives), which re-admits the sessions.  That worker is
    the only one that waits for it; every other worker repoints its
    region-ownership map on its own and never receives a resume.
    """

    barrier_seq: int
    barrier_time: float
    failed_lsc_id: str
    target_lsc_id: str
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


class ShardQueueTransport:
    """Cross-process :class:`ControlMessage` transport over two queues.

    The picklable counterpart of :class:`ControlChannel`: where the
    in-process channel schedules deliveries on the simulator with
    latency, this transport moves already-serialized control messages
    between the shard workers and the coordinator of the parallel engine
    (:mod:`repro.parallel`).  ``inbox``/``outbox`` are
    ``multiprocessing.Queue`` objects (or anything with the same
    ``put``/``get`` API); only :class:`ControlMessage` instances may
    travel, which keeps the process boundary typed and testable.
    """

    def __init__(self, inbox, outbox) -> None:
        self.inbox = inbox
        self.outbox = outbox
        self.sent = 0
        self.received = 0

    def send(self, message: ControlMessage) -> None:
        """Enqueue one message for the peer (pickled by the queue)."""
        if not isinstance(message, ControlMessage):
            raise TypeError(
                f"only ControlMessages cross the shard boundary, "
                f"got {type(message).__name__}"
            )
        self.outbox.put(message)
        self.sent += 1

    def recv(self, timeout: Optional[float] = None) -> ControlMessage:
        """Dequeue the next message from the peer (blocks up to ``timeout``)."""
        message = self.inbox.get(timeout=timeout) if timeout else self.inbox.get()
        self.received += 1
        return message


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

    def path_delay(self, *hops: str, processing_steps: int = 1) -> float:
        """Unscaled delay of a multi-hop control path.

        ``hops`` are the node ids the message traverses in order; the
        result is the sum of per-leg propagation delays plus
        ``processing_steps`` controller processing delays.
        """
        dm = self.delay_model
        total = processing_steps * dm.control_processing_delay
        for a, b in zip(hops, hops[1:]):
            total += dm.propagation(a, b)
        return total

    def send(
        self,
        message: ControlMessage,
        handler: Callable[[ControlMessage], Any],
        *,
        delay: Optional[float] = None,
    ) -> EventHandle:
        """Put a message in flight; ``handler(message)`` runs at delivery.

        ``delay`` is the message's *unscaled* protocol transit time
        (compose it from :meth:`transit_delay` / :meth:`path_delay` or
        the controllers' per-leg delay methods); without one, the default
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
        return self.simulator.schedule(
            delay, _Delivery(self, handler, message), label=message.LABEL
        )

    def deliver_at(
        self,
        arrival: float,
        message: ControlMessage,
        handler: Callable[[ControlMessage], Any],
    ) -> EventHandle:
        """Queue the delivery of a message already counted as sent (a
        beat the session's heartbeat ledger still holds in flight)."""
        return self.simulator.schedule_at(
            arrival, _Delivery(self, handler, message), label=message.LABEL
        )


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


@dataclass(frozen=True)
class GilbertElliottConfig:
    """Two-state (good/bad) Markov loss channel parameters.

    In the GOOD state a frame is lost exactly when the channel flips to
    BAD for that frame (probability ``p_good_to_bad``); in the BAD state
    every frame is lost until the channel recovers (each frame recovers
    with probability ``p_bad_to_good`` *before* its loss decision).  The
    stationary loss rate is ``a / (a + b - a*b)`` with ``a`` the flip and
    ``b`` the recovery probability, and the mean burst length is ``1/b``.

    Deterministic transitions (probability 0 or 1) consume no RNG draws,
    so the memoryless limit ``p_bad_to_good=1.0`` spends exactly one
    uniform draw per frame -- the same stream of draws the Bernoulli path
    makes, which keeps the two byte-identical on the same seed.
    """

    p_good_to_bad: float
    p_bad_to_good: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.p_good_to_bad < 1.0):
            raise ValueError(
                f"p_good_to_bad must be in [0, 1), got {self.p_good_to_bad}"
            )
        if not (0.0 < self.p_bad_to_good <= 1.0):
            raise ValueError(
                f"p_bad_to_good must be in (0, 1], got {self.p_bad_to_good}"
            )

    @property
    def mean_loss_rate(self) -> float:
        """Stationary fraction of frames lost."""
        a, b = self.p_good_to_bad, self.p_bad_to_good
        return a / (a + b - a * b)

    @property
    def mean_burst_length(self) -> float:
        """Expected number of consecutive losses once a burst starts."""
        return 1.0 / self.p_bad_to_good

    @classmethod
    def from_mean_loss(
        cls, mean_loss_rate: float, mean_burst_length: float = 1.0
    ) -> "GilbertElliottConfig":
        """Parameters hitting a target stationary loss rate and burst length.

        Inverts the stationary equation: ``b = 1/L`` and
        ``a = l*b / (1 - l*(1 - b))``.  ``mean_burst_length=1.0`` is the
        memoryless limit (``p_bad_to_good=1.0``), which reduces exactly
        to Bernoulli loss at ``mean_loss_rate``.
        """
        if not (0.0 <= mean_loss_rate < 1.0):
            raise ValueError(
                f"mean_loss_rate must be in [0, 1), got {mean_loss_rate}"
            )
        if mean_burst_length < 1.0:
            raise ValueError(
                f"mean_burst_length must be >= 1, got {mean_burst_length}"
            )
        b = 1.0 / mean_burst_length
        a = mean_loss_rate * b / (1.0 - mean_loss_rate * (1.0 - b))
        return cls(p_good_to_bad=a, p_bad_to_good=b)


class BernoulliLoss:
    """Independent per-frame loss: each frame lost with fixed probability."""

    __slots__ = ("loss_rate",)

    def __init__(self, loss_rate: float) -> None:
        if not (0.0 < loss_rate < 1.0):
            raise ValueError(f"loss_rate must be in (0, 1), got {loss_rate}")
        self.loss_rate = loss_rate

    def draw(self, rng: SeededRandom, count: int) -> List[bool]:
        """Fates of the next ``count`` frames (one uniform draw each)."""
        loss_rate = self.loss_rate
        return [uniform < loss_rate for uniform in rng.randoms(count)]


class GilbertElliottLoss:
    """Stateful burst-loss channel following :class:`GilbertElliottConfig`.

    One instance per link: the good/bad state persists across the frames
    of that edge, producing correlated loss runs instead of i.i.d. drops.
    """

    __slots__ = ("config", "bad")

    def __init__(self, config: GilbertElliottConfig) -> None:
        self.config = config
        self.bad = False

    def draw(self, rng: SeededRandom, count: int) -> List[bool]:
        """Advance the channel ``count`` frames; return each frame's fate.

        Probability-one and probability-zero transitions are applied
        without drawing from the RNG -- see
        :class:`GilbertElliottConfig` for why that matters.
        """
        flip = self.config.p_good_to_bad
        recover = self.config.p_bad_to_good
        random = rng.random
        bad = self.bad
        fates = []
        for _ in range(count):
            if bad:
                if recover < 1.0 and random() >= recover:
                    fates.append(True)
                    continue
                bad = False
            if flip > 0.0 and random() < flip:
                bad = True
            fates.append(bad)
        self.bad = bad
        return fates


#: A per-link loss process: ``draw(rng, count) -> List[bool]`` decides the
#: fates (``True`` = lost) of the link's next ``count`` frames, in order.
LossProcess = Any


def make_loss_process(
    loss_rate: float, gilbert: Optional[GilbertElliottConfig]
) -> Optional[LossProcess]:
    """Build one link's loss process, or ``None`` for a lossless link."""
    if gilbert is not None:
        return GilbertElliottLoss(gilbert)
    if loss_rate > 0.0:
        return BernoulliLoss(loss_rate)
    return None


class DataLink:
    """One parent's reserved forwarding bin towards one child, one stream.

    The bandwidth allocator reserves one stream-bandwidth bin per child
    (:func:`repro.core.bandwidth.allocate_outbound`), so each subscription
    edge serializes its frames over its own FIFO link of ``rate_mbps``
    (``None`` models an unconstrained link: zero serialization delay).
    State only: ``free_at`` is when the link finishes its last frame, and
    ``loss`` draws fates from the link's own ``rng``.
    """

    __slots__ = ("rate_mbps", "free_at", "rng", "loss")

    def __init__(
        self,
        rate_mbps: Optional[float],
        *,
        loss: Optional[LossProcess] = None,
        rng: Optional[SeededRandom] = None,
    ) -> None:
        if rate_mbps is not None and rate_mbps <= 0:
            raise ValueError(f"rate_mbps must be > 0 or None, got {rate_mbps}")
        self.rate_mbps = rate_mbps
        self.loss = loss
        self.free_at = 0.0
        self.rng = rng


class DataChannel:
    """Per-edge data links of one replay, with shared loss configuration.

    Links are created on first use and keyed by
    ``(src, dst, stream_id)``; a subscription that is re-parented mid-
    replay (CDN re-provision) therefore starts on a fresh link while the
    old parent's bin drains.  Each link draws loss decisions from its own
    deterministically forked RNG, so edge outcomes are independent of the
    order in which other edges transmit.
    """

    def __init__(
        self,
        simulator: Simulator,
        *,
        loss_rate: float = 0.0,
        rng: Optional[SeededRandom] = None,
        gilbert: Optional[GilbertElliottConfig] = None,
    ) -> None:
        if not (0.0 <= loss_rate < 1.0):
            raise ValueError(f"loss_rate must be in [0, 1), got {loss_rate}")
        self.simulator = simulator
        self.loss_rate = loss_rate
        self.gilbert = gilbert
        self._rng = rng or SeededRandom(0)
        self._links: Dict[Tuple[str, str, Any], DataLink] = {}
        self.sent = 0
        self.delivered = 0
        self.lost = 0

    @property
    def lossy(self) -> bool:
        """Whether this channel's links drop frames at all."""
        return self.gilbert is not None or self.loss_rate > 0.0

    def link(
        self, src: str, dst: str, stream_id: Any, rate_mbps: Optional[float]
    ) -> DataLink:
        """Get (creating on first use) the link of one subscription edge."""
        key = (src, dst, stream_id)
        existing = self._links.get(key)
        if existing is not None:
            return existing
        lossy = self.lossy
        created = DataLink(
            rate_mbps,
            loss=make_loss_process(self.loss_rate, self.gilbert) if lossy else None,
            rng=self._rng.fork(len(self._links)) if lossy else None,
        )
        self._links[key] = created
        return created
