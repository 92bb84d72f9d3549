"""Viewer workloads: arrivals, departures, view changes and flash crowds.

The paper's evaluation varies the number of viewers from 10 to 1000, gives
each viewer 12 Mbps inbound capacity and an outbound capacity drawn either
from a fixed value or uniformly from a range (e.g. 0--12, 2--10, 4--14
Mbps), and exercises dynamic behaviour: view changes at run time and
"large-scale simultaneous viewer arrivals or departures".  This module
generates those populations and event schedules deterministically from a
seed.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Sequence, Tuple

from repro.model.viewer import VIEWER_ID, VIEWER_INDEX_AT, Viewer
from repro.sim.rng import SeededRandom
from repro.util.validation import require, require_non_negative, require_positive

#: Inbound capacity of every viewer: the paper's 12 Mbps (Section VII).
VIEWER_INBOUND_MBPS = 12.0


@dataclass(frozen=True)
class BandwidthDistribution:
    """Distribution of viewer outbound capacity.

    ``fixed(v)`` gives every viewer exactly ``v`` Mbps; ``uniform(a, b)``
    draws uniformly from ``[a, b]`` which is how the paper labels the
    "C_obw = 0-12" style curves.
    """

    low_mbps: float
    high_mbps: float

    def __post_init__(self) -> None:
        require_non_negative(self.low_mbps, "low_mbps")
        require_non_negative(self.high_mbps, "high_mbps")
        require(self.high_mbps >= self.low_mbps, "high_mbps must be >= low_mbps")

    @classmethod
    def fixed(cls, value_mbps: float) -> "BandwidthDistribution":
        """Every viewer gets exactly ``value_mbps`` of outbound capacity."""
        return cls(low_mbps=value_mbps, high_mbps=value_mbps)

    @classmethod
    def uniform(cls, low_mbps: float, high_mbps: float) -> "BandwidthDistribution":
        """Outbound capacity drawn uniformly from ``[low_mbps, high_mbps]``."""
        return cls(low_mbps=low_mbps, high_mbps=high_mbps)

    @property
    def is_fixed(self) -> bool:
        """Whether the distribution is a single point."""
        return self.low_mbps == self.high_mbps

    def label(self) -> str:
        """Human-readable label matching the paper's legend style."""
        if self.is_fixed:
            return f"C_obw={self.low_mbps:g}"
        return f"C_obw={self.low_mbps:g}-{self.high_mbps:g}"


@dataclass(frozen=True, slots=True, init=False)
class ViewerEvent:
    """A scheduled workload event.

    ``kind`` is one of ``"join"``, ``"view_change"``, ``"depart"``
    (graceful leave), ``"fail"`` (abrupt departure that strands the
    viewer's subtrees and exercises the recovery subsystem) or
    ``"lsc_fail"`` (a whole-controller crash; ``viewer_id`` carries the
    LSC node id).  ``view_index`` selects which of the experiment's
    candidate views the viewer requests (for joins and view changes).

    A build constructs one or more per viewer, so the constructor is
    written out: both checks run inline (``require_non_negative`` is
    called only to raise its message, and NaN fails ``time >= 0``) and
    the fields are stored through their slot descriptors, one C call
    each (the generated frozen ``__init__`` would pay an
    ``object.__setattr__`` per field and a ``__post_init__``).
    """

    time: float
    kind: str
    viewer_id: str
    view_index: int = 0

    def __init__(
        self, time: float, kind: str, viewer_id: str, view_index: int = 0
    ) -> None:
        if not time >= 0:
            require_non_negative(time, "time")
        if kind not in ("join", "view_change", "depart", "fail", "lsc_fail"):
            raise ValueError(f"unknown event kind {kind!r}")
        _set_time(self, time)
        _set_kind(self, kind)
        _set_viewer_id(self, viewer_id)
        _set_view_index(self, view_index)


# The slot descriptors exist only once ``dataclass(slots=True)`` has
# rebuilt the class, so the constructor reads them from module globals.
_set_time = ViewerEvent.time.__set__
_set_kind = ViewerEvent.kind.__set__
_set_viewer_id = ViewerEvent.viewer_id.__set__
_set_view_index = ViewerEvent.view_index.__set__


@dataclass
class WorkloadConfig:
    """Parameters of the viewer workload generator.

    Attributes
    ----------
    num_viewers:
        Population size.
    outbound:
        Distribution of outbound capacities.
    num_views:
        Number of distinct candidate global views viewers choose from.
    view_popularity_alpha:
        Zipf exponent of view popularity (0 = uniform).
    arrival_rate_per_second:
        Rate of the Poisson arrival process.  ``None`` or 0 means all
        viewers join at time 0 (a flash crowd), which is how the static
        scaling experiments are run.
    view_change_probability:
        Probability that a given viewer performs one view change during the
        session.
    departure_probability:
        Probability that a given viewer departs before the session ends.
    session_duration:
        Horizon over which view changes and departures are spread.
    buffer_duration / cache_duration:
        Gateway buffer parameters copied onto each generated viewer.
    """

    num_viewers: int = 100
    outbound: BandwidthDistribution = field(
        default_factory=lambda: BandwidthDistribution.uniform(0.0, 12.0)
    )
    num_views: int = 1
    view_popularity_alpha: float = 1.0
    arrival_rate_per_second: Optional[float] = None
    view_change_probability: float = 0.0
    departure_probability: float = 0.0
    session_duration: float = 300.0
    buffer_duration: float = 0.3
    cache_duration: float = 25.0

    def __post_init__(self) -> None:
        if self.num_viewers <= 0:
            raise ValueError("num_viewers must be > 0")
        if self.arrival_rate_per_second is not None:
            require_non_negative(self.arrival_rate_per_second, "arrival_rate_per_second")
        if self.num_views <= 0:
            raise ValueError("num_views must be > 0")
        require_non_negative(self.view_popularity_alpha, "view_popularity_alpha")
        if not (0.0 <= self.view_change_probability <= 1.0):
            raise ValueError("view_change_probability must be in [0, 1]")
        if not (0.0 <= self.departure_probability <= 1.0):
            raise ValueError("departure_probability must be in [0, 1]")
        # Accepted, an infinite duration overflows the frame clock after
        # the whole world is built.
        if not math.isfinite(self.session_duration):
            raise ValueError(f"session_duration must be finite, got {self.session_duration}")
        require_positive(self.session_duration, "session_duration")


class ViewerWorkload:
    """Deterministic generator of viewer populations and event schedules."""

    def __init__(
        self, config: WorkloadConfig, *, rng: Optional[SeededRandom] = None
    ) -> None:
        self.config = config
        self._rng = rng or SeededRandom(0)
        # Viewer ids by index, formatted on first use: a build's
        # iter_viewers and iter_events share one string per viewer.
        self._ids: List[Optional[str]] = [None] * config.num_viewers

    def viewers(self) -> List[Viewer]:
        """Generate the viewer population."""
        return list(self.iter_viewers())

    def iter_viewers(self, *, owned: Optional[Sequence[bool]] = None) -> Iterator[Viewer]:
        """Stream the viewer population in id order.

        Yields exactly the sequence :meth:`viewers` returns without
        materializing the whole list.  ``owned`` flags, per viewer index,
        the viewers a shard's scenario build keeps: only those are
        constructed, and a run of the others skips its bandwidth draws in
        bulk (:meth:`~repro.sim.rng.SeededRandom.skip`), so the result is
        exactly the flagged subsequence of the full population.
        """
        cfg = self.config
        rng = self._rng.fork(1)
        random = rng.draw
        outbound = cfg.outbound
        fixed = outbound.is_fixed
        low, span = outbound.low_mbps, outbound.high_mbps - outbound.low_mbps
        buffer_duration, cache_duration = cfg.buffer_duration, cfg.cache_duration
        indices = range(cfg.num_viewers)
        ids = self._ids
        drawn = 0  # bandwidth draws consumed so far
        for index in indices if owned is None else itertools.compress(indices, owned):
            sample = low
            if not fixed:
                if index > drawn:
                    rng.skip(index - drawn)
                drawn = index + 1
                sample += span * random()  # Random.uniform(low, high), inline
            viewer_id = ids[index]
            if viewer_id is None:
                viewer_id = ids[index] = VIEWER_ID % index
            yield Viewer(
                viewer_id, VIEWER_INBOUND_MBPS, sample, buffer_duration, cache_duration
            )

    def events(self, *, owned: Optional[Sequence[bool]] = None) -> List[ViewerEvent]:
        """Generate the time-ordered event schedule for the population.

        Every viewer joins exactly once.  A subset (per the configured
        probabilities) later changes view and/or departs.  With no arrival
        rate configured, all joins happen at time 0 -- the simultaneous
        flash-crowd arrival the paper calls out as a target scenario.
        ``owned`` is passed through to :meth:`iter_events`.
        """
        return list(self.iter_events(owned=owned))

    def iter_events(
        self, *, owned: Optional[Sequence[bool]] = None
    ) -> Iterator[ViewerEvent]:
        """Stream the schedule of :meth:`viewers` in time order, lazily.

        ``owned`` flags, per viewer index, the viewers whose events are
        constructed: every viewer still makes its draws (its arrival adds
        to every later join time), so the result is exactly the flagged
        subsequence of the full schedule.

        Events are heap-buffered until the next flagged viewer's join
        key passes them: follow-ups (view changes, departures) fire after
        later viewers' joins, join times never fall and ids rise within
        one id width.  A viewer ``owned`` leaves out pushes nothing, so it
        neither formats its id nor flushes the heap (unless it is the
        last of its width), and with one view and neither view changes
        nor departures it costs no Python-level call.  An id
        :meth:`iter_viewers` formatted is reused, not formatted again.
        """
        cfg = self.config
        rng = self._rng.fork(2)
        random, log = rng.draw, math.log
        # Heap of (time, viewer_id, kind, event); a viewer emits at most
        # one event of each kind, so the key triple is unique and the
        # ViewerEvent itself is never compared.
        buffered: List[Tuple[float, str, str, ViewerEvent]] = []

        # Hoisted out of the per-viewer loop; at 100k+ viewers attribute
        # dispatch is a measurable slice of a worker's startup.
        arrival_rate = cfg.arrival_rate_per_second
        change_probability = cfg.view_change_probability
        depart_probability = cfg.departure_probability
        single_view = cfg.num_views == 1
        heappush, heappop = heapq.heappush, heapq.heappop
        ids = self._ids

        # Ids compare as strings, so a wider id sorts lower
        # ("viewer-100000" < "viewer-99999"): the flush at the last id of
        # each width is the one place the order falls back, and it runs
        # whether or not that viewer is flagged.
        last_of_width = 10 ** len((VIEWER_ID % 0)[VIEWER_INDEX_AT:]) - 1
        join_time = 0.0
        for index in range(cfg.num_viewers):
            if arrival_rate:
                # Random.expovariate(arrival_rate), drawn inline.
                join_time += -log(1.0 - random()) / arrival_rate
            mine = owned is None or owned[index]
            if mine or index == last_of_width:
                if index == last_of_width:
                    last_of_width = 10 * last_of_width + 9
                viewer_id = ids[index]
                if viewer_id is None:
                    viewer_id = ids[index] = VIEWER_ID % index
                # Every event generated from here on sorts at or after
                # (join_time, viewer_id): follow-up times are bounded
                # below by their own viewer's join time, and ids increase
                # up to the next width.
                while buffered and buffered[0][:2] < (join_time, viewer_id):
                    yield heappop(buffered)[3]
            view_index = 0 if single_view else self._pick_view(rng)
            if mine:
                join_event = ViewerEvent(join_time, "join", viewer_id, view_index)
                heappush(buffered, (join_time, viewer_id, "join", join_event))
            horizon_start = join_time
            if change_probability > 0 and rng.random() < change_probability:
                change_time = horizon_start + rng.uniform(
                    0.0, max(1e-9, cfg.session_duration - horizon_start)
                )
                new_view = self._pick_view(rng)
                if cfg.num_views > 1:
                    while new_view == view_index:
                        new_view = self._pick_view(rng)
                if mine:
                    change_event = ViewerEvent(
                        change_time, "view_change", viewer_id, new_view
                    )
                    heappush(
                        buffered,
                        (change_time, viewer_id, "view_change", change_event),
                    )
                horizon_start = change_time
            if depart_probability > 0 and rng.random() < depart_probability:
                depart_time = horizon_start + rng.uniform(
                    0.0, max(1e-9, cfg.session_duration - horizon_start)
                )
                if mine:
                    depart_event = ViewerEvent(depart_time, "depart", viewer_id)
                    heappush(
                        buffered, (depart_time, viewer_id, "depart", depart_event)
                    )
        while buffered:
            yield heappop(buffered)[3]

    def _pick_view(self, rng: SeededRandom) -> int:
        cfg = self.config
        if cfg.num_views == 1:
            return 0
        if cfg.view_popularity_alpha <= 0:
            return rng.randint(0, cfg.num_views - 1)
        return rng.zipf_index(cfg.num_views, cfg.view_popularity_alpha)


@dataclass(frozen=True)
class ChurnConfig:
    """Parameters of the churn overlay applied to a base join schedule.

    The dynamic scenarios the paper calls out ("large-scale simultaneous
    viewer arrivals or departures") compose from three knobs:

    * **Poisson departures** -- ``failure_rate_per_second > 0`` fails a
      uniformly random connected viewer at exponentially distributed
      intervals.
    * **Correlated mass-leave** -- at ``mass_leave_time`` a
      ``mass_leave_fraction`` of the connected population departs in the
      same instant (e.g. the end of a performance).
    * **Flash-crowd + churn mix** -- the base schedule's simultaneous
      arrival combined with Poisson failures and ``rejoin_probability`` so
      departed viewers come back after an exponential think time.

    ``graceful_fraction`` turns that share of churn departures into
    graceful ``depart`` events (the viewer notifies the LSC before
    leaving); the remainder are abrupt ``fail`` events that exercise the
    failure-recovery subsystem.
    """

    failure_rate_per_second: float = 0.0
    graceful_fraction: float = 0.0
    mass_leave_time: Optional[float] = None
    mass_leave_fraction: float = 0.0
    rejoin_probability: float = 0.0
    rejoin_delay_mean: float = 30.0
    start_time: float = 0.0
    duration: float = 300.0

    def __post_init__(self) -> None:
        require_non_negative(self.failure_rate_per_second, "failure_rate_per_second")
        require_non_negative(self.start_time, "start_time")
        require_positive(self.duration, "duration")
        require_positive(self.rejoin_delay_mean, "rejoin_delay_mean")
        for name, value in (
            ("graceful_fraction", self.graceful_fraction),
            ("mass_leave_fraction", self.mass_leave_fraction),
            ("rejoin_probability", self.rejoin_probability),
        ):
            if not (0.0 <= value <= 1.0):
                raise ValueError(f"{name} must be in [0, 1]")
        if self.mass_leave_time is not None:
            require_non_negative(self.mass_leave_time, "mass_leave_time")

    @property
    def horizon(self) -> float:
        """Last instant at which churn events may be generated."""
        return self.start_time + self.duration


@dataclass(frozen=True)
class OutageConfig:
    """A correlated regional outage: one LSC crashes together with a
    fraction of the viewers it was serving, in a single event.

    This is the failure mode a per-viewer churn process cannot express:
    the controller *and* a correlated slice of its region disappear at
    the same instant, so the survivors must be failed over to another
    LSC while the failed viewers' subtrees are repaired.  The scenario
    builder resolves ``lsc_index`` to a concrete LSC id and samples the
    co-failing viewers from that LSC's region.
    """

    time: float = 10.0
    lsc_index: int = 0
    viewer_fraction: float = 0.5
    seed: int = 17

    def __post_init__(self) -> None:
        require_non_negative(self.time, "time")
        if self.lsc_index < 0:
            raise ValueError("lsc_index must be >= 0")
        if not (0.0 <= self.viewer_fraction <= 1.0):
            raise ValueError("viewer_fraction must be in [0, 1]")


@dataclass(frozen=True)
class OscillationConfig:
    """Join/leave oscillation: a few viewers repeatedly leave and rejoin.

    Aimed at the last free P2P slot: with scarce outbound capacity the
    oscillators' slots are re-contended on every cycle, and under the
    simulated control plane a rejoin's ``JoinRequest`` races the
    previous cycle's ``DepartNotice`` (or ``FailureNotice``) for the
    same viewer -- the duplicate-join race surface.

    Each oscillator runs ``cycles`` leave/rejoin cycles of length
    ``period`` starting at ``start_time``; oscillators are staggered by
    ``period / (2 * num_oscillators)`` so their messages interleave.
    """

    start_time: float = 10.0
    period: float = 1.0
    cycles: int = 8
    num_oscillators: int = 2
    graceful: bool = True

    def __post_init__(self) -> None:
        require_non_negative(self.start_time, "start_time")
        require_positive(self.period, "period")
        if self.cycles <= 0:
            raise ValueError("cycles must be > 0")
        if self.num_oscillators <= 0:
            raise ValueError("num_oscillators must be > 0")

    @property
    def horizon(self) -> float:
        """Last instant at which oscillation events are generated."""
        return self.start_time + self.cycles * self.period


def alive_before(events: Sequence[ViewerEvent], time: float) -> dict:
    """Viewers connected strictly before ``time``, with their view index.

    Replays the causal-order schedule, honouring joins, departures,
    failures and view changes; used by overlay generators that must only
    target viewers actually in the session at injection time.
    """
    alive: dict = {}
    for event in events:
        if event.time >= time:
            break
        if event.kind == "join":
            alive[event.viewer_id] = event.view_index
        elif event.kind == "view_change":
            if event.viewer_id in alive:
                alive[event.viewer_id] = event.view_index
        elif event.kind in ("depart", "fail"):
            alive.pop(event.viewer_id, None)
    return alive


def overlay_oscillation(
    base_events: Sequence[ViewerEvent], config: OscillationConfig
) -> List[ViewerEvent]:
    """Overlay leave/rejoin oscillation cycles on a base schedule.

    The oscillators are the lexicographically last ``num_oscillators``
    viewers connected when the oscillation starts (deterministic, no
    RNG).  Their remaining base events are dropped -- the oscillation
    owns their timeline from ``start_time`` on -- and every rejoin
    requests the view the viewer was watching.  The result is in causal
    order (stable time sort; per-viewer cycles are strictly ordered).
    """
    alive = alive_before(base_events, config.start_time)
    oscillators = sorted(alive)[-config.num_oscillators :]
    chosen = set(oscillators)
    if not chosen:
        return list(base_events)
    kept = [
        event
        for event in base_events
        if event.viewer_id not in chosen or event.time < config.start_time
    ]
    stagger = config.period / (2.0 * config.num_oscillators)
    kind = "depart" if config.graceful else "fail"
    injected: List[ViewerEvent] = []
    for position, viewer_id in enumerate(oscillators):
        view_index = alive[viewer_id]
        for cycle in range(config.cycles):
            leave_at = config.start_time + cycle * config.period + position * stagger
            injected.append(
                ViewerEvent(time=leave_at, kind=kind, viewer_id=viewer_id)
            )
            injected.append(
                ViewerEvent(
                    time=leave_at + config.period / 2.0,
                    kind="join",
                    viewer_id=viewer_id,
                    view_index=view_index,
                )
            )
    merged = kept + injected
    merged.sort(key=lambda event: event.time)
    return merged


class ChurnWorkload:
    """Deterministically overlays churn events on a base join schedule.

    The generator replays the base schedule on a virtual clock, tracking
    which viewers are connected at every instant (joins and departures from
    the base schedule, prior churn, rejoins), so failures only ever hit
    connected viewers and rejoins only re-admit departed ones.  Rejoining
    viewers request the view they watched before departing.
    """

    def __init__(
        self, config: ChurnConfig, *, rng: Optional[SeededRandom] = None
    ) -> None:
        self.config = config
        self._rng = rng or SeededRandom(0)

    def events(self, base_events: Sequence[ViewerEvent]) -> List[ViewerEvent]:
        """Return the base schedule plus churn events, in time order.

        The returned list is in *causal* order: events are emitted as the
        virtual clock replays them, so a viewer's join always precedes a
        churn departure at the same timestamp (and a departure precedes
        its rejoin).  Callers that re-sort must do so stably on keys that
        keep one viewer's events in list order.
        """
        cfg = self.config
        rng = self._rng.fork(3)
        result: List[ViewerEvent] = []
        seq = itertools.count()
        heap: List[Tuple[float, int, str, object]] = []
        for event in base_events:
            heapq.heappush(heap, (event.time, next(seq), "base", event))
        if cfg.failure_rate_per_second > 0:
            first = cfg.start_time + rng.poisson_interarrival(cfg.failure_rate_per_second)
            if first <= cfg.horizon:
                heapq.heappush(heap, (first, next(seq), "churn", None))
        if (
            cfg.mass_leave_time is not None
            and cfg.mass_leave_fraction > 0
            and cfg.mass_leave_time <= cfg.horizon
        ):
            heapq.heappush(heap, (cfg.mass_leave_time, next(seq), "mass", None))

        alive: set = set()
        view_of: dict = {}
        while heap:
            time, _, tag, payload = heapq.heappop(heap)
            if tag == "base":
                event = payload
                result.append(event)
                if event.kind == "join":
                    alive.add(event.viewer_id)
                    view_of[event.viewer_id] = event.view_index
                elif event.kind == "view_change":
                    view_of[event.viewer_id] = event.view_index
                else:
                    alive.discard(event.viewer_id)
            elif tag == "churn":
                candidates = sorted(alive)
                if candidates:
                    victim = candidates[rng.randint(0, len(candidates) - 1)]
                    self._depart(result, heap, seq, rng, alive, time, victim)
                nxt = time + rng.poisson_interarrival(cfg.failure_rate_per_second)
                if nxt <= cfg.horizon:
                    heapq.heappush(heap, (nxt, next(seq), "churn", None))
            elif tag == "mass":
                candidates = sorted(alive)
                count = int(round(cfg.mass_leave_fraction * len(candidates)))
                for victim in sorted(rng.sample(candidates, min(count, len(candidates)))):
                    self._depart(result, heap, seq, rng, alive, time, victim)
            else:  # rejoin
                viewer_id = payload
                if viewer_id not in alive:
                    result.append(
                        ViewerEvent(
                            time=time,
                            kind="join",
                            viewer_id=viewer_id,
                            view_index=view_of.get(viewer_id, 0),
                        )
                    )
                    alive.add(viewer_id)
        # Events were appended in heap-pop order, so the list is already
        # time-sorted; re-sorting on (time, viewer_id, kind) here would
        # break causality for same-timestamp pairs (a "fail" would sort
        # before the "join" it depends on).
        return result

    def _depart(
        self,
        result: List[ViewerEvent],
        heap: List[Tuple[float, int, str, object]],
        seq,
        rng: SeededRandom,
        alive: set,
        time: float,
        victim: str,
    ) -> None:
        """Emit one churn departure and (maybe) schedule the rejoin."""
        cfg = self.config
        kind = "depart" if rng.random() < cfg.graceful_fraction else "fail"
        result.append(ViewerEvent(time=time, kind=kind, viewer_id=victim))
        alive.discard(victim)
        if cfg.rejoin_probability > 0 and rng.random() < cfg.rejoin_probability:
            when = time + rng.exponential(cfg.rejoin_delay_mean)
            if when <= cfg.horizon:
                heapq.heappush(heap, (when, next(seq), "rejoin", victim))
