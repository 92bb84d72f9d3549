"""Build and run one simulated dissemination scenario.

A *scenario* is one viewer population with one bandwidth distribution run
against either 4D TeleCast or the Random baseline.  :func:`build_scenario`
is the one place that knows how a config becomes substrates -- producers,
CDN, synthetic PlanetLab latencies (with every control node present in
the matrix), region-sharded LSC assignments and the workload schedule.
It builds one worker's slice of the world; the single-process run is the
one-worker case, whose slice is everything.  Both runners consume the
same :class:`Scenario`, so a sweep point never builds its substrates
twice, and :func:`run_telecast_scenario` is the one place that spells
``build -> build_telecast_system -> run_workload`` (the scenario presets
and the CLI's ``run`` call it).

With ``config.num_lscs > 1`` the latency trace's geographic regions are
clustered into one shard per Local Session Controller
(:func:`repro.net.regions.shard_regions`); every viewer carries the region
label of its latency-matrix node and joins through the LSC of its region,
which is how the paper scales the control plane (Section III).
"""

from __future__ import annotations

import math
import time
from collections import Counter
from dataclasses import dataclass, field
from itertools import compress
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.controllers import nearest_lsc
from repro.core.dataplane import OverlayDataPlane, PlaybackReport
from repro.core.telecast import TeleCastSystem, build_views
from repro.experiments.config import ExperimentConfig
from repro.metrics.collectors import SessionMetrics, SystemSnapshot
from repro.model.cdn import CDN
from repro.model.producer import ProducerSite, make_default_producers
from repro.model.view import GlobalView
from repro.model.viewer import VIEWER_ID, VIEWER_INDEX_AT, Viewer
from repro.net.latency import DelayModel
from repro.net.planetlab import (
    DEFAULT_REGION_NAMES,
    PlanetLabTraceConfig,
    generate_planetlab_matrix,
    node_keys,
    region_indices,
)
from repro.net.regions import shard_regions
from repro.sim.rng import SeededRandom
from repro.traces.teeve import TeeveSessionTrace
from repro.traces.workload import (
    ChurnWorkload,
    OutageConfig,
    ViewerEvent,
    ViewerWorkload,
    alive_before,
    overlay_oscillation,
)
from repro.util.validation import require_non_negative


@dataclass
class Scenario:
    """Every substrate one scenario run needs, built exactly once.

    ``lsc_regions`` holds, per LSC index, the region names that LSC
    serves; ``control_node_ids`` lists the GSC, every LSC and the CDN in
    the order they were inserted into the latency matrix.
    """

    config: ExperimentConfig
    viewers: List[Viewer]
    events: List[ViewerEvent]
    producers: List[ProducerSite]
    delay_model: DelayModel
    cdn: CDN
    views: List[GlobalView]
    lsc_regions: Tuple[Tuple[str, ...], ...]
    control_node_ids: Tuple[str, ...]


@dataclass
class ScenarioResult:
    """Everything an experiment needs from one scenario run."""

    config: ExperimentConfig
    metrics: SessionMetrics
    final_snapshot: SystemSnapshot
    cdn_outbound_mbps: float
    #: Connected viewers per LSC id at the end of the run (TeleCast only;
    #: the Random baseline has no LSC control plane).
    viewers_per_lsc: Dict[str, int] = field(default_factory=dict)
    #: Per-LSC placement digests, populated by the shard-parallel engine
    #: (the parity oracle against the single-process run).
    placement_digests: Dict[str, str] = field(default_factory=dict)
    #: The live system the workload ran on, for callers that inspect the
    #: overlay afterwards (``None`` for sharded and Random runs).
    system: Optional[TeleCastSystem] = None

    @property
    def acceptance_ratio(self) -> float:
        """Cumulative stream-level acceptance ratio of the run."""
        return self.metrics.acceptance_ratio

    def summary(self) -> Dict[str, float]:
        """The one flat record of the run.

        ``metrics.summary()`` plus the scalars only the final system
        state knows; sweep points, scenario records and the CLI's ``run``
        all report from this mapping.
        """
        metrics = self.metrics.summary()
        snapshot = self.final_snapshot
        metrics["cdn_outbound_mbps"] = self.cdn_outbound_mbps
        metrics["cdn_fraction"] = snapshot.cdn_fraction
        metrics["connected_viewers"] = snapshot.num_viewers
        metrics["num_requests"] = snapshot.num_requests
        metrics["active_subscriptions"] = snapshot.active_subscriptions
        return metrics


def _region_names_for(config: ExperimentConfig) -> Sequence[str]:
    """Region labels of the latency trace, widened when LSCs outnumber them."""
    if config.num_lscs <= len(DEFAULT_REGION_NAMES):
        return DEFAULT_REGION_NAMES
    return tuple(f"geo-{index}" for index in range(config.num_lscs))


@dataclass(frozen=True)
class ShardSelection:
    """Which worker of an LSC-sharded run a scenario build is for.

    ``build_scenario(config, shard=...)`` builds only the viewers,
    events and latency nodes owned by the worker's LSC group (ownership:
    ``viewer -> region -> LSC -> placement[lsc_index]``), so per-worker
    startup is O(n/k).  ``placement`` is the LSC -> worker map the
    coordinator hands its workers (one entry per LSC, checked against
    the config by the build); ``ShardSelection(k, i)`` without one means
    "worker ``i`` of the placement :func:`shard_placement` derives from
    the config".
    """

    num_workers: int
    worker_index: int
    placement: Optional[Tuple[int, ...]] = None

    def __post_init__(self) -> None:
        if self.num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        if not (0 <= self.worker_index < self.num_workers):
            raise ValueError(
                f"worker_index must be in [0, {self.num_workers}), "
                f"got {self.worker_index}"
            )
        for worker in self.placement or ():
            if not (0 <= worker < self.num_workers):
                raise ValueError(
                    f"placement entries must be in [0, {self.num_workers}), "
                    f"got {worker} in {self.placement}"
                )


class _OwnershipTimeline:
    """Event ownership as a pure function of the config seeds.

    The one place events are assigned to workers: a region is owned by
    the LSC of its shard group until that LSC fails, after which it is
    owned by the nearest surviving LSC (the same failover target the
    workers resolve at the barrier).  The transition applies to every
    event sorting strictly after the ``lsc_fail`` event's
    ``(time, "LSC-i")`` key -- exactly where the barrier sits in a
    worker's sorted replay.
    """

    def __init__(self, config: ExperimentConfig, region_names: Sequence[str]):
        lsc_regions = shard_regions(region_names, config.num_lscs)
        self.region_names = region_names
        self.lsc_regions = lsc_regions
        self.region_to_lsc_index = {
            region: index
            for index, group in enumerate(lsc_regions)
            for region in group
        }
        self.failed_index: Optional[int] = None
        #: Regions of the LSC the configured outage fails (empty without one).
        self.failed_regions: frozenset = frozenset()
        self.target_index: Optional[int] = None
        self.transition_key: Optional[Tuple[float, str]] = None
        if config.outage is None:
            return
        failed_index = config.outage.lsc_index % len(lsc_regions)
        failed_id = f"LSC-{failed_index}"
        # The failover target is derived from the control-node delays
        # alone; delays are composition-independent, so this tiny
        # matrix resolves the same target as any worker's full world.
        control_nodes = (
            ["GSC"] + [f"LSC-{i}" for i in range(config.num_lscs)] + ["CDN"]
        )
        control_matrix = generate_planetlab_matrix(
            control_nodes,
            rng=SeededRandom(config.latency_seed),
            config=PlanetLabTraceConfig(region_names=region_names),
        )
        survivors = [
            f"LSC-{i}" for i in range(config.num_lscs) if i != failed_index
        ]
        target_id = nearest_lsc(DelayModel(control_matrix), failed_id, survivors)
        self.failed_index = failed_index
        self.failed_regions = frozenset(lsc_regions[failed_index])
        self.target_index = (
            int(target_id.rsplit("-", 1)[1]) if target_id is not None else None
        )
        self.transition_key = (config.outage.time, failed_id)

    def owner_lsc_index(self, region: str, sort_key: Tuple[float, str]) -> Optional[int]:
        """Owning LSC index of a region at one event's sort key."""
        index = self.region_to_lsc_index.get(region)
        if index is None:
            return None
        if index == self.failed_index and self.sorts_after_failover(sort_key):
            return self.target_index
        return index

    def sorts_after_failover(self, sort_key: Tuple[float, str]) -> bool:
        """Whether an event at ``sort_key`` sorts past the ``lsc_fail`` barrier."""
        return self.transition_key is not None and sort_key > self.transition_key

    def region_workers(
        self, placement: Sequence[int]
    ) -> Tuple[List[Optional[int]], List[Optional[int]]]:
        """The worker hosting each region (by index) before and after the failover.

        Read off :meth:`owner_lsc_index`; the two tables differ only at
        the failed LSC's regions.
        """
        return (
            self._workers_at(placement, (-math.inf, "")),
            self._workers_at(placement, (math.inf, "")),
        )

    def _workers_at(
        self, placement: Sequence[int], sort_key: Tuple[float, str]
    ) -> List[Optional[int]]:
        lscs = (self.owner_lsc_index(name, sort_key) for name in self.region_names)
        return [None if lsc is None else placement[lsc] for lsc in lscs]

    def slice_events(
        self,
        events: Sequence[ViewerEvent],
        viewer_regions: Sequence[int],
        region_workers: Tuple[List[Optional[int]], List[Optional[int]]],
        worker_index: int,
    ) -> List[ViewerEvent]:
        """One worker's events: those of the regions it hosts at each event's key.

        ``region_workers`` is :meth:`region_workers` of the placement and
        ``viewer_regions`` the population's region-index table.
        ``lsc_fail`` barriers reach every worker.
        """
        before, after = region_workers
        kept = []
        for event in events:
            if event.kind != "lsc_fail":
                region = viewer_regions[int(event.viewer_id[VIEWER_INDEX_AT:])]
                worker = before[region]
                if worker != after[region] and self.sorts_after_failover(
                    (event.time, event.viewer_id)
                ):
                    worker = after[region]
                if worker != worker_index:
                    continue
            kept.append(event)
        return kept

    def lsc_weights(self, viewer_regions: Sequence[int]) -> List[int]:
        """Join load of every LSC over the whole schedule, in viewers.

        An LSC weighs the population of its regions; the target of an
        outage failover additionally weighs the failed LSC's population
        (it re-admits the migrated sessions and serves those regions
        from then on).  ``viewer_regions`` is the region-index table of
        the population (:func:`region_indices` of the viewers' :func:`node_keys`).
        """
        weights = [0] * len(self.lsc_regions)
        for region_index, viewers in Counter(viewer_regions).items():
            region = self.region_names[region_index]
            weights[self.region_to_lsc_index[region]] += viewers
        if self.failed_index is not None and self.target_index is not None:
            weights[self.target_index] += weights[self.failed_index]
        return weights

    def placement(
        self, viewer_regions: Sequence[int], num_workers: int
    ) -> Tuple[int, ...]:
        """The LSC -> worker map of this schedule (see :func:`shard_placement`)."""
        # Imported lazily: repro.parallel imports this module.
        from repro.parallel.worker import place_lscs

        return place_lscs(self.lsc_weights(viewer_regions), num_workers)


def shard_placement(config: ExperimentConfig, num_workers: int) -> Tuple[int, ...]:
    """The worker index hosting each LSC of a sharded run of ``config``.

    Load-aware: :func:`repro.parallel.worker.place_lscs` over the
    schedule-derived weights of :meth:`_OwnershipTimeline.lsc_weights`.
    A pure function of the config seeds, so the coordinator, every
    worker and a bare ``ShardSelection(k, i)`` build agree on it.
    """
    region_names = _region_names_for(config)
    timeline = _OwnershipTimeline(config, region_names)
    keys = node_keys(config.latency_seed, VIEWER_ID, config.num_viewers)
    return timeline.placement(region_indices(keys, len(region_names)), num_workers)


def _overlay_outage(
    events: List[ViewerEvent],
    outage: OutageConfig,
    timeline: _OwnershipTimeline,
    viewer_regions: Sequence[int],
) -> List[ViewerEvent]:
    """Overlay one correlated regional outage on a time-ordered schedule.

    Emits a single ``lsc_fail`` event for the configured LSC plus abrupt
    ``fail`` events for a sampled fraction of the viewers connected in
    that LSC's regions at the outage instant.  ``events`` may be any
    slice of the schedule that holds every event of those regions'
    viewers: the victims are sampled from them alone, so every shard
    derives the same block.
    """
    assert timeline.failed_index is not None
    candidates = sorted(
        viewer_id
        for viewer_id in alive_before(events, outage.time)
        if timeline.region_names[viewer_regions[int(viewer_id[VIEWER_INDEX_AT:])]]
        in timeline.failed_regions
    )
    count = int(round(outage.viewer_fraction * len(candidates)))
    rng = SeededRandom(outage.seed)
    victims = sorted(rng.sample(candidates, min(count, len(candidates))))
    injected = [
        ViewerEvent(
            time=outage.time,
            kind="lsc_fail",
            viewer_id=f"LSC-{timeline.failed_index}",
        )
    ]
    injected.extend(
        ViewerEvent(time=outage.time, kind="fail", viewer_id=victim)
        for victim in victims
    )
    merged = events + injected
    # Stable sort: base events keep causal order, and at the outage
    # instant the controller crash precedes its viewers' failures (the
    # drivers' (time, id) sort also puts "LSC-*" before "viewer-*").
    merged.sort(key=lambda event: event.time)
    return merged


def build_scenario(
    config: ExperimentConfig, shard: Optional[ShardSelection] = None
) -> Scenario:
    """Construct all substrates of one scenario (shared by both runners).

    Controllers and the CDN are network endpoints too; including them in
    the synthetic trace gives per-viewer control-plane delays
    (Figure 14(c)) a realistic spread instead of a constant default.
    Every viewer is stamped with the region label of its latency-matrix
    node so the GSC's region-based LSC assignment operates on real trace
    geography.

    There is one build, and it is a projection: it constructs only what
    the selected worker's LSC group can ever touch -- the viewers of its
    ever-owned regions (including regions migrated to it by an outage
    failover), its slice of the event schedule, and a latency world
    interning only those viewers plus the control nodes.  ``shard=None``
    selects the one worker that hosts every LSC, whose projection is the
    whole world.  Region assignment and pair delays are pure functions
    of per-node keys (derived once, in one batch, and shared by the
    ownership table and the latency matrix), so any worker's substrates
    are byte-identical to the corresponding slice of the full build.
    """
    if shard is None:
        shard = ShardSelection(num_workers=1, worker_index=0)
    region_names = _region_names_for(config)
    timeline = _OwnershipTimeline(config, region_names)
    viewer_keys = node_keys(config.latency_seed, VIEWER_ID, config.num_viewers)
    viewer_regions = region_indices(viewer_keys, len(region_names))
    placement = shard.placement or timeline.placement(
        viewer_regions, shard.num_workers
    )
    if len(placement) != config.num_lscs:
        raise ValueError(
            f"placement must name a worker for each of the {config.num_lscs} "
            f"LSCs, got {len(placement)} entries"
        )
    worker_index = shard.worker_index

    # The ownership table: each region's worker before and after the
    # failover; ``owned`` flags the viewers this worker hosts
    # at any point, ``tracked`` those whose events it generates -- the
    # owned ones plus the failed regions' (the outage overlay samples its
    # victims from their alive viewers), or all of them under churn or
    # oscillation, which read global connectedness.  The worker hosting
    # every LSC keeps everything.
    region_workers = timeline.region_workers(placement)
    owned = tracked = None
    if any(worker != worker_index for worker in placement):
        region_owned = [worker_index in pair for pair in zip(*region_workers)]
        region_tracked = [
            mine or name in timeline.failed_regions
            for mine, name in zip(region_owned, region_names)
        ]
        owned = [region_owned[region] for region in viewer_regions]
        if config.churn is None and config.oscillation is None:
            tracked = owned if region_tracked == region_owned else [
                region_tracked[region] for region in viewer_regions
            ]

    workload = ViewerWorkload(config.workload_config(), rng=SeededRandom(config.seed))
    viewers = list(workload.iter_viewers(owned=owned))
    owned_regions = viewer_regions if owned is None else list(compress(viewer_regions, owned))
    for viewer, region in zip(viewers, owned_regions):
        viewer.region_name = region_names[region]
    if owned is not None:
        viewer_keys = list(compress(viewer_keys, owned))

    events = workload.events(owned=tracked)
    if config.churn is not None:
        churn = ChurnWorkload(config.churn, rng=SeededRandom(config.churn_seed))
        events = churn.events(events)
    if config.oscillation is not None:
        events = overlay_oscillation(events, config.oscillation)
    if config.outage is not None:
        events = _overlay_outage(events, config.outage, timeline, viewer_regions)
    if owned is not None:
        events = timeline.slice_events(events, viewer_regions, region_workers, worker_index)

    producers = make_default_producers(
        config.num_sites,
        config.cameras_per_site,
        stream_bandwidth_mbps=config.stream_bandwidth_mbps,
        frame_rate=config.frame_rate,
    )
    control_nodes = (
        ["GSC"] + [f"LSC-{index}" for index in range(config.num_lscs)] + ["CDN"]
    )
    viewer_ids = [viewer.viewer_id for viewer in viewers]
    matrix = generate_planetlab_matrix(
        viewer_ids + control_nodes,
        rng=SeededRandom(config.latency_seed),
        config=PlanetLabTraceConfig(region_names=region_names),
        known_keys=dict(zip(viewer_ids, viewer_keys)),
        known_regions=dict(zip(viewer_ids, owned_regions)),
    )
    delay_model = DelayModel(
        matrix,
        processing_delay=config.processing_delay,
        cdn_delta=config.cdn_delta,
        control_processing_delay=config.control_processing_delay,
    )
    cdn = CDN(config.cdn_capacity_mbps, delta=config.cdn_delta)
    views = build_views(producers, num_views=config.num_views)
    return Scenario(
        config=config,
        viewers=viewers,
        events=events,
        producers=producers,
        delay_model=delay_model,
        cdn=cdn,
        views=views,
        lsc_regions=timeline.lsc_regions,
        control_node_ids=tuple(control_nodes),
    )


def build_telecast_system(scenario: Scenario) -> TeleCastSystem:
    """Instantiate the 4D TeleCast control plane over a built scenario."""
    config = scenario.config
    return TeleCastSystem(
        scenario.producers,
        scenario.cdn,
        scenario.delay_model,
        config.layer_config(),
        lsc_regions=scenario.lsc_regions,
        heartbeat_timeout=config.heartbeat_timeout,
    )


def run_telecast_scenario(
    config: ExperimentConfig,
    *,
    snapshot_every: Optional[int] = 100,
    scenario: Optional[Scenario] = None,
    profile: bool = False,
) -> ScenarioResult:
    """Run one scenario through 4D TeleCast.

    Pass a prebuilt ``scenario`` to reuse substrates across systems (the
    scenario must have been built from the same ``config``); note a
    scenario is stateful (CDN reservations, viewer buffers) and can only
    be run once.

    ``config.control_plane`` picks the workload driver: ``"instant"``
    applies events synchronously (the seed semantics), ``"simulated"``
    delivers them as in-flight control messages with latency and records
    the observed join/view-change latency distributions next to the
    analytic ones.

    ``config.data_plane="simulated"`` appends an event-driven frame
    replay phase after the control-plane run: the synthetic TEEVE trace
    travels through the built overlay with per-edge bandwidth
    serialization and loss, and the QoE summary keys
    (``qoe_startup_delay_*``, ``qoe_continuity_mean``, ``qoe_skew_*``)
    appear in ``metrics.summary()``.

    With ``profile`` set, per-phase wall-clock times (scenario build,
    join, view_change, churn, replay, metrics) are accumulated into
    ``metrics.phase_timings`` without affecting any recorded metric.

    With ``config.shard_workers`` > 1 the run is delegated to the
    shard-parallel engine (:mod:`repro.parallel`): each group of LSCs
    runs in its own worker process and the merged result comes back as
    the same :class:`ScenarioResult` shape.  Sharded runs rebuild the
    scenario inside each worker, so a prebuilt ``scenario`` cannot be
    reused across the process boundary.
    """
    if config.shard_workers is not None and config.shard_workers > 1:
        if scenario is not None:
            raise ValueError(
                "sharded runs rebuild the scenario per worker; "
                "a prebuilt scenario cannot be passed with shard_workers > 1"
            )
        # Imported lazily: repro.parallel imports this module for the
        # ScenarioResult shape.
        from repro.parallel import run_sharded_scenario

        return run_sharded_scenario(
            config, snapshot_every=snapshot_every, profile=profile
        ).result
    build_started = time.perf_counter() if profile else 0.0
    if scenario is None:
        scenario = build_scenario(config)
    build_seconds = time.perf_counter() - build_started if profile else 0.0
    system = build_telecast_system(scenario)
    metrics = system.run_workload(
        scenario.viewers,
        scenario.events,
        scenario.views,
        snapshot_every=snapshot_every,
        profile=profile,
        control_plane=config.control_plane,
        heartbeat_period=config.heartbeat_period,
        control_delay_scale=config.control_delay_scale,
        data_plane=config.data_plane_config(),
    )
    if profile:
        metrics.add_phase_time("build", build_seconds)
    return ScenarioResult(
        config=config,
        metrics=metrics,
        # finalize() has just appended it; snapshots are frozen.
        final_snapshot=metrics.snapshots[-1],
        cdn_outbound_mbps=scenario.cdn.used_outbound_mbps,
        viewers_per_lsc=system.viewers_per_lsc(),
        system=system,
    )


def run_offline_replay(
    result: ScenarioResult, frames: int, *, profile: bool = False
) -> PlaybackReport:
    """Replay ``frames`` frames per stream over a finished run's overlay.

    The engine-free data plane (:meth:`OverlayDataPlane.replay`:
    constant per-edge delay, no loss, no refresh) over the overlay
    ``run_telecast_scenario`` left behind; with ``profile`` the wall
    time lands in ``metrics.phase_timings["replay"]``.
    """
    started = time.perf_counter()
    system = result.system
    trace = TeeveSessionTrace(system.producers, rng=SeededRandom(result.config.seed))
    report = OverlayDataPlane(system, trace).replay(max_frames_per_stream=frames)
    if profile:
        result.metrics.add_phase_time("replay", time.perf_counter() - started)
    return report


def run_random_scenario(
    config: ExperimentConfig,
    *,
    snapshot_every: Optional[int] = 100,
) -> ScenarioResult:
    """Run the same scenario through the Random dissemination baseline."""
    # Imported here: the serve daemon and every TeleCast run import this
    # module and never load the baseline.
    from repro.baselines.random_routing import RandomDisseminationSystem

    if snapshot_every is not None:
        require_non_negative(snapshot_every, "snapshot_every")
    scenario = build_scenario(config)
    system = RandomDisseminationSystem(
        scenario.producers,
        scenario.cdn,
        scenario.delay_model,
        config.layer_config(),
        rng=SeededRandom(config.baseline_seed),
    )
    by_id = {viewer.viewer_id: viewer for viewer in scenario.viewers}
    joins_seen = 0
    seen_joins = set()
    for event in scenario.events:
        if event.kind != "join" or event.viewer_id in seen_joins:
            # The baseline models only joins; view change, departure and
            # churn dynamics (including rejoins) are a 4D TeleCast
            # capability.
            continue
        seen_joins.add(event.viewer_id)
        view = scenario.views[event.view_index % len(scenario.views)]
        system.join_viewer(by_id[event.viewer_id], view, event.time)
        joins_seen += 1
        if snapshot_every and joins_seen % snapshot_every == 0:
            system.metrics.add_snapshot(system.count_snapshot())
    final_snapshot = system.take_snapshot()
    return ScenarioResult(
        config=config,
        metrics=system.metrics,
        final_snapshot=final_snapshot,
        cdn_outbound_mbps=scenario.cdn.used_outbound_mbps,
    )
