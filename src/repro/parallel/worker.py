"""One shard worker: a group of LSCs running in its own process.

Each worker builds its own slice of the scenario deterministically from
the :class:`~repro.experiments.config.ExperimentConfig` seeds
(``build_scenario(config, shard=...)``: cheaper and safer than pickling a
built world across the process boundary -- only control messages ever
cross it), instantiates a :class:`~repro.core.telecast.TeleCastSystem`
holding *only its own LSCs* under their global ids, and replays that
slice of the schedule segment by segment through
:class:`~repro.core.session.InstantDriver`
(``apply`` / ``advance`` / ``finalize``).

Event ownership is a pure function of the config seeds, applied once, by
the build: ``viewer -> region -> owning LSC -> worker``, the last step
being the weighted placement of :func:`place_lscs` (heaviest LSC first
onto the least-loaded worker; the coordinator computes it once and hands
it to every worker).  A worker replays every event its slice holds.
The one cross-shard operation, ``lsc_fail``, is a barrier, and only
the worker that needs its sessions waits at it.  The worker hosting the
failed LSC replays that LSC's own pre-failure events first
(:func:`failover_replay_order`), evicts it
(``TeleCastSystem.evict_lsc``: CDN reservations released, sessions
sorted by ``(join_time, viewer_id)``) and ships the sessions in its
:class:`~repro.sim.transport.ShardBarrierAck` at once; only then does
it replay its other LSCs' events.  Every other worker acks too (the
coordinator cross-checks the failover decision) and replays its segment
without stopping.  The worker hosting the nearest surviving LSC then
blocks on the coordinator's one :class:`~repro.sim.transport.ShardResume`
and re-admits the sessions through its normal join pipeline
(``TeleCastSystem.absorb_failover``) -- the same two halves
:func:`repro.core.recovery.failover_lsc` runs back to back in one
process.  Every worker aligns its simulator clock to the barrier's
timestamp and repoints the failed regions at the target in its barrier
maps, so a later failover moves them again.
"""

from __future__ import annotations

import pickle
import sys
import time
import traceback
from typing import Callable, Dict, List, Optional, Sequence, Tuple

try:
    import resource
except ImportError:  # pragma: no cover - platform without getrusage
    resource = None

from repro.core.controllers import nearest_lsc
from repro.core.session import InstantDriver, event_sort_key
from repro.core.telecast import TeleCastSystem
from repro.metrics.placement import per_lsc_placement_digests
from repro.sim.transport import (
    ShardBarrierAck,
    ShardError,
    ShardQueueTransport,
    ShardReady,
    ShardResult,
    ShardResume,
)
from repro.traces.workload import ViewerEvent

#: How long a worker waits on a coordinator resume before giving up.
DEFAULT_BARRIER_TIMEOUT = 600.0


def place_lscs(weights: Sequence[int], num_workers: int) -> Tuple[int, ...]:
    """The worker index hosting each LSC: the one shard placement rule.

    Longest-processing-time-first: LSCs are taken heaviest first (ties
    to the lower LSC index) and each goes to the least-loaded worker,
    ties to the worker hosting fewer LSCs, then to the lower worker
    index.  The hosted-count tie-break spreads zero-weight LSCs too, so
    no worker is left empty while ``num_workers <= len(weights)``, and
    equal weights -- zero included -- deal round-robin (LSC ``i`` on
    worker ``i mod k``, the mapping this function replaced).
    The heaviest worker's load is within ``4/3 - 1/(3k)`` of the
    optimum.  Weights are integers (viewer counts), so the result is the
    same in every process that computes it.
    """
    if num_workers < 1:
        raise ValueError(f"num_workers must be >= 1, got {num_workers}")
    # Per worker: [load, hosted LSCs, worker index] -- min() is the rule.
    workers = [[0, 0, index] for index in range(num_workers)]
    placement = [0] * len(weights)
    for lsc_index in sorted(range(len(weights)), key=lambda i: (-weights[i], i)):
        worker = min(workers)
        placement[lsc_index] = worker[2]
        worker[0] += weights[lsc_index]
        worker[1] += 1
    return tuple(placement)


def failover_replay_order(
    segment: Sequence[ViewerEvent],
    failed_index: int,
    lsc_of: Callable[[ViewerEvent], Optional[int]],
) -> Tuple[List[ViewerEvent], List[ViewerEvent]]:
    """Split the events before an ``lsc_fail`` into (failed LSC's, the rest).

    The failed LSC's host replays the first part, evicts the LSC and
    acks, and only then replays the second, so the target's worker gets
    the sessions without waiting for this worker's other LSCs.  Both
    parts keep the segment's order, so every LSC's own events replay in
    schedule order; LSCs commute inside a worker exactly as they do
    across workers.  ``lsc_of`` is the build's ownership rule; the
    split reads nothing but the segment, so it is the same in every run.
    """
    failed: List[ViewerEvent] = []
    others: List[ViewerEvent] = []
    for event in segment:
        (failed if lsc_of(event) == failed_index else others).append(event)
    return failed, others


def _ru_maxrss() -> int:
    """This process's peak resident set in KiB, on every platform."""
    if resource is None:  # pragma: no cover - platform without getrusage
        return 0
    usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # macOS reports bytes; Linux and the BSDs report KiB.
    return usage // 1024 if sys.platform == "darwin" else usage


def run_shard_worker(
    worker_index: int,
    num_workers: int,
    config,
    snapshot_every: Optional[int],
    profile: bool,
    inbox,
    outbox,
    barrier_timeout: float = DEFAULT_BARRIER_TIMEOUT,
    placement: Optional[Tuple[int, ...]] = None,
) -> None:
    """Process entry point of one shard worker (module-level: picklable).

    ``placement`` is the coordinator's LSC -> worker map; without one
    the worker derives it from the config by the same function.
    """
    transport = ShardQueueTransport(inbox, outbox)
    try:
        _run(
            worker_index,
            num_workers,
            config,
            snapshot_every,
            profile,
            transport,
            barrier_timeout,
            placement,
        )
    except Exception:  # pragma: no cover - surfaced by the coordinator
        transport.send(
            ShardError(
                src=f"shard-{worker_index}",
                dst="coordinator",
                sent_at=0.0,
                shard_index=worker_index,
                error=traceback.format_exc(),
            )
        )


def _run(
    worker_index: int,
    num_workers: int,
    config,
    snapshot_every: Optional[int],
    profile: bool,
    transport: ShardQueueTransport,
    barrier_timeout: float,
    placement: Optional[Tuple[int, ...]] = None,
) -> None:
    # Imported here so a spawn-started worker pays the import once, in
    # the child, instead of requiring the parent's module state.
    from repro.experiments.runner import (
        ShardSelection,
        _OwnershipTimeline,
        _region_names_for,
        build_scenario,
        shard_placement,
    )

    started = time.perf_counter()
    if placement is None:
        placement = shard_placement(config, num_workers)
    my_indices = [i for i, worker in enumerate(placement) if worker == worker_index]
    if not my_indices:
        raise ValueError(
            f"shard worker {worker_index} of {num_workers} owns no LSCs "
            f"(num_lscs={config.num_lscs}); workers beyond the LSC count "
            "would replay an empty schedule and silently skew the merge"
        )
    shard = ShardSelection(
        num_workers=num_workers, worker_index=worker_index, placement=placement
    )
    scenario = build_scenario(config, shard=shard)
    lsc_ids = [f"LSC-{i}" for i in my_indices]
    system = TeleCastSystem(
        scenario.producers,
        scenario.cdn,
        scenario.delay_model,
        config.layer_config(),
        lsc_regions=[scenario.lsc_regions[i] for i in my_indices],
        lsc_ids=lsc_ids,
        heartbeat_timeout=config.heartbeat_timeout,
    )
    driver = InstantDriver(
        system,
        scenario.viewers,
        scenario.views,
        snapshot_every=snapshot_every,
        profile=profile,
    )
    me = f"shard-{worker_index}"
    # Wall-clock telemetry of this worker: a handful of perf_counter
    # reads per run (per apply batch and per barrier), never per event.
    build_s = time.perf_counter() - started
    busy_s = 0.0
    barrier_wait_s = 0.0
    events_applied = 0
    transport.send(
        ShardReady(
            src=me,
            dst="coordinator",
            sent_at=0.0,
            shard_index=worker_index,
            lsc_ids=tuple(lsc_ids),
        )
    )

    # The scenario build already cut the schedule down to this worker's
    # events (the ownership timeline applies the failover transition), so
    # nothing is filtered here.  The global maps below serve the barrier
    # alone -- who hosts the failed LSC and its target, which regions move
    # -- and every worker updates identical copies at the same barriers.
    region_to_lsc: Dict[str, str] = {
        region: f"LSC-{i}"
        for i, group in enumerate(scenario.lsc_regions)
        for region in group
    }
    lsc_to_worker = {f"LSC-{i}": worker for i, worker in enumerate(placement)}
    alive = [f"LSC-{i}" for i in range(config.num_lscs)]
    viewers_by_id = {viewer.viewer_id: viewer for viewer in scenario.viewers}
    views_by_id = {view.view_id: view for view in scenario.views}
    timeline = _OwnershipTimeline(config, _region_names_for(config))

    def lsc_of(event) -> Optional[int]:
        # The build's ownership rule, read off the viewer's stamped region.
        region = viewers_by_id[event.viewer_id].region_name
        return timeline.owner_lsc_index(region, event_sort_key(event))

    def replay(events: Sequence) -> None:
        nonlocal busy_s, events_applied
        mark = time.perf_counter()
        driver.apply(events)
        busy_s += time.perf_counter() - mark
        events_applied += len(events)

    ordered = sorted(scenario.events, key=event_sort_key)
    barrier_seq = 0
    pending: List = []
    for event in ordered:
        if event.kind != "lsc_fail":
            pending.append(event)
            continue
        failed = event.viewer_id
        if failed not in alive:
            # A second crash of an already-failed controller is a no-op in
            # the single-process driver; every worker skips it identically,
            # so no barrier round-trip is spent on it.
            continue
        barrier_seq += 1
        alive.remove(failed)
        target = nearest_lsc(scenario.delay_model, failed, alive)
        # Only the failed LSC's host holds events of it: elsewhere the
        # first part is empty and the ack goes out before the segment.
        failed_first, others = failover_replay_order(pending, int(failed[4:]), lsc_of)
        pending = []
        replay(failed_first)
        sessions: Tuple[Tuple[str, str, float], ...] = ()
        if lsc_to_worker[failed] == worker_index:
            sessions = tuple(system.evict_lsc(failed, event.time))
        transport.send(
            ShardBarrierAck(
                src=me,
                dst="coordinator",
                sent_at=event.time,
                shard_index=worker_index,
                barrier_seq=barrier_seq,
                local_clock=event.time,
                failed_lsc_id=failed,
                target_lsc_id=target or "",
                sessions=sessions,
            )
        )
        replay(others)
        driver.advance(event.time)
        reassigned = sorted(
            region for region, lsc_id in region_to_lsc.items() if lsc_id == failed
        )
        # The target's worker re-admits the sessions; with no survivor
        # anywhere the owner books them as lost.  Nobody else waits.
        if lsc_to_worker[target or failed] == worker_index:
            mark = time.perf_counter()
            resume = transport.recv(timeout=barrier_timeout)
            barrier_wait_s += time.perf_counter() - mark
            if not isinstance(resume, ShardResume) or resume.barrier_seq != barrier_seq:
                raise RuntimeError(
                    f"shard {worker_index}: expected resume for barrier "
                    f"{barrier_seq}, got {resume!r}"
                )
            mark = time.perf_counter()
            system.absorb_failover(
                failed,
                target,
                resume.sessions,
                event.time,
                viewers_by_id=viewers_by_id,
                views_by_id=views_by_id,
                regions=reassigned,
            )
            busy_s += time.perf_counter() - mark
        for region in reassigned:
            if target is None:
                del region_to_lsc[region]
            else:
                region_to_lsc[region] = target
    replay(pending)
    finalize_started = time.perf_counter()
    metrics = driver.finalize()
    payload = pickle.dumps(
        {
            "metrics": metrics,
            "final_snapshot": metrics.snapshots[-1],  # appended by finalize()
            "placement_digests": per_lsc_placement_digests(system),
            "cdn_outbound_mbps": scenario.cdn.used_outbound_mbps,
            "viewers_per_lsc": system.viewers_per_lsc(),
        }
    )
    transport.send(
        ShardResult(
            src=me,
            dst="coordinator",
            sent_at=system.simulator.now,
            shard_index=worker_index,
            final_clock=system.simulator.now,
            payload=payload,
            stats=(
                ("build_s", build_s),
                ("busy_s", busy_s),
                ("barrier_wait_s", barrier_wait_s),
                ("finalize_s", time.perf_counter() - finalize_started),
                ("events", events_applied),
                ("viewers", len(scenario.viewers)),
                ("ru_maxrss", _ru_maxrss()),
            ),
        )
    )
