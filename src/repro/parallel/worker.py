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

The one cross-shard operation is the configured outage's ``lsc_fail``,
at most one per schedule (a second one is refused).  Its failover -- the
failed LSC, the barrier time, the target and the regions that move -- is
decided once, by the build's ownership timeline, and every worker reads
it from there.  Only the worker that needs the sessions waits at the
barrier.  The worker hosting the failed LSC replays that LSC's own
pre-failure events first (:func:`failover_replay_order`), evicts it
(``TeleCastSystem.evict_lsc``: CDN reservations released, sessions
sorted by ``(join_time, viewer_id)``) and ships the sessions in its
:class:`~repro.sim.transport.ShardBarrierAck` at once; only then does
it replay its other LSCs' events.  Every other worker acks too (the
coordinator cross-checks the failover decision) and replays its segment
without stopping.  Every worker then aligns its simulator clock to the
barrier.  The worker hosting the target (the failed LSC's own host when
no LSC survives) blocks on the coordinator's one
:class:`~repro.sim.transport.ShardResume` and re-admits the sessions
through its normal join pipeline (``TeleCastSystem.absorb_failover``) --
the same two halves :func:`repro.core.recovery.failover_lsc` runs back
to back in one process.
"""

from __future__ import annotations

import pickle
import time
import traceback
from typing import Callable, List, Optional, Sequence, Tuple

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
from repro.util.rusage import peak_rss_kib

#: How long a worker waits on a coordinator resume before giving up.
BARRIER_TIMEOUT = 600.0


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


def run_shard_worker(
    worker_index: int,
    num_workers: int,
    config,
    snapshot_every: Optional[int],
    profile: bool,
    inbox,
    outbox,
    *,
    placement: Tuple[int, ...],
) -> None:
    """Process entry point of one shard worker (module-level: picklable).

    ``placement`` is the coordinator's LSC -> worker map
    (:func:`repro.experiments.runner.shard_placement`); the worker hosts
    the LSCs it maps to ``worker_index``.
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
    placement: Tuple[int, ...],
) -> None:
    # Imported here so a spawn-started worker pays the import once, in
    # the child, instead of requiring the parent's module state.
    from repro.experiments.runner import (
        ShardSelection,
        _OwnershipTimeline,
        _region_names_for,
        build_scenario,
    )

    started = time.perf_counter()
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

    viewers_by_id = {viewer.viewer_id: viewer for viewer in scenario.viewers}
    views_by_id = {view.view_id: view for view in scenario.views}
    # The build already cut the schedule to this worker's events by its
    # ownership timeline, which is also the one failover decision: the
    # failed LSC, the barrier time, the target and the regions that move.
    # The worker reads that decision; it derives none of it again.
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
    barriers = [event for event in ordered if event.kind == "lsc_fail"]
    if len(barriers) > 1:
        second = barriers[1]
        raise RuntimeError(
            f"shard {worker_index}: second lsc_fail barrier ({second.viewer_id} "
            f"at t={second.time:g}); a sharded schedule holds at most one, "
            "the configured outage's"
        )
    if [event_sort_key(event) for event in barriers] != (
        [timeline.transition_key] if timeline.transition_key else []
    ):
        raise RuntimeError(
            f"shard {worker_index}: lsc_fail barriers {barriers} do not match "
            f"the outage's failover {timeline.transition_key}"
        )
    if not barriers:
        replay(ordered)
    else:
        barrier_time, failed = timeline.transition_key
        failed_index, target_index = timeline.failed_index, timeline.target_index
        target = None if target_index is None else f"LSC-{target_index}"
        cut = ordered.index(barriers[0])
        # Only the failed LSC's host holds events of it: elsewhere the
        # first part is empty and the ack goes out before the segment.
        failed_first, others = failover_replay_order(
            ordered[:cut], failed_index, lsc_of
        )
        replay(failed_first)
        sessions: Tuple[Tuple[str, str, float], ...] = ()
        if placement[failed_index] == worker_index:
            sessions = tuple(system.evict_lsc(failed, barrier_time))
        transport.send(
            ShardBarrierAck(
                src=me,
                dst="coordinator",
                sent_at=barrier_time,
                shard_index=worker_index,
                failed_lsc_id=failed,
                target_lsc_id=target or "",
                sessions=sessions,
            )
        )
        replay(others)
        driver.advance(barrier_time)
        # The target's worker re-admits the sessions; with no survivor
        # anywhere the owner books them as lost.  Nobody else waits.
        readmitter = failed_index if target_index is None else target_index
        if placement[readmitter] == worker_index:
            mark = time.perf_counter()
            resume = transport.recv(timeout=BARRIER_TIMEOUT)
            barrier_wait_s += time.perf_counter() - mark
            if not isinstance(resume, ShardResume):
                raise RuntimeError(
                    f"shard {worker_index}: expected the failover resume, "
                    f"got {resume!r}"
                )
            mark = time.perf_counter()
            system.absorb_failover(
                failed,
                target,
                resume.sessions,
                barrier_time,
                viewers_by_id=viewers_by_id,
                views_by_id=views_by_id,
                regions=sorted(timeline.failed_regions),
            )
            busy_s += time.perf_counter() - mark
        replay(ordered[cut + 1 :])
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
                ("ru_maxrss", peak_rss_kib() or 0),
            ),
        )
    )
