"""One shard worker: a group of LSCs running in its own process.

Each worker builds its own slice of the scenario deterministically from
the :class:`~repro.experiments.config.ExperimentConfig` seeds
(``build_scenario(config, shard=...)``: cheaper and safer than pickling a
built world across the process boundary -- only control messages ever
cross it), and the build decides everything the worker hosts: the
slice's LSCs (``Scenario.hosted_lscs``, refused by the build when
empty), its events, and the ownership timeline that cut them.  The
worker only runs it: :func:`~repro.experiments.runner.build_telecast_system`
instantiates exactly the hosted LSCs under their global ids, and the
slice replays segment by segment through
:class:`~repro.core.session.InstantDriver`
(``apply`` / ``advance`` / ``finalize``).

Event ownership is a pure function of the config seeds, applied once, by
the build: ``viewer -> region -> owning LSC -> worker``, the last step
being the weighted placement of
:func:`~repro.experiments.runner.place_lscs` (heaviest LSC first onto
the least-loaded worker; the coordinator computes it once and hands it
to every worker).  A worker replays every event its slice holds.

The one cross-shard operation is the configured outage's ``lsc_fail``,
at most one per schedule (a second one is refused).  Its failover -- the
failed LSC, the barrier time, the target and the regions that move -- is
read off the slice's ``Scenario.timeline``, the one decision.  Only the
worker that needs the sessions waits at the barrier.  The worker hosting
the failed LSC replays that LSC's own pre-failure events first
(:func:`failover_replay_order`), evicts it
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
to back in one process.  Messages travel as typed
:class:`~repro.sim.transport.ControlMessage` records over two plain
multiprocessing queues, the worker's ``inbox`` and the coordinator's
``outbox``.
"""

from __future__ import annotations

import pickle
import time
import traceback
from typing import Callable, List, Optional, Sequence, Tuple

from repro.core.controllers import lsc_node_id
from repro.core.session import InstantDriver, event_sort_key
from repro.metrics.placement import per_lsc_placement_digests
from repro.sim.transport import (
    ShardBarrierAck,
    ShardError,
    ShardReady,
    ShardResult,
    ShardResume,
)
from repro.traces.workload import ViewerEvent
from repro.util.rusage import peak_rss_kib

#: How long a worker waits on a coordinator resume before giving up.
BARRIER_TIMEOUT = 600.0


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
    try:
        _run(
            worker_index,
            num_workers,
            config,
            snapshot_every,
            profile,
            inbox,
            outbox,
            placement,
        )
    except Exception:  # pragma: no cover - surfaced by the coordinator
        outbox.put(
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
    inbox,
    outbox,
    placement: Tuple[int, ...],
) -> None:
    # Imported here so a spawn-started worker pays the import once, in
    # the child, instead of requiring the parent's module state.
    from repro.experiments.runner import (
        ShardSelection,
        build_scenario,
        build_telecast_system,
    )

    started = time.perf_counter()
    scenario = build_scenario(
        config, shard=ShardSelection(num_workers, worker_index, placement)
    )
    system = build_telecast_system(scenario)
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
    outbox.put(
        ShardReady(
            src=me,
            dst="coordinator",
            sent_at=0.0,
            shard_index=worker_index,
            lsc_ids=tuple(lsc.lsc_id for lsc in system.gsc.lscs),
        )
    )

    viewers_by_id = {viewer.viewer_id: viewer for viewer in scenario.viewers}
    views_by_id = {view.view_id: view for view in scenario.views}
    # The build already cut the schedule to this worker's events by its
    # ownership timeline, which is also the one failover decision: the
    # failed LSC, the barrier time, the target and the regions that move.
    # The worker reads that decision; it derives none of it again.
    timeline = scenario.timeline

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
        target = None if target_index is None else lsc_node_id(target_index)
        cut = ordered.index(barriers[0])
        # Only the failed LSC's host holds events of it: elsewhere the
        # first part is empty and the ack goes out before the segment.
        failed_first, others = failover_replay_order(
            ordered[:cut], failed_index, lsc_of
        )
        replay(failed_first)
        sessions: Tuple[Tuple[str, str, float], ...] = ()
        if failed_index in scenario.hosted_lscs:
            sessions = tuple(system.evict_lsc(failed, barrier_time))
        outbox.put(
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
        if readmitter in scenario.hosted_lscs:
            mark = time.perf_counter()
            resume = inbox.get(timeout=BARRIER_TIMEOUT)
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
    outbox.put(
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
