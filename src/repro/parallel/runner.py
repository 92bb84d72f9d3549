"""The shard-parallel coordinator: spawn workers, referee barriers, merge.

The coordinator owns no session state at all.  It computes the LSC ->
worker placement once (:func:`repro.experiments.runner.shard_placement`),
spawns one worker process per shard
(:func:`repro.parallel.worker.run_shard_worker`) with that placement --
each worker's build turns it into the LSCs the worker hosts, and every
:class:`~repro.sim.transport.ShardReady` must name exactly those --
moves typed messages over plain multiprocessing queues (one inbox per
worker, one shared result queue), referees the one ``lsc_fail`` barrier a schedule can hold -- every
worker sends one :class:`~repro.sim.transport.ShardBarrierAck`, each
checked against the first ack's (failed, target) decision as it
arrives; as soon as the failed LSC's host has acked, one
:class:`~repro.sim.transport.ShardResume` carrying the migrated sessions
goes to the worker the placement gives the target, the only one that
waits for it -- and merges the per-shard results (metrics, snapshots,
placement digests, CDN usage) in shard-index order, so the merged
record is a deterministic function of the seeds.

Clock-merge rule: away from the barrier every shard's simulator clock
runs independently (shard-local events commute across shards); the
barrier sits at its ``lsc_fail`` event's timestamp, which every shard
aligns to before replaying past it, so nothing is merged there; the
merged run clock is the max over final shard clocks.
"""

from __future__ import annotations

import multiprocessing
import pickle
import queue as queue_module
import warnings
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.controllers import lsc_index, lsc_node_id
from repro.experiments.config import ExperimentConfig, clamp_shard_workers
from repro.experiments.runner import ScenarioResult, shard_placement
from repro.metrics.collectors import SessionMetrics, SystemSnapshot
from repro.parallel.worker import run_shard_worker
from repro.sim.transport import (
    ShardBarrierAck,
    ShardError,
    ShardReady,
    ShardResult,
    ShardResume,
)
from repro.util.validation import require_non_negative

#: Seconds without any worker message before the coordinator declares the
#: run wedged and tears the workers down.
DEFAULT_STALL_TIMEOUT = 600.0


@dataclass
class ShardedScenarioResult:
    """A merged sharded run plus the per-shard detail the gates inspect."""

    result: ScenarioResult
    num_workers: int
    #: Final simulator clock of each shard, by shard index.
    shard_clocks: Dict[int, float] = field(default_factory=dict)
    #: The merged run clock: ``max`` over the shard clocks.
    merged_clock: float = 0.0
    #: Placement digest of every LSC (each lives wholly inside one shard).
    placement_digests: Dict[str, str] = field(default_factory=dict)
    #: Worker index hosting each LSC, by LSC index (the load-aware
    #: placement the coordinator computed and the workers confirmed).
    placement: Tuple[int, ...] = ()
    #: Wall-clock telemetry of each worker, by worker index: ``build_s``,
    #: ``busy_s`` (applying events and absorbing failovers),
    #: ``barrier_wait_s``, ``finalize_s``, ``events``, ``viewers`` and
    #: ``ru_maxrss``.  Always on; never part of any parity comparison.
    worker_stats: Dict[int, Dict[str, float]] = field(default_factory=dict)

    @property
    def imbalance(self) -> float:
        """Max over mean of the workers' ``busy_s``: 1.0 is a perfect split."""
        busy = [stats["busy_s"] for stats in self.worker_stats.values()]
        total = sum(busy)
        return max(busy) * len(busy) / total if total > 0 else 1.0


def resolve_worker_count(config: ExperimentConfig, num_workers: Optional[int]) -> int:
    """Effective worker count: bounded by the LSC count (the shard unit)."""
    requested = num_workers if num_workers is not None else (config.shard_workers or 1)
    if requested < 1:
        raise ValueError(f"shard workers must be >= 1, got {requested}")
    return clamp_shard_workers(requested, config.num_lscs)


def run_sharded_scenario(
    config: ExperimentConfig,
    *,
    num_workers: Optional[int] = None,
    snapshot_every: Optional[int] = 100,
    profile: bool = False,
    mp_start_method: Optional[str] = None,
    stall_timeout: float = DEFAULT_STALL_TIMEOUT,
) -> ShardedScenarioResult:
    """Run one scenario with the LSC shards spread over worker processes.

    Only the instant control plane shards (the simulated control plane
    and the data plane are whole-system event loops; they stay
    single-process), so ``config.control_plane`` must be ``"instant"``
    and ``config.data_plane`` ``"off"``.  Placement parity with the
    single-process multi-LSC run holds whenever the CDN never saturates
    (each shard accounts its own CDN reservations; an unsaturated CDN
    admits identically either way) -- the regime the parity gate pins.
    Each worker builds only its own slice of the scenario, so startup is
    O(n/k) per worker.
    """
    if config.control_plane != "instant":
        raise ValueError(
            "the shard-parallel engine requires control_plane='instant' "
            f"(got {config.control_plane!r}); the simulated control plane "
            "is a whole-system event loop"
        )
    if config.data_plane != "off":
        raise ValueError(
            "the shard-parallel engine requires data_plane='off' "
            f"(got {config.data_plane!r}); the frame replay is a "
            "whole-system event loop"
        )
    if snapshot_every is not None:
        # Refused here too, so a bad cadence never reaches a worker.
        require_non_negative(snapshot_every, "snapshot_every")
    workers = resolve_worker_count(config, num_workers)
    # Computed once here and handed to every worker; _coordinate checks
    # what the workers report hosting against it and routes the resume by it.
    placement = shard_placement(config, workers)
    ctx = (
        multiprocessing.get_context(mp_start_method)
        if mp_start_method
        else multiprocessing.get_context()
    )
    coord_queue = ctx.Queue()
    inboxes = [ctx.Queue() for _ in range(workers)]
    processes = [
        ctx.Process(
            target=run_shard_worker,
            args=(
                index,
                workers,
                config,
                snapshot_every,
                profile,
                inboxes[index],
                coord_queue,
            ),
            kwargs={"placement": placement},
            name=f"repro-shard-{index}",
        )
        for index in range(workers)
    ]
    for process in processes:
        process.start()
    try:
        payload_messages = _coordinate(
            workers, coord_queue, inboxes, processes, stall_timeout, placement
        )
    except BaseException:
        # Failing fast only helps if teardown is fast too: a failover
        # target may be parked at a barrier waiting for a resume that
        # will never come, so don't grant anyone the graceful join window.
        for process in processes:
            if process.is_alive():
                process.terminate()
        raise
    finally:
        for process in processes:
            process.join(timeout=30.0)
            if process.is_alive():  # pragma: no cover - stuck worker cleanup
                process.terminate()
                process.join(timeout=5.0)
    return _merge(config, placement, payload_messages)


def _coordinate(
    workers: int,
    coord_queue,
    inboxes,
    processes,
    stall_timeout: float,
    placement: Tuple[int, ...],
) -> Dict[int, ShardResult]:
    """Pump the coordinator protocol until every shard reported its result.

    Each worker must report hosting (:class:`ShardReady`) exactly the
    LSCs ``placement`` gives it: a worker that derived a different
    placement would otherwise silently double-host or drop an LSC.  Each
    ack must carry the first ack's (failed, target) decision.  The
    failed LSC's host's ack releases the one resume, to the worker the
    placement gives the target (the failed LSC's own when no LSC
    survives) and nobody else.

    A worker that dies without delivering its :class:`ShardResult` --
    crash, kill signal, or a clean exit that skipped the protocol --
    fails the run promptly instead of leaving the coordinator (and a
    failover target blocked at the barrier) waiting out the stall
    timeout.  A worker that exited ``0`` gets one extra poll of grace so
    a result still draining through the queue's feeder pipe is not
    misread as a death.
    """
    results: Dict[int, ShardResult] = {}
    #: The (failed, target) decision of the first ack.
    decision: Optional[Tuple[str, str]] = None
    waited = 0.0
    missing_polls = 0
    while len(results) < workers:
        try:
            message = coord_queue.get(timeout=1.0)
        except queue_module.Empty:
            waited += 1.0
            missing = [
                (index, process)
                for index, process in enumerate(processes)
                if index not in results and not process.is_alive()
            ]
            crashed = [
                process for _, process in missing if process.exitcode not in (0, None)
            ]
            if crashed:
                names = ", ".join(
                    f"{process.name} (exit code {process.exitcode})"
                    for process in crashed
                )
                raise RuntimeError(f"shard worker(s) died: {names}")
            if missing:
                missing_polls += 1
                if missing_polls >= 2:
                    names = ", ".join(
                        process.name for _, process in missing
                    )
                    raise RuntimeError(
                        "shard worker(s) exited without reporting a "
                        f"result: {names}"
                    )
            else:
                missing_polls = 0
            if waited >= stall_timeout:
                raise RuntimeError(
                    f"sharded run stalled: no worker message for {stall_timeout:.0f}s"
                )
            continue
        waited = 0.0
        missing_polls = 0
        if isinstance(message, ShardError):
            raise RuntimeError(
                f"shard {message.shard_index} failed:\n{message.error}"
            )
        if isinstance(message, ShardReady):
            expected = tuple(
                lsc_node_id(lsc)
                for lsc, worker in enumerate(placement)
                if worker == message.shard_index
            )
            if message.lsc_ids != expected:
                raise RuntimeError(
                    f"shard placement mismatch: shard-{message.shard_index} "
                    f"must host {list(expected)}, reported {list(message.lsc_ids)}"
                )
        elif isinstance(message, ShardResult):
            results[message.shard_index] = message
        elif isinstance(message, ShardBarrierAck):
            acked = (message.failed_lsc_id, message.target_lsc_id)
            decision = decision or acked
            if acked != decision:
                raise RuntimeError(
                    "shards disagree on the failover decision: "
                    f"{sorted({decision, acked})}"
                )
            if placement[lsc_index(message.failed_lsc_id)] == message.shard_index:
                # The target's worker re-admits; with no survivor, the owner.
                index = placement[
                    lsc_index(message.target_lsc_id or message.failed_lsc_id)
                ]
                inboxes[index].put(
                    ShardResume(
                        src="coordinator",
                        dst=f"shard-{index}",
                        sent_at=message.sent_at,
                        sessions=message.sessions,
                    )
                )
        else:
            raise RuntimeError(f"unexpected coordinator message: {message!r}")
    return results


def _merge(
    config: ExperimentConfig,
    placement: Tuple[int, ...],
    results: Dict[int, ShardResult],
) -> ShardedScenarioResult:
    """Fold the per-shard payloads into one result, in shard-index order."""
    payloads = {
        index: pickle.loads(results[index].payload) for index in sorted(results)
    }
    metrics: Optional[SessionMetrics] = None
    snapshots: List[SystemSnapshot] = []
    digests: Dict[str, str] = {}
    viewers_per_lsc: Dict[str, int] = {}
    cdn_outbound = 0.0
    for index in sorted(payloads):
        payload = payloads[index]
        if metrics is None:
            metrics = payload["metrics"]
        else:
            metrics.merge_from(payload["metrics"])
        snapshots.append(payload["final_snapshot"])
        digests.update(payload["placement_digests"])
        viewers_per_lsc.update(payload["viewers_per_lsc"])
        cdn_outbound += payload["cdn_outbound_mbps"]
    assert metrics is not None
    if cdn_outbound > config.cdn_capacity_mbps:
        warnings.warn(
            "sharded run admitted "
            f"{cdn_outbound:.1f} Mbps of CDN traffic, over the global "
            f"{config.cdn_capacity_mbps:.1f} Mbps cap: each shard accounts "
            "its own CDN reservations, so a saturated CDN admits more "
            "viewers than the single-process run would. Use "
            "with_uncapped_cdn() (or a capacity the workload cannot "
            "saturate) for exact placement parity.",
            stacklevel=2,
        )
    final_snapshot = _merge_snapshots(snapshots, metrics)
    shard_clocks = {index: results[index].final_clock for index in sorted(results)}
    result = ScenarioResult(
        config=config,
        metrics=metrics,
        final_snapshot=final_snapshot,
        cdn_outbound_mbps=cdn_outbound,
        viewers_per_lsc=viewers_per_lsc,
        placement_digests=dict(digests),
    )
    return ShardedScenarioResult(
        result=result,
        num_workers=len(results),
        shard_clocks=shard_clocks,
        merged_clock=max(shard_clocks.values(), default=0.0),
        placement_digests=digests,
        placement=placement,
        worker_stats={
            index: dict(results[index].stats) for index in sorted(results)
        },
    )


def _merge_snapshots(
    snapshots: List[SystemSnapshot], metrics: SessionMetrics
) -> SystemSnapshot:
    """Sum the per-shard final snapshots into one global snapshot.

    Viewer populations are disjoint across shards, so the counts add;
    the acceptance ratio comes from the merged cumulative counters.
    """
    return SystemSnapshot(
        num_viewers=sum(s.num_viewers for s in snapshots),
        num_requests=sum(s.num_requests for s in snapshots),
        active_subscriptions=sum(s.active_subscriptions for s in snapshots),
        cdn_subscriptions=sum(s.cdn_subscriptions for s in snapshots),
        cdn_outbound_mbps=sum(s.cdn_outbound_mbps for s in snapshots),
        acceptance_ratio=metrics.acceptance_ratio,
    )
