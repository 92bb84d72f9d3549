"""Parity and determinism gates of the shard-parallel engine.

The engine's contract is exact: process parallelism may change
wall-clock time only.  Same-seed shard-local joins are byte-identical to
the single-process multi-LSC run (per-LSC placement digests), cross-shard
failovers resolve identically under the documented clock-merge rule, and
the merged metrics equal the single-process metrics.  Parity is pinned
in the regime the engine documents: uncapped CDN (per-shard CDN
accounting matches exactly when the CDN never saturates) and end-only
snapshots (the snapshot cadence is per-shard).
"""

from __future__ import annotations

import dataclasses
import pickle
import queue

import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import (
    build_scenario,
    build_telecast_system,
    run_telecast_scenario,
)
from repro.metrics.placement import per_lsc_placement_digests
from repro.parallel import run_sharded_scenario
from repro.parallel import runner as parallel_runner
from repro.parallel.worker import run_shard_worker
from repro.traces.workload import ChurnConfig, OutageConfig

pytestmark = pytest.mark.parallel

BASE = ExperimentConfig(num_viewers=300, num_views=6, num_lscs=4).with_uncapped_cdn()

OUTAGE = dataclasses.replace(
    ExperimentConfig(num_viewers=400, num_views=8, num_lscs=4).with_uncapped_cdn(),
    outage=OutageConfig(time=5.0, lsc_index=1, viewer_fraction=0.4),
)

CHURN = dataclasses.replace(
    ExperimentConfig(num_viewers=300, num_views=6, num_lscs=4).with_uncapped_cdn(),
    churn=ChurnConfig(failure_rate_per_second=0.05, rejoin_probability=0.5),
)

#: The benchmark's world at test scale: five regions over four LSCs make
#: LSC-0 twice as heavy as the others, and LSC-1 fails over onto it, so
#: the weighted placement is {LSC-0} | {LSC-1, LSC-2, LSC-3} -- not
#: ``i % 2`` -- and the failover crosses workers.
SKEWED = dataclasses.replace(OUTAGE, latency_seed=8)

#: A failover inside one worker: LSC-1 fails over to LSC-2, and worker 0
#: hosts both plus LSC-0, while LSC-3 sits alone on worker 1.  Worker 0
#: replays LSC-1's events ahead of LSC-0's and LSC-2's.
SHARED_TARGET = dataclasses.replace(OUTAGE, latency_seed=1)


def _single_process_reference(config):
    """Digests + metric summary of the regular single-process run."""
    scenario = build_scenario(config)
    system = build_telecast_system(scenario)
    metrics = system.run_workload(
        scenario.viewers, scenario.events, scenario.views, snapshot_every=None
    )
    return per_lsc_placement_digests(system), metrics.summary(), system.snapshot()


@pytest.mark.parametrize("workers", [2, 3, 4])
def test_sharded_placement_parity(workers):
    digests, summary, snapshot = _single_process_reference(BASE)
    sharded = run_sharded_scenario(
        dataclasses.replace(BASE, shard_workers=workers), snapshot_every=None
    )
    assert sharded.num_workers == workers
    assert sharded.placement_digests == digests
    assert sharded.result.metrics.summary() == summary
    merged = sharded.result.final_snapshot
    assert merged.num_viewers == snapshot.num_viewers
    assert merged.num_requests == snapshot.num_requests
    assert merged.active_subscriptions == snapshot.active_subscriptions
    assert merged.cdn_subscriptions == snapshot.cdn_subscriptions
    assert merged.acceptance_ratio == snapshot.acceptance_ratio


@pytest.mark.parametrize("workers", [2, 3, 4])
def test_sharded_outage_parity(workers):
    """The lsc_fail barrier migrates exactly like the single-process path."""
    digests, summary, _snapshot = _single_process_reference(OUTAGE)
    assert summary["lsc_failovers"] == 1
    assert summary["failover_migrated_viewers"] > 0
    sharded = run_sharded_scenario(
        dataclasses.replace(OUTAGE, shard_workers=workers), snapshot_every=None
    )
    assert sharded.placement_digests == digests
    assert sharded.result.metrics.summary() == summary


@pytest.mark.parametrize("workers", [2, 3, 4])
def test_sharded_churn_parity(workers):
    """Poisson failures and rejoins replay identically inside shards."""
    digests, summary, _snapshot = _single_process_reference(CHURN)
    sharded = run_sharded_scenario(
        dataclasses.replace(CHURN, shard_workers=workers), snapshot_every=None
    )
    assert sharded.placement_digests == digests
    assert sharded.result.metrics.summary() == summary


@pytest.mark.parametrize("mp_start_method", [None, "spawn"], ids=["default", "spawn"])
def test_sharded_parity_on_a_skewed_world(mp_start_method):
    """Load-aware placement moves wall-clock only: digests and summary hold."""
    digests, summary, _snapshot = _single_process_reference(SKEWED)
    assert summary["lsc_failovers"] == 1
    assert summary["failover_migrated_viewers"] > 0
    sharded = run_sharded_scenario(
        SKEWED, num_workers=2, snapshot_every=None, mp_start_method=mp_start_method
    )
    # The weighted path, not its equal-weight fallback, is under test.
    assert sharded.placement == (0, 1, 1, 1)
    assert sharded.placement != tuple(i % 2 for i in range(SKEWED.num_lscs))
    # LSC-1 is gone: it failed over to LSC-0, hosted by the other worker.
    assert sorted(sharded.placement_digests) == ["LSC-0", "LSC-2", "LSC-3"]
    assert sharded.placement[1] != sharded.placement[0]
    assert sharded.placement_digests == digests
    assert sharded.result.metrics.summary() == summary


@pytest.mark.parametrize("mp_start_method", ["fork", "spawn"])
def test_failover_inside_one_worker_parity(mp_start_method):
    """The failed LSC replays first inside its worker: digests and summary hold."""
    import multiprocessing

    if mp_start_method not in multiprocessing.get_all_start_methods():
        pytest.skip(f"no {mp_start_method} start method on this platform")
    digests, summary, _snapshot = _single_process_reference(SHARED_TARGET)
    assert summary["lsc_failovers"] == 1
    assert summary["failover_migrated_viewers"] > 0
    sharded = run_sharded_scenario(
        SHARED_TARGET,
        num_workers=2,
        snapshot_every=None,
        mp_start_method=mp_start_method,
    )
    assert sharded.placement == (1, 0, 0, 1)
    assert sorted(sharded.placement_digests) == ["LSC-0", "LSC-2", "LSC-3"]
    assert sharded.placement_digests == digests
    assert sharded.result.metrics.summary() == summary
    # Worker 0 hosts the target; worker 1 never waits at the barrier.
    assert sharded.worker_stats[1]["barrier_wait_s"] == 0


def test_a_worker_ships_the_final_snapshot_finalize_appended(monkeypatch):
    # The payload reuses the snapshot finalize() appended; it must equal
    # a fresh one taken where the worker used to take it, field by field.
    from repro.parallel import worker

    fresh = []

    def digests_after_a_fresh_snapshot(system):
        fresh.append(system.snapshot())
        return per_lsc_placement_digests(system)

    monkeypatch.setattr(
        worker, "per_lsc_placement_digests", digests_after_a_fresh_snapshot
    )
    inbox, outbox = queue.Queue(), queue.Queue()
    run_shard_worker(0, 2, BASE, None, False, inbox, outbox)
    outbox.get_nowait()  # ShardReady
    shipped = pickle.loads(outbox.get_nowait().payload)
    assert shipped["final_snapshot"] is shipped["metrics"].snapshots[-1]
    assert dataclasses.asdict(shipped["final_snapshot"]) == dataclasses.asdict(fresh[0])


def test_worker_stats_cover_every_worker():
    sharded = run_sharded_scenario(SKEWED, num_workers=2, snapshot_every=None)
    assert sorted(sharded.worker_stats) == [0, 1]
    for stats in sharded.worker_stats.values():
        assert set(stats) == {
            "build_s", "busy_s", "barrier_wait_s", "finalize_s",
            "events", "viewers", "ru_maxrss",
        }
        assert stats["busy_s"] > 0
    # Only the failover target's worker (LSC-1 -> LSC-0) waits at the
    # barrier; the failed LSC's host ships its sessions and carries on.
    assert sharded.worker_stats[0]["barrier_wait_s"] > 0
    assert sharded.worker_stats[1]["barrier_wait_s"] == 0
    # Worker 0 builds LSC-0's regions plus the ones LSC-1 hands over.
    assert sharded.worker_stats[0]["viewers"] + sharded.worker_stats[1]["viewers"] > (
        SKEWED.num_viewers
    )
    events = sum(stats["events"] for stats in sharded.worker_stats.values())
    scenario = build_scenario(SKEWED)
    assert events == sum(1 for event in scenario.events if event.kind != "lsc_fail")
    assert 1.0 <= sharded.imbalance <= 2.0


def _worker_with_modulo_placement(worker_index, num_workers, config, *args, **kwargs):
    """Worker 1 disregards the coordinator's placement (fork-inherited patch)."""
    if worker_index == 1:
        kwargs["placement"] = tuple(i % num_workers for i in range(config.num_lscs))
    run_shard_worker(worker_index, num_workers, config, *args, **kwargs)


def test_coordinator_fails_the_run_on_a_divergent_worker_placement(monkeypatch):
    """A worker hosting LSCs the coordinator placed elsewhere must not merge."""
    import multiprocessing

    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("the doctored worker entry point is inherited by fork")
    monkeypatch.setattr(
        parallel_runner, "run_shard_worker", _worker_with_modulo_placement
    )
    with pytest.raises(RuntimeError, match="shard placement mismatch"):
        run_sharded_scenario(
            SKEWED, num_workers=2, snapshot_every=None, mp_start_method="fork"
        )
    assert not multiprocessing.active_children()


def test_killed_worker_fails_the_run_promptly():
    """A worker killed mid-run must surface within seconds, not after the
    600 s stall timeout, and name the dead worker."""
    import multiprocessing
    import threading
    import time as time_module

    config = dataclasses.replace(
        ExperimentConfig(num_viewers=20_000, num_views=1, num_lscs=4)
        .with_uncapped_cdn(),
        shard_workers=2,
    )
    failure: dict = {}

    def run():
        started = time_module.perf_counter()
        try:
            run_sharded_scenario(config, snapshot_every=None)
        except RuntimeError as error:
            failure["error"] = str(error)
        failure["elapsed"] = time_module.perf_counter() - started

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    victim = None
    deadline = time_module.perf_counter() + 30.0
    while victim is None and time_module.perf_counter() < deadline:
        for child in multiprocessing.active_children():
            if child.name == "repro-shard-0":
                victim = child
                break
        time_module.sleep(0.05)
    assert victim is not None, "worker process never appeared"
    victim.terminate()
    thread.join(timeout=60.0)
    assert not thread.is_alive(), "coordinator did not fail fast"
    assert "error" in failure, "sharded run swallowed the worker death"
    assert "repro-shard-0" in failure["error"]


def test_sharded_run_is_deterministic():
    """Two same-seed sharded runs are identical, digests and clocks."""
    config = dataclasses.replace(OUTAGE, shard_workers=2)
    first = run_sharded_scenario(config, snapshot_every=None)
    second = run_sharded_scenario(config, snapshot_every=None)
    assert first.placement_digests == second.placement_digests
    assert first.result.metrics.summary() == second.result.metrics.summary()
    assert first.shard_clocks == second.shard_clocks
    assert first.merged_clock == second.merged_clock


def test_run_telecast_scenario_delegates_to_sharded_engine():
    """shard_workers in the config routes the normal entry point."""
    reference = run_telecast_scenario(BASE, snapshot_every=None)
    delegated = run_telecast_scenario(
        dataclasses.replace(BASE, shard_workers=2), snapshot_every=None
    )
    assert delegated.metrics.summary() == reference.metrics.summary()
    assert delegated.placement_digests  # populated only by the engine
    assert delegated.viewers_per_lsc == reference.viewers_per_lsc


def test_saturated_cdn_warns_about_parity():
    """A config the shards over-admit against the global cap warns loudly."""
    capped = ExperimentConfig(
        num_viewers=300, num_views=6, num_lscs=4, cdn_capacity_mbps=100.0
    )
    with pytest.warns(UserWarning, match="over the global"):
        run_sharded_scenario(
            dataclasses.replace(capped, shard_workers=2), snapshot_every=None
        )


def test_unsaturated_cdn_does_not_warn(recwarn):
    run_sharded_scenario(
        dataclasses.replace(BASE, shard_workers=2), snapshot_every=None
    )
    assert not [w for w in recwarn if issubclass(w.category, UserWarning)]


def test_merged_clock_is_max_over_shards():
    config = dataclasses.replace(OUTAGE, shard_workers=2)
    sharded = run_sharded_scenario(config, snapshot_every=None)
    assert sharded.merged_clock == max(sharded.shard_clocks.values())
    # Every shard advanced at least to the outage barrier.
    assert all(clock >= OUTAGE.outage.time for clock in sharded.shard_clocks.values())
