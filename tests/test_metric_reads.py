"""Metric reads never copy the audience.

Two reads of a live world used to build something as large as it: the
placement digest (every subscription edge as a tuple list plus its JSON
text) and every ``snapshot_every`` cadence snapshot (two per-viewer
maps).  This module pins both to their pre-streaming oracles and
guards the memory they may take:

* the streamed digests equal :mod:`reference_placement`'s list-and-dump
  digests on small systems (any batch size) and on a 4 000-viewer world;
* the digest's ``tracemalloc`` peak does not grow with the audience;
* every cadence snapshot's counts equal :mod:`reference_snapshot`'s
  session recount, on the five presets under both control planes, in
  the shard workers of a k = 2 run and on Random, and every final
  snapshot equals the recount field for field;
* a cadence snapshot reads no ``ViewerSession`` property, and the memory
  20 of them retain does not grow with the audience.
"""

from __future__ import annotations

import dataclasses
import functools
import gc
import pickle
import queue
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference_placement
import reference_snapshot
from repro.baselines.random_routing import RandomDisseminationSystem
from repro.core.session import InstantDriver, _DriverBase
from repro.core.state import ViewerSession
from repro.experiments.config import PAPER_CONFIG, ExperimentConfig
from repro.experiments.runner import (
    run_random_scenario,
    run_telecast_scenario,
    shard_placement,
)
from repro.metrics import placement
from repro.parallel.worker import run_shard_worker
from repro.scenarios.presets import SCENARIOS
from repro.traces.workload import ChurnConfig


def _config(viewers: int, *, num_lscs: int = 3, num_views: int = 1, seed: int = 7):
    return PAPER_CONFIG.with_scaled_population(
        viewers, num_lscs=num_lscs, num_views=num_views
    ).with_seed(seed)


@functools.lru_cache(maxsize=None)
def _broadcast_system(viewers: int):
    """A finished one-view, three-LSC run (``broadcast_join``'s shape)."""
    return run_telecast_scenario(_config(viewers), snapshot_every=None).system


def _assert_digests_match_reference(system) -> None:
    assert placement.placement_digest(system) == reference_placement.placement_digest(
        system
    )
    per_lsc = placement.per_lsc_placement_digests(system)
    assert per_lsc == reference_placement.per_lsc_placement_digests(system)
    for lsc in system.gsc.lscs:
        assert per_lsc[lsc.lsc_id] == placement.lsc_placement_digest(lsc)
        assert per_lsc[lsc.lsc_id] == reference_placement.lsc_placement_digest(lsc)


# -- the streamed digest --------------------------------------------------------


class TestStreamedDigest:
    @settings(max_examples=40, deadline=None)
    @given(
        viewers=st.integers(1, 40),
        num_lscs=st.integers(1, 3),
        num_views=st.integers(1, 3),
        seed=st.integers(0, 10_000),
        uncapped=st.booleans(),
        empty_lsc=st.booleans(),
        batch_rows=st.one_of(st.none(), st.integers(1, 7)),
    )
    @example(
        viewers=40, num_lscs=3, num_views=2, seed=3,
        uncapped=False, empty_lsc=True, batch_rows=5,
    )
    def test_equals_the_list_and_dump_digest(
        self, viewers, num_lscs, num_views, seed, uncapped, empty_lsc, batch_rows
    ):
        config = _config(viewers, num_lscs=num_lscs, num_views=num_views, seed=seed)
        if uncapped:
            config = config.with_uncapped_cdn()
        system = run_telecast_scenario(config, snapshot_every=None).system
        if empty_lsc:
            system.gsc.add_lsc("LSC-1a")  # sorts between populated LSCs
        saved = placement._BATCH_ROWS
        if batch_rows is not None:
            placement._BATCH_ROWS = batch_rows
        try:
            _assert_digests_match_reference(system)
        finally:
            placement._BATCH_ROWS = saved

    def test_the_pinned_example_covers_every_edge_kind(self):
        # The @example above: several LSCs, CDN and viewer parents; the
        # property adds the LSC with no sessions itself.
        system = run_telecast_scenario(
            _config(40, num_views=2, seed=3), snapshot_every=None
        ).system
        subs = [
            sub
            for lsc in system.gsc.lscs
            for session in lsc.sessions.values()
            for sub in session.subscriptions.values()
        ]
        assert len(system.gsc.lscs) == 3
        assert any(sub.via_cdn for sub in subs)
        assert not all(sub.via_cdn for sub in subs)

    def test_equals_the_reference_across_full_batches(self):
        system = _broadcast_system(4000)
        rows = sum(
            len(session.subscriptions)
            for lsc in system.gsc.lscs
            for session in lsc.sessions.values()
        )
        assert rows > 10 * placement._BATCH_ROWS
        _assert_digests_match_reference(system)


def _digest_peak_bytes(system) -> int:
    gc.collect()
    tracemalloc.start()
    try:
        placement.placement_digest(system)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_digest_memory_does_not_grow_with_the_audience():
    """4x the audience, not 4x the digest's peak: rows stream in batches."""
    small = _digest_peak_bytes(_broadcast_system(1000))
    large = _digest_peak_bytes(_broadcast_system(4000))
    assert large <= 1.5 * small, (small, large)


# -- cadence snapshots ----------------------------------------------------------


class _CadenceOracle:
    """Checks every cadence snapshot a driver takes against the recount."""

    def __init__(self, monkeypatch) -> None:
        self.checked = 0
        self.mismatches = []
        self.systems = []
        original = _DriverBase._count_join
        oracle = self

        def count_join(driver):
            before = len(driver.system.metrics.snapshots)
            original(driver)
            snapshots = driver.system.metrics.snapshots
            if len(snapshots) == before:
                return
            if not oracle.systems or oracle.systems[-1] is not driver.system:
                oracle.systems.append(driver.system)
            oracle.compare(snapshots[-1], reference_snapshot.telecast_snapshot(driver.system))

        monkeypatch.setattr(_DriverBase, "_count_join", count_join)

    def compare(self, taken, recount) -> None:
        self.checked += 1
        got = reference_snapshot.counts(taken)
        expected = reference_snapshot.counts(recount)
        if got != expected:
            self.mismatches.append((expected, got))
        if taken.max_layers or taken.accepted_stream_counts:
            self.mismatches.append(("cadence snapshot carries maps", taken))


@pytest.mark.parametrize("control_plane", ["instant", "simulated"])
@pytest.mark.parametrize("preset", sorted(SCENARIOS))
def test_cadence_counts_equal_the_recount_on_every_preset(
    monkeypatch, preset, control_plane
):
    oracle = _CadenceOracle(monkeypatch)
    config = SCENARIOS[preset].config(smoke=True, seed=7).with_(
        control_plane=control_plane
    )
    result = run_telecast_scenario(config, snapshot_every=10)
    assert oracle.checked >= 5
    assert oracle.mismatches == []
    assert dataclasses.asdict(result.final_snapshot) == dataclasses.asdict(
        reference_snapshot.telecast_snapshot(result.system)
    )


def test_cadence_counts_equal_the_recount_in_shard_workers(monkeypatch):
    oracle = _CadenceOracle(monkeypatch)
    config = dataclasses.replace(
        ExperimentConfig(num_viewers=300, num_views=6, num_lscs=4).with_uncapped_cdn(),
        churn=ChurnConfig(failure_rate_per_second=0.05, rejoin_probability=0.5),
    )
    for worker in range(2):
        inbox, outbox = queue.Queue(), queue.Queue()
        run_shard_worker(
            worker, 2, config, 10, False, inbox, outbox,
            placement=shard_placement(config, 2),
        )
        outbox.get_nowait()  # ShardReady
        message = outbox.get_nowait()
        assert hasattr(message, "payload"), getattr(message, "error", message)
        shipped = pickle.loads(message.payload)
        assert dataclasses.asdict(shipped["final_snapshot"]) == dataclasses.asdict(
            reference_snapshot.telecast_snapshot(oracle.systems[-1])
        )
    assert len(oracle.systems) == 2
    assert oracle.checked >= 10
    assert oracle.mismatches == []


def test_random_cadence_counts_equal_the_recount(monkeypatch):
    checked = []
    systems = []
    original = RandomDisseminationSystem.count_snapshot

    def count_snapshot(system):
        taken = original(system)
        systems.append(system)
        checked.append(
            reference_snapshot.counts(taken)
            == reference_snapshot.counts(reference_snapshot.random_snapshot(system))
        )
        return taken

    monkeypatch.setattr(RandomDisseminationSystem, "count_snapshot", count_snapshot)
    result = run_random_scenario(_config(300, num_views=4), snapshot_every=10)
    cadence = result.metrics.snapshots[:-1]
    assert len(cadence) >= 20
    assert all(checked)
    assert not any(s.max_layers or s.accepted_stream_counts for s in cadence)
    assert dataclasses.asdict(result.final_snapshot) == dataclasses.asdict(
        reference_snapshot.random_snapshot(systems[-1])
    )


def test_a_cadence_snapshot_reads_no_session_property(monkeypatch):
    armed = []

    def tripwire(name, prop):
        def getter(session):
            if armed:
                raise AssertionError(f"cadence snapshot read ViewerSession.{name}")
            return prop.fget(session)

        return property(getter)

    for name, value in list(vars(ViewerSession).items()):
        if isinstance(value, property):
            monkeypatch.setattr(ViewerSession, name, tripwire(name, value))
    original = _DriverBase._count_join

    def count_join(driver):
        armed.append(True)
        try:
            original(driver)
        finally:
            armed.clear()

    monkeypatch.setattr(_DriverBase, "_count_join", count_join)
    result = run_telecast_scenario(
        SCENARIOS["outage"].config(smoke=True, seed=7), snapshot_every=1
    )
    assert len(result.metrics.snapshots) > 100


def _retained_by_cadence_snapshots(viewers: int, count: int = 20) -> int:
    system = _broadcast_system(viewers)
    driver = InstantDriver(system, [], [], snapshot_every=1)
    gc.collect()
    tracemalloc.start()
    try:
        driver._count_join()  # warm-up: first-call caches are not retained state
        before = tracemalloc.get_traced_memory()[0]
        for _ in range(count):
            driver._count_join()
        return tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()


def test_cadence_snapshot_memory_does_not_grow_with_the_audience():
    small = _retained_by_cadence_snapshots(500)
    large = _retained_by_cadence_snapshots(2000)
    assert large <= 1.2 * small, (small, large)
