"""Metric reads never copy the audience.

Two reads of a live world used to build something as large as it: the
placement digest (every subscription edge as a tuple list plus its JSON
text) and every snapshot (two per-viewer maps).  This module pins both
to their pre-streaming oracles and guards the memory they may take:

* the streamed digests equal :mod:`reference_placement`'s list-and-dump
  digests on small systems (any batch size) and on a 4 000-viewer world;
* the digest's ``tracemalloc`` peak does not grow with the audience;
* every snapshot, cadence and final, equals :mod:`reference_snapshot`'s
  session recount, on the five presets under both control planes, in
  the shard workers of a k = 2 run and on Random, and
  ``viewer_maps()`` equals the recount's maps, as do the Figure 14(a)/(b)
  samples;
* a cadence snapshot reads no ``ViewerSession`` property, the memory 20
  of them retain does not grow with the audience, and a run's final
  ``take_snapshot()`` allocates the same (< 1 KiB) at 2 000 and 4 000
  viewers;
* a shard worker ships counts, not per-viewer maps.
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
from repro.experiments.figures import (
    figure_14a_layer_distribution,
    figure_14b_accepted_streams,
)
from repro.experiments.runner import (
    run_random_scenario,
    run_telecast_scenario,
    shard_placement,
)
from repro.metrics import placement
from repro.parallel.worker import run_shard_worker
from repro.scenarios.presets import SCENARIOS
from repro.traces.workload import BandwidthDistribution, ChurnConfig


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


# -- snapshots -------------------------------------------------------------------


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
            oracle.checked += 1
            recount, _maps = reference_snapshot.telecast_snapshot(driver.system)
            if snapshots[-1] != recount:
                oracle.mismatches.append((recount, snapshots[-1]))

        monkeypatch.setattr(_DriverBase, "_count_join", count_join)


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
    recount, maps = reference_snapshot.telecast_snapshot(result.system)
    assert result.final_snapshot == recount
    assert result.system.viewer_maps() == maps


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
        recount, maps = reference_snapshot.telecast_snapshot(oracle.systems[-1])
        assert shipped["final_snapshot"] == recount
        assert oracle.systems[-1].viewer_maps() == maps
    assert len(oracle.systems) == 2
    assert oracle.checked >= 10
    assert oracle.mismatches == []


def test_random_snapshots_equal_the_recount(monkeypatch):
    checked = []
    original = RandomDisseminationSystem.snapshot

    def snapshot(system):
        taken = original(system)
        checked.append(taken == reference_snapshot.random_snapshot(system))
        return taken

    monkeypatch.setattr(RandomDisseminationSystem, "snapshot", snapshot)
    result = run_random_scenario(_config(300, num_views=4), snapshot_every=10)
    assert len(result.metrics.snapshots) >= 20
    assert len(checked) == len(result.metrics.snapshots)
    assert all(checked)


@pytest.mark.parametrize(
    "figure, index, label",
    [
        (figure_14a_layer_distribution, 0, "max_layer"),
        (figure_14b_accepted_streams, 1, "accepted_streams"),
    ],
)
def test_figure_14_samples_equal_the_recount(figure, index, label):
    config = _config(300, num_views=2)
    run = run_telecast_scenario(
        config.with_outbound(BandwidthDistribution.uniform(0.0, 12.0)),
        snapshot_every=None,
    )
    _counts, maps = reference_snapshot.telecast_snapshot(run.system)
    samples = figure(config).samples[label]
    assert samples == [float(value) for value in maps[index].values()]
    assert len(samples) > 100


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


def _final_snapshot_peak_bytes(viewers: int) -> int:
    """The ``tracemalloc`` peak of a finished run's final ``take_snapshot()``."""
    system = _broadcast_system(viewers)
    before = len(system.metrics.snapshots)
    # Warm-up: CPython sizes a class's instance dicts from the instances
    # made so far; the first ~20 snapshots each take 8 bytes less.
    for _ in range(32):
        system.take_snapshot()
    gc.collect()
    tracemalloc.start()
    try:
        system.take_snapshot()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        del system.metrics.snapshots[before:]


def test_the_final_snapshot_allocates_the_same_at_any_audience():
    """A snapshot is counts: 2x the audience, not one byte more."""
    small = _final_snapshot_peak_bytes(2000)
    large = _final_snapshot_peak_bytes(4000)
    assert large == small < 1024, (small, large)


def test_a_shard_worker_ships_no_per_viewer_map():
    config = ExperimentConfig(num_viewers=200, num_views=2, num_lscs=4).with_uncapped_cdn()
    inbox, outbox = queue.Queue(), queue.Queue()
    run_shard_worker(
        0, 2, config, None, False, inbox, outbox, placement=shard_placement(config, 2)
    )
    outbox.get_nowait()  # ShardReady
    message = outbox.get_nowait()
    shipped = pickle.loads(message.payload)["final_snapshot"]
    assert shipped.num_viewers > 50
    assert [field.type for field in dataclasses.fields(shipped)] == [
        "int", "int", "int", "int", "float", "float"
    ]
    assert not any(isinstance(value, dict) for value in vars(shipped).values())
