"""A shard's scenario build pays for the viewers it tracks, not the rest.

``build_scenario`` reads one ownership table off the region table and
hands its flags to the population walk: ``iter_viewers(owned=...)``
constructs only the owned viewers and skips the others' bandwidth draws
in bulk (``SeededRandom.skip``), and ``events(owned=...)`` constructs
only the tracked viewers' events while every viewer still draws its
arrival.  These tests hold both halves to the full walk, and the build
to a Python-call budget that does not grow with the untracked viewers.
"""

from __future__ import annotations

import math
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.experiments.runner as runner
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import ShardSelection, _region_names_for, build_scenario
from repro.model.viewer import VIEWER_ID, VIEWER_INDEX_AT
from repro.net.planetlab import _node_key, node_keys
from repro.net.regions import shard_regions
from repro.sim.rng import SeededRandom
from repro.traces.workload import (
    BandwidthDistribution,
    OutageConfig,
    ViewerWorkload,
    WorkloadConfig,
)

#: Worker 1 hosts LSC-1, the LSC the outage fails; the failover target is
#: on worker 0, so worker 1 tracks LSC-1's regions and nothing else.
BUDGET_CONFIG = ExperimentConfig(
    num_viewers=600,
    num_views=1,
    num_lscs=3,
    cdn_capacity_mbps=math.inf,
    arrival_rate_per_second=20.0,
    outage=OutageConfig(time=5.0, lsc_index=1, viewer_fraction=0.4),
)
BUDGET_SHARD = ShardSelection(num_workers=2, worker_index=1, placement=(0, 1, 0))


def _python_calls(build):
    """Python-level calls (frames entered or resumed) made by ``build()``."""
    calls = 0

    def count(_frame, event, _arg):
        nonlocal calls
        if event == "call":
            calls += 1

    sys.setprofile(count)
    try:
        result = build()
    finally:
        sys.setprofile(None)
    return calls, result


def test_slice_build_makes_no_python_call_per_untracked_viewer(monkeypatch):
    """600 more viewers, all in a region worker 1 never hosts, cost no call.

    The region table is pinned so the first 600 viewers keep their
    regions and every later one lands in LSC-0's first region (worker 0
    before and after the failover): worker 1's slice is then the same
    build plus 600 untracked viewers, which join after all of its own.
    The pinned table is derived before the count starts: every viewer
    pays for its region (one ``_mix64`` call), since ownership reads
    it; the walk, the ownership flags and the slice may not.
    """
    region_names = _region_names_for(BUDGET_CONFIG)
    untracked = region_names.index(shard_regions(region_names, 3)[0][0])
    keys = node_keys(BUDGET_CONFIG.latency_seed, VIEWER_ID, 600)
    first = runner.region_indices(keys, len(region_names))

    def pinned(keys, _num_regions):
        return first + [untracked] * (len(keys) - 600)

    monkeypatch.setattr(runner, "region_indices", pinned)
    calls, scenarios = {}, {}
    for num_viewers in (600, 1200):
        config = BUDGET_CONFIG.with_(num_viewers=num_viewers)
        calls[num_viewers], scenarios[num_viewers] = _python_calls(
            lambda: build_scenario(config, shard=BUDGET_SHARD)
        )
    assert scenarios[1200].events == scenarios[600].events
    assert [v.viewer_id for v in scenarios[1200].viewers] == [
        v.viewer_id for v in scenarios[600].viewers
    ]
    assert calls[1200] == calls[600]


def _mask(kind: str, size: int, seed: int):
    if kind == "all":
        return [True] * size
    if kind == "none":
        return [False] * size
    if kind == "alternating":
        return [index % 2 == 0 for index in range(size)]
    picker = random.Random(seed)
    return [picker.random() < 0.3 for _ in range(size)]


@settings(max_examples=80, deadline=None)
@given(
    num_viewers=st.integers(min_value=1, max_value=300),
    mask_kind=st.sampled_from(["all", "none", "alternating", "random"]),
    mask_seed=st.integers(min_value=0, max_value=2**31),
    fixed=st.booleans(),
    arrival_rate=st.sampled_from([None, 4.0]),
    change_probability=st.sampled_from([0.0, 0.4]),
    departure_probability=st.sampled_from([0.0, 0.3]),
    num_views=st.sampled_from([1, 3]),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_slice_walk_is_the_full_walk_filtered(
    num_viewers,
    mask_kind,
    mask_seed,
    fixed,
    arrival_rate,
    change_probability,
    departure_probability,
    num_views,
    seed,
):
    outbound = (
        BandwidthDistribution.fixed(4.0) if fixed else BandwidthDistribution.uniform(2.0, 10.0)
    )
    config = WorkloadConfig(
        num_viewers=num_viewers,
        outbound=outbound,
        num_views=num_views,
        arrival_rate_per_second=arrival_rate,
        view_change_probability=change_probability,
        departure_probability=departure_probability,
    )
    mask = _mask(mask_kind, num_viewers, mask_seed)
    workload = ViewerWorkload(config, rng=SeededRandom(seed))
    viewers = workload.viewers()
    events = workload.events()

    # The inline draw is Random.uniform, draw for draw.
    draws = SeededRandom(seed).fork(1)
    assert [viewer.outbound_capacity_mbps for viewer in viewers] == [
        4.0 if fixed else draws.uniform(2.0, 10.0) for _ in range(num_viewers)
    ]
    # The inline arrival is Random.expovariate, draw for draw.
    if arrival_rate and num_views == 1 and not (change_probability or departure_probability):
        arrivals, join_time, join_times = SeededRandom(seed).fork(2), 0.0, []
        for _ in range(num_viewers):
            join_time += arrivals.poisson_interarrival(arrival_rate)
            join_times.append(join_time)
        assert [event.time for event in events] == join_times
    # A population passed in is read for its ids alone.
    assert workload.events(viewers) == events

    assert list(workload.iter_viewers(owned=mask)) == [
        viewer for viewer, mine in zip(viewers, mask) if mine
    ]
    assert workload.events(owned=mask) == [
        event for event in events if mask[int(event.viewer_id[VIEWER_INDEX_AT:])]
    ]


@pytest.mark.parametrize("count", [0, 1, 2, 1023, 1024, 1025, 4099])
def test_getrandbits_of_64n_bits_advances_the_state_as_n_draws_do(count):
    """The premise of ``SeededRandom.skip``, checked on the running Python."""
    drawn, skipped = random.Random(11), random.Random(11)
    for _ in range(count):
        drawn.random()
    if count:
        skipped.getrandbits(64 * count)
    assert skipped.getstate() == drawn.getstate()
    via_skip = SeededRandom(11)
    via_skip.skip(count)
    assert via_skip.random() == drawn.random()


def test_node_keys_are_the_scalar_keys_of_the_viewer_ids():
    keys = node_keys(7, VIEWER_ID, 100_002)
    for index in (0, 1, 99_999, 100_000, 100_001):
        assert keys[index] == _node_key(7, f"viewer-{index:05d}")
    assert node_keys(-3, "n%d", 2) == [_node_key(-3, "n0"), _node_key(-3, "n1")]
