"""The one ``lsc_fail`` barrier of a sharded run, and its replay order.

A shard worker reads the failover off the build's ownership timeline,
which decides one outage, so a schedule may hold at most one barrier:
every build and every shard slice holds exactly the configured outage's,
and a worker refuses a second one loudly.

:func:`repro.parallel.worker.failover_replay_order` splits the events
before the barrier into the failed LSC's own and the rest; the host
replays the first part, evicts and acks, then replays the second.  The
properties below are what make that legal: nothing is lost or invented,
every LSC sees its own events in schedule order, and nothing of another
LSC runs before the eviction.
"""

from __future__ import annotations

import dataclasses
import math
import queue
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.experiments.runner as runner_module
from repro.core.session import event_sort_key
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import ShardSelection, build_scenario, shard_placement
from repro.parallel.runner import _coordinate
from repro.parallel.worker import failover_replay_order, run_shard_worker
from repro.traces.workload import (
    ChurnConfig,
    OscillationConfig,
    OutageConfig,
    ViewerEvent,
)


@settings(max_examples=80, deadline=None)
@given(
    outage=st.booleans(),
    churn=st.booleans(),
    oscillation=st.booleans(),
    num_lscs=st.integers(min_value=2, max_value=5),
    num_viewers=st.integers(min_value=10, max_value=50),
    lsc_index=st.integers(min_value=0, max_value=6),
    seed=st.integers(min_value=0, max_value=1000),
)
def test_every_build_and_slice_holds_only_the_outage_s_lsc_fail(
    outage, churn, oscillation, num_lscs, num_viewers, lsc_index, seed
):
    config = ExperimentConfig(
        num_viewers=num_viewers,
        num_views=2,
        num_lscs=num_lscs,
        cdn_capacity_mbps=math.inf,
        arrival_rate_per_second=10.0,
        seed=seed,
        outage=OutageConfig(time=2.0, lsc_index=lsc_index) if outage else None,
        churn=ChurnConfig(failure_rate_per_second=0.1, rejoin_probability=0.5)
        if churn
        else None,
        oscillation=OscillationConfig(start_time=1.0, cycles=3) if oscillation else None,
    )
    expected = [(2.0, f"LSC-{lsc_index % num_lscs}")] if outage else []
    builds = [build_scenario(config)] + [
        build_scenario(config, shard=ShardSelection(workers, index))
        for workers in range(1, num_lscs + 1)
        for index in range(workers)
    ]
    for scenario in builds:
        barriers = [event for event in scenario.events if event.kind == "lsc_fail"]
        assert [event_sort_key(event) for event in barriers] == expected


def test_a_second_lsc_fail_in_a_worker_s_slice_is_refused(monkeypatch):
    config = ExperimentConfig(
        num_viewers=40,
        num_views=2,
        num_lscs=2,
        cdn_capacity_mbps=math.inf,
        arrival_rate_per_second=10.0,
        outage=OutageConfig(time=2.0, lsc_index=1),
    )
    build = runner_module.build_scenario

    def build_with_a_second_barrier(config, shard=None):
        scenario = build(config, shard=shard)
        second = ViewerEvent(time=3.0, kind="lsc_fail", viewer_id="LSC-0")
        return dataclasses.replace(scenario, events=[*scenario.events, second])

    monkeypatch.setattr(runner_module, "build_scenario", build_with_a_second_barrier)
    placement = shard_placement(config, 2)
    outbox = queue.Queue()
    run_shard_worker(0, 2, config, None, False, queue.Queue(), outbox, placement=placement)
    alive = [
        SimpleNamespace(name=f"repro-shard-{index}", is_alive=lambda: True, exitcode=None)
        for index in range(2)
    ]
    with pytest.raises(
        RuntimeError,
        match=r"(?s)shard 0 failed:.*second lsc_fail barrier \(LSC-0 at t=3\)",
    ):
        _coordinate(2, outbox, [queue.Queue(), queue.Queue()], alive, 60.0, placement)

KINDS = ("join", "view_change", "depart", "fail")


@st.composite
def segments(draw):
    """A schedule segment in replay order, each viewer owned by one LSC."""
    num_lscs = draw(st.integers(min_value=1, max_value=5))
    num_viewers = draw(st.integers(min_value=1, max_value=12))
    owner = {
        f"viewer-{index:05d}": draw(st.integers(min_value=0, max_value=num_lscs - 1))
        for index in range(num_viewers)
    }
    events = draw(
        st.lists(
            st.builds(
                ViewerEvent,
                time=st.integers(min_value=0, max_value=20).map(float),
                kind=st.sampled_from(KINDS),
                viewer_id=st.sampled_from(sorted(owner)),
                view_index=st.integers(min_value=0, max_value=3),
            ),
            max_size=60,
        )
    )
    events.sort(key=event_sort_key)
    failed = draw(st.integers(min_value=0, max_value=num_lscs - 1))
    return events, owner, failed


@settings(max_examples=300, deadline=None)
@given(segments())
def test_the_failed_lsc_replays_first_and_every_lsc_keeps_its_order(case):
    events, owner, failed = case

    def lsc_of(event):
        return owner[event.viewer_id]

    barrier = ViewerEvent(time=20.0, kind="lsc_fail", viewer_id=f"LSC-{failed}")
    failed_first, others = failover_replay_order(events, failed, lsc_of)
    order = [*failed_first, barrier, *others]
    # A permutation of the input: the same event objects, each once.
    assert sorted(map(id, order)) == sorted(map(id, [*events, barrier]))
    # Every LSC's own subsequence is the schedule's.
    for lsc in sorted(set(owner.values())):
        assert [e for e in order if e is not barrier and lsc_of(e) == lsc] == [
            e for e in events if lsc_of(e) == lsc
        ]
    # The failed LSC's events, then its lsc_fail, then everyone else's.
    cut = order.index(barrier)
    assert all(lsc_of(e) == failed for e in order[:cut])
    assert all(lsc_of(e) != failed for e in order[cut + 1 :])


def test_a_worker_without_the_failed_lsc_keeps_the_segment_whole():
    events = [
        ViewerEvent(time=1.0, kind="join", viewer_id="viewer-00001"),
        ViewerEvent(time=2.0, kind="join", viewer_id="viewer-00000"),
    ]
    failed_first, others = failover_replay_order(events, 3, lambda event: 0)
    assert failed_first == []
    assert others == events
