"""Process-free unit coverage of the shard-parallel engine.

Everything here runs in a single process (no worker spawn), so it is not
``parallel``-marked: shard math, config validation, the degenerate
single-shard driver, the shard-projected scenario build, the
coordinator's dead-worker detection, and the streamed workload generator
the 100k sweep preset rides on.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import multiprocessing
import os
import queue
import subprocess
import sys
import tracemalloc
from collections import Counter

import pytest

import repro.experiments.runner as runner_module
import repro.parallel.worker as worker_module
from repro.core import recovery
from repro.core.controllers import control_node_ids, nearest_lsc
from repro.core.session import InstantDriver, event_sort_key
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import (
    ShardSelection,
    _OwnershipTimeline,
    _region_names_for,
    build_scenario,
    build_telecast_system,
    place_lscs,
    run_telecast_scenario,
    shard_placement,
)
from repro.metrics.placement import (
    lsc_placement_digest,
    per_lsc_placement_digests,
    placement_digest,
)
from repro.model.viewer import VIEWER_ID
from repro.net.planetlab import node_keys, region_indices
from repro.parallel.runner import _coordinate, resolve_worker_count, run_sharded_scenario
from repro.parallel.worker import run_shard_worker
from repro.sim.rng import SeededRandom
from repro.sim.transport import (
    ShardBarrierAck,
    ShardError,
    ShardReady,
    ShardResult,
    ShardResume,
)
from repro.traces.workload import (
    ChurnConfig,
    OutageConfig,
    ViewerEvent,
    ViewerWorkload,
    WorkloadConfig,
)


def shard_lsc_indices(num_lscs, num_workers, worker_index):
    """The LSC indices one worker hosts when every LSC weighs the same."""
    placement = place_lscs([1] * num_lscs, num_workers)
    return [i for i, worker in enumerate(placement) if worker == worker_index]


def test_shard_lsc_indices_partition_all_lscs():
    num_lscs, workers = 7, 3
    slices = [shard_lsc_indices(num_lscs, workers, w) for w in range(workers)]
    flat = sorted(index for piece in slices for index in piece)
    assert flat == list(range(num_lscs))
    assert shard_lsc_indices(7, 3, 0) == [0, 3, 6]


def _worker_loads(weights, placement, num_workers):
    loads = [0] * num_workers
    for weight, worker in zip(weights, placement):
        loads[worker] += weight
    return loads


def _brute_force_max_load(weights, num_workers):
    """Brute force over every assignment (k**n of them)."""
    return min(
        max(_worker_loads(weights, assignment, num_workers))
        for assignment in itertools.product(range(num_workers), repeat=len(weights))
    )


def _optimal_max_load(weights, num_workers):
    """The least heaviest-worker load, by a DP over LSC subsets.

    ``best[s]`` is the least max load the workers placed so far reach on
    the LSC subset ``s``; each further worker takes a sub-subset.  That
    is ``k * 3**n`` steps (15 309 at n = k = 7) where the brute force
    takes ``k**n`` (823 543).
    """
    subsets = 1 << len(weights)
    load = [0] * subsets
    for subset in range(1, subsets):
        lowest = subset & -subset
        load[subset] = load[subset ^ lowest] + weights[lowest.bit_length() - 1]
    best = load  # one worker holds the whole subset
    for _ in range(num_workers - 1):
        placed = best[:]
        for subset in range(subsets):
            part = subset
            while part:  # the next worker takes ``part``
                candidate = max(load[part], best[subset ^ part])
                if candidate < placed[subset]:
                    placed[subset] = candidate
                part = (part - 1) & subset
        best = placed
    return best[subsets - 1]


def test_place_lscs_partitions_and_leaves_no_worker_empty():
    """Every LSC lands on exactly one worker, every worker hosts >= 1 LSC."""
    rng = SeededRandom(5)
    for num_lscs in range(1, 9):
        for num_workers in range(1, num_lscs + 1):
            for weights in (
                [1] * num_lscs,
                [0] * num_lscs,
                list(range(num_lscs)),
                [rng.randint(0, 50) for _ in range(num_lscs)],
                [1000] + [0] * (num_lscs - 1),
            ):
                placement = place_lscs(weights, num_workers)
                assert len(placement) == num_lscs
                assert set(placement) == set(range(num_workers)), (weights, placement)
                assert all(0 <= worker < num_workers for worker in placement)


def test_place_lscs_equal_weights_is_round_robin():
    for num_lscs in range(1, 9):
        for num_workers in range(1, num_lscs + 1):
            for weight in (0, 1, 17):
                assert place_lscs([weight] * num_lscs, num_workers) == tuple(
                    i % num_workers for i in range(num_lscs)
                )


def test_place_lscs_ties_go_to_the_lowest_index():
    # Heaviest first; equal weights in LSC-index order; an equally loaded
    # pair of workers resolves to the lower worker index.
    assert place_lscs([5, 9, 5], 2) == (1, 0, 1)
    assert place_lscs([4, 4, 8, 8], 2) == (0, 1, 0, 1)
    assert place_lscs([3, 3, 3, 9], 2) == (1, 1, 1, 0)
    with pytest.raises(ValueError):
        place_lscs([1, 2], 0)


def test_place_lscs_more_workers_than_lscs_leaves_the_tail_empty():
    # resolve_worker_count never asks for this; a worker that is handed
    # such an index fails loudly (see the empty-shard test below).
    assert place_lscs([7, 7], 3) == (0, 1)


def test_place_lscs_zero_weight_lscs_still_partition():
    """More LSCs than populated regions: the empty ones seed the spare workers."""
    assert place_lscs([40, 0, 0, 0], 3) == (0, 1, 2, 1)
    assert place_lscs([0, 0, 40, 0], 4) == (1, 2, 0, 3)
    config = ExperimentConfig(num_viewers=3, num_lscs=8, cdn_capacity_mbps=math.inf)
    placement = shard_placement(config, 8)
    assert sorted(placement) == list(range(8))


def test_place_lscs_max_load_within_the_lpt_bound_of_optimal():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hypothesis.settings(max_examples=150, deadline=None)
    @hypothesis.given(
        weights=st.lists(st.integers(min_value=0, max_value=10_000), min_size=1, max_size=7),
        data=st.data(),
    )
    def check(weights, data):
        num_workers = data.draw(st.integers(min_value=1, max_value=len(weights)))
        placement = place_lscs(weights, num_workers)
        assert set(placement) == set(range(num_workers))
        worst = max(_worker_loads(weights, placement, num_workers))
        optimum = _optimal_max_load(weights, num_workers)
        if len(weights) <= 5:
            assert optimum == _brute_force_max_load(weights, num_workers)
        # Graham's bound, cross-multiplied to stay in integers:
        # worst <= (4/3 - 1/(3k)) * optimum.
        assert 3 * num_workers * worst <= (4 * num_workers - 1) * optimum

    check()


SKEWED = ExperimentConfig(
    num_viewers=400, num_views=8, num_lscs=4, cdn_capacity_mbps=math.inf, latency_seed=8
)
SKEWED_OUTAGE = SKEWED.with_(
    outage=OutageConfig(time=5.0, lsc_index=1, viewer_fraction=0.4)
)


def _lsc_weights(config):
    region_names = _region_names_for(config)
    timeline = _OwnershipTimeline(config, region_names)
    keys = node_keys(config.latency_seed, VIEWER_ID, config.num_viewers)
    return timeline, timeline.lsc_weights(region_indices(keys, len(region_names)))


def test_lsc_weights_are_region_populations():
    timeline, weights = _lsc_weights(SKEWED)
    by_region = Counter(v.region_name for v in build_scenario(SKEWED).viewers)
    assert weights == [
        sum(by_region[region] for region in group) for group in timeline.lsc_regions
    ]
    assert sum(weights) == SKEWED.num_viewers
    # Five regions dealt over four LSCs: LSC-0 serves two of them.
    assert weights[0] == max(weights)


def test_lsc_weights_count_the_failed_population_at_the_failover_target():
    _, base = _lsc_weights(SKEWED)
    timeline, weights = _lsc_weights(SKEWED_OUTAGE)
    assert timeline.failed_index == 1 and timeline.target_index == 0
    expected = list(base)
    expected[0] += base[1]
    assert weights == expected
    assert shard_placement(SKEWED, 2) == (0, 1, 1, 0)
    assert shard_placement(SKEWED_OUTAGE, 2) == (0, 1, 1, 1)


def test_weighted_placement_never_loads_a_worker_more_than_modulo():
    strictly_lower = 0
    for latency_seed in range(1, 9):
        for config in (
            SKEWED.with_(latency_seed=latency_seed),
            SKEWED_OUTAGE.with_(latency_seed=latency_seed),
        ):
            _, weights = _lsc_weights(config)
            weighted = max(_worker_loads(weights, shard_placement(config, 2), 2))
            modulo = max(_worker_loads(weights, [i % 2 for i in range(4)], 2))
            assert weighted <= modulo, (latency_seed, weights)
            strictly_lower += weighted < modulo
    assert strictly_lower >= 1


def test_bare_shard_selection_derives_the_coordinators_placement():
    """``ShardSelection(k, i)`` means worker i of ``shard_placement(config, k)``."""
    placement = shard_placement(SKEWED_OUTAGE, 2)
    assert placement != tuple(i % 2 for i in range(4))
    for worker in range(2):
        bare = build_scenario(SKEWED_OUTAGE, shard=ShardSelection(2, worker))
        handed = build_scenario(
            SKEWED_OUTAGE, shard=ShardSelection(2, worker, placement=placement)
        )
        assert [v.viewer_id for v in bare.viewers] == [v.viewer_id for v in handed.viewers]
        assert bare.events == handed.events
    # Worker 0 hosts LSC-0 alone, and LSC-1's regions once they fail over to it.
    regions = {v.region_name for v in build_scenario(SKEWED_OUTAGE, shard=ShardSelection(2, 0)).viewers}
    timeline, _ = _lsc_weights(SKEWED_OUTAGE)
    assert regions == set(timeline.lsc_regions[0]) | set(timeline.lsc_regions[1])


@pytest.mark.parametrize("method", ["fork", "spawn"])
def test_shard_placement_is_identical_in_a_child_process(method):
    if method not in multiprocessing.get_all_start_methods():
        pytest.skip(f"no {method!r} start method on this platform")
    with multiprocessing.get_context(method).Pool(1) as pool:
        in_child = pool.apply(shard_placement, (SKEWED_OUTAGE, 2))
    assert in_child == shard_placement(SKEWED_OUTAGE, 2)


def test_shard_placement_is_independent_of_the_hash_seed():
    code = (
        "import math\n"
        "from repro.experiments.config import ExperimentConfig\n"
        "from repro.experiments.runner import shard_placement\n"
        "from repro.traces.workload import OutageConfig\n"
        "config = ExperimentConfig(num_viewers=400, num_views=8, num_lscs=4,\n"
        "    cdn_capacity_mbps=math.inf, latency_seed=8,\n"
        "    outage=OutageConfig(time=5.0, lsc_index=1, viewer_fraction=0.4))\n"
        "print([shard_placement(config, k) for k in (2, 3, 4)])\n"
    )
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    outputs = []
    for hash_seed in ("1", "2"):
        done = subprocess.run(
            [sys.executable, "-c", code],
            env=dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src),
            capture_output=True,
            timeout=60,
            check=False,
        )
        assert done.returncode == 0, done.stderr.decode()
        outputs.append(done.stdout.decode())
    assert outputs[0] == outputs[1]
    assert outputs[0].strip() == str(
        [shard_placement(SKEWED_OUTAGE, k) for k in (2, 3, 4)]
    )


def test_resolve_worker_count_clamps_to_lscs():
    config = ExperimentConfig(num_viewers=10, num_lscs=3)
    with pytest.warns(UserWarning, match="clamping to 3"):
        assert resolve_worker_count(config, 8) == 3
    assert resolve_worker_count(config, None) == 1
    assert resolve_worker_count(dataclasses.replace(config, shard_workers=2), None) == 2
    with pytest.raises(ValueError):
        resolve_worker_count(config, 0)


def test_nearest_lsc_is_the_one_rule_of_gsc_and_timeline():
    class Delays:
        def __init__(self, **pairs):
            self.pairs = pairs

        def propagation(self, a, b):
            return self.pairs.get(f"{a}_{b}".replace("-", ""), 1.0)

    # All equal: the id tie-break decides, whatever order the ids come in.
    assert nearest_lsc(Delays(), "LSC-1", ["LSC-2", "LSC-0"]) == "LSC-0"
    # A smaller delay beats a smaller id.
    assert nearest_lsc(Delays(LSC1_LSC2=0.5), "LSC-1", ["LSC-0", "LSC-2"]) == "LSC-2"
    assert nearest_lsc(Delays(), "LSC-0", []) is None
    # The GSC's failover and the build's ownership timeline call this
    # function; none keeps a transcription.  A shard worker reads the
    # timeline's decision and holds no rule of its own.
    for module in (recovery, runner_module):
        assert module.nearest_lsc is nearest_lsc
    assert not hasattr(worker_module, "nearest_lsc")


def test_config_rejects_sharding_simulated_planes():
    with pytest.raises(ValueError, match="shard_workers"):
        ExperimentConfig(num_viewers=10, shard_workers=2, control_plane="simulated")
    with pytest.raises(ValueError, match="shard_workers"):
        ExperimentConfig(num_viewers=10, shard_workers=2, data_plane="simulated")
    # One worker is the regular path and composes with any plane.
    ExperimentConfig(num_viewers=10, shard_workers=1, control_plane="simulated")


def test_runner_rejects_simulated_planes():
    config = ExperimentConfig(num_viewers=10, num_lscs=2, control_plane="simulated")
    with pytest.raises(ValueError, match="instant"):
        run_sharded_scenario(config, num_workers=2)


def test_runner_rejects_prebuilt_scenario():
    config = dataclasses.replace(
        ExperimentConfig(num_viewers=10, num_lscs=2), shard_workers=2
    )
    scenario = build_scenario(config)
    with pytest.raises(ValueError, match="prebuilt"):
        run_telecast_scenario(config, scenario=scenario)


def test_sharded_driver_degenerate_case_matches_instant_driver():
    """``run(events)`` equals the segmented replay a shard worker performs.

    The same schedule through ``apply`` (two segments) + ``advance`` +
    ``finalize`` -- the pieces :mod:`repro.parallel.worker` drives -- must
    leave the overlay and metrics ``InstantDriver.run`` leaves.
    """
    config = ExperimentConfig(num_viewers=120, num_views=4, num_lscs=3)
    results = []
    for segmented in (False, True):
        scenario = build_scenario(config)
        system = build_telecast_system(scenario)
        driver = InstantDriver(
            system, scenario.viewers, scenario.views, snapshot_every=None
        )
        if segmented:
            ordered = sorted(scenario.events, key=event_sort_key)
            cut = len(ordered) // 2
            driver.apply(ordered[:cut])
            driver.advance(ordered[cut].time)
            driver.apply(ordered[cut:])
            driver.finalize()
        else:
            driver.run(scenario.events)
        results.append(
            (per_lsc_placement_digests(system), system.metrics.summary())
        )
    assert results[0] == results[1]


def test_placement_digest_helpers_are_consistent():
    config = ExperimentConfig(num_viewers=60, num_views=4, num_lscs=2)
    scenario = build_scenario(config)
    system = build_telecast_system(scenario)
    system.run_workload(
        scenario.viewers, scenario.events, scenario.views, snapshot_every=None
    )
    per_lsc = per_lsc_placement_digests(system)
    assert set(per_lsc) == {"LSC-0", "LSC-1"}
    for lsc in system.gsc.lscs:
        assert per_lsc[lsc.lsc_id] == lsc_placement_digest(lsc)
    assert placement_digest(system)  # whole-system digest stays available


def test_iter_events_streams_the_exact_event_sequence():
    config = WorkloadConfig(
        num_viewers=250,
        num_views=5,
        arrival_rate_per_second=10.0,
        view_change_probability=0.4,
        departure_probability=0.3,
    )
    eager = ViewerWorkload(config, rng=SeededRandom(7))
    lazy = ViewerWorkload(config, rng=SeededRandom(7))
    eager.viewers()  # the population's draws leave the schedule's alone
    assert eager.events() == list(lazy.iter_events())


def test_iter_events_flash_crowd_buffers_one_join_at_a_time():
    config = WorkloadConfig(num_viewers=50)
    workload = ViewerWorkload(config, rng=SeededRandom(3))
    stream = workload.iter_events()
    first = next(stream)
    assert first.kind == "join"
    assert first.viewer_id == "viewer-00000"
    rest = list(stream)
    assert len(rest) == 49


def test_shard_selection_validates_bounds():
    with pytest.raises(ValueError):
        ShardSelection(num_workers=0, worker_index=0)
    with pytest.raises(ValueError):
        ShardSelection(num_workers=2, worker_index=2)
    ShardSelection(num_workers=2, worker_index=1)


def test_shard_selection_rejects_a_placement_naming_a_missing_worker():
    """An entry >= num_workers would silently drop that LSC from every shard."""
    with pytest.raises(ValueError, match="placement"):
        ShardSelection(num_workers=2, worker_index=0, placement=(0, 2, 1))
    with pytest.raises(ValueError, match="placement"):
        ShardSelection(num_workers=2, worker_index=0, placement=(0, -1, 1))
    ShardSelection(num_workers=2, worker_index=0, placement=(0, 1, 1))


@pytest.mark.parametrize("placement", [(0, 1), (0, 1, 1, 0)])
def test_build_rejects_a_placement_of_the_wrong_length(placement):
    """One entry per LSC: a short map used to raise IndexError mid-generator."""
    config = ExperimentConfig(num_viewers=60, num_views=2, num_lscs=3)
    shard = ShardSelection(num_workers=2, worker_index=0, placement=placement)
    with pytest.raises(ValueError, match="placement"):
        build_scenario(config, shard=shard)


def _event_key(event: ViewerEvent):
    return (event.time, event.viewer_id, event.kind, event.view_index)


@pytest.mark.parametrize(
    "overlay",
    ["plain", "churn", "outage", "churn+outage"],
)
@pytest.mark.parametrize("workers", [2, 3])
def test_shard_projection_partitions_the_full_build(overlay, workers):
    """The projected builds are slices of the full build, jointly exhaustive.

    Non-barrier events partition exactly across the shards (each exactly
    once, in the full schedule's order), every ``lsc_fail`` barrier
    reaches every shard, owned viewers carry identical attributes, and
    the projected latency world returns the full world's delays.
    """
    config = ExperimentConfig(
        num_viewers=180,
        num_views=4,
        num_lscs=4,
        cdn_capacity_mbps=math.inf,
    )
    if "churn" in overlay:
        config = config.with_(
            churn=ChurnConfig(failure_rate_per_second=0.05, rejoin_probability=0.5)
        )
    if "outage" in overlay:
        config = config.with_(
            outage=OutageConfig(time=5.0, lsc_index=1, viewer_fraction=0.4)
        )
    full = build_scenario(config)
    shards = [
        build_scenario(config, shard=ShardSelection(num_workers=workers, worker_index=i))
        for i in range(workers)
    ]

    full_events = Counter(
        _event_key(e) for e in full.events if e.kind != "lsc_fail"
    )
    shard_events = Counter(
        _event_key(e) for s in shards for e in s.events if e.kind != "lsc_fail"
    )
    assert shard_events == full_events

    barrier_count = sum(1 for e in full.events if e.kind == "lsc_fail")
    for s in shards:
        assert sum(1 for e in s.events if e.kind == "lsc_fail") == barrier_count
        # Order: each shard's schedule is a subsequence of the full one.
        own = [_event_key(e) for e in s.events]
        own_set = set(own)
        assert own == [_event_key(e) for e in full.events if _event_key(e) in own_set]
        assert s.lsc_regions == full.lsc_regions
        assert s.control_node_ids == full.control_node_ids

    full_viewers = {v.viewer_id: v for v in full.viewers}
    for s in shards:
        for viewer in s.viewers:
            reference = full_viewers[viewer.viewer_id]
            assert viewer.outbound_capacity_mbps == reference.outbound_capacity_mbps
            assert viewer.region_name == reference.region_name
        sample = [v.viewer_id for v in s.viewers[:8]]
        for a in sample:
            for b in ("GSC", "CDN", "LSC-0", sample[-1]):
                assert s.delay_model.propagation(a, b) == full.delay_model.propagation(a, b)


def test_shard_projection_build_peak_memory_tracks_shard_not_population():
    """The filtered build's working set scales with the shard, not with n."""
    config = ExperimentConfig(
        num_viewers=6000,
        num_views=2,
        num_lscs=8,
        cdn_capacity_mbps=math.inf,
    )
    tracemalloc.start()
    build_scenario(config)
    _, full_peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()

    tracemalloc.start()
    shard = build_scenario(config, shard=ShardSelection(num_workers=4, worker_index=0))
    _, shard_peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()

    # A 4-way shard holds ~1/4 of the viewers/events/matrix nodes; allow
    # generous slack for the constant-size substrate (producers, views).
    assert len(shard.viewers) < config.num_viewers / 2
    assert shard_peak < full_peak * 0.6, (shard_peak, full_peak)


def test_config_clamps_shard_workers_to_lsc_count_with_warning():
    with pytest.warns(UserWarning, match="clamping"):
        config = ExperimentConfig(num_viewers=10, num_lscs=2, shard_workers=5)
    assert config.shard_workers == 2
    # At or below the LSC count nothing warns and nothing moves.
    import warnings as warnings_module

    with warnings_module.catch_warnings():
        warnings_module.simplefilter("error")
        config = ExperimentConfig(num_viewers=10, num_lscs=4, shard_workers=4)
    assert config.shard_workers == 4


def test_run_sharded_scenario_warns_like_the_config_when_it_clamps():
    """Both ways of asking for too many workers emit the same warning."""
    with pytest.warns(UserWarning) as from_config:
        ExperimentConfig(num_viewers=10, num_lscs=4, shard_workers=9)
    config = ExperimentConfig(num_viewers=10, num_lscs=4)
    with pytest.warns(UserWarning) as from_runner:
        assert resolve_worker_count(config, 9) == 4
    assert [str(w.message) for w in from_config] == [str(w.message) for w in from_runner]
    assert "shard_workers=9 exceeds num_lscs=4; clamping to 4" in str(from_runner[0].message)


def test_worker_with_empty_shard_reports_a_shard_error():
    """A worker index beyond the LSC count must fail loudly, not idle."""
    config = ExperimentConfig(num_viewers=10, num_lscs=2)
    inbox, outbox = queue.Queue(), queue.Queue()
    run_shard_worker(
        2, 3, config, None, False, inbox, outbox, placement=shard_placement(config, 3)
    )
    message = outbox.get_nowait()
    assert isinstance(message, ShardError)
    assert "owns no LSCs" in message.error


@pytest.mark.parametrize("num_lscs", [2, 3, 4, 5])
def test_a_slice_s_system_registers_exactly_the_lscs_its_worker_hosts(num_lscs):
    """The build names a worker's LSCs; ``build_telecast_system`` builds those alone."""
    config = ExperimentConfig(
        num_viewers=40,
        num_views=2,
        num_lscs=num_lscs,
        cdn_capacity_mbps=math.inf,
        outage=OutageConfig(time=2.0, lsc_index=1),
    )
    for workers in range(1, num_lscs + 1):
        placement = shard_placement(config, workers)
        for index in range(workers):
            scenario = build_scenario(config, shard=ShardSelection(workers, index))
            system = build_telecast_system(scenario)
            assert [lsc.lsc_id for lsc in system.gsc.lscs] == [
                f"LSC-{lsc}" for lsc, worker in enumerate(placement) if worker == index
            ], (workers, index, placement)
    # A slice that hosts nothing is refused by the build itself.
    with pytest.raises(ValueError, match="shard worker 2 of 3 owns no LSCs"):
        build_scenario(config, shard=ShardSelection(3, 2, placement=(0,) * num_lscs))


def test_a_scenario_s_regions_and_control_nodes_are_views_of_its_timeline():
    scenario = build_scenario(SKEWED_OUTAGE, shard=ShardSelection(2, 1))
    assert scenario.lsc_regions is scenario.timeline.lsc_regions
    assert scenario.control_node_ids == control_node_ids(SKEWED_OUTAGE.num_lscs)
    for name in ("lsc_regions", "control_node_ids"):
        with pytest.raises(AttributeError):
            setattr(scenario, name, ())


def test_a_shard_worker_constructs_the_ownership_timeline_once(monkeypatch):
    """The worker reads the failover off its build's timeline; it makes no second one."""
    config = ExperimentConfig(
        num_viewers=40,
        num_views=2,
        num_lscs=2,
        cdn_capacity_mbps=math.inf,
        arrival_rate_per_second=10.0,
        outage=OutageConfig(time=2.0, lsc_index=1),
    )
    # LSC-1 fails over to LSC-0, which carries both populations and so
    # sits on the other worker: worker 1 evicts and acks without waiting.
    placement = shard_placement(config, 2)
    assert placement == (0, 1)
    constructed = []
    init = runner_module._OwnershipTimeline.__init__

    def counting(self, *args, **kwargs):
        constructed.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(runner_module._OwnershipTimeline, "__init__", counting)
    outbox = queue.Queue()
    run_shard_worker(1, 2, config, None, False, queue.Queue(), outbox, placement=placement)
    sent = [outbox.get_nowait() for _ in range(outbox.qsize())]
    assert [type(message) for message in sent] == [ShardReady, ShardBarrierAck, ShardResult]
    assert (sent[1].failed_lsc_id, sent[1].target_lsc_id) == ("LSC-1", "LSC-0")
    assert len(constructed) == 1


class _FakeProcess:
    def __init__(self, name: str, alive: bool, exitcode):
        self.name = name
        self._alive = alive
        self.exitcode = exitcode

    def is_alive(self) -> bool:
        return self._alive


def test_coordinator_fails_fast_on_crashed_worker():
    processes = [
        _FakeProcess("repro-shard-0", alive=False, exitcode=-9),
        _FakeProcess("repro-shard-1", alive=True, exitcode=None),
    ]
    with pytest.raises(RuntimeError, match=r"repro-shard-0 \(exit code -9\)"):
        _coordinate(2, queue.Queue(), [queue.Queue(), queue.Queue()], processes, 60.0, (0, 1))


def test_coordinator_fails_fast_on_silent_clean_exit():
    # Exit code 0 without a ShardResult gets one poll of grace (a result
    # could still be draining through the queue feeder), then fails.
    processes = [
        _FakeProcess("repro-shard-0", alive=False, exitcode=0),
        _FakeProcess("repro-shard-1", alive=True, exitcode=None),
    ]
    with pytest.raises(RuntimeError, match="without reporting a result"):
        _coordinate(2, queue.Queue(), [queue.Queue(), queue.Queue()], processes, 60.0, (0, 1))


def _ready(shard_index: int, *lsc_ids: str) -> ShardReady:
    return ShardReady(
        src=f"shard-{shard_index}",
        dst="coordinator",
        sent_at=0.0,
        shard_index=shard_index,
        lsc_ids=lsc_ids,
    )


@pytest.mark.parametrize(
    "second",
    [("LSC-1", "LSC-2"), ("LSC-3",), ("LSC-1", "LSC-3", "LSC-4"), ("LSC-3", "LSC-1")],
    ids=["double-hosted", "dropped", "unknown", "reordered"],
)
def test_coordinator_rejects_a_worker_hosting_other_than_its_placement(second):
    """A worker must report exactly the LSCs the placement gives it."""
    processes = [
        _FakeProcess("repro-shard-0", alive=True, exitcode=None),
        _FakeProcess("repro-shard-1", alive=True, exitcode=None),
    ]
    coord_queue = queue.Queue()
    coord_queue.put(_ready(0, "LSC-0", "LSC-2"))
    coord_queue.put(_ready(1, *second))
    with pytest.raises(RuntimeError, match="shard placement mismatch: shard-1"):
        _coordinate(
            2, coord_queue, [queue.Queue(), queue.Queue()], processes, 60.0, (0, 1, 0, 1)
        )


def _ack(shard_index: int, failed: str, target: str, sessions=()) -> ShardBarrierAck:
    return ShardBarrierAck(
        src=f"shard-{shard_index}",
        dst="coordinator",
        sent_at=5.0,
        shard_index=shard_index,
        failed_lsc_id=failed,
        target_lsc_id=target,
        sessions=sessions,
    )


def _result(shard_index: int) -> ShardResult:
    return ShardResult(
        src=f"shard-{shard_index}",
        dst="coordinator",
        sent_at=9.0,
        shard_index=shard_index,
        final_clock=9.0,
        payload=b"",
    )


class _ScriptedQueue:
    """A coordinator queue that runs ``before(message)`` as it hands each out."""

    def __init__(self, messages, before=lambda message: None):
        self._messages = list(messages)
        self._before = before

    def get(self, timeout=None):
        if not self._messages:
            raise queue.Empty
        message = self._messages.pop(0)
        self._before(message)
        return message


def _alive(workers):
    return [
        _FakeProcess(f"repro-shard-{index}", alive=True, exitcode=None)
        for index in range(workers)
    ]


def test_coordinator_names_the_two_failover_decisions_acks_disagree_on():
    coord_queue = _ScriptedQueue(
        [
            _ready(0, "LSC-0"),
            _ready(1, "LSC-1"),
            _ack(0, "LSC-1", "LSC-0"),
            _ack(1, "LSC-1", ""),
        ]
    )
    inboxes = [queue.Queue(), queue.Queue()]
    with pytest.raises(
        RuntimeError,
        match=r"disagree on the failover decision: \[\('LSC-1', ''\), \('LSC-1', 'LSC-0'\)\]",
    ):
        _coordinate(2, coord_queue, inboxes, _alive(2), 60.0, (0, 1))


#: LSC-1 (worker 1) fails over to LSC-0 (worker 0); worker 2 hosts LSC-2.
_SESSIONS = (("viewer-00003", "view-0", 1.5), ("viewer-00001", "view-1", 2.0))
_READY = [_ready(0, "LSC-0"), _ready(1, "LSC-1"), _ready(2, "LSC-2")]
_FAILED_HOST_ACK = _ack(1, "LSC-1", "LSC-0", _SESSIONS)


def test_the_resume_lands_only_in_the_target_s_inbox():
    coord_queue = _ScriptedQueue(
        _READY
        + [_ack(0, "LSC-1", "LSC-0"), _FAILED_HOST_ACK, _ack(2, "LSC-1", "LSC-0")]
        + [_result(index) for index in range(3)]
    )
    inboxes = [queue.Queue() for _ in range(3)]
    _coordinate(3, coord_queue, inboxes, _alive(3), 60.0, (0, 1, 2))
    resume = inboxes[0].get_nowait()
    assert isinstance(resume, ShardResume)
    assert (resume.dst, resume.sent_at) == ("shard-0", 5.0)
    assert resume.sessions == _SESSIONS
    assert all(inbox.empty() for inbox in inboxes)


def test_the_resume_goes_out_before_a_bystander_acks():
    inboxes = [queue.Queue() for _ in range(3)]
    seen = {}

    def before(message):
        if isinstance(message, ShardBarrierAck) and message.shard_index != 1:
            seen[message.shard_index] = inboxes[0].qsize()

    coord_queue = _ScriptedQueue(
        _READY
        + [_FAILED_HOST_ACK, _ack(2, "LSC-1", "LSC-0"), _ack(0, "LSC-1", "LSC-0")]
        + [_result(index) for index in range(3)],
        before,
    )
    _coordinate(3, coord_queue, inboxes, _alive(3), 60.0, (0, 1, 2))
    # Both the bystander's and the target's own ack arrive after the resume.
    assert seen == {2: 1, 0: 1}
    assert inboxes[0].qsize() == 1


def test_the_resume_goes_to_the_placement_s_host_before_that_host_s_ready():
    # The target's worker has not sent its ShardReady yet: the placement
    # alone routes the resume, at once.
    inboxes = [queue.Queue() for _ in range(3)]
    seen = []

    def before(message):
        seen.append(inboxes[0].qsize())

    coord_queue = _ScriptedQueue(
        [_ready(1, "LSC-1"), _FAILED_HOST_ACK, _ready(2, "LSC-2"), _ready(0, "LSC-0")]
        + [_result(index) for index in range(3)],
        before,
    )
    _coordinate(3, coord_queue, inboxes, _alive(3), 60.0, (0, 1, 2))
    assert seen == [0, 0, 1, 1, 1, 1, 1]


def test_the_resume_goes_back_to_the_owner_when_no_lsc_survives():
    inboxes = [queue.Queue() for _ in range(2)]
    coord_queue = _ScriptedQueue(
        [_ready(0, "LSC-0"), _ready(1, "LSC-1"), _ack(1, "LSC-1", "", _SESSIONS)]
        + [_ack(0, "LSC-1", "")]
        + [_result(index) for index in range(2)]
    )
    _coordinate(2, coord_queue, inboxes, _alive(2), 60.0, (0, 1))
    assert inboxes[0].empty()
    assert inboxes[1].get_nowait().sessions == _SESSIONS


@pytest.mark.parametrize(
    "platform, maxrss",
    [("darwin", 100 * 2**20), ("linux", 100 * 2**10), ("freebsd14", 100 * 2**10)],
)
def test_worker_maxrss_is_kib_on_every_platform(monkeypatch, platform, maxrss):
    """macOS reports bytes, the rest KiB; the worker line reads MiB on all."""
    from types import SimpleNamespace

    from repro.experiments.reporting import format_worker_stats
    from repro.util import rusage

    monkeypatch.setattr(sys, "platform", platform)
    monkeypatch.setattr(
        rusage,
        "resource",
        SimpleNamespace(
            RUSAGE_SELF=0, getrusage=lambda _who: SimpleNamespace(ru_maxrss=maxrss)
        ),
    )
    assert rusage.peak_rss_kib() == 100 * 2**10
    stats = dict.fromkeys(
        ("build_s", "busy_s", "barrier_wait_s", "finalize_s", "events", "viewers"), 1
    )
    stats["ru_maxrss"] = rusage.peak_rss_kib()
    sharded = SimpleNamespace(worker_stats={0: stats}, placement=(0,), imbalance=1.0)
    assert "maxrss=100MiB" in format_worker_stats(sharded)
