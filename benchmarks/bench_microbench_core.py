"""Micro-benchmarks of the core algorithms.

These time the hot operations of the control plane -- degree push-down
insertion, bandwidth allocation, the view-synchronization planning, the
lazy latency lookup (miss and hit), the re-subscription cascade below a
displacement and a whole 400-viewer broadcast -- so regressions in their
cost (they all run on every viewer join) are visible in the benchmark
history -- and both frame replays over a 300-viewer overlay: the
simulated one and the offline one with its sorted delivery report.  CI
runs the file with ``--benchmark-disable`` (every body once), so it
cannot rot.
"""

from __future__ import annotations

from time import perf_counter

from repro.core.bandwidth import allocate_inbound, allocate_outbound
from repro.core.dataplane import OverlayDataPlane, SimulatedDataPlane
from repro.core.layering import DelayLayerConfig
from repro.core.subscription import plan_view_synchronization
from repro.core.telecast import TeleCastSystem, build_views
from repro.core.topology import StreamTree, TreeNode
from repro.experiments import runner
from repro.experiments.config import PAPER_CONFIG
from repro.model.cdn import CDN, CDN_NODE_ID
from repro.model.producer import make_default_producers
from repro.model.viewer import Viewer
from repro.net.latency import DelayModel, LatencyMatrix
from repro.net.planetlab import generate_planetlab_matrix
from repro.scenarios.invariants import layer_bound_violations
from repro.sim.rng import SeededRandom
from repro.traces.teeve import TeeveSessionTrace


def _default_view():
    producers = make_default_producers()
    return build_views(producers, num_views=1, streams_per_site=3)[0]


def test_bench_inbound_allocation(benchmark):
    view = _default_view()
    supply = {stream_id: 1000.0 for stream_id in view.stream_ids}
    result = benchmark(allocate_inbound, view, 12.0, supply)
    assert result.request_accepted


def test_bench_outbound_allocation(benchmark):
    view = _default_view()
    accepted = view.prioritized_streams
    result = benchmark(allocate_outbound, accepted, 10.0)
    assert result.total_out_degree == 5


def test_bench_degree_pushdown_insert(benchmark):
    producers = make_default_producers()
    stream = producers[0].streams[0]
    delay_model = DelayModel(LatencyMatrix(default_delay=0.05), processing_delay=0.1)
    rng = SeededRandom(3)

    def build_tree_of_500() -> StreamTree:
        tree = StreamTree(stream, delay_model, d_max=10_000.0)
        for index in range(500):
            capacity = rng.uniform(0.0, 12.0)
            tree.insert(f"viewer-{index:04d}", int(capacity // 4.0), capacity)
        return tree

    tree = benchmark.pedantic(build_tree_of_500, rounds=3, iterations=1)
    tree.validate()
    assert len(tree) == 500


def test_bench_view_sync_planning(benchmark):
    view = _default_view()
    config = DelayLayerConfig()
    delay_model = DelayModel(LatencyMatrix(default_delay=0.05), processing_delay=0.1)
    subscriptions = {}
    parent_delays = {}
    for index, stream in enumerate(view.streams):
        node = TreeNode(
            "viewer-under-test",
            0,
            0.0,
            CDN_NODE_ID if index % 2 == 0 else "viewer-parent",
            60.0 + 0.1 * index,
        )
        node.effective_delay = node.end_to_end_delay
        subscriptions[stream.stream_id] = node
        parent_delays[stream.stream_id] = 60.0 + 0.05 * index

    plan = benchmark(
        plan_view_synchronization,
        config,
        delay_model,
        "viewer-under-test",
        subscriptions,
        parent_delays,
    )
    assert plan.layer_spread() <= config.kappa


def test_bench_latency_miss_then_hit(benchmark):
    """20k random viewer pairs on a 4000-node lazy world, read twice.

    The first pass derives every pair (the miss path), the second finds
    it in the memo (the hit path); the best per-lookup cost of each over
    the rounds is printed and kept in ``extra_info``.
    """
    node_ids = [f"viewer-{index:05d}" for index in range(4000)]
    rng = SeededRandom(1)
    pairs = list(
        dict.fromkeys(tuple(sorted(rng.sample(node_ids, 2))) for _ in range(20_000))
    )

    def fresh_world():
        return (generate_planetlab_matrix(node_ids, rng=SeededRandom(8)),), {}

    samples = []

    def read_twice(matrix):
        delay = matrix.delay
        started = perf_counter()
        for a, b in pairs:
            delay(a, b)
        derived = perf_counter()
        for a, b in pairs:
            delay(a, b)
        samples.append((derived - started, perf_counter() - derived))
        return matrix

    matrix = benchmark.pedantic(read_twice, setup=fresh_world, rounds=5, iterations=1)
    assert matrix.explicit_pair_count() == len(pairs)
    miss_us = min(miss for miss, _ in samples) / len(pairs) * 1e6
    hit_us = min(hit for _, hit in samples) / len(pairs) * 1e6
    benchmark.extra_info["miss_us_per_lookup"] = miss_us
    benchmark.extra_info["hit_us_per_lookup"] = hit_us
    print(
        f"\nlazy latency lookup, best of {len(samples)} x {len(pairs)} pairs: "
        f"miss {miss_us:.2f} us, hit {hit_us:.2f} us"
    )


def test_bench_propagate_after_displacement(benchmark):
    """Strong late joiners on a 300-viewer overlay: every join displaces a
    weaker viewer in each of its trees, re-settles the pushed-down subtree
    and re-runs the subscription process down it."""
    producers = make_default_producers()
    view = build_views(producers, num_views=1, streams_per_site=3)[0]
    base_ids = [f"viewer-{index:04d}" for index in range(300)]
    strong_ids = [f"strong-{index:02d}" for index in range(40)]
    layer_config = DelayLayerConfig()

    def overlay_of_300():
        matrix = generate_planetlab_matrix(
            base_ids + strong_ids + ["GSC", "LSC-0", CDN_NODE_ID], rng=SeededRandom(8)
        )
        system = TeleCastSystem(
            producers, CDN(10_000.0, delta=60.0), DelayModel(matrix), layer_config
        )
        rng = SeededRandom(3)
        for viewer_id in base_ids:
            viewer = Viewer(viewer_id, outbound_capacity_mbps=rng.uniform(2.0, 10.0))
            assert system.join_viewer(viewer, view).accepted
        return (system,), {}

    def join_strong(system):
        for index, viewer_id in enumerate(strong_ids):
            viewer = Viewer(viewer_id, outbound_capacity_mbps=12.0 + 0.05 * index)
            assert system.join_viewer(viewer, view).accepted
        return system

    system = benchmark.pedantic(join_strong, setup=overlay_of_300, rounds=3, iterations=1)
    group = system.gsc.lscs[0].groups[view.view_id]
    for tree in group.trees.values():
        tree.validate()
        # Nobody outranks the last joiner: it took a CDN-fed viewer's
        # place and hosts the viewer it pushed down.
        assert tree.depth_of(strong_ids[-1]) == 1
        assert tree.node(strong_ids[-1]).children
    assert not layer_bound_violations(system)


def test_bench_broadcast_join_400(benchmark):
    """The ``broadcast_join`` workload of ``benchmarks/e2e`` at a tenth of
    its size: 400 viewers, one view, 3 LSCs, capped CDN, seed 7."""
    config = PAPER_CONFIG.with_scaled_population(400, num_lscs=3, num_views=1).with_seed(7)

    def fresh_scenario():
        return (), {"scenario": runner.build_scenario(config)}

    def broadcast(scenario):
        return runner.run_telecast_scenario(config, scenario=scenario, snapshot_every=None)

    result = benchmark.pedantic(broadcast, setup=fresh_scenario, rounds=3, iterations=1)
    assert result.metrics.accepted_requests == 346
    assert result.metrics.rejected_requests == 54


#: The ``replay_qoe`` workload of ``benchmarks/e2e``: 300 viewers, 3 LSCs,
#: 60 frames a stream, 2 % loss, headroom 1.0, a layer refresh every 5 s,
#: seed 7.
REPLAY_300 = (
    PAPER_CONFIG.with_scaled_population(300, num_lscs=3)
    .with_(
        data_plane="simulated",
        data_loss_rate=0.02,
        data_bandwidth_headroom=1.0,
        data_refresh_interval=5.0,
        replay_frames_per_stream=60,
    )
    .with_seed(7)
)


def _joined_300():
    """``REPLAY_300``'s overlay after its joins, and its trace."""
    scenario = runner.build_scenario(REPLAY_300)
    system = runner.build_telecast_system(scenario)
    system.run_workload(scenario.viewers, scenario.events, scenario.views)
    return system, TeeveSessionTrace(scenario.producers, rng=SeededRandom(REPLAY_300.seed))


def test_bench_simulated_replay_300(benchmark):
    """The simulated body of the ``replay_qoe`` workload without its
    joins.  One drain event per quiet window sends the chunks."""

    def joined_overlay():
        system, trace = _joined_300()
        return (SimulatedDataPlane(system, trace, REPLAY_300.data_plane_config()),), {}

    def replay(plane):
        fired = plane.system.simulator.fired
        return plane.run(), plane.system.simulator.fired - fired

    report, events = benchmark.pedantic(replay, setup=joined_overlay, rounds=3, iterations=1)
    assert report.frames_sent == report.frames_delivered + report.frames_lost > 0
    # One refresh at 5 s inside the 6 s trace: drain, refresh, drain.
    assert events == 3


def test_bench_delivery_report_300(benchmark):
    """The offline body of the ``replay_qoe`` workload without its joins:
    ``OverlayDataPlane.replay`` over the 300-viewer overlay, the sorted
    ``deliveries`` rows included (built on the first row read)."""
    frames = REPLAY_300.replay_frames_per_stream

    def joined_overlay():
        return (OverlayDataPlane(*_joined_300()),), {}

    def replay(plane):
        report = plane.replay(max_frames_per_stream=frames)
        report.deliveries[0]
        return report

    report = benchmark.pedantic(replay, setup=joined_overlay, rounds=3, iterations=1)
    deliveries = report.deliveries
    assert len(deliveries) > 0
    keys = [(record.delivery_time, record.viewer_id) for record in deliveries]
    assert keys == sorted(keys)
