"""Property-based tests (hypothesis) for the invariants the paper states.

Covered invariants:

* inbound allocation admits a priority-ordered prefix bounded by capacity,
* outbound round-robin allocation is priority-monotone and never exceeds
  capacity,
* the degree push-down tree stays structurally valid (no over-full nodes,
  no cycles, delays within the bound) for arbitrary join sequences,
* the indexed :class:`StreamTree` is *behaviourally bit-identical* to the
  frozen pre-refactor implementation across randomized op sequences
  (insert / remove / orphan repair / reparent) -- the equivalence
  guarantee the performance core rests on,
* the smoke sweep's metrics summaries are byte-identical to the golden
  record captured before the performance-core refactor,
* the one loss process draws the fates of the two-state Gilbert-Elliott
  walk whatever the chunk split, Bernoulli draws at burst length 1, and
  its stationary loss rate and mean loss run at burst lengths 1 and 3,
* a data link serializing a frame sequence in chunks -- any split -- is
  bit-identical to the per-frame FIFO/loss recurrence it replaced, and
  the one-pass chunk step to the pre-change chunk step,
* the simulated replay's drain (one engine event per quiet window) is
  bit-identical to the one-event-per-edge-per-quantum schedule it
  replaced, whatever control events land during the replay,
* the replay report's ``deliveries`` order (rows built in viewer order,
  one float-key sort) is the ``(delivery_time, viewer_id)`` tuple-key
  sort it replaced, ties, losses and backward steps included,
* the layer formula of Equation 1 matches the layer implied by the delay
  interval definition,
* the view-synchronization plan always bounds the layer spread by kappa
  and never keeps an unacceptable layer,
* the empirical CDF helper is monotone and normalised.
"""

import copy
import dataclasses
import itertools
import json
import random
from array import array
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference_dataplane
from reference_oracles import (
    compute_layer,
    gilbert_elliott_walk,
    minimum_layer_for,
    priority_monotonic,
)
from reference_subscription import subscribed_node
from reference_topology import ReferenceStreamTree
from repro.core import dataplane
from repro.core.bandwidth import allocate_inbound, allocate_outbound
from repro.core.layering import DelayLayerConfig
from repro.core.state import ViewerSession
from repro.core.subscription import (
    needs_resubscription,
    plan_view_synchronization,
)
from repro.core.telecast import build_views
from repro.core.topology import StreamTree
from repro.experiments.config import PAPER_CONFIG
from repro.experiments.runner import build_scenario, build_telecast_system
from repro.model.cdn import CDN_NODE_ID
from repro.model.producer import make_default_producers
from repro.model.stream import Frame, StreamId
from repro.model.viewer import Viewer
from repro.net.latency import DelayModel, LatencyMatrix
from repro.net.planetlab import generate_planetlab_matrix
from repro.sim.rng import SeededRandom
from repro.sim.transport import DataChannel, LossProcess
from repro.traces.teeve import TeeveSessionTrace

PRODUCERS = make_default_producers()
VIEW = build_views(PRODUCERS, num_views=1, streams_per_site=3)[0]
LAYER_CONFIG = DelayLayerConfig()
LINK_STREAM = StreamId("site-0", 0)
DELAY_MODEL = DelayModel(LatencyMatrix(default_delay=0.05), processing_delay=0.1, cdn_delta=60.0)

bandwidths = st.floats(min_value=0.0, max_value=40.0, allow_nan=False, allow_infinity=False)
supplies = st.lists(
    st.floats(min_value=0.0, max_value=50.0, allow_nan=False), min_size=6, max_size=6
)


class TestBandwidthProperties:
    @given(inbound=bandwidths, supply_values=supplies)
    @settings(max_examples=200, deadline=None)
    def test_inbound_allocation_is_a_bounded_priority_prefix(self, inbound, supply_values):
        supply = dict(zip(VIEW.stream_ids, supply_values))
        result = allocate_inbound(VIEW, inbound, supply)
        # Never exceeds the viewer's inbound capacity.
        assert result.allocated_inbound_mbps <= inbound + 1e-9
        # The accepted set is exactly a prefix of the global priority order.
        prefix = VIEW.stream_ids[: len(result.accepted)]
        assert result.accepted_stream_ids == prefix
        # Acceptance implies one stream per site is covered.
        if result.request_accepted:
            accepted_sites = {sid.site_id for sid in result.accepted_stream_ids}
            assert accepted_sites == {lv.site_id for lv in VIEW.local_views}
            assert len(result.accepted) >= VIEW.site_count

    @given(outbound=bandwidths)
    @settings(max_examples=200, deadline=None)
    def test_outbound_round_robin_is_monotone_and_bounded(self, outbound):
        accepted = VIEW.prioritized_streams
        allocation = allocate_outbound(accepted, outbound)
        assert sum(allocation.per_stream_mbps.values()) <= outbound + 1e-9
        assert priority_monotonic(accepted, allocation)
        # Leftover is always smaller than one bin of the cheapest stream.
        min_bandwidth = min(entry.stream.bandwidth_mbps for entry in accepted)
        assert allocation.leftover_mbps < min_bandwidth

    @given(outbound=bandwidths)
    @settings(max_examples=100, deadline=None)
    def test_out_degree_matches_allocated_bandwidth(self, outbound):
        accepted = VIEW.prioritized_streams
        allocation = allocate_outbound(accepted, outbound)
        for entry in accepted:
            degree = allocation.out_degree[entry.stream_id]
            allocated = allocation.per_stream_mbps[entry.stream_id]
            assert allocated == degree * entry.stream.bandwidth_mbps


join_sequences = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=4),      # out-degree
        st.floats(min_value=0.0, max_value=14.0),   # total outbound capacity
    ),
    min_size=1,
    max_size=40,
)


class TestAdmitSequenceMonotonicity:
    """Randomized (60-seed) admit-sequence property of the allocator.

    The paper's monotonicity invariant (Section IV-B1): because outbound
    capacity is split round-robin in priority order and admission is a
    priority prefix, the forwarding capacity the allocator makes
    *available* for a higher-priority stream is at least that of every
    lower-priority one -- per admitted viewer and cumulatively after any
    admit sequence.  (The *net* group supply can dip below this once CDN
    fallback consumes P2P slots asymmetrically; the invariant is about
    what the allocator contributes, which is what the overlay's
    closer-to-root placement of high-outbound viewers rests on.)
    """

    SEEDS = range(60)

    def _random_world(self, rng):
        producers = make_default_producers(2, rng.choice([4, 6, 8]))
        views = build_views(
            producers, num_views=3, streams_per_site=rng.choice([2, 3])
        )
        return views[rng.randrange(len(views))]

    def test_cumulative_allocated_capacity_is_priority_monotone(self):
        for seed in self.SEEDS:
            rng = random.Random(seed)
            view = self._random_world(rng)
            stream_ids = list(view.stream_ids)
            supply = {sid: rng.choice([8.0, 12.0, 16.0]) for sid in stream_ids}
            # Uniform seed supply: the invariant concerns the allocator's
            # contributions, so the ledger starts flat.
            flat = max(supply.values())
            available = {sid: flat for sid in stream_ids}
            cumulative = {sid: 0.0 for sid in stream_ids}
            admitted = 0
            for index in range(rng.randrange(10, 40)):
                inbound = rng.choice([4.0, 8.0, 12.0])
                outbound = rng.uniform(0.0, 16.0)
                alloc_in = allocate_inbound(view, inbound, available)
                if not alloc_in.request_accepted:
                    continue
                admitted += 1
                alloc_out = allocate_outbound(alloc_in.accepted, outbound)
                # Per-admission invariant (the allocator's own guarantee).
                assert priority_monotonic(alloc_in.accepted, alloc_out)
                assert sum(alloc_out.per_stream_mbps.values()) <= outbound + 1e-9
                for entry in alloc_in.accepted:
                    available[entry.stream_id] -= entry.stream.bandwidth_mbps
                for sid, mbps in alloc_out.per_stream_mbps.items():
                    available[sid] += mbps
                    cumulative[sid] += mbps
                # Cumulative invariant: after ANY admit sequence, the
                # allocated forwarding capacity is non-increasing along
                # the global priority order.
                ordered = [cumulative[sid] for sid in stream_ids]
                for higher, lower in zip(ordered, ordered[1:]):
                    assert lower <= higher + 1e-9, (seed, index, ordered)
            assert admitted > 0, f"seed {seed} admitted nobody"

    def test_ablation_policies_break_or_trivialise_the_invariant(self):
        # Sanity check that the property is not vacuous: the equal-split
        # ablation violates per-admission monotonicity for some sequence.
        from repro.core.bandwidth import allocate_outbound_equal_split

        violated = False
        for seed in self.SEEDS:
            rng = random.Random(seed)
            view = self._random_world(rng)
            supply = {sid: 100.0 for sid in view.stream_ids}
            alloc_in = allocate_inbound(view, 12.0, supply)
            if not alloc_in.accepted:
                continue
            alloc_out = allocate_outbound_equal_split(
                alloc_in.accepted, rng.uniform(0.0, 16.0)
            )
            if not priority_monotonic(alloc_in.accepted, alloc_out):
                violated = True
                break
        # Equal split gives every stream the same bin count, so strict
        # violations require unequal stream bandwidths -- with the paper's
        # homogeneous 2 Mbps streams it stays (trivially) monotone.
        assert violated or all(
            entry.stream.bandwidth_mbps == 2.0
            for entry in alloc_in.accepted
        )


class TestTopologyProperties:
    @given(sequence=join_sequences)
    @settings(max_examples=100, deadline=None)
    def test_degree_pushdown_preserves_tree_invariants(self, sequence):
        stream = PRODUCERS[0].streams[0]
        tree = StreamTree(stream, DELAY_MODEL, d_max=65.0)
        accepted = 0
        for index, (degree, capacity) in enumerate(sequence):
            result = tree.insert(f"viewer-{index}", degree, capacity)
            if result.accepted:
                accepted += 1
        tree.validate()
        assert len(tree) == accepted
        # Every member respects the delay bound.
        assert tree.delay_violations() == []

    @given(sequence=join_sequences)
    @settings(max_examples=50, deadline=None)
    def test_removals_keep_tree_consistent(self, sequence):
        stream = PRODUCERS[0].streams[0]
        tree = StreamTree(stream, DELAY_MODEL, d_max=65.0)
        inserted = []
        for index, (degree, capacity) in enumerate(sequence):
            result = tree.insert(f"viewer-{index}", degree, capacity)
            if result.accepted:
                inserted.append(f"viewer-{index}")
        # Remove every other member, re-attaching its orphans to the CDN.
        for node_id in inserted[::2]:
            removal = tree.remove(node_id)
            for orphan in removal.orphaned_children:
                tree.reattach_orphan(orphan, CDN_NODE_ID)
        tree.validate()


def _make_op_sequence(rng: random.Random, length: int = 70):
    """Pre-drawn operation script, replayable against any tree implementation."""
    ops = []
    for index in range(length):
        roll = rng.random()
        if roll < 0.60:
            ops.append(
                (
                    "insert",
                    f"viewer-{index:03d}",
                    rng.randint(0, 4),
                    round(rng.uniform(0.0, 14.0), 3),
                )
            )
        elif roll < 0.80:
            ops.append(("remove", rng.randrange(1 << 30)))
        else:
            ops.append(("reparent_cdn", rng.randrange(1 << 30)))
    return ops


def _result_values(result):
    """Field values of a result record, dataclass or named tuple alike."""
    if isinstance(result, tuple):
        return tuple(result)
    return dataclasses.astuple(result)


def _result_field_names(result_type):
    if issubclass(result_type, tuple):
        return list(result_type._fields)
    return [f.name for f in dataclasses.fields(result_type)]


def _replay_ops(tree, ops):
    """Apply an op script to one tree, returning every observable outcome.

    Targets of remove/reparent ops are picked by index into the sorted
    member list, so both implementations resolve the same script to the
    same concrete operations as long as their membership stays identical
    (which the outcome comparison enforces).  The CDN's child list is
    observed, order included, after every op: displacements at the root
    must keep the displaced viewer's position, also once removals and
    reparents to the CDN have shifted the positions behind them.
    """
    outcomes = []
    for op in ops:
        outcomes.append(("cdn-children", tree.cdn_children()))
        kind = op[0]
        if kind == "insert":
            _, node_id, degree, capacity = op
            if node_id in tree:
                continue
            result = tree.insert(node_id, degree, capacity)
            outcomes.append(("insert", node_id, _result_values(result)))
        elif kind == "remove":
            members = sorted(tree.members())
            if not members:
                continue
            target = members[op[1] % len(members)]
            removal = tree.remove(target)
            outcomes.append(("remove", target, _result_values(removal)))
            # Observed while orphans are still detached: the free-slot
            # aggregate must count them, exactly like the seed's scan.
            outcomes.append(("free-slots-mid-removal", target, tree.free_p2p_slots()))
            for orphan in removal.orphaned_children:
                parent = tree.find_repair_parent(orphan)
                outcomes.append(("repair-parent", orphan, parent))
                reattached = tree.reattach_orphan(orphan, parent or CDN_NODE_ID)
                outcomes.append(("reattach", orphan, _result_values(reattached)))
                if not reattached.accepted:
                    # Clean up unplaceable victims like the adaptation layer
                    # does, so later ops see a consistent membership.
                    for sub_orphan in tree.remove(orphan).orphaned_children:
                        tree.reattach_orphan(sub_orphan, CDN_NODE_ID)
        elif kind == "reparent_cdn":
            members = sorted(tree.members())
            if not members:
                continue
            target = members[op[1] % len(members)]
            result = tree.reparent(target, CDN_NODE_ID)
            outcomes.append(("reparent", target, _result_values(result)))
    return outcomes


def _tree_shape(tree):
    """Full observable shape of a tree: parents, children, exact delays."""
    shape = {}
    for node_id in sorted(tree.members()) + [CDN_NODE_ID]:
        node = tree.node(node_id)
        shape[node_id] = (
            node.parent_id,
            tuple(node.children),
            node.end_to_end_delay,
            tree.depth_of(node_id),
        )
    return shape


class TestPlacementEquivalence:
    """The indexed StreamTree must be bit-identical to the seed behaviour."""

    def test_refactored_placement_matches_reference_across_seeded_scenarios(self):
        producers = make_default_producers()
        stream = producers[0].streams[0]
        settings_grid = [
            (0.1, 65.0),   # paper defaults: flat, wide trees
            (1.5, 66.0),   # depth-limited: delay rejections kick in
            (2.5, 63.0),   # very tight bound: frequent CDN fallbacks
        ]
        for scenario in range(50):
            rng = random.Random(9_000 + scenario)
            processing, d_max = settings_grid[scenario % len(settings_grid)]
            node_ids = [f"viewer-{i:03d}" for i in range(70)] + [CDN_NODE_ID]
            matrix = generate_planetlab_matrix(
                node_ids, rng=SeededRandom(100 + scenario)
            )
            delay_model = DelayModel(
                matrix, processing_delay=processing, cdn_delta=60.0
            )
            ops = _make_op_sequence(rng)
            indexed = StreamTree(stream, delay_model, d_max=d_max)
            reference = ReferenceStreamTree(stream, delay_model, d_max=d_max)
            indexed_outcomes = _replay_ops(indexed, ops)
            reference_outcomes = _replay_ops(reference, ops)
            assert indexed_outcomes == reference_outcomes, (
                f"scenario {scenario}: outcome divergence"
            )
            assert _tree_shape(indexed) == _tree_shape(reference), (
                f"scenario {scenario}: tree shape divergence"
            )
            assert indexed.free_p2p_slots() == reference.free_p2p_slots()
            indexed.validate()

    def test_insert_results_share_field_layout_with_reference(self):
        # The value-tuple comparison above relies on both InsertResult
        # records having the same fields in the same order.
        import reference_topology as ref_mod
        from repro.core import topology as top_mod

        assert _result_field_names(top_mod.InsertResult) == _result_field_names(
            ref_mod.InsertResult
        )
        assert _result_field_names(top_mod.RemovalResult) == _result_field_names(
            ref_mod.RemovalResult
        )


class TestGoldenSmokeMetrics:
    """The smoke preset's summaries must stay byte-identical to the golden record."""

    GOLDEN_PATH = Path(__file__).parent / "golden" / "smoke_summaries.json"

    def test_smoke_sweep_matches_pre_refactor_golden(self):
        from repro.experiments.sweep import run_sweep, smoke_sweep

        result = run_sweep(smoke_sweep(), jobs=1)
        assert not result.failed()
        current = {point.point_id: point.metrics for point in result.results}
        golden = json.loads(self.GOLDEN_PATH.read_text())
        current_canonical = json.dumps(current, indent=2, sort_keys=True)
        golden_canonical = json.dumps(golden, indent=2, sort_keys=True)
        assert current_canonical == golden_canonical, (
            "smoke metrics summaries drifted from the pre-refactor golden record; "
            "if the change is intentional, regenerate tests/golden/smoke_summaries.json"
        )


def _per_frame_reference(frames, rate, fates, *, epoch, path_delay):
    """The per-frame ``DataLink.transmit`` this repo had before chunking:
    one FIFO step and one loss decision per frame (``fates[i]``, or none
    lost when ``fates`` is ``None``), kept as the oracle."""
    free_at = 0.0
    delivered_at = []
    for number, frame in enumerate(frames):
        sent_at = epoch + frame.capture_time
        start = free_at if free_at > sent_at else sent_at
        transmission = 0.0 if rate is None else frame.size_megabits / rate
        free_at = start + transmission
        if fates is not None and fates[number]:
            delivered_at.append(None)
        else:
            delivered_at.append(free_at + path_delay)
    return delivered_at, free_at


_EDGE_COUNTERS = (
    "arrivals",
    "index",
    "deadline",
    "first_delivery",
    "last_received",
    "expected",
    "delivered",
    "lost",
    "late",
    "dropped",
    "concealed",
    "gap_len",
    "prev_ok",
    "window_sum",
    "window_count",
)


def _link_frames(gaps, sizes):
    capture, frames = 0.0, []
    for number, gap in enumerate(gaps):
        capture += gap
        frames.append(Frame(LINK_STREAM, number, capture, sizes[number]))
    return frames


def _lossy_channel(burst, seed):
    """A channel whose links lose nothing (``burst=None``) or 30 % of
    frames in runs of mean length ``burst``."""
    return DataChannel(
        loss_rate=0.0 if burst is None else 0.3,
        mean_burst_length=burst or 1.0,
        seed=seed,
    )


def _link_edge(frames, deadline):
    session = ViewerSession(viewer=Viewer(viewer_id="child"), view=VIEW, lsc_id="LSC-0")
    return dataplane._EdgeState("child", LINK_STREAM, session, frames, deadline)


def _loss_runs(fates):
    """Lengths of the runs of consecutive losses in ``fates``."""
    runs, current = [], 0
    for lost in fates:
        if lost:
            current += 1
        elif current:
            runs.append(current)
            current = 0
    return runs + [current] if current else runs


def _walked_fates(loss_rate, burst, key, count):
    """The frame-by-frame oracle's fates of a link keyed ``key``."""
    process = LossProcess(loss_rate, burst)
    return gilbert_elliott_walk(process.flip, process.recover, key, count)


class TestLossProcess:
    """One loss process, the two-state Gilbert-Elliott channel: a lossy
    link's fates, read window by window through ``DataChannel.fates``,
    are the frame-by-frame walk of ``tests/reference_oracles.py``."""

    @settings(max_examples=150, deadline=None)
    @given(
        loss_rate=st.floats(0.001, 0.999),
        burst=st.sampled_from([1.0, 3.0]),
        counts=st.lists(st.integers(0, 30), max_size=12),
        seed=st.integers(0, 2**16),
    )
    def test_any_chunk_split_matches_the_two_state_walk(
        self, loss_rate, burst, counts, seed
    ):
        channel = DataChannel(loss_rate=loss_rate, mean_burst_length=burst, seed=seed)
        key = channel.link("parent", "child", LINK_STREAM, None).key
        drawn, first = [], 0
        for count in counts:
            drawn += map(bool, channel.fates(key, first, count))
            first += count
        assert drawn == _walked_fates(loss_rate, burst, key, first)

    @pytest.mark.parametrize("loss_rate", [0.1, 0.3])
    def test_burst_length_one_is_memoryless(self, loss_rate):
        # i.i.d. loss: a frame is lost at the stationary rate whether the
        # frame before it was lost or not (a burst-3 channel, by contrast,
        # loses a frame after a loss with probability 1 - b * (1 - a)).
        frames = 100_000
        for burst in (1.0, 3.0):
            channel = DataChannel(loss_rate=loss_rate, mean_burst_length=burst, seed=5)
            key = channel.link("parent", "child", LINK_STREAM, None).key
            fates = channel.fates(key, 0, frames)
            after_loss = [lost for before, lost in zip(fates, fates[1:]) if before]
            after_delivery = [lost for before, lost in zip(fates, fates[1:]) if not before]
            if burst == 1.0:
                assert sum(after_loss) / len(after_loss) == pytest.approx(loss_rate, rel=0.1)
                assert sum(after_delivery) / len(after_delivery) == pytest.approx(
                    loss_rate, rel=0.1
                )
            else:
                assert sum(after_loss) / len(after_loss) > 2 * loss_rate

    @pytest.mark.parametrize("burst", [1.0, 3.0])
    def test_stationary_rate_and_mean_loss_run(self, burst):
        # A loss run continues while the channel stays BAD (1 - b) or
        # recovers and flips straight back (b * a): mean 1 / (b * (1 - a)).
        loss_rate, frames = 0.2, 60_000
        process = LossProcess(loss_rate, burst)
        channel = DataChannel(loss_rate=loss_rate, mean_burst_length=burst, seed=11)
        fates = channel.fates(channel.link("parent", "child", LINK_STREAM, None).key, 0, frames)
        runs = _loss_runs(fates)
        a, b = process.flip, process.recover
        assert sum(fates) / frames == pytest.approx(loss_rate, rel=0.05)
        assert sum(runs) / len(runs) == pytest.approx(1.0 / (b * (1.0 - a)), rel=0.05)


class TestChunkedLinkEquivalence:
    """The one-pass chunk step is the per-frame FIFO/loss recurrence, and
    the pre-change chunk step (``tests/reference_dataplane.py``), bit for
    bit, whatever the chunk split."""

    @settings(max_examples=120, deadline=None)
    @given(
        gaps=st.lists(st.floats(0.0, 0.2), min_size=1, max_size=40),
        sizes=st.lists(st.floats(0.01, 2.0), min_size=40, max_size=40),
        rate=st.one_of(st.none(), st.floats(0.1, 20.0)),
        burst=st.sampled_from([None, 1.0, 3.0]),
        cuts=st.sets(st.integers(1, 39)),
        epoch=st.floats(0.0, 500.0),
        path_delay=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**16),
    )
    def test_any_chunk_split_matches_per_frame_reference(
        self, gaps, sizes, rate, burst, cuts, epoch, path_delay, seed
    ):
        frames = _link_frames(gaps, sizes)
        key = _lossy_channel(burst, seed).link("parent", "child", LINK_STREAM, rate).key
        fates = None if burst is None else _walked_fates(0.3, burst, key, len(frames))
        expected, expected_free_at = _per_frame_reference(
            frames, rate, fates, epoch=epoch, path_delay=path_delay
        )
        bounds = [0, *sorted(cut for cut in cuts if cut < len(frames)), len(frames)]
        for splits in (bounds, list(range(len(frames) + 1)), [0, len(frames)]):
            channel = _lossy_channel(burst, seed)
            link = channel.link("parent", "child", LINK_STREAM, rate)
            edge = _link_edge(frames, float("inf"))
            for start, stop in zip(splits, splits[1:]):
                dataplane._send_chunk(
                    channel, link, edge, frames[start:stop], epoch, path_delay
                )
            assert list(edge.arrivals) == [
                dataplane.LOST if at is None else at - epoch for at in expected
            ]
            assert link.free_at == expected_free_at

    @settings(max_examples=200, deadline=None)
    @given(
        gaps=st.lists(st.floats(0.0, 0.2), min_size=1, max_size=40),
        sizes=st.lists(st.floats(0.01, 2.0), min_size=40, max_size=40),
        rate=st.one_of(st.none(), st.floats(0.1, 20.0)),
        burst=st.sampled_from([None, 1.0, 3.0]),
        cuts=st.sets(st.integers(1, 39)),
        epoch=st.floats(0.0, 500.0),
        path_delay=st.floats(0.0, 1.0),
        deadline=st.floats(0.0, 3.0),
        prefill=st.integers(0, 8),
        last_received=st.floats(0.0, 10.0),
        seed=st.integers(0, 2**16),
    )
    @example(
        gaps=[0.1] * 12,
        sizes=[0.25] * 40,
        rate=2.0,
        burst=3.0,
        cuts={3, 7},
        epoch=123.456,
        path_delay=0.3,
        deadline=0.45,
        prefill=2,
        last_received=0.5,
        seed=5,
    )
    @example(  # on time only within the 1e-9 playout tolerance
        gaps=[0.0] * 5,
        sizes=[0.25] * 40,
        rate=None,
        burst=None,
        cuts=set(),
        epoch=0.0,
        path_delay=0.25,
        deadline=0.25 - 5e-10,
        prefill=0,
        last_received=0.0,
        seed=0,
    )
    def test_one_pass_chunk_matches_the_pre_change_step(
        self,
        gaps,
        sizes,
        rate,
        burst,
        cuts,
        epoch,
        path_delay,
        deadline,
        prefill,
        last_received,
        seed,
    ):
        frames = _link_frames(gaps, sizes)
        bounds = [0, *sorted(cut for cut in cuts if cut < len(frames)), len(frames)]
        sides = []
        for step in (dataplane._send_chunk, reference_dataplane.transmit_link_chunk):
            channel = _lossy_channel(burst, seed)
            link = channel.link("parent", "child", LINK_STREAM, rate)
            edge = _link_edge(frames, deadline)
            buffer = edge.viewer.buffer_for(LINK_STREAM)
            # A pre-filled buffer: the first frames were already received
            # (a repeated replay), up to ``last_received``.
            held = frames[:prefill]
            buffer.extend(held, [last_received] * len(held))
            if held:
                edge.last_received = last_received
            for start, stop in zip(bounds, bounds[1:]):
                step(channel, link, edge, frames[start:stop], epoch, path_delay)
            # The pre-change step does not evict: its buffer is read by
            # the rule the goldens were re-captured by.
            sides.append(
                (
                    [getattr(edge, name) for name in _EDGE_COUNTERS],
                    link.free_at,
                    (channel.sent, channel.delivered, channel.lost),
                    buffer.held()
                    if step is dataplane._send_chunk
                    else reference_dataplane.held_within_horizon(buffer),
                )
            )
        assert sides[0] == sides[1]


#: A two-LSC overlay small enough to build twice per example.
DRAIN_CONFIG = PAPER_CONFIG.with_scaled_population(24, num_lscs=2)

#: Data-plane cost models: constant delay, lossless FIFO links, and loss
#: at burst lengths 1 (i.i.d.) and 3.
DRAIN_PLANES = {
    "constant": {"bandwidth_headroom": None},
    "fifo": {"bandwidth_headroom": 0.7},
    "bernoulli": {"bandwidth_headroom": 1.0, "loss_rate": 0.1},
    "gilbert": {"bandwidth_headroom": None, "loss_rate": 0.1, "mean_burst_length": 3.0},
}


def _drain_overlay(t0):
    """A joined overlay whose clock stands at ``t0``, and its trace."""
    scenario = build_scenario(DRAIN_CONFIG)
    system = build_telecast_system(scenario)
    system.run_workload(scenario.viewers, scenario.events, scenario.views)
    system.simulator.run(until=t0)
    trace = TeeveSessionTrace(scenario.producers, rng=SeededRandom(DRAIN_CONFIG.seed))
    return system, trace


def _chunk_starts(frames, t0):
    """Engine times of one edge's chunks under the per-chunk schedule."""
    starts, index = [], 0
    while index < len(frames):
        start = t0 + frames[index].capture_time
        starts.append(start)
        end_rel = (start - t0) + dataplane.BATCH_QUANTUM
        while index < len(frames) and frames[index].capture_time < end_rel:
            index += 1
    return starts


def _schedule_control_events(system, trace, t0, frames, events):
    """Put the drawn control events on the engine before the replay starts.

    ``(kind, pick, on_chunk, at)``: ``pick`` chooses a session and one of
    its streams; the event fires exactly at one of that edge's chunk
    starts (``on_chunk``) or at a fraction ``at`` of the trace.
    """
    sim = system.simulator
    sessions = [
        (viewer_id, session)
        for lsc in system.gsc.lscs
        for viewer_id, session in lsc.sessions.items()
        if session.subscriptions
    ]
    for number, (kind, pick, on_chunk, at) in enumerate(events):
        viewer_id, session = sessions[pick % len(sessions)]
        streams = list(session.subscriptions)
        stream_id = streams[pick % len(streams)]
        if on_chunk:
            starts = _chunk_starts(trace.frames_for_stream(stream_id, frames), t0)
            time = starts[int(at * len(starts))]
        else:
            time = t0 + at * frames / 10.0
        if kind == "reparent":

            def act(session=session, stream_id=stream_id, parent=f"relay-{number}"):
                # The session's record moves to a parent outside the tree
                # (a copy: the tree keeps its node, so a later departure
                # still tears the real edge down); the planes only read
                # the session.
                node = session.subscriptions.get(stream_id)
                if node is not None:
                    moved = copy.copy(node)
                    moved.parent_id = parent
                    session.subscriptions[stream_id] = moved

        elif kind == "drop":

            def act(session=session, stream_id=stream_id):
                session.subscriptions.pop(stream_id, None)

        else:

            def act(viewer_id=viewer_id):
                system.depart_viewer(viewer_id)

        sim.schedule_at(time, act)


def _replay_observables(plane, report):
    channel = plane._channel
    metrics = plane.system.metrics
    return {
        "deliveries": report.deliveries,
        "per_viewer": report.per_viewer,
        "report": (
            report.frames_sent,
            report.frames_delivered,
            report.frames_lost,
            report.frames_late,
            report.frames_dropped,
            metrics.observed_layer_adjustments,
            metrics.observed_streams_dropped,
        ),
        "channel": (channel.sent, channel.delivered, channel.lost),
        # By key: a link's losses are keyed by its edge, so the order in
        # which links were created decides nothing.
        "links": {key: link.free_at for key, link in channel._links.items()},
        "edges": [[getattr(edge, name) for name in _EDGE_COUNTERS] for edge in plane._edges],
        "buffers": [edge.viewer.buffer_for(edge.stream_id).held() for edge in plane._edges],
        "clock": plane.system.simulator.now,
    }


control_events = st.lists(
    st.tuples(
        st.sampled_from(["reparent", "drop", "depart"]),
        st.integers(0, 10_000),
        st.booleans(),
        st.floats(0.0, 0.999),
    ),
    max_size=4,
)


class TestDrainMatchesPerChunkSchedule:
    """The drain replays what one engine event per edge per quantum
    (``tests/reference_dataplane.py``) replays, bit for bit: deliveries,
    QoE, channel counters, links by key, buffers, edges and the clock the
    replay leaves behind."""

    @settings(max_examples=60, deadline=None)
    @given(
        plane=st.sampled_from(sorted(DRAIN_PLANES)),
        refresh=st.sampled_from([None, 1.0, 2.5, 5.0]),
        # A far epoch rounds ``t0 + capture - t0`` at a coarse ulp, so a
        # chunk boundary computed from the capture time alone would move.
        t0=st.one_of(st.just(0.0), st.just(2.0**45), st.floats(0.0, 500.0)),
        frames=st.integers(1, 60),
        events=control_events,
        seed=st.integers(0, 2**16),
    )
    @example(  # each kind lands on a chunk start, one at the very first
        plane="bernoulli",
        refresh=2.5,
        t0=123.456,
        frames=45,
        events=[
            ("reparent", 3, True, 0.0),
            ("drop", 8, True, 0.5),
            ("depart", 1, True, 0.7),
            ("reparent", 11, True, 0.3),
        ],
        seed=5,
    )
    @example(
        plane="constant",
        refresh=1.0,
        t0=0.0,
        frames=60,
        events=[("depart", 0, True, 0.2), ("drop", 5, False, 0.41)],
        seed=0,
    )
    @example(
        plane="gilbert", refresh=None, t0=77.7, frames=60, events=[], seed=9
    )
    @example(  # a departure re-links several edges in one window
        plane="bernoulli",
        refresh=None,
        t0=0.0,
        frames=11,
        events=[("reparent", 0, False, 0.5), ("depart", 0, False, 0.5)],
        seed=0,
    )
    @example(  # at a far epoch chunk starts round at a coarse ulp (two
        # streams' chunks start at the same instant), and each chunk's end
        # is read back from its rounded start
        plane="bernoulli",
        refresh=None,
        t0=2.0**45,
        frames=23,
        events=[("depart", 42, False, 0.5)],
        seed=0,
    )
    @example(  # the same with two re-parented edges opening links in
        # the second window
        plane="bernoulli",
        refresh=None,
        t0=2.0**46,
        frames=22,
        events=[("reparent", 0, False, 0.5), ("reparent", 2056, False, 0.5)],
        seed=0,
    )
    @example(  # the same after a layer refresh, re-parented on a chunk
        # start, so the window ends exactly on a boundary
        plane="bernoulli",
        refresh=2.5,
        t0=2.0**44,
        frames=33,
        events=[("reparent", 2005, True, 0.75), ("reparent", 3980, True, 0.75)],
        seed=0,
    )
    @example(plane="fifo", refresh=5.0, t0=2.0**45, frames=60, events=[], seed=1)
    @example(plane="constant", refresh=None, t0=2.0**45, frames=60, events=[], seed=1)
    def test_drain_matches_the_per_chunk_schedule(
        self, plane, refresh, t0, frames, events, seed
    ):
        config = dataplane.DataPlaneConfig(
            refresh_interval=refresh,
            max_frames_per_stream=frames,
            seed=seed,
            **DRAIN_PLANES[plane],
        )
        sides = []
        for driver in (
            dataplane.SimulatedDataPlane,
            reference_dataplane.PerChunkSimulatedDataPlane,
        ):
            system, trace = _drain_overlay(t0)
            _schedule_control_events(system, trace, t0, frames, events)
            replay = driver(system, trace, config)
            sides.append(_replay_observables(replay, replay.run()))
        assert sides[0] == sides[1]


class TestPopOrder:
    """Which of two edges tied on their next chunk start pops first decides
    nothing: with the heap's seq counting down, every tie breaks the other
    way -- links open in another order -- and the replay is the same,
    lane for lane (``edges`` holds each lane's arrivals), down to the
    links by key and the buffers by edge."""

    @pytest.mark.parametrize("plane", sorted(DRAIN_PLANES))
    @pytest.mark.parametrize(
        "t0,events",
        [
            (0.0, []),
            (123.456, [("reparent", 3, True, 0.0), ("depart", 1, True, 0.7), ("reparent", 11, True, 0.3)]),
            (2.0**45, [("reparent", 0, False, 0.5), ("reparent", 2056, False, 0.5)]),
        ],
    )
    def test_reversed_ties_replay_the_same(self, plane, t0, events):
        config = dataplane.DataPlaneConfig(
            refresh_interval=2.5, max_frames_per_stream=40, seed=3, **DRAIN_PLANES[plane]
        )
        sides = []
        for seq in (itertools.count(), itertools.count(0, -1)):
            system, trace = _drain_overlay(t0)
            _schedule_control_events(system, trace, t0, 40, events)
            replay = dataplane.SimulatedDataPlane(system, trace, config)
            replay._seq = seq
            sides.append(_replay_observables(replay, replay.run()))
        assert sides[0] == sides[1]


#: Viewer ids whose sorted order ("v-10" < "v-9" < "v-a" < "v-b") is not
#: the order the lanes below name them in.
ORDER_VIEWERS = ("v-9", "v-b", "v-10", "v-a")

#: Arrivals on a coarse grid, so equal delivery times are common, across
#: viewers and within one; ``None`` is a lost frame.  Drawn per frame,
#: they step backwards as often as forwards, as after a re-parent onto a
#: shorter path.
order_arrivals = st.lists(
    st.one_of(st.none(), st.sampled_from([0.0, 0.25, 0.5, 1.0]), st.floats(0.0, 4.0)),
    max_size=6,
)


def _order_lanes(spec):
    """One lane per ``(viewer_id, arrivals)``, each on its own stream."""
    lanes = []
    for index, (viewer_id, arrivals) in enumerate(spec):
        stream_id = StreamId(f"site-{index}", 0)
        frames = [Frame(stream_id, number, 0.1 * number) for number in range(len(arrivals))]
        column = array("d", (dataplane.LOST if at is None else at for at in arrivals))
        lanes.append((viewer_id, stream_id, frames, column))
    return lanes


class TestDeliveryOrder:
    """``PlaybackReport.deliveries`` -- rows built in viewer order, one
    stable sort on the float delivery time -- is the one-pass tuple-key
    sort in ``tests/reference_dataplane.py``, element for element: rows
    tied on ``(delivery_time, viewer_id)`` keep lane, then frame order."""

    @settings(max_examples=300, deadline=None)
    @given(spec=st.lists(st.tuples(st.sampled_from(ORDER_VIEWERS), order_arrivals), max_size=8))
    @example(
        spec=[
            ("v-b", [1.0, 0.5, None, 0.25]),  # steps back; ties v-a and v-10
            ("v-a", [0.5, 0.5, 1.0]),  # a tie within one lane
            ("v-b", [0.5, None, 1.0]),  # v-b's second lane ties its first
            ("v-10", [0.25, 1.0]),
            ("v-a", [None, None]),  # every frame lost
        ]
    )
    def test_deliveries_match_the_tuple_key_oracle(self, spec):
        lanes = _order_lanes(spec)
        deliveries = dataplane.PlaybackReport(lanes).deliveries
        assert deliveries == reference_dataplane.tuple_key_delivery_records(lanes)


def _eighths(limit):
    """Multiples of 1/8 up to ``limit``: exact in binary, so Equation 1's
    sums are exact and its quotient often lands on an integer."""
    return st.integers(min_value=0, max_value=8 * limit).map(lambda n: n / 8.0)


class TestLayeringProperties:
    @given(
        parent_delay=st.floats(min_value=60.0, max_value=64.5, allow_nan=False),
        propagation=st.floats(min_value=0.0, max_value=0.3, allow_nan=False),
        processing=st.floats(min_value=0.0, max_value=0.3, allow_nan=False),
    )
    @settings(max_examples=200, deadline=None)
    def test_equation_1_matches_layer_interval_definition(
        self, parent_delay, propagation, processing
    ):
        layer = compute_layer(LAYER_CONFIG, parent_delay, propagation, processing)
        child_delay = parent_delay + propagation + processing
        low = LAYER_CONFIG.delay_for_layer(layer)
        high = LAYER_CONFIG.delay_for_layer(layer, offset=LAYER_CONFIG.tau)
        assert low <= child_delay + 1e-9
        assert child_delay < high + 1e-9

    @given(
        parent_delay=st.one_of(_eighths(70), st.floats(min_value=0.0, max_value=70.0)),
        propagation=st.one_of(_eighths(2), st.floats(min_value=0.0, max_value=2.0)),
        processing=st.one_of(_eighths(2), st.floats(min_value=0.0, max_value=2.0)),
        delta=st.one_of(_eighths(65), st.floats(min_value=0.0, max_value=65.0)),
        tau=st.one_of(
            st.sampled_from([0.125, 0.25, 0.5, 1.0]), st.floats(min_value=0.01, max_value=2.0)
        ),
        held_layers=st.lists(st.integers(min_value=0, max_value=40), min_size=1, max_size=4),
    )
    @example(  # the quotient is exactly 2.0
        parent_delay=60.25, propagation=0.125, processing=0.125, delta=60.0, tau=0.25,
        held_layers=[2, 0],
    )
    @example(  # the quotient is negative: clamped to Layer-0
        parent_delay=0.0, propagation=0.125, processing=0.125, delta=60.0, tau=0.25,
        held_layers=[0],
    )
    @settings(max_examples=300, deadline=None)
    def test_inlined_equation_1_copies_match_the_helpers(
        self, parent_delay, propagation, processing, delta, tau, held_layers
    ):
        # ``plan_view_synchronization`` and ``needs_resubscription`` each
        # inline Equation 1; the helpers stay the specification.
        config = DelayLayerConfig(
            delta=delta, buffer_duration=2 * tau, kappa=2, d_max=delta + 10.0
        )
        assert config.tau == tau
        matrix = LatencyMatrix(default_delay=0.05)
        matrix.set_delay("parent", "child", propagation)
        delay_model = DelayModel(matrix, processing_delay=processing, cdn_delta=delta)
        expected = compute_layer(config, parent_delay, propagation, processing)
        assert minimum_layer_for(config, delay_model, "child", "parent", parent_delay) == expected

        # The first held stream is viewer-fed, the rest come from the CDN.
        session = ViewerSession(viewer=Viewer(viewer_id="child"), view=VIEW, lsc_id="LSC-0")
        for index, (stream, layer) in enumerate(zip(VIEW.streams, held_layers)):
            session.subscriptions[stream.stream_id] = subscribed_node(
                "child",
                "parent" if index == 0 else CDN_NODE_ID,
                delta,
                layer=layer,
                effective_delay=0.0,
            )
        fed_by_viewer, *fed_by_cdn = session.subscriptions
        plan = plan_view_synchronization(
            config, delay_model, "child", session.subscriptions, {fed_by_viewer: parent_delay}
        )
        assert plan.per_stream[fed_by_viewer].minimum_layer == expected
        assert needs_resubscription(
            config, delay_model, session, fed_by_viewer, parent_delay
        ) == (expected > session.max_layer)
        for stream_id in fed_by_cdn:  # Layer-0 never exceeds a held layer
            assert plan.per_stream[stream_id].minimum_layer == 0
            assert not needs_resubscription(
                config, delay_model, session, stream_id, parent_delay
            )

    @given(
        delays=st.lists(
            st.floats(min_value=60.0, max_value=64.9, allow_nan=False), min_size=2, max_size=6
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_view_sync_plan_bounds_layer_spread(self, delays):
        streams = VIEW.streams[: len(delays)]
        subscriptions = {}
        parent_delays = {}
        for stream, delay in zip(streams, delays):
            parent = CDN_NODE_ID if delay <= 60.05 else f"parent-of-{stream.stream_id}"
            subscriptions[stream.stream_id] = subscribed_node("viewer", parent, delay)
            parent_delays[stream.stream_id] = max(60.0, delay - 0.15)
        plan = plan_view_synchronization(
            LAYER_CONFIG, DELAY_MODEL, "viewer", subscriptions, parent_delays
        )
        # Kept streams are mutually synchronous and individually acceptable.
        assert plan.layer_spread() <= LAYER_CONFIG.kappa
        for stream_id in plan.kept_stream_ids:
            assert LAYER_CONFIG.is_acceptable_layer(plan.per_stream[stream_id].target_layer)
        # Dropped streams were genuinely unacceptable at their minimum layer.
        for stream_id in plan.dropped_stream_ids:
            minimum = plan.per_stream[stream_id].minimum_layer
            anchor = max(
                (plan.per_stream[sid].target_layer for sid in plan.kept_stream_ids),
                default=minimum,
            )
            assert (not LAYER_CONFIG.is_acceptable_layer(minimum)) or (
                not LAYER_CONFIG.is_acceptable_layer(max(minimum, anchor - LAYER_CONFIG.kappa))
            )
