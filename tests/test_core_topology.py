"""Tests for stream trees and the degree push-down algorithm (Algorithm 1)."""

import signal
from contextlib import contextmanager

import pytest

from repro.core.topology import EMPTY_SLOT_DEGREE, StreamTree
from repro.model.cdn import CDN_NODE_ID
from repro.model.producer import make_default_producers
from repro.net.latency import DelayModel, LatencyMatrix


@contextmanager
def _deadline(seconds):
    """Fail the test instead of hanging the suite (needs ``SIGALRM``)."""
    if not hasattr(signal, "SIGALRM"):
        yield
        return

    def expired(_signum, _frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expired)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def stream():
    return make_default_producers()[0].streams[0]


@pytest.fixture
def delay_model():
    return DelayModel(LatencyMatrix(default_delay=0.05), processing_delay=0.1, cdn_delta=60.0)


@pytest.fixture
def tree(stream, delay_model):
    return StreamTree(stream, delay_model, d_max=65.0)


class TestBasicInsertion:
    def test_first_viewer_attaches_to_cdn(self, tree):
        result = tree.insert("u1", 2, 4.0)
        assert result.accepted and result.via_cdn
        assert result.parent_id == CDN_NODE_ID
        assert result.end_to_end_delay == 60.0
        assert tree.cdn_children() == ["u1"]

    def test_empty_slot_preferred_over_cdn(self, tree):
        tree.insert("u1", 2, 4.0)
        result = tree.insert("u2", 0, 0.0)
        assert result.accepted and not result.via_cdn
        assert result.parent_id == "u1"
        assert result.end_to_end_delay == pytest.approx(60.15)

    def test_cdn_fallback_when_no_slots_and_allowed(self, tree):
        tree.insert("u1", 0, 0.0)
        result = tree.insert("u2", 0, 0.0, allow_cdn=True)
        assert result.accepted and result.via_cdn

    def test_rejected_when_no_slots_and_cdn_disallowed(self, tree):
        tree.insert("u1", 0, 0.0)
        result = tree.insert("u2", 0, 0.0, allow_cdn=False)
        assert not result.accepted

    def test_duplicate_insert_rejected(self, tree):
        tree.insert("u1", 1, 2.0)
        with pytest.raises(ValueError):
            tree.insert("u1", 1, 2.0)

    def test_membership_and_len(self, tree):
        tree.insert("u1", 1, 2.0)
        tree.insert("u2", 0, 0.0)
        assert "u1" in tree and "u2" in tree
        assert len(tree) == 2
        assert set(tree.members()) == {"u1", "u2"}

    def test_empty_slot_degree_constant(self):
        assert EMPTY_SLOT_DEGREE == -1


class TestDegreePushDown:
    def test_higher_degree_viewer_displaces_lower(self, tree):
        tree.insert("weak", 0, 0.0)  # CDN-fed leaf with no capacity
        result = tree.insert("strong", 3, 6.0)
        assert result.accepted
        assert result.displaced_node_id == "weak"
        # The strong viewer takes the CDN slot; the weak one becomes its child.
        assert tree.node("strong").parent_id == CDN_NODE_ID
        assert tree.node("weak").parent_id == "strong"
        tree.validate()

    def test_equal_degree_ties_break_on_capacity(self, tree):
        tree.insert("small", 1, 2.0)
        result = tree.insert("big", 1, 10.0)
        assert result.displaced_node_id == "small"
        assert tree.node("big").parent_id == CDN_NODE_ID

    def test_equal_degree_and_capacity_does_not_displace(self, tree):
        tree.insert("first", 1, 2.0)
        result = tree.insert("second", 1, 2.0)
        assert result.displaced_node_id is None
        assert result.parent_id == "first"

    def test_zero_degree_viewer_cannot_displace(self, tree):
        tree.insert("weak", 0, 2.0)
        result = tree.insert("weaker", 0, 1.0)
        # Cannot displace (no slot to host the displaced node); falls to CDN.
        assert result.accepted and result.via_cdn

    def test_displaced_node_keeps_its_children(self, tree):
        tree.insert("parent", 2, 4.0)
        tree.insert("child", 0, 0.0)
        assert tree.node("child").parent_id == "parent"
        tree.insert("strong", 3, 8.0)
        assert tree.node("strong").parent_id == CDN_NODE_ID
        assert tree.node("parent").parent_id == "strong"
        assert tree.node("child").parent_id == "parent"
        tree.validate()

    def test_displacement_updates_subtree_delays(self, tree):
        tree.insert("parent", 2, 4.0)
        tree.insert("child", 0, 0.0)
        before = tree.end_to_end_delay("child")
        tree.insert("strong", 3, 8.0)
        after = tree.end_to_end_delay("child")
        assert after == pytest.approx(before + 0.15)

    def test_high_degree_nodes_end_up_near_root(self, tree):
        # Insert ascending capacity so push-down has to reorder constantly.
        for index, degree in enumerate([0, 1, 2, 3, 4]):
            tree.insert(f"u{index}", degree, float(degree * 2))
        tree.validate()
        depths = {node_id: tree.depth_of(node_id) for node_id in tree.members()}
        degrees = {f"u{i}": d for i, d in enumerate([0, 1, 2, 3, 4])}
        # The highest-degree viewer is at least as shallow as the weakest one.
        assert depths["u4"] <= depths["u0"]

    def test_delay_bound_prevents_deep_placement(self, stream):
        model = DelayModel(LatencyMatrix(default_delay=0.4), processing_delay=2.0, cdn_delta=60.0)
        tree = StreamTree(stream, model, d_max=62.0)
        tree.insert("u1", 1, 2.0)
        # A child of u1 would sit at 60 + 2.4 > 62, so u2 must use the CDN.
        result = tree.insert("u2", 0, 0.0)
        assert result.accepted and result.via_cdn

    def test_rejected_when_cdn_delay_exceeds_dmax(self, stream):
        model = DelayModel(LatencyMatrix(), processing_delay=0.1, cdn_delta=70.0)
        tree = StreamTree(stream, model, d_max=65.0)
        result = tree.insert("u1", 1, 2.0)
        assert not result.accepted


class TestRemovalAndRecovery:
    def test_remove_orphans_children(self, tree):
        tree.insert("parent", 2, 4.0)
        tree.insert("child-a", 0, 0.0)
        tree.insert("child-b", 0, 0.0)
        removal = tree.remove("parent")
        assert removal.removed and removal.was_cdn_fed
        assert set(removal.orphaned_children) == {"child-a", "child-b"}
        assert "parent" not in tree

    def test_remove_unknown_node(self, tree):
        assert not tree.remove("ghost").removed

    def test_reattach_orphan_to_cdn(self, tree):
        tree.insert("parent", 1, 2.0)
        tree.insert("child", 0, 0.0)
        tree.remove("parent")
        result = tree.reattach_orphan("child", CDN_NODE_ID)
        assert result.accepted and result.via_cdn
        tree.validate()

    def test_reattach_orphan_to_viewer_with_slot(self, tree):
        tree.insert("a", 1, 4.0)
        tree.insert("b", 1, 2.0)   # becomes child of a
        tree.insert("c", 0, 0.0)   # becomes child of b
        tree.remove("b")
        result = tree.reattach_orphan("c", "a")
        assert result.accepted
        assert tree.node("c").parent_id == "a"
        tree.validate()

    def test_reattach_orphan_requires_free_slot(self, tree):
        tree.insert("a", 1, 4.0)
        tree.insert("b", 1, 2.0)   # child of a (a now full)
        tree.insert("c", 0, 0.0)   # child of b
        tree.remove("b")           # orphans c and frees a's slot
        tree.insert("d", 0, 0.0)   # takes a's freed slot
        result = tree.reattach_orphan("c", "a")
        assert not result.accepted

    def test_reattach_non_orphan_rejected(self, tree):
        tree.insert("a", 1, 4.0)
        tree.insert("b", 0, 0.0)
        with pytest.raises(ValueError):
            tree.reattach_orphan("b", CDN_NODE_ID)

    def test_attach_under_explicit_parent(self, tree):
        tree.insert("a", 2, 4.0)
        result = tree.attach_under("b", "a", 0, 0.0)
        assert result.accepted and result.parent_id == "a"
        result_full = tree.attach_under("c", "a", 0, 0.0)
        assert result_full.accepted
        result_reject = tree.attach_under("d", "a", 0, 0.0)
        assert not result_reject.accepted


class TestReparent:
    def test_reparent_to_cdn(self, tree):
        tree.insert("a", 1, 4.0)
        tree.insert("b", 1, 2.0)
        assert tree.node("b").parent_id == "a"
        result = tree.reparent("b", CDN_NODE_ID)
        assert result.accepted and result.via_cdn
        assert tree.node("b").parent_id == CDN_NODE_ID
        assert "b" not in tree.node("a").children
        tree.validate()

    def test_reparent_keeps_subtree_and_updates_delays(self, tree):
        tree.insert("a", 1, 4.0)
        tree.insert("b", 1, 2.0)
        tree.insert("c", 0, 0.0)
        assert tree.node("c").parent_id == "b"
        deep_delay = tree.end_to_end_delay("c")
        tree.reparent("b", CDN_NODE_ID)
        assert tree.node("c").parent_id == "b"
        assert tree.end_to_end_delay("c") < deep_delay
        tree.validate()

    def test_reparent_rejects_cycle(self, tree):
        tree.insert("a", 1, 4.0)
        tree.insert("b", 1, 2.0)
        result = tree.reparent("a", "b")
        assert not result.accepted

    def test_reattach_orphan_rejects_parent_inside_own_subtree(self, tree):
        # CDN -> a -> b -> c, then a leaves: b is an orphan with c below it.
        tree.insert("a", 1, 4.0)
        tree.insert("b", 1, 2.0)
        tree.insert("c", 1, 1.0)
        assert tree.node("c").parent_id == "b" and tree.node("c").free_slots == 1
        assert tree.remove("a").orphaned_children == ("b",)
        # Hanging b under its own child used to wire the b -> c -> b cycle
        # and never return from the subtree walk.
        with _deadline(10.0):
            result = tree.reattach_orphan("b", "c")
        assert not result.accepted
        assert result.reason == tree.reparent("c", "c").reason == "would create a cycle"
        assert tree.node("b").parent_id is None
        assert tree.node("c").children == []
        assert tree.reattach_orphan("b", CDN_NODE_ID).accepted
        tree.validate()

    def test_reattach_orphan_rejects_itself_as_parent(self, tree):
        tree.insert("a", 1, 4.0)
        tree.insert("b", 1, 2.0)
        tree.remove("a")  # b: a childless orphan with a free slot
        with _deadline(10.0):
            result = tree.reattach_orphan("b", "b")
        assert not result.accepted and result.reason == "would create a cycle"
        assert tree.node("b").parent_id is None and tree.node("b").children == []

    def test_reparent_noop_when_same_parent(self, tree):
        tree.insert("a", 1, 4.0)
        result = tree.reparent("a", CDN_NODE_ID)
        assert result.accepted
        assert tree.node("a").parent_id == CDN_NODE_ID

    def test_reparent_requires_free_slot(self, tree):
        tree.insert("a", 1, 4.0)
        tree.insert("b", 0, 0.0)   # fills a's only slot
        tree.insert("c", 0, 0.0)   # no slot left anywhere: served by the CDN
        assert tree.node("c").parent_id == CDN_NODE_ID
        result = tree.reparent("c", "a")
        assert not result.accepted


class TestAccounting:
    def test_free_slots_and_bandwidth(self, tree, stream):
        tree.insert("a", 2, 4.0)
        tree.insert("b", 1, 2.0)
        # b displaced nothing: a has 2 slots, one used by b; b has 1 free.
        assert tree.free_p2p_slots() == 2
        assert tree.free_p2p_bandwidth_mbps() == pytest.approx(2 * stream.bandwidth_mbps)

    def test_depth_of(self, tree):
        tree.insert("a", 1, 4.0)
        tree.insert("b", 1, 2.0)
        tree.insert("c", 0, 0.0)
        assert tree.depth_of("a") == 1
        assert tree.depth_of("b") == 2
        assert tree.depth_of("c") == 3

    def test_delay_violations_empty_within_bound(self, tree):
        tree.insert("a", 1, 4.0)
        tree.insert("b", 0, 0.0)
        assert tree.delay_violations() == []

    def test_validate_detects_overfull_node(self, tree):
        tree.insert("a", 1, 4.0)
        tree.insert("b", 0, 0.0)
        tree.node("a").children.append("ghost")
        tree._nodes["ghost"] = tree._nodes["b"]
        with pytest.raises(AssertionError):
            tree.validate()


class TestFreeSlotAccounting:
    def test_free_slots_count_detached_orphans_like_the_seed(self, tree):
        # Seed semantics: free_p2p_slots scans every member, including
        # orphans awaiting re-attachment after a removal.
        tree.insert("a", 2, 8.0)   # takes the CDN slot
        tree.insert("b", 3, 9.0)   # displaces a
        tree.insert("c", 1, 1.0)
        removal = tree.remove("b")
        assert removal.orphaned_children  # a (with its subtree) detached
        from reference_topology import ReferenceStreamTree

        reference = ReferenceStreamTree(tree.stream, tree.delay_model, d_max=tree.d_max)
        reference.insert("a", 2, 8.0)
        reference.insert("b", 3, 9.0)
        reference.insert("c", 1, 1.0)
        reference.remove("b")
        assert tree.free_p2p_slots() == reference.free_p2p_slots()
        assert tree.free_p2p_slots() > 0  # the detached subtree's slots count


class TestRootPositionIndex:
    """Displacements at the CDN root keep the displaced viewer's position."""

    @staticmethod
    def _cdn_fed(tree, count):
        # Zero-degree viewers offer no slot, so each lands under the CDN.
        for index in range(count):
            assert tree.insert(f"leaf-{index}", 0, 0.0).via_cdn
        return [f"leaf-{index}" for index in range(count)]

    def test_root_displacement_takes_over_the_position(self, tree):
        leaves = self._cdn_fed(tree, 5)
        result = tree.insert("big", 1, 5.0)
        assert result.via_cdn and result.displaced_node_id == "leaf-0"
        assert tree.cdn_children() == ["big"] + leaves[1:]
        assert tree._root_positions is not None
        tree.validate()

    def test_root_removal_drops_the_index_and_displacement_rebuilds_it(self, tree):
        leaves = self._cdn_fed(tree, 5)
        tree.remove("leaf-1")
        assert tree._root_positions is None  # positions behind it shifted
        tree.validate()
        tree.insert("big", 1, 5.0)  # displaces leaf-0 at the root
        assert tree.cdn_children() == ["big", "leaf-2", "leaf-3", "leaf-4"]
        assert tree._root_positions == {
            "big": 0, "leaf-2": 1, "leaf-3": 2, "leaf-4": 3
        }
        assert tree.reparent("leaf-0", CDN_NODE_ID).accepted  # appended
        assert tree._root_positions["leaf-0"] == 4
        tree.validate()

    def test_validate_detects_a_stale_root_index(self, tree):
        self._cdn_fed(tree, 3)
        tree._root_positions["leaf-0"], tree._root_positions["leaf-1"] = 1, 0
        with pytest.raises(AssertionError, match="root position index"):
            tree.validate()


class TestReferenceTreeSwap:
    """``bench_scale.py``'s reference leg: the frozen tree under the live controllers."""

    @staticmethod
    def _join_phase(tree_class, monkeypatch):
        import repro.core.group as group_module
        from repro.experiments.config import PAPER_CONFIG
        from repro.experiments.runner import build_scenario, build_telecast_system

        config = PAPER_CONFIG.with_scaled_population(200, num_lscs=3, num_views=1)
        scenario = build_scenario(config)
        with monkeypatch.context() as patch:
            patch.setattr(group_module, "StreamTree", tree_class)
            system = build_telecast_system(scenario)
            by_id = {viewer.viewer_id: viewer for viewer in scenario.viewers}
            for event in sorted(scenario.events, key=lambda e: (e.time, e.viewer_id)):
                if event.kind == "join":
                    view = scenario.views[event.view_index % len(scenario.views)]
                    system.join_viewer(by_id[event.viewer_id], view, event.time)
        snapshot = system.snapshot()
        return snapshot.acceptance_ratio, snapshot.num_viewers

    def test_swapped_in_reference_places_like_the_live_tree(self, monkeypatch):
        from reference_topology import ReferenceStreamTree

        live = self._join_phase(StreamTree, monkeypatch)
        assert live[1] > 0
        assert self._join_phase(ReferenceStreamTree, monkeypatch) == live
