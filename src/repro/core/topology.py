"""Per-stream overlay trees and the degree push-down algorithm (Section IV-B2).

For every accepted stream of every view group, 4D TeleCast maintains one
dissemination tree rooted at the CDN.  Joining viewers are placed by the
*degree push-down* algorithm (Algorithm 1): the tree is scanned level by
level (lowest out-degree first within a level) and the joining viewer
replaces the first node whose out-degree is smaller (ties broken by total
outbound capacity); the replaced node is pushed down to become a child of
the joining viewer.  Viewers that cannot displace anyone fill an empty
child slot if one exists within the delay bound, and otherwise fall back to
a direct CDN subscription.

The net effect is a flat tree in which high-capacity viewers sit near the
root -- which both maximises how many viewers fit within the delay bound
and gives viewers an incentive to contribute bandwidth (they receive
fresher layers).

Performance core
----------------
The seed implementation rebuilt and re-sorted every level on every insert
(an O(n log n) full-tree scan per join) and summed free slots across all
members per admission check.  This version keeps the *observable
behaviour bit-identical* (enforced by the randomized equivalence suite in
``tests/test_properties.py`` against ``ReferenceStreamTree`` in
``tests/reference_topology.py``) while
maintaining four incremental indices:

* **per-level member lists**, kept sorted by Algorithm 1's priority key
  ``(out_degree, outbound_capacity, node_id)`` -- the key is immutable
  per node (built once, stored on the node), so membership updates are
  single ``bisect``-insertions and the push-down scan walks a
  ready-sorted prefix instead of sorting,
* **per-level free-slot candidate lists** (same order) holding exactly
  the members with an unfilled child slot, so the empty-slot pass and
  :meth:`find_repair_parent` only ever look at viable parents,
* a **running free-slot total** making :meth:`free_p2p_slots` O(1); the
  seed recomputed it over all members on every join's supply check,
* a **root position index** (CDN-fed viewer -> position in
  ``root.children``): a displacement at the root takes over the
  displaced viewer's position without scanning a child list as long as
  the audience.  Appends extend it; a root removal shifts positions, so
  it is dropped there and rebuilt by the next root displacement.

Structural moves (displacement push-down, reparenting, orphan
re-attachment) re-settle whole subtrees in one batched walk using the
**cached per-edge hop delay** (``d_prop + delta`` memoized when the edge
forms) instead of re-querying the latency matrix per node -- the same
float additions the seed performed, so delays stay bit-identical.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Tuple

from repro.model.cdn import CDN_NODE_ID
from repro.model.stream import Stream
from repro.net.latency import DelayModel
from repro.util.validation import require_non_negative

#: Out-degree value the paper assigns to empty child slots.
EMPTY_SLOT_DEGREE = -1

#: Sort key type of the per-level indices.
_Key = Tuple[int, float, str]


@dataclass(slots=True)
class TreeNode:
    """A viewer's position in one stream tree, and its subscription to the stream.

    The node is the one record of the overlay edge to its parent: the
    viewer's session maps the stream to it (``ViewerSession.subscriptions``).

    ``out_degree`` is the number of children the viewer can serve for this
    stream (derived from its outbound allocation); ``outbound_capacity``
    is the viewer's total ``C_obw`` used only for tie-breaking.

    ``depth`` and ``hop_from_parent`` are maintained by
    :class:`StreamTree`: the depth feeds the per-level placement indices
    and the cached hop delay (``d_prop + delta`` of the edge from the
    parent; ``None`` for the root, CDN-fed and orphaned nodes) lets
    subtree moves recompute end-to-end delays without touching the
    latency matrix.
    """

    node_id: str
    out_degree: int
    outbound_capacity: float
    parent_id: Optional[str]
    end_to_end_delay: float
    children: List[str] = field(default_factory=list)
    depth: int = 0
    hop_from_parent: Optional[float] = None
    #: Whether the node is root-reachable and therefore present in the
    #: placement indices.  Orphaned subtrees (and anything mutated while
    #: inside one) stay out of the indices until re-attached, matching
    #: the seed's root-anchored scans that never reached them.
    attached: bool = False
    #: Algorithm 1's priority key.  None of its three parts changes after
    #: construction, so it is built once instead of on every index probe.
    sort_key: _Key = field(init=False, repr=False, compare=False)
    #: The viewer's subscription to the stream (the rest of its Table I
    #: row): the delay layer it receives at, the end-to-end delay that
    #: layer implies (>= ``end_to_end_delay``; the difference is the
    #: deliberate delayed receive) and the frame number sent to the parent
    #: as the subscription point when a push-down asked for frames back in
    #: time.  The subscription process writes them; the tree never reads
    #: them.
    layer: int = field(default=0, init=False)
    effective_delay: float = field(default=0.0, init=False)
    subscription_frame: Optional[int] = field(default=None, init=False)

    def __post_init__(self) -> None:
        self.sort_key = (self.out_degree, self.outbound_capacity, self.node_id)

    @property
    def via_cdn(self) -> bool:
        """Whether the CDN feeds the node directly."""
        return self.parent_id == CDN_NODE_ID

    @property
    def free_slots(self) -> int:
        """Number of unfilled child slots."""
        free = self.out_degree - len(self.children)
        return free if free > 0 else 0


class InsertResult(NamedTuple):
    """Outcome of inserting a viewer into a stream tree."""

    accepted: bool
    parent_id: Optional[str] = None
    end_to_end_delay: float = 0.0
    via_cdn: bool = False
    displaced_node_id: Optional[str] = None
    reason: str = ""


@dataclass(frozen=True)
class RemovalResult:
    """Outcome of removing a viewer from a stream tree."""

    removed: bool
    #: Children orphaned by the removal; they keep their own subtrees and
    #: must be re-attached (they are the paper's "victim viewers").
    orphaned_children: Tuple[str, ...] = ()
    #: Whether the removed node was fed directly by the CDN.
    was_cdn_fed: bool = False


class _Level:
    """Sorted member and free-slot-candidate indices of one tree depth."""

    __slots__ = ("members", "free")

    def __init__(self) -> None:
        #: All nodes at this depth, sorted by Algorithm 1's priority key.
        self.members: List[_Key] = []
        #: The subset with at least one unfilled child slot, same order.
        self.free: List[_Key] = []


def _sorted_remove(entries: List[_Key], key: _Key) -> None:
    """Remove ``key`` from a sorted key list (must be present)."""
    index = bisect_left(entries, key)
    if index >= len(entries) or entries[index] != key:
        raise AssertionError(f"index entry {key!r} missing from level list")
    del entries[index]


class StreamTree:
    """The dissemination tree of one stream within one view group."""

    def __init__(
        self,
        stream: Stream,
        delay_model: DelayModel,
        *,
        d_max: float = 65.0,
    ) -> None:
        require_non_negative(d_max, "d_max")
        self.stream = stream
        self.delay_model = delay_model
        self.d_max = d_max
        root = TreeNode(
            node_id=CDN_NODE_ID,
            out_degree=0,  # children of the root are always explicit CDN subscriptions
            outbound_capacity=float("inf"),
            parent_id=None,
            end_to_end_delay=delay_model.cdn_end_to_end(),
            depth=0,
            attached=True,
        )
        self._nodes: Dict[str, TreeNode] = {CDN_NODE_ID: root}
        #: ``_levels[d - 1]`` indexes the connected nodes at depth ``d``.
        self._levels: List[_Level] = []
        #: Maintained sum of free child slots over ALL members -- attached
        #: or (temporarily) orphaned -- matching the seed's full-member
        #: scan exactly.
        self._free_slots_total = 0
        #: Position of every CDN-fed viewer in ``root.children``, so a
        #: displacement at the root splices in O(1) however large the
        #: audience.  A root removal shifts the positions behind it and
        #: sets this to ``None``; the next root displacement rebuilds it.
        self._root_positions: Optional[Dict[str, int]] = {}

    # -- inspection ---------------------------------------------------------

    @property
    def root(self) -> TreeNode:
        """The virtual CDN root node."""
        return self._nodes[CDN_NODE_ID]

    def __contains__(self, node_id: str) -> bool:
        return node_id in self._nodes

    def node(self, node_id: str) -> TreeNode:
        """Return the node record of a member viewer (or the root)."""
        return self._nodes[node_id]

    def members(self) -> List[str]:
        """All viewer node ids currently in the tree (excluding the root)."""
        return [node_id for node_id in self._nodes if node_id != CDN_NODE_ID]

    def __len__(self) -> int:
        return len(self._nodes) - 1

    def cdn_children(self) -> List[str]:
        """Viewers served directly by the CDN for this stream."""
        return list(self.root.children)

    def depth_of(self, node_id: str) -> int:
        """Number of P2P hops between the CDN and ``node_id``."""
        depth = 0
        current = self._nodes[node_id]
        while current.parent_id is not None:
            depth += 1
            current = self._nodes[current.parent_id]
        return depth

    def subtree_ids(self, root_id: str) -> set:
        """All node ids in the subtree rooted at ``root_id`` (including itself).

        Unknown ids yield an empty set, so callers can probe victims that
        were already torn down without special-casing.
        """
        seen: set = set()
        stack = [root_id]
        while stack:
            node_id = stack.pop()
            if node_id in seen or node_id not in self._nodes:
                continue
            seen.add(node_id)
            stack.extend(self._nodes[node_id].children)
        return seen

    def find_repair_parent(self, orphan_id: str) -> Optional[str]:
        """Find the best adoptive parent for an orphaned member (subtree repair).

        The scan mirrors the level order of Algorithm 1 so repaired viewers
        land where a fresh degree push-down would have put them: the tree is
        walked level by level and, within a level, nodes with more free
        slots (ties broken by total outbound capacity) are preferred.  The
        orphan's own subtree is excluded -- it stays attached below the
        orphan -- and a candidate only qualifies when adopting the orphan
        keeps it within ``d_max``, so the returned parent can be handed
        straight to :meth:`reattach_orphan`.  Returns ``None`` when no
        member has usable forwarding capacity, which is the caller's cue to
        fall back to a direct CDN subscription.

        Unlike the seed's per-level BFS + full sort, only the maintained
        free-slot candidates of each level are considered (nodes without a
        free slot never qualified anyway), so repair cost tracks the
        number of viable parents, not the tree size.
        """
        if orphan_id not in self._nodes:
            return None
        blocked = self.subtree_ids(orphan_id)
        for level in self._levels:
            if not level.members:
                break
            candidates = sorted(
                (self._nodes[key[2]] for key in level.free if key[2] not in blocked),
                key=lambda n: (-n.free_slots, -n.outbound_capacity, n.node_id),
            )
            for candidate in candidates:
                delay = self.delay_model.end_to_end_via_parent(
                    candidate.end_to_end_delay, candidate.node_id, orphan_id
                )
                if delay <= self.d_max:
                    return candidate.node_id
        return None

    def free_p2p_slots(self) -> int:
        """Total unfilled child slots across all member viewers (O(1)).

        Counts every member -- including orphans awaiting re-attachment
        -- exactly like the seed's scan over the full node table.
        """
        return self._free_slots_total

    def free_p2p_bandwidth_mbps(self) -> float:
        """Unused forwarding bandwidth available inside the tree."""
        return self._free_slots_total * self.stream.bandwidth_mbps

    # -- index maintenance ---------------------------------------------------

    def _index_add(self, node: TreeNode) -> None:
        """Add a connected node to the level indices (free total unchanged:
        it tracks membership, not attachment); levels are created on demand."""
        levels = self._levels
        depth = node.depth
        while len(levels) < depth:
            levels.append(_Level())
        level = levels[depth - 1]
        key = node.sort_key
        insort(level.members, key)
        if node.out_degree > len(node.children):
            insort(level.free, key)
        node.attached = True

    def _index_remove(self, node: TreeNode) -> None:
        """Remove a node from the level indices."""
        level = self._levels[node.depth - 1]
        key = node.sort_key
        _sorted_remove(level.members, key)
        if node.out_degree > len(node.children):
            _sorted_remove(level.free, key)
        node.attached = False

    def _add_child(self, parent: TreeNode, child_id: str) -> None:
        """Append a child, keeping the free-slot index and total exact.

        The running total covers every member (the seed summed
        ``free_slots`` over all nodes, attached or orphaned); the
        per-level free list only tracks attached parents, since detached
        subtrees are outside the placement indices.  Children of the
        root are plain CDN subscriptions with no slot accounting.
        """
        if parent.node_id == CDN_NODE_ID:
            if self._root_positions is not None:
                self._root_positions[child_id] = len(parent.children)
            parent.children.append(child_id)
            return
        children = parent.children
        spare = parent.out_degree - len(children)
        children.append(child_id)
        if spare > 0:
            self._free_slots_total -= 1
            if spare == 1 and parent.attached:  # the last free slot just filled
                _sorted_remove(self._levels[parent.depth - 1].free, parent.sort_key)

    def _remove_child(self, parent: TreeNode, child_id: str) -> None:
        """Drop a child, keeping the free-slot index and total exact."""
        if parent.node_id == CDN_NODE_ID:
            parent.children.remove(child_id)
            self._root_positions = None
            return
        children = parent.children
        children.remove(child_id)
        spare = parent.out_degree - len(children)
        if spare > 0:
            self._free_slots_total += 1
            if spare == 1 and parent.attached:  # the first free slot just opened
                insort(self._levels[parent.depth - 1].free, parent.sort_key)

    def _replace_child(self, parent: TreeNode, old_id: str, new_id: str) -> None:
        """Put ``new_id`` at ``old_id``'s position among ``parent``'s children.

        A viewer's children are bounded by its out-degree; the root's
        grow with the audience, so its slot comes from the position index.
        """
        if parent.node_id != CDN_NODE_ID:
            parent.children[parent.children.index(old_id)] = new_id
            return
        positions = self._root_positions
        if positions is None:
            positions = {
                child_id: index for index, child_id in enumerate(parent.children)
            }
            self._root_positions = positions
        index = positions.pop(old_id)
        parent.children[index] = new_id
        positions[new_id] = index

    def _detach_subtree(self, root_id: str) -> None:
        """Remove a subtree from the indices (delays stay as-is, like the seed)."""
        stack = [root_id]
        while stack:
            node = self._nodes[stack.pop()]
            self._index_remove(node)
            stack.extend(node.children)

    def _settle_subtree(
        self,
        root_node: TreeNode,
        depth: int,
        root_delay: float,
        *,
        target_attached: bool,
    ) -> None:
        """Place a subtree at ``depth``, recomputing delays in one batched walk.

        The caller has already fixed the root's parent pointer and (if the
        edge changed) its cached hop; descendants reuse their cached edge
        hops, so the walk performs exactly the seed's additions
        (``parent_delay + hop``) without any latency-matrix lookups.

        Each node leaves the indices if it was attached and (re)enters
        them iff the new position is root-reachable (``target_attached``)
        -- moves inside or into detached subtrees keep the subtree out of
        the placement indices, like the seed's root-anchored scans.
        """
        nodes = self._nodes
        index_add = self._index_add
        index_remove = self._index_remove
        stack: List[Tuple[TreeNode, int, float]] = [(root_node, depth, root_delay)]
        pop = stack.pop
        push = stack.append
        while stack:
            node, node_depth, delay = pop()
            if node.attached:
                index_remove(node)
            node.depth = node_depth
            node.end_to_end_delay = delay
            if target_attached:
                index_add(node)
            node_depth += 1
            for child_id in node.children:
                child = nodes[child_id]
                push((child, node_depth, delay + child.hop_from_parent))

    # -- insertion (Algorithm 1) ---------------------------------------------

    def insert(
        self,
        node_id: str,
        out_degree: int,
        outbound_capacity: float,
        *,
        allow_cdn: bool = True,
    ) -> InsertResult:
        """Place a joining viewer using degree push-down.

        The scan honours the end-to-end delay bound ``d_max``: a placement
        (whether into an empty slot or by displacing a node) is rejected if
        it would put the joining viewer -- or, for displacements, the pushed
        down node -- beyond ``d_max``.  When no P2P placement exists the
        viewer is attached directly under the CDN root provided ``allow_cdn``
        is set (the caller is responsible for reserving CDN bandwidth).
        """
        if node_id in self._nodes:
            raise ValueError(f"{node_id} is already a member of the tree for {self.stream.stream_id}")
        require_non_negative(out_degree, "out_degree")

        placement = self._find_pushdown_placement(node_id, out_degree, outbound_capacity)
        if placement is not None:
            return placement

        if not allow_cdn:
            return InsertResult(accepted=False, reason="no P2P slot and CDN not allowed")
        delay = self.delay_model.cdn_end_to_end(node_id)
        if delay > self.d_max:
            return InsertResult(accepted=False, reason="CDN delay exceeds d_max")
        self._attach(node_id, CDN_NODE_ID, out_degree, outbound_capacity, delay)
        return InsertResult(True, CDN_NODE_ID, delay, True)

    def _find_pushdown_placement(
        self, node_id: str, out_degree: int, outbound_capacity: float
    ) -> Optional[InsertResult]:
        """Scan the maintained level indices for a push-down or empty-slot placement.

        Identical scan order to the seed's per-level sort: within a level,
        ascending ``(out_degree, outbound_capacity, node_id)``.  Because
        the member list is kept in exactly that order, the displaceable
        candidates -- those whose ``(degree, capacity)`` is strictly
        smaller than the joiner's -- form a prefix of the list, and the
        empty-slot pass reads the free-candidate list instead of skipping
        full nodes one by one.
        """
        insert_rank = (out_degree, outbound_capacity)
        nodes = self._nodes
        # A joiner without a child slot can never displace anyone (it must
        # host the displaced node), so the displacement pass -- which the
        # seed still walked candidate by candidate -- is skipped outright.
        can_displace = out_degree >= 1
        for level in self._levels:
            if not level.members:
                break  # levels are contiguous: nothing deeper either
            # First consider displacing a weaker node at this level.
            if can_displace:
                for key in level.members:
                    if (key[0], key[1]) >= insert_rank:
                        break  # sorted: no later candidate can be displaced
                    result = self._try_displace(
                        node_id, out_degree, outbound_capacity, nodes[key[2]]
                    )
                    if result is not None:
                        return result
            # Then consider empty slots of this level's nodes (the paper's
            # virtual children with out-degree -1, which live one level down
            # but are always weaker than any real node there).
            for key in level.free:
                result = self._try_fill_slot(
                    node_id, out_degree, outbound_capacity, nodes[key[2]]
                )
                if result is not None:
                    return result
        return None

    def _try_displace(
        self,
        node_id: str,
        out_degree: int,
        outbound_capacity: float,
        target: TreeNode,
    ) -> Optional[InsertResult]:
        """Displace ``target``: the new node takes its position, target becomes its child."""
        if out_degree < 1:
            # The new node must be able to host the displaced node as a child.
            return None
        parent = self._nodes[target.parent_id] if target.parent_id else None
        if parent is None:
            return None
        via_cdn = parent.node_id == CDN_NODE_ID
        if via_cdn:
            # Taking over a CDN slot: the paper assumes CDN-fed viewers see
            # exactly Delta regardless of which viewer occupies the slot.
            new_hop: Optional[float] = None
            new_delay = self.delay_model.cdn_end_to_end(node_id)
        else:
            new_hop = self.delay_model.hop_delay(parent.node_id, node_id)
            new_delay = parent.end_to_end_delay + new_hop
        pushed_hop = self.delay_model.hop_delay(node_id, target.node_id)
        pushed_delay = new_delay + pushed_hop
        if new_delay > self.d_max or pushed_delay > self.d_max:
            return None

        # Splice the new node into target's slot (same child count, so the
        # parent's free-slot standing is untouched).
        self._replace_child(parent, target.node_id, node_id)
        new_node = TreeNode(
            node_id,
            out_degree,
            outbound_capacity,
            parent.node_id,
            new_delay,
            [target.node_id],
            target.depth,
            new_hop,
        )
        self._nodes[node_id] = new_node
        self._free_slots_total += out_degree - 1  # >= 0: one slot hosts the target
        self._index_add(new_node)
        target.parent_id = node_id
        target.hop_from_parent = pushed_hop
        # The displaced subtree shifts down one level; delays re-settle
        # from the cached hops in a single batched walk.
        self._settle_subtree(
            target, target.depth + 1, pushed_delay, target_attached=True
        )
        return InsertResult(True, parent.node_id, new_delay, via_cdn, target.node_id)

    def _try_fill_slot(
        self,
        node_id: str,
        out_degree: int,
        outbound_capacity: float,
        parent: TreeNode,
    ) -> Optional[InsertResult]:
        """Attach the new node into an empty child slot of ``parent``."""
        hop = self.delay_model.hop_delay(parent.node_id, node_id)
        delay = parent.end_to_end_delay + hop
        if delay > self.d_max:
            return None
        self._attach(node_id, parent.node_id, out_degree, outbound_capacity, delay, hop)
        return InsertResult(True, parent.node_id, delay)

    def _attach(
        self,
        node_id: str,
        parent_id: str,
        out_degree: int,
        outbound_capacity: float,
        end_to_end_delay: float,
        hop: Optional[float] = None,
    ) -> None:
        parent = self._nodes[parent_id]
        node = TreeNode(
            node_id,
            out_degree,
            outbound_capacity,
            parent_id,
            end_to_end_delay,
            [],
            parent.depth + 1,
            hop,
        )
        self._nodes[node_id] = node
        # ``insert`` validated ``out_degree >= 0`` and the node has no
        # children yet, so its free slots are its whole out-degree.
        self._free_slots_total += out_degree
        self._add_child(parent, node_id)
        if parent.attached:
            self._index_add(node)

    # -- attachment of victims / explicit placements --------------------------

    def attach_under(
        self,
        node_id: str,
        parent_id: str,
        out_degree: int,
        outbound_capacity: float,
    ) -> InsertResult:
        """Attach a viewer under an explicit parent (victim recovery, CDN fast path)."""
        if node_id in self._nodes:
            raise ValueError(f"{node_id} is already in the tree")
        node = TreeNode(
            node_id=node_id,
            out_degree=out_degree,
            outbound_capacity=outbound_capacity,
            parent_id=None,
            end_to_end_delay=0.0,
        )
        result = self._hang(node, parent_id)
        if result.accepted:
            self._nodes[node_id] = node
            self._free_slots_total += node.free_slots
        return result

    def reparent(self, node_id: str, new_parent_id: str) -> InsertResult:
        """Move a member (with its subtree) under a new parent.

        Used by the delay-layer adaptation when a stream whose layer became
        unacceptable is re-provisioned from the CDN, and by victim recovery.
        The new parent must have a free slot (the CDN always does).
        """
        if node_id == CDN_NODE_ID or node_id not in self._nodes:
            raise ValueError(f"cannot reparent {node_id!r}")
        node = self._nodes[node_id]
        if new_parent_id == node.parent_id:
            return InsertResult(
                accepted=True,
                parent_id=new_parent_id,
                end_to_end_delay=node.end_to_end_delay,
                via_cdn=new_parent_id == CDN_NODE_ID,
            )
        return self._hang(node, new_parent_id)

    def _hang(self, node: TreeNode, parent_id: str) -> InsertResult:
        """Hang ``node`` -- new, orphaned or moving, subtree and all -- under a parent.

        The one place an explicit placement is checked and wired: the
        parent needs a free slot (the CDN always has one), a member --
        moving or orphaned -- must not end up below itself, a CDN-fed
        node sees the CDN delay and caches no hop while a viewer-fed one
        adds the edge's hop to its parent's delay, and the result must
        stay within ``d_max``.  A moving member then leaves its former
        parent, and the subtree re-settles in one batched walk.
        """
        node_id = node.node_id
        former_id = node.parent_id
        parent = self._nodes[parent_id]
        if parent_id != CDN_NODE_ID and parent.free_slots <= 0:
            return InsertResult(accepted=False, reason=f"{parent_id} has no free slot")
        ancestor = parent
        while ancestor is not node and ancestor.parent_id is not None:
            ancestor = self._nodes[ancestor.parent_id]
        if ancestor is node:  # the walk up from the parent reached the node
            return InsertResult(accepted=False, reason="would create a cycle")
        if parent_id == CDN_NODE_ID:
            hop: Optional[float] = None
            delay = self.delay_model.cdn_end_to_end(node_id)
        else:
            hop = self.delay_model.hop_delay(parent_id, node_id)
            delay = parent.end_to_end_delay + hop
        if delay > self.d_max:
            return InsertResult(accepted=False, reason="delay bound exceeded")
        if former_id is not None and node_id in self._nodes[former_id].children:
            self._remove_child(self._nodes[former_id], node_id)
        node.parent_id = parent_id
        node.hop_from_parent = hop
        self._add_child(parent, node_id)
        self._settle_subtree(
            node, parent.depth + 1, delay, target_attached=parent.attached
        )
        return InsertResult(
            accepted=True,
            parent_id=parent_id,
            end_to_end_delay=delay,
            via_cdn=parent_id == CDN_NODE_ID,
        )

    # -- removal --------------------------------------------------------------

    def remove(self, node_id: str) -> RemovalResult:
        """Remove a viewer, orphaning (not removing) its children.

        The orphaned children are the stream's victim viewers; the caller
        (adaptation component) re-attaches them, typically to the CDN first.
        Their subtrees stay intact below them.  Orphaned subtrees leave
        the placement indices until re-attached, exactly as the seed's
        root-anchored scans never reached them.
        """
        if node_id not in self._nodes or node_id == CDN_NODE_ID:
            return RemovalResult(removed=False)
        node = self._nodes[node_id]
        parent = self._nodes[node.parent_id] if node.parent_id else None
        was_cdn_fed = node.parent_id == CDN_NODE_ID
        if parent is not None and node_id in parent.children:
            self._remove_child(parent, node_id)
        orphans = tuple(node.children)
        was_attached = node.attached
        if was_attached:
            self._index_remove(node)
        self._free_slots_total -= node.free_slots
        for child_id in orphans:
            if was_attached:
                # Orphaned subtrees leave the placement indices until
                # re-attached (a node removed while already inside a
                # detached subtree has nothing to detach).
                self._detach_subtree(child_id)
            orphan = self._nodes[child_id]
            orphan.parent_id = None
            orphan.hop_from_parent = None
        del self._nodes[node_id]
        return RemovalResult(
            removed=True, orphaned_children=orphans, was_cdn_fed=was_cdn_fed
        )

    def reattach_orphan(self, node_id: str, parent_id: str) -> InsertResult:
        """Re-parent an orphaned (victim) node, keeping its subtree.

        Unlike :meth:`attach_under` the node already exists in the tree; only
        its parent pointer changes and delays are recomputed downward.
        """
        node = self._nodes[node_id]
        if node.parent_id is not None:
            raise ValueError(f"{node_id} is not an orphan")
        return self._hang(node, parent_id)

    # -- delays ---------------------------------------------------------------

    def end_to_end_delay(self, node_id: str) -> float:
        """Current end-to-end delay of the stream at ``node_id``."""
        return self._nodes[node_id].end_to_end_delay

    def delay_violations(self) -> List[str]:
        """Viewers whose current end-to-end delay exceeds ``d_max``."""
        return [
            node.node_id
            for node in self._nodes.values()
            if node.node_id != CDN_NODE_ID and node.end_to_end_delay > self.d_max
        ]

    def validate(self) -> None:
        """Internal consistency check (used by tests and property checks).

        Verifies parent/child symmetry, that no viewer exceeds its
        out-degree, that the structure is acyclic, and that the
        maintained placement indices (levels, free-slot candidates,
        running free total, depths, cached hops, root positions) agree
        with the actual tree shape.
        """
        for node in self._nodes.values():
            if node.node_id != CDN_NODE_ID and len(node.children) > node.out_degree:
                raise AssertionError(
                    f"{node.node_id} has {len(node.children)} children but degree {node.out_degree}"
                )
            for child_id in node.children:
                child = self._nodes[child_id]
                if child.parent_id != node.node_id:
                    raise AssertionError(
                        f"parent/child mismatch between {node.node_id} and {child_id}"
                    )
        # Cycle check: walking up from any node must reach the root.
        for node_id in self.members():
            seen = set()
            current = self._nodes[node_id]
            while current.parent_id is not None:
                if current.node_id in seen:
                    raise AssertionError(f"cycle detected at {current.node_id}")
                seen.add(current.node_id)
                current = self._nodes[current.parent_id]
            if current.node_id != CDN_NODE_ID:
                raise AssertionError(f"{node_id} is not connected to the CDN root")
        self._validate_indices()

    def _connected_by_depth(self) -> Dict[int, List[TreeNode]]:
        """Root-reachable viewers grouped by their true depth."""
        grouped: Dict[int, List[TreeNode]] = {}
        stack = [(self.root, 0)]
        while stack:
            node, depth = stack.pop()
            if node.node_id != CDN_NODE_ID:
                grouped.setdefault(depth, []).append(node)
            for child_id in node.children:
                stack.append((self._nodes[child_id], depth + 1))
        return grouped

    def _validate_indices(self) -> None:
        grouped = self._connected_by_depth()
        max_depth = max(grouped, default=0)
        for depth in range(1, max(max_depth, len(self._levels)) + 1):
            nodes = grouped.get(depth, [])
            level = self._levels[depth - 1] if depth - 1 < len(self._levels) else _Level()
            expected_members = sorted(node.sort_key for node in nodes)
            if level.members != expected_members:
                raise AssertionError(f"level {depth} member index out of sync")
            expected_free = sorted(
                node.sort_key for node in nodes if node.free_slots > 0
            )
            if level.free != expected_free:
                raise AssertionError(f"level {depth} free-slot index out of sync")
            for node in nodes:
                if not node.attached:
                    raise AssertionError(
                        f"reachable node {node.node_id} is marked detached"
                    )
                if node.depth != depth:
                    raise AssertionError(
                        f"{node.node_id} records depth {node.depth}, actual {depth}"
                    )
                if node.parent_id == CDN_NODE_ID:
                    if node.hop_from_parent is not None:
                        raise AssertionError(
                            f"CDN-fed {node.node_id} must not cache a hop delay"
                        )
                elif node.hop_from_parent is None:
                    raise AssertionError(f"{node.node_id} lost its cached hop delay")
        reachable = sum(len(nodes) for nodes in grouped.values())
        attached = sum(
            1
            for node in self._nodes.values()
            if node.attached and node.node_id != CDN_NODE_ID
        )
        if attached != reachable:
            raise AssertionError(
                f"{attached} nodes marked attached but {reachable} are reachable"
            )
        expected_total = sum(
            node.free_slots
            for node in self._nodes.values()
            if node.node_id != CDN_NODE_ID
        )
        if self._free_slots_total != expected_total:
            raise AssertionError(
                f"free-slot total {self._free_slots_total} != actual {expected_total}"
            )
        if self._root_positions is not None and self._root_positions != {
            child_id: index for index, child_id in enumerate(self.root.children)
        }:
            raise AssertionError("root position index out of sync")
