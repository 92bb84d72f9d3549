"""Frozen pre-refactor StreamTree: the executable placement spec.

This is the seed implementation of the degree push-down tree, kept
verbatim (O(n) level scans, per-node delay recomputation through the
delay model) under the name :class:`ReferenceStreamTree`.  It exists for
two purposes only:

* the randomized equivalence suite in ``tests/test_properties.py``
  replays identical operation sequences through this class and the
  indexed :class:`~repro.core.topology.StreamTree` and asserts
  bit-identical results and tree shapes, and
* ``benchmarks/bench_scale.py`` swaps it in at ``repro.core.group`` to
  measure the join-phase speedup of the indexed implementation against
  the pre-refactor path (``tests/test_core_topology.py`` pins that the
  swapped-in join phase places every viewer as the live tree does).

The controllers keep a viewer's subscription on its tree node, so the
node carries the one read-only view they need, ``via_cdn``; the
subscription fields they write are plain attributes.  Do not use it in
production code and do not "fix" it -- behaviour changes here silently
weaken the equivalence guarantee.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.model.cdn import CDN_NODE_ID
from repro.model.stream import Stream, StreamId
from repro.net.latency import DelayModel
from repro.util.validation import require_non_negative

#: Out-degree value the paper assigns to empty child slots.
EMPTY_SLOT_DEGREE = -1


@dataclass
class TreeNode:
    """A viewer's position in one stream tree.

    ``out_degree`` is the number of children the viewer can serve for this
    stream (derived from its outbound allocation); ``outbound_capacity``
    is the viewer's total ``C_obw`` used only for tie-breaking.
    """

    node_id: str
    out_degree: int
    outbound_capacity: float
    parent_id: Optional[str]
    end_to_end_delay: float
    children: List[str] = field(default_factory=list)

    @property
    def free_slots(self) -> int:
        """Number of unfilled child slots."""
        return max(0, self.out_degree - len(self.children))

    @property
    def via_cdn(self) -> bool:
        """Whether the CDN feeds this node directly."""
        return self.parent_id == CDN_NODE_ID


@dataclass(frozen=True)
class InsertResult:
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


class ReferenceStreamTree:
    """Pre-refactor dissemination tree (see module docstring)."""

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
        )
        self._nodes: Dict[str, TreeNode] = {CDN_NODE_ID: root}

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
        """
        if orphan_id not in self._nodes:
            return None
        blocked = self.subtree_ids(orphan_id)
        frontier = [nid for nid in self.root.children if nid not in blocked]
        while frontier:
            candidates = sorted(
                (self._nodes[nid] for nid in frontier),
                key=lambda n: (-n.free_slots, -n.outbound_capacity, n.node_id),
            )
            for candidate in candidates:
                if candidate.free_slots <= 0:
                    continue
                delay = self.delay_model.end_to_end_via_parent(
                    candidate.end_to_end_delay, candidate.node_id, orphan_id
                )
                if delay <= self.d_max:
                    return candidate.node_id
            next_frontier: List[str] = []
            for candidate in candidates:
                next_frontier.extend(
                    nid for nid in candidate.children if nid not in blocked
                )
            frontier = next_frontier
        return None

    def free_p2p_slots(self) -> int:
        """Total unfilled child slots across all member viewers."""
        return sum(
            node.free_slots for node in self._nodes.values() if node.node_id != CDN_NODE_ID
        )

    def free_p2p_bandwidth_mbps(self) -> float:
        """Unused forwarding bandwidth available inside the tree."""
        return self.free_p2p_slots() * self.stream.bandwidth_mbps

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
        return InsertResult(
            accepted=True,
            parent_id=CDN_NODE_ID,
            end_to_end_delay=delay,
            via_cdn=True,
        )

    def _find_pushdown_placement(
        self, node_id: str, out_degree: int, outbound_capacity: float
    ) -> Optional[InsertResult]:
        """Scan the tree level by level for a push-down or empty-slot placement."""
        frontier: List[str] = list(self.root.children)
        while frontier:
            # Ascending out-degree (ties by capacity) so the weakest node at
            # the shallowest level is displaced first, per Algorithm 1's
            # priority queues.
            level_nodes = sorted(
                (self._nodes[nid] for nid in frontier),
                key=lambda n: (n.out_degree, n.outbound_capacity, n.node_id),
            )
            # First consider displacing a weaker node at this level.
            for candidate in level_nodes:
                if self._displaces(out_degree, outbound_capacity, candidate):
                    result = self._try_displace(
                        node_id, out_degree, outbound_capacity, candidate
                    )
                    if result is not None:
                        return result
            # Then consider empty slots of this level's nodes (the paper's
            # virtual children with out-degree -1, which live one level down
            # but are always weaker than any real node there).
            for candidate in level_nodes:
                if candidate.free_slots > 0:
                    result = self._try_fill_slot(
                        node_id, out_degree, outbound_capacity, candidate
                    )
                    if result is not None:
                        return result
            next_frontier: List[str] = []
            for candidate in level_nodes:
                next_frontier.extend(candidate.children)
            frontier = next_frontier
        return None

    @staticmethod
    def _displaces(out_degree: int, outbound_capacity: float, target: TreeNode) -> bool:
        """Algorithm 1's comparison: strictly larger degree, or equal degree and larger capacity."""
        if out_degree > target.out_degree:
            return True
        return out_degree == target.out_degree and outbound_capacity > target.outbound_capacity

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
        if parent.node_id == CDN_NODE_ID:
            # Taking over a CDN slot: the paper assumes CDN-fed viewers see
            # exactly Delta regardless of which viewer occupies the slot.
            new_delay = self.delay_model.cdn_end_to_end(node_id)
        else:
            new_delay = self.delay_model.end_to_end_via_parent(
                parent.end_to_end_delay, parent.node_id, node_id
            )
        pushed_delay = self.delay_model.end_to_end_via_parent(
            new_delay, node_id, target.node_id
        )
        if new_delay > self.d_max or pushed_delay > self.d_max:
            return None

        # Splice the new node into target's slot.
        index = parent.children.index(target.node_id)
        parent.children[index] = node_id
        new_node = TreeNode(
            node_id=node_id,
            out_degree=out_degree,
            outbound_capacity=outbound_capacity,
            parent_id=parent.node_id,
            end_to_end_delay=new_delay,
            children=[target.node_id],
        )
        self._nodes[node_id] = new_node
        target.parent_id = node_id
        self._recompute_delays(target.node_id)
        return InsertResult(
            accepted=True,
            parent_id=parent.node_id,
            end_to_end_delay=new_delay,
            via_cdn=parent.node_id == CDN_NODE_ID,
            displaced_node_id=target.node_id,
        )

    def _try_fill_slot(
        self,
        node_id: str,
        out_degree: int,
        outbound_capacity: float,
        parent: TreeNode,
    ) -> Optional[InsertResult]:
        """Attach the new node into an empty child slot of ``parent``."""
        delay = self.delay_model.end_to_end_via_parent(
            parent.end_to_end_delay, parent.node_id, node_id
        )
        if delay > self.d_max:
            return None
        self._attach(node_id, parent.node_id, out_degree, outbound_capacity, delay)
        return InsertResult(
            accepted=True,
            parent_id=parent.node_id,
            end_to_end_delay=delay,
            via_cdn=False,
        )

    def _attach(
        self,
        node_id: str,
        parent_id: str,
        out_degree: int,
        outbound_capacity: float,
        end_to_end_delay: float,
    ) -> None:
        self._nodes[node_id] = TreeNode(
            node_id=node_id,
            out_degree=out_degree,
            outbound_capacity=outbound_capacity,
            parent_id=parent_id,
            end_to_end_delay=end_to_end_delay,
        )
        self._nodes[parent_id].children.append(node_id)

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
        parent = self._nodes[parent_id]
        if parent_id != CDN_NODE_ID and parent.free_slots <= 0:
            return InsertResult(accepted=False, reason=f"{parent_id} has no free slot")
        delay = self.delay_model.end_to_end_via_parent(
            parent.end_to_end_delay, parent_id, node_id
        )
        if parent_id == CDN_NODE_ID:
            delay = self.delay_model.cdn_end_to_end(node_id)
        if delay > self.d_max:
            return InsertResult(accepted=False, reason="delay bound exceeded")
        self._attach(node_id, parent_id, out_degree, outbound_capacity, delay)
        return InsertResult(
            accepted=True,
            parent_id=parent_id,
            end_to_end_delay=delay,
            via_cdn=parent_id == CDN_NODE_ID,
        )

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
        new_parent = self._nodes[new_parent_id]
        if new_parent_id != CDN_NODE_ID and new_parent.free_slots <= 0:
            return InsertResult(accepted=False, reason=f"{new_parent_id} has no free slot")
        # Reject cycles: the new parent must not be a descendant of the node.
        ancestor = new_parent
        while ancestor.parent_id is not None:
            if ancestor.node_id == node_id:
                return InsertResult(accepted=False, reason="would create a cycle")
            ancestor = self._nodes[ancestor.parent_id]
        if new_parent_id == CDN_NODE_ID:
            delay = self.delay_model.cdn_end_to_end(node_id)
        else:
            delay = self.delay_model.end_to_end_via_parent(
                new_parent.end_to_end_delay, new_parent_id, node_id
            )
        if delay > self.d_max:
            return InsertResult(accepted=False, reason="delay bound exceeded")
        if node.parent_id is not None and node_id in self._nodes[node.parent_id].children:
            self._nodes[node.parent_id].children.remove(node_id)
        node.parent_id = new_parent_id
        node.end_to_end_delay = delay
        new_parent.children.append(node_id)
        self._recompute_delays(node_id, include_root=False)
        return InsertResult(
            accepted=True,
            parent_id=new_parent_id,
            end_to_end_delay=delay,
            via_cdn=new_parent_id == CDN_NODE_ID,
        )

    # -- removal --------------------------------------------------------------

    def remove(self, node_id: str) -> RemovalResult:
        """Remove a viewer, orphaning (not removing) its children.

        The orphaned children are the stream's victim viewers; the caller
        (adaptation component) re-attaches them, typically to the CDN first.
        Their subtrees stay intact below them.
        """
        if node_id not in self._nodes or node_id == CDN_NODE_ID:
            return RemovalResult(removed=False)
        node = self._nodes[node_id]
        parent = self._nodes[node.parent_id] if node.parent_id else None
        was_cdn_fed = node.parent_id == CDN_NODE_ID
        if parent is not None and node_id in parent.children:
            parent.children.remove(node_id)
        orphans = tuple(node.children)
        for child_id in orphans:
            self._nodes[child_id].parent_id = None
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
        parent = self._nodes[parent_id]
        if parent_id != CDN_NODE_ID and parent.free_slots <= 0:
            return InsertResult(accepted=False, reason=f"{parent_id} has no free slot")
        if parent_id == CDN_NODE_ID:
            delay = self.delay_model.cdn_end_to_end(node_id)
        else:
            delay = self.delay_model.end_to_end_via_parent(
                parent.end_to_end_delay, parent_id, node_id
            )
        if delay > self.d_max:
            return InsertResult(accepted=False, reason="delay bound exceeded")
        node.parent_id = parent_id
        node.end_to_end_delay = delay
        parent.children.append(node_id)
        self._recompute_delays(node_id, include_root=False)
        return InsertResult(
            accepted=True,
            parent_id=parent_id,
            end_to_end_delay=delay,
            via_cdn=parent_id == CDN_NODE_ID,
        )

    # -- delays ---------------------------------------------------------------

    def _recompute_delays(self, subtree_root_id: str, *, include_root: bool = True) -> None:
        """Recompute end-to-end delays for a subtree after a structural change."""
        stack = [subtree_root_id]
        first = True
        while stack:
            current_id = stack.pop()
            current = self._nodes[current_id]
            if current.parent_id is not None and (include_root or not first):
                parent = self._nodes[current.parent_id]
                if current.parent_id == CDN_NODE_ID:
                    current.end_to_end_delay = self.delay_model.cdn_end_to_end(current_id)
                else:
                    current.end_to_end_delay = self.delay_model.end_to_end_via_parent(
                        parent.end_to_end_delay, parent.node_id, current_id
                    )
            first = False
            stack.extend(current.children)

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
        out-degree, and that the structure is acyclic.
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
