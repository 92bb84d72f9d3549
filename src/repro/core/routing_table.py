"""The session overlay routing table (Table I of the paper).

Every viewer gateway keeps a *session routing table* in its data plane.
When a frame of a stream arrives from a parent, it is matched against the
table's match field (stream id + parent id); for every forwarding address
in the matching entry whose action is ``forward``, a frame is picked from
the viewer's buffer/cache at the child's *subscription point* and relayed.

The table is a view, not a store: :meth:`ViewGroup.routing_table_of
<repro.core.group.ViewGroup.routing_table_of>` builds it on read (with
:meth:`SessionRoutingTable.upsert` and :meth:`RoutingEntry.add_child`) from
the viewer's subscriptions and the children of its tree nodes, so join,
stream subscription and adaptation update it by moving those.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, NamedTuple, Optional

from repro.model.stream import StreamId


class ForwardingAction(str, Enum):
    """Per-child action of a routing entry.

    The paper always uses ``forward`` but reserves ``drop`` and future
    transformations (re-encoding, rate control) in the action field.
    """

    FORWARD = "forward"
    DROP = "drop"
    ENCODE = "encoding"
    RATE_CONTROL = "rate"


class MatchField(NamedTuple):
    """Match field of a routing entry: (parent viewer, stream id).

    Tuple-backed like :class:`~repro.model.stream.StreamId`: a match
    field hashes and compares as the plain tuple ``(parent_id,
    stream_id)``, so the table probes with that tuple and only builds a
    ``MatchField`` when it stores a new entry.
    """

    parent_id: str
    stream_id: StreamId

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.parent_id}:{self.stream_id}"


@dataclass(slots=True)
class ChildForwardingState:
    """Forwarding state for one child of one stream."""

    child_id: str
    action: ForwardingAction = ForwardingAction.FORWARD
    subscription_frame: Optional[int] = None


@dataclass(slots=True)
class RoutingEntry:
    """One row of the session routing table.

    A row corresponds to one received stream (identified by the match
    field) and lists all children that stream is forwarded to, each with
    its own action and subscription point.
    """

    match: MatchField
    children: Dict[str, ChildForwardingState] = field(default_factory=dict)

    def add_child(
        self,
        child_id: str,
        *,
        action: ForwardingAction = ForwardingAction.FORWARD,
        subscription_frame: Optional[int] = None,
    ) -> None:
        """Add (or overwrite) a forwarding address."""
        self.children[child_id] = ChildForwardingState(
            child_id, action, subscription_frame
        )

    # ``remove_child`` and ``SessionRoutingTable.remove`` / ``remove_stream`` /
    # ``reparent`` lost their last caller in ``src/`` when the table became
    # a view; the frozen benchmark binds all four by name
    # (``benchmarks/e2e/layers.py``), so they leave with their span points
    # in the next ``[benchmark]`` PR (ROADMAP item 1).
    def remove_child(self, child_id: str) -> bool:
        """Remove a forwarding address; returns ``True`` if it existed."""
        return self.children.pop(child_id, None) is not None

    def forwarding_targets(self) -> List[ChildForwardingState]:
        """Children whose action is ``forward`` (the data plane's fan-out set)."""
        return [
            state
            for state in self.children.values()
            if state.action is ForwardingAction.FORWARD
        ]


class SessionRoutingTable:
    """The per-viewer session routing table."""

    def __init__(self) -> None:
        self._entries: Dict[MatchField, RoutingEntry] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def entries(self) -> List[RoutingEntry]:
        """All routing entries."""
        return list(self._entries.values())

    def upsert(self, parent_id: str, stream_id: StreamId) -> RoutingEntry:
        """Create (or fetch) the entry for a received stream."""
        entry = self._entries.get((parent_id, stream_id))
        if entry is None:
            match = MatchField(parent_id, stream_id)
            entry = RoutingEntry(match, {})
            self._entries[match] = entry
        return entry

    def lookup(self, parent_id: str, stream_id: StreamId) -> Optional[RoutingEntry]:
        """Exact-match lookup used by the data plane on frame arrival."""
        return self._entries.get((parent_id, stream_id))

    def lookup_stream(self, stream_id: StreamId) -> Optional[RoutingEntry]:
        """Find the entry for a stream regardless of which parent delivers it."""
        for match, entry in self._entries.items():
            if match.stream_id == stream_id:
                return entry
        return None

    def remove(self, parent_id: str, stream_id: StreamId) -> bool:
        """Drop the entry of a stream (e.g. after a view change)."""
        return self._entries.pop((parent_id, stream_id), None) is not None

    def remove_stream(self, stream_id: StreamId) -> int:
        """Drop every entry of a stream; returns the number removed."""
        matches = [m for m in self._entries if m.stream_id == stream_id]
        for match in matches:
            del self._entries[match]
        return len(matches)

    def reparent(self, stream_id: StreamId, new_parent_id: str) -> RoutingEntry:
        """Move a stream's entry under a new parent, keeping its children."""
        existing = self.lookup_stream(stream_id)
        new_entry = self.upsert(new_parent_id, stream_id)
        if existing is not None and existing.match.parent_id != new_parent_id:
            new_entry.children.update(existing.children)
            del self._entries[existing.match]
        return new_entry

    def streams(self) -> List[StreamId]:
        """All streams the viewer currently has entries for."""
        return [match.stream_id for match in self._entries]

    def children_of(self, stream_id: StreamId) -> List[str]:
        """All children the viewer forwards ``stream_id`` to."""
        entry = self.lookup_stream(stream_id)
        if entry is None:
            return []
        return list(entry.children)
