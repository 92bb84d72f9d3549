"""Geographic regions and the node-to-region map.

4D TeleCast scales its Global Session Controller by partitioning viewers
into region-based clusters, each managed by a Local Session Controller.
The paper locates viewers with a topology-aware detector [15]; in the
simulation we simply assign every node a region label when the latency
matrix is generated and expose the mapping here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple


@dataclass(frozen=True)
class Region:
    """A geographic cluster of nodes served by one Local Session Controller."""

    region_id: int
    name: str

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.name


@dataclass
class RegionMap:
    """Mapping from node identifiers to :class:`Region` objects."""

    regions: List[Region] = field(default_factory=list)
    _assignment: Dict[str, Region] = field(default_factory=dict)

    def add_region(self, name: str) -> Region:
        """Create and register a new region."""
        region = Region(region_id=len(self.regions), name=name)
        self.regions.append(region)
        return region

    def assign(self, node_id: str, region: Region) -> None:
        """Assign a node to a region (overwrites any previous assignment)."""
        # ``add_region`` files a region at its own id: the one-slot slice
        # keeps ``in``'s identity-then-equality test, and no list scan.
        index = region.region_id
        if region not in self.regions[index : index + 1]:
            raise ValueError(f"unknown region {region!r}")
        self._assignment[node_id] = region

    def region_of(self, node_id: str) -> Region:
        """Return the region of ``node_id``; raises ``KeyError`` if unassigned."""
        return self._assignment[node_id]

    def __contains__(self, node_id: str) -> bool:
        return node_id in self._assignment

    def __len__(self) -> int:
        return len(self._assignment)


def shard_regions(
    region_names: Sequence[str], num_shards: int
) -> Tuple[Tuple[str, ...], ...]:
    """Cluster region names into ``num_shards`` balanced groups.

    Each shard is the service area of one Local Session Controller
    (``LSC-0`` serves shard 0, and so on).  Regions are dealt round-robin
    in sorted-name order, so the grouping is deterministic, balanced to
    within one region, and independent of the caller's ordering.  With
    more shards than regions the trailing shards are empty (their LSCs
    serve no mapped region and only receive fallback traffic).
    """
    if num_shards <= 0:
        raise ValueError("num_shards must be > 0")
    unique = sorted(set(region_names))
    shards: List[List[str]] = [[] for _ in range(num_shards)]
    for index, name in enumerate(unique):
        shards[index % num_shards].append(name)
    return tuple(tuple(shard) for shard in shards)
