"""Pairwise latency model.

:class:`LatencyMatrix` stores one-way propagation delays between named
nodes (viewers, producer gateways, CDN edges, session controllers).
:class:`DelayModel` adds the per-hop components 4D TeleCast reasons about:
propagation delay (``d_prop``), parent processing delay (``delta``), and
the producer-to-CDN-to-first-child constant ``Delta``.

One matrix class serves both an explicit world (every delay set with
:meth:`LatencyMatrix.set_delay`) and a generated PlanetLab world
(:func:`~repro.net.planetlab.generate_planetlab_matrix`), whose pair
delays derive on first lookup from per-node keys.  Both kinds of delay
live in one dict keyed by the name pair in sorted order, so a lookup of
a known pair is one dict probe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from repro.net.planetlab import PlanetLabTraceConfig, _pair_delay
from repro.net.regions import RegionMap
from repro.util.validation import require_non_negative


class LatencyMatrix:
    """Symmetric one-way delay matrix over named nodes.

    ``nodes`` maps every registered node, in insertion order, to its
    generator key (:func:`~repro.net.planetlab.node_keys`), or to
    ``None`` for a node without one.  ``_known`` holds every known pair
    delay keyed by the name pair in sorted order: explicit
    :meth:`set_delay` values and derived draws alike.

    A pair that is not stored derives its delay when both nodes have a
    key -- the log-normal draw of
    :func:`~repro.net.planetlab._pair_delay` around the intra- or
    inter-region median of ``config`` -- and is stored from then on, so
    overlay construction only ever materializes the pairs it touches.
    Any other unknown pair answers ``default_delay``, which lets
    experiments add late-joining nodes (e.g. CDN edge servers) without
    regenerating the matrix.
    """

    def __init__(
        self,
        *,
        default_delay: float = 0.05,
        keys: Optional[Mapping[str, int]] = None,
        config: Optional[PlanetLabTraceConfig] = None,
    ) -> None:
        require_non_negative(default_delay, "default_delay")
        if config is None:
            config = PlanetLabTraceConfig()
        self.default_delay = default_delay
        self.nodes: Dict[str, Optional[int]] = dict(keys) if keys else {}
        self.regions = RegionMap()
        self._known: Dict[Tuple[str, str], float] = {}
        self._log_intra = math.log(config.intra_region_median)
        self._log_inter = math.log(config.inter_region_median)
        self._sigma = config.sigma

    def add_node(self, node_id: str) -> None:
        """Register a node (idempotent)."""
        self.nodes.setdefault(node_id, None)

    def set_delay(self, a: str, b: str, delay: float) -> None:
        """Set the one-way delay between ``a`` and ``b`` (seconds).

        The value replaces any derived draw of the pair.  A self pair is
        refused: :meth:`delay` answers 0.0 for it whatever is stored.
        """
        require_non_negative(delay, "delay")
        if a == b:
            raise ValueError(f"a node has no delay to itself: {a!r}")
        self.nodes.setdefault(a, None)
        self.nodes.setdefault(b, None)
        self._known[(a, b) if a <= b else (b, a)] = delay

    def delay(self, a: str, b: str) -> float:
        """Return the one-way delay between ``a`` and ``b`` (seconds)."""
        value = self._known.get((a, b) if a <= b else (b, a))
        if value is not None:
            return value
        if a == b:
            return 0.0
        return self._derive(a, b)

    def _derive(self, a: str, b: str) -> float:
        """A miss: derive and store the pair's draw, or the flat default."""
        nodes = self.nodes
        key_a = nodes.get(a)
        key_b = nodes.get(b)
        if key_a is None or key_b is None:
            return self.default_delay
        # The regions of one map have distinct ids, so comparing ids is
        # ``Region.__eq__`` without the generated method call.
        region_of = self.regions.region_of
        region_a = region_of(a)
        region_b = region_of(b)
        same_region = region_a is region_b or region_a.region_id == region_b.region_id
        log_median = self._log_intra if same_region else self._log_inter
        if a > b:  # pair draws are symmetric in sorted-name order
            a, b = b, a
            key_a, key_b = key_b, key_a
        delay = _pair_delay(key_a, key_b, log_median, self._sigma)
        self._known[(a, b)] = delay
        return delay

    def pairs(self) -> Iterable[Tuple[str, str, float]]:
        """Every stored ``(a, b, delay)`` with ``a < b``, in storage order."""
        for (a, b), value in self._known.items():
            yield a, b, value

    def explicit_pair_count(self) -> int:
        """Number of pairs with a stored delay (set or derived)."""
        return len(self._known)


@dataclass
class DelayModel:
    """End-to-end delay components used by the overlay and layering logic.

    Attributes
    ----------
    matrix:
        Pairwise propagation delays.
    processing_delay:
        ``delta`` in the paper: internal processing plus buffering delay a
        frame incurs when relayed through a parent viewer (seconds).
    cdn_delta:
        ``Delta`` in the paper: the (assumed constant) delay from capture at
        the producer until a frame is available at a viewer served directly
        by the CDN.  The paper's evaluation uses 60 seconds.
    control_processing_delay:
        Processing time of a single control-plane step (join handling,
        bandwidth allocation, topology formation) at a controller.
    """

    matrix: LatencyMatrix
    processing_delay: float = 0.1
    cdn_delta: float = 60.0
    control_processing_delay: float = 0.05

    def __post_init__(self) -> None:
        require_non_negative(self.processing_delay, "processing_delay")
        require_non_negative(self.cdn_delta, "cdn_delta")
        require_non_negative(
            self.control_processing_delay, "control_processing_delay"
        )

    def propagation(self, a: str, b: str) -> float:
        """One-way propagation delay between two nodes (seconds)."""
        return self.matrix.delay(a, b)

    def rtt(self, a: str, b: str) -> float:
        """Round-trip time between two nodes (seconds)."""
        return 2.0 * self.propagation(a, b)

    def hop_delay(self, parent: str, child: str) -> float:
        """Delay added by one P2P relay hop: ``d_prop + delta``."""
        return self.propagation(parent, child) + self.processing_delay

    def approx_hop_delays(
        self, parents: Iterable[str], child: str
    ) -> Optional[List[float]]:
        """Always ``None``: there is no batched hop-delay path.

        The method stays only because ``benchmarks/e2e/layers.py`` binds
        the name as a span point; ROADMAP items 1(d)/3 remove it.
        """
        return None

    def end_to_end_via_parent(
        self, parent_end_to_end: float, parent: str, child: str
    ) -> float:
        """End-to-end delay of a stream at ``child`` when relayed by ``parent``."""
        require_non_negative(parent_end_to_end, "parent_end_to_end")
        return parent_end_to_end + self.hop_delay(parent, child)

    def cdn_end_to_end(self, viewer: Optional[str] = None) -> float:
        """End-to-end delay of a stream served directly from the CDN.

        The paper assumes ``d_CDN + d_prop + delta = Delta`` for CDN-fed
        viewers, i.e. a constant regardless of the particular viewer, so the
        ``viewer`` argument is accepted but unused.  It is kept in the
        signature to allow per-viewer relaxation (Section V-B1 notes the
        constraint "can be easily relaxed").
        """
        return self.cdn_delta
