"""The experimental configuration of Section VII.

The paper's setup: 2 producer sites with 8 camera streams each (from a
TEEVE light-saber session), every stream bounded by 2 Mbps; a CDN that
delivers with a constant 60 s delay (``Delta``); 10--1000 viewers with
12 Mbps inbound capacity and 0--14 Mbps outbound capacity; views of 6
streams (3 per site); ``d_max`` = 65 s, gateway buffer 300 ms, cache 25 s,
``kappa`` = 2; pairwise viewer delays from PlanetLab traces; CDN outbound
capacity bounded to 6000 Mbps for the capped experiments.

Choices the paper leaves open (documented here and in DESIGN.md):

* viewers pick among 8 candidate views (one per camera orientation) with
  Zipf(1.0) popularity -- the multi-view scenario the paper's title and
  grouping design target,
* the per-hop relay processing delay is 100 ms,
* the Random baseline probes 3 random peers per stream before falling back
  to the CDN and performs all-or-nothing admission (it has no
  priority-based degradation).  Both are fixed in
  :mod:`repro.baselines.random_routing` (``PROBE_COUNT``), not fields here.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, fields, replace
from typing import List, Optional, Tuple

from repro.core.dataplane import DataPlaneConfig
from repro.core.layering import DelayLayerConfig
from repro.core.recovery import DEFAULT_HEARTBEAT_PERIOD
from repro.traces.workload import (
    BandwidthDistribution,
    ChurnConfig,
    OscillationConfig,
    OutageConfig,
    WorkloadConfig,
)
from repro.util.validation import require_non_negative, require_positive


def clamp_shard_workers(requested: int, num_lscs: int) -> int:
    """Shard workers actually usable: at most one per LSC, warning on a clamp.

    The LSC is the shard unit and the placement rule
    (:func:`repro.experiments.runner.place_lscs`) gives every worker at
    least one LSC only while workers do not outnumber LSCs; a worker
    beyond that would host nothing.  Shared by
    ``ExperimentConfig(shard_workers=...)`` and
    ``run_sharded_scenario(num_workers=...)`` so both requests warn alike.
    """
    if requested > num_lscs:
        warnings.warn(
            f"shard_workers={requested} exceeds "
            f"num_lscs={num_lscs}; clamping to {num_lscs} "
            "(the LSC is the shard unit, extra workers would idle)",
            # Both callers sit two frames below the user's call
            # (__init__ -> __post_init__, run_sharded_scenario ->
            # resolve_worker_count), so 4 names the user's line.
            stacklevel=4,
        )
        return num_lscs
    return requested


@dataclass(frozen=True)
class ExperimentConfig:
    """Full parameterisation of one simulated 4D TeleCast scenario."""

    # Producers (Section VII: 2 sites x 8 streams, 2 Mbps each).
    num_sites: int = 2
    cameras_per_site: int = 8
    stream_bandwidth_mbps: float = 2.0
    frame_rate: float = 10.0

    # Views (3 streams per site per view; 8 candidate view orientations).
    num_views: int = 8
    view_popularity_alpha: float = 1.0

    # Viewers.
    num_viewers: int = 1000
    outbound: BandwidthDistribution = field(
        default_factory=lambda: BandwidthDistribution.uniform(0.0, 12.0)
    )

    # CDN and delays.
    cdn_capacity_mbps: float = 6000.0
    cdn_delta: float = 60.0
    d_max: float = 65.0
    buffer_duration: float = 0.3
    cache_duration: float = 25.0
    kappa: int = 2
    processing_delay: float = 0.1
    control_processing_delay: float = 0.05

    # Workload dynamics.
    view_change_probability: float = 0.0
    departure_probability: float = 0.0
    arrival_rate_per_second: Optional[float] = None
    session_duration: float = 300.0
    #: Churn overlay (Poisson failures, mass-leave, flash-crowd mix);
    #: ``None`` keeps the schedule free of abrupt departures.
    churn: Optional[ChurnConfig] = None
    #: Correlated regional outage: one LSC crashes together with a
    #: fraction of its viewers in a single event (``None`` disables).
    outage: Optional[OutageConfig] = None
    #: Join/leave oscillation overlay targeted at scarce P2P slots
    #: (``None`` disables).
    oscillation: Optional[OscillationConfig] = None
    #: Heartbeat timeout of the per-LSC failure detectors.
    heartbeat_timeout: float = 10.0

    # Control plane.
    #: Number of Local Session Controllers; with more than one, the
    #: latency trace's geographic regions are sharded across them and
    #: every viewer joins through the LSC of its region (Section III).
    num_lscs: int = 1
    #: How workload events reach the controllers: ``"instant"`` applies
    #: every operation the moment its event fires (the seed semantics,
    #: pinned by the golden smoke test); ``"simulated"`` delivers typed
    #: control messages with in-flight latency on the event engine, so
    #: concurrent joins, stale view changes and heartbeat-driven failure
    #: detection become first-class, deterministic outcomes.
    control_plane: str = "instant"
    #: Interval between two heartbeat messages of a connected viewer (and
    #: the failure-sweep period) under the simulated control plane.
    heartbeat_period: float = DEFAULT_HEARTBEAT_PERIOD
    #: Multiplier on every simulated control-message transit delay;
    #: ``0.0`` forces instant delivery (placement then matches the
    #: instant control plane exactly), ``1.0`` uses the latency matrix.
    control_delay_scale: float = 1.0

    # Data plane.
    #: How frames reach the viewers after the control-plane run:
    #: ``"off"`` skips the frame replay entirely (the seed semantics,
    #: golden-pinned); ``"simulated"`` replays the TEEVE trace through
    #: the built overlay as event-driven data messages with per-edge
    #: bandwidth serialization, loss and QoE playout accounting.
    data_plane: str = "off"
    #: Mean per-frame, per-edge loss rate of the simulated data plane
    #: (the stationary rate of each edge's Gilbert-Elliott channel).
    data_loss_rate: float = 0.0
    #: Expected consecutive-loss run length of that channel; ``1.0`` is
    #: i.i.d. loss, longer runs are bursts at the same mean rate.
    data_mean_burst_length: float = 1.0
    #: Multiplier on each edge's reserved forwarding rate (``None``
    #: removes the bandwidth model: zero serialization delay).
    data_bandwidth_headroom: Optional[float] = 1.0
    #: Period of the observed-delay ``kappa`` layer refresh during the
    #: replay (``None`` disables the feedback loop).
    data_refresh_interval: Optional[float] = 5.0
    #: Truncate every stream's trace to its first N frames during the
    #: simulated replay (``None`` replays the full trace).
    replay_frames_per_stream: Optional[int] = None

    # Performance core.
    #: Worker processes of the shard-parallel engine (``repro.parallel``):
    #: each group of LSCs (dealt to workers by load, heaviest LSC first
    #: onto the least-loaded worker) runs its controller,
    #: stream trees and event loop in its own process, with cross-shard
    #: failovers resolved at deterministic barriers.  ``None`` or ``1``
    #: keeps the regular single-process path; values above ``num_lscs``
    #: are clamped to it.  Requires ``control_plane="instant"`` and
    #: ``data_plane="off"``.
    shard_workers: Optional[int] = None

    # Reproducibility.
    seed: int = 7
    latency_seed: int = 3
    baseline_seed: int = 11
    churn_seed: int = 13

    def __post_init__(self) -> None:
        require_positive(self.num_viewers, "num_viewers")
        require_positive(self.num_views, "num_views")
        require_positive(self.stream_bandwidth_mbps, "stream_bandwidth_mbps")
        require_positive(self.num_lscs, "num_lscs")
        if self.control_plane not in ("instant", "simulated"):
            raise ValueError(
                f"control_plane must be 'instant' or 'simulated', "
                f"got {self.control_plane!r}"
            )
        require_positive(self.heartbeat_period, "heartbeat_period")
        if self.data_plane not in ("off", "simulated"):
            raise ValueError(
                f"data_plane must be 'off' or 'simulated', got {self.data_plane!r}"
            )
        if self.shard_workers is not None:
            require_positive(self.shard_workers, "shard_workers")
            if self.shard_workers > 1 and (
                self.control_plane != "instant" or self.data_plane != "off"
            ):
                raise ValueError(
                    "shard_workers > 1 requires control_plane='instant' and "
                    "data_plane='off' (the simulated planes are whole-system "
                    "event loops)"
                )
            # Clamp here so the docstring's promise holds at construction
            # time instead of every consumer re-deriving it.
            object.__setattr__(
                self,
                "shard_workers",
                clamp_shard_workers(self.shard_workers, self.num_lscs),
            )
        require_positive(self.cdn_capacity_mbps, "cdn_capacity_mbps")
        # The data_*, delay-layer and workload rules live on the configs
        # handed out: building each one applies them here, before any
        # world is built, whether or not the data plane is on.
        self._data_plane_config()
        self.layer_config()
        self.workload_config()
        # Whatever those rules let through must still be a number: an
        # infinite delay scale starts a daemon whose joins never deliver,
        # a NaN frame rate fails far from its cause, and an infinite
        # processing delay or stream rate completes with nonsense.  Only
        # the uncapped CDN (Figure 13(a)) is infinite by design.
        for item in fields(self):
            value = getattr(self, item.name)
            if (
                isinstance(value, float)
                and not math.isfinite(value)
                and (item.name, value) != ("cdn_capacity_mbps", math.inf)
            ):
                raise ValueError(f"{item.name} must be finite, got {value}")
        require_non_negative(self.control_delay_scale, "control_delay_scale")

    @property
    def streams_per_view(self) -> int:
        """Number of streams in every view request (3 per site)."""
        return self.num_sites * 3

    @property
    def demand_mbps(self) -> float:
        """Aggregate bandwidth demand when every viewer receives a full view."""
        return self.num_viewers * self.streams_per_view * self.stream_bandwidth_mbps

    def layer_config(self) -> DelayLayerConfig:
        """The delay-layer configuration implied by these parameters."""
        return DelayLayerConfig(
            delta=self.cdn_delta,
            buffer_duration=self.buffer_duration,
            kappa=self.kappa,
            d_max=self.d_max,
            cache_duration=self.cache_duration,
        )

    def workload_config(self) -> WorkloadConfig:
        """The viewer-workload parameters implied by these parameters."""
        return WorkloadConfig(
            num_viewers=self.num_viewers,
            outbound=self.outbound,
            num_views=self.num_views,
            view_popularity_alpha=self.view_popularity_alpha,
            arrival_rate_per_second=self.arrival_rate_per_second,
            view_change_probability=self.view_change_probability,
            departure_probability=self.departure_probability,
            session_duration=self.session_duration,
            buffer_duration=self.buffer_duration,
            cache_duration=self.cache_duration,
        )

    def data_plane_config(self) -> Optional[DataPlaneConfig]:
        """The simulated data-plane parameters, or ``None`` when off."""
        if self.data_plane == "off":
            return None
        return self._data_plane_config()

    def _data_plane_config(self) -> DataPlaneConfig:
        return DataPlaneConfig(
            loss_rate=self.data_loss_rate,
            mean_burst_length=self.data_mean_burst_length,
            bandwidth_headroom=self.data_bandwidth_headroom,
            refresh_interval=self.data_refresh_interval,
            max_frames_per_stream=self.replay_frames_per_stream,
            seed=self.seed,
        )

    def with_(self, **overrides) -> "ExperimentConfig":
        """Return a copy with the given fields replaced."""
        return replace(self, **overrides)

    def with_scaled_population(self, num_viewers: int, **overrides) -> "ExperimentConfig":
        """Copy at a different population with the CDN cap scaled along.

        Keeps the paper's supply/demand balance (6000 Mbps per 1000
        viewers) so capped experiments stay comparable across scales.
        An unbounded CDN stays unbounded.
        """
        require_positive(num_viewers, "num_viewers")
        capacity = self.cdn_capacity_mbps * num_viewers / self.num_viewers
        return self.with_(
            num_viewers=num_viewers, cdn_capacity_mbps=capacity, **overrides
        )

    def with_outbound(self, distribution: BandwidthDistribution) -> "ExperimentConfig":
        """Copy with a different outbound-capacity distribution."""
        return self.with_(outbound=distribution)

    def with_uncapped_cdn(self) -> "ExperimentConfig":
        """Copy with an unbounded CDN (used by Figure 13(a))."""
        return self.with_(cdn_capacity_mbps=math.inf)

    def with_seed(self, seed: int) -> "ExperimentConfig":
        """Copy with every RNG seed re-derived from one value.

        The world, the workload, the churn overlay, the baseline and the
        outage victim draw vary together, so a seed sweep (scenario
        presets, the daemon's ``--seed``) samples whole runs.
        """
        updates = {
            "seed": seed,
            "latency_seed": seed + 1,
            "churn_seed": seed + 2,
            "baseline_seed": seed + 3,
        }
        if self.outage is not None:
            updates["outage"] = replace(self.outage, seed=seed + 4)
        return self.with_(**updates)


#: The defaults of Section VII with a bounded 6000 Mbps CDN.
PAPER_CONFIG = ExperimentConfig()

#: The outbound-bandwidth settings swept by Figure 13 (fixed values and ranges).
FIGURE_13_BANDWIDTH_SETTINGS: Tuple[BandwidthDistribution, ...] = (
    BandwidthDistribution.fixed(0.0),
    BandwidthDistribution.fixed(2.0),
    BandwidthDistribution.fixed(4.0),
    BandwidthDistribution.fixed(6.0),
    BandwidthDistribution.fixed(8.0),
    BandwidthDistribution.fixed(10.0),
    BandwidthDistribution.uniform(0.0, 12.0),
    BandwidthDistribution.uniform(2.0, 10.0),
    BandwidthDistribution.uniform(4.0, 14.0),
)


def viewer_counts(maximum: int, step: int = 100) -> List[int]:
    """The population sizes at which scaling figures report data points."""
    if maximum <= 0:
        raise ValueError("maximum must be > 0")
    counts = list(range(step, maximum + 1, step))
    if not counts or counts[-1] != maximum:
        counts.append(maximum)
    return counts
