"""Metric collectors for a running 4D TeleCast (or baseline) session.

Two kinds of measurements feed the paper's figures:

* **cumulative request accounting** -- every join or view-change request
  contributes its requested and accepted stream counts to the acceptance
  ratio, and its control-plane latency to the overhead CDFs,
* **instantaneous snapshots** -- connected viewers, CDN bandwidth usage
  and the fraction of active subscriptions served by the CDN, all counts
  read off the live session state at a chosen population size.  The
  per-viewer distributions of Figure 14(a)/(b) are not snapshot fields:
  they are one read on the live system
  (:meth:`~repro.core.telecast.TeleCastSystem.viewer_maps`).
"""

from __future__ import annotations

from dataclasses import Field, dataclass, field, fields
from typing import Dict, List, Optional

from repro.metrics.reservoir import ReservoirSample
from repro.metrics.stats import percentile


@dataclass(frozen=True)
class SystemSnapshot:
    """Instantaneous state of the dissemination system, as counts.

    A snapshot holds no per-viewer field, so taking one -- the
    ``snapshot_every`` cadence or the final one of a run -- never copies
    the audience.

    Attributes
    ----------
    num_viewers:
        Connected viewers at snapshot time (accepted requests only).
    num_requests:
        All viewers that attempted to join so far (accepted or not).
    active_subscriptions:
        Stream subscriptions currently being delivered.
    cdn_subscriptions:
        Subscriptions currently served directly by the CDN.
    cdn_outbound_mbps:
        Outbound CDN bandwidth currently reserved.
    acceptance_ratio:
        Cumulative accepted / requested streams over all requests so far.
    """

    num_viewers: int
    num_requests: int
    active_subscriptions: int
    cdn_subscriptions: int
    cdn_outbound_mbps: float
    acceptance_ratio: float

    @property
    def cdn_fraction(self) -> float:
        """Fraction of active subscriptions served directly by the CDN."""
        if self.active_subscriptions == 0:
            return 0.0
        return self.cdn_subscriptions / self.active_subscriptions

    @property
    def p2p_subscriptions(self) -> int:
        """Subscriptions served by other viewers."""
        return self.active_subscriptions - self.cdn_subscriptions


#: When :meth:`SessionMetrics.summary` carries a counter: always, only if
#: the simulated control plane ran (a message was sent), only if the data
#: plane ran (a frame was sent), or never.  The conditional rules keep
#: instant-mode summaries byte-for-byte what the golden record pins.
ALWAYS, CONTROL, DATA, NEVER = "always", "control", "data", "never"


def _counter(help: str, summary: str = ALWAYS, *, label: str = ""):
    """Declare an integer counter: its ``/metrics`` help and summary rule.

    Exported as ``repro_<field>_total``; with ``label``, the last word of
    the field name is that label's value on the family the rest names
    (``repaired_subscriptions_p2p`` -> ``{path="p2p"}``).
    """
    metadata = {"kind": "counter", "help": help, "summary": summary, "label": label}
    return field(default=0, metadata=metadata)


def _series(help: str, *summary: str):
    """Declare a sample series: its help and its summary statistics.

    A series field is a plural noun; its keys use the singular
    (:data:`SERIES`).  A non-empty series adds ``<key>_<stat>`` to the
    summary for each ``stat`` (``"mean"`` or ``"p<q>"``); the daemon
    reports ``<key>_quantiles`` / ``<key>_count`` and exports a
    ``{quantile}`` family.
    """
    metadata = {"kind": "series", "help": help, "summary": summary}
    return field(default_factory=ReservoirSample, metadata=metadata)


_REPAIRED = "Subscriptions re-parented after failures, by repair path"


@dataclass
class SessionMetrics:
    """Cumulative per-session counters and raw latency samples.

    Every counter and series is declared once, on its field, with
    :func:`_counter` / :func:`_series`: ``merge_from``, ``summary``, the
    daemon's ``stats`` and the ``/metrics`` exporter loop over
    :data:`COUNTERS` and :data:`SERIES`, so a new metric is its field
    and its ``record_*`` line.
    """

    total_requested_streams: int = _counter("Streams requested", NEVER)
    total_accepted_streams: int = _counter("Requested streams admitted", NEVER)
    accepted_requests: int = _counter("Requests accepted")
    rejected_requests: int = _counter("Requests rejected")
    sync_dropped_streams: int = _counter("Admitted streams view sync dropped again")
    victim_events: int = _counter("Subscriptions orphaned by leaves and view changes")
    recovered_victims: int = _counter("Orphaned subscriptions re-parented")
    lost_victim_subscriptions: int = _counter("Orphaned subscriptions lost", NEVER)
    abrupt_departures: int = _counter("Abrupt departures repaired")
    repaired_subscriptions_p2p: int = _counter(_REPAIRED, label="path")
    repaired_subscriptions_cdn: int = _counter(_REPAIRED, label="path")
    lost_repair_subscriptions: int = _counter("Subscriptions no repair parent could take")
    lsc_failovers: int = _counter("Controller failovers executed")
    failover_migrated_viewers: int = _counter("Viewers a failover moved to another LSC")
    failover_lost_viewers: int = _counter("Viewers no surviving LSC could re-admit")
    #: Raw sample series are bounded reservoirs
    #: (:class:`~repro.metrics.reservoir.ReservoirSample`), not plain
    #: lists: a long-lived service session records samples forever, and
    #: the reservoir caps memory while keeping percentile summaries a
    #: uniform estimate.  Below the cap (every batch scenario) the
    #: reservoir is the exact sample list, so goldens are unaffected.
    join_delays: ReservoirSample = _series("Analytic join latency", "p50", "p95")
    view_change_delays: ReservoirSample = _series(
        "Analytic view-change latency", "p50", "p95"
    )
    #: Observed (simulated-clock) latencies recorded by the event-driven
    #: control plane: the time from a viewer's intent until the matching
    #: ack/notify message was delivered.  Empty under the instant control
    #: plane, whose delays are the analytic estimates above -- comparing
    #: the two distributions is how the paper's delay model is validated.
    observed_join_delays: ReservoirSample = _series(
        "Observed end-to-end join exchange latency", "p50", "p95"
    )
    observed_view_change_delays: ReservoirSample = _series(
        "Observed end-to-end view-change exchange latency", "p50", "p95"
    )
    observed_repair_delays: ReservoirSample = _series(
        "Observed detection-to-notify repair latency", "p50"
    )
    #: Control-message traffic of the event-driven driver; all zero under
    #: the instant control plane.  ``stale_control_messages`` counts
    #: deliveries whose subject already left the session (races).
    control_messages_sent: int = _counter("Control messages put in flight", CONTROL)
    control_messages_delivered: int = _counter("Control messages delivered", CONTROL)
    stale_control_messages: int = _counter("Deliveries after the subject left", CONTROL)
    #: QoE measurements of the simulated data plane; all empty/zero when
    #: the frame replay did not run (instant summaries stay golden).
    qoe_startup_delays: ReservoirSample = _series(
        "Replay start to the latest first arrival among delivering streams", "p50", "p95"
    )
    qoe_continuities: ReservoirSample = _series("Playback continuity", "mean")
    qoe_playable_continuities: ReservoirSample = _series(
        "Concealment-aware playable continuity", "mean"
    )
    qoe_skews: ReservoirSample = _series("Gateway-arrival skew", "p50", "p99")
    qoe_playout_skews: ReservoirSample = _series(
        "Renderer-visible inter-stream playout skew", "p99"
    )
    qoe_dbuff: float = 0.0
    data_frames_sent: int = _counter("Data-plane frames sent", DATA)
    data_frames_delivered: int = _counter("Data-plane frames delivered", DATA)
    data_frames_lost: int = _counter("Data-plane frames lost", DATA)
    data_frames_late: int = _counter("Frames past their playout deadline", DATA)
    data_frames_dropped: int = _counter("Frames of streams the refresh dropped", DATA)
    #: Streams adjusted / dropped by the observed-delay layer refresh.
    observed_layer_adjustments: int = _counter("Streams the refresh re-layered", DATA)
    observed_streams_dropped: int = _counter("Streams the refresh dropped", DATA)
    snapshots: List[SystemSnapshot] = field(default_factory=list)
    #: Wall-clock seconds spent per phase ("build", "join", "view_change",
    #: "churn", "replay", "metrics"), populated only by profiled runs
    #: (``python -m repro.experiments run --profile``).  Deliberately kept
    #: out of :meth:`summary` so profiling never perturbs stored sweep
    #: records or golden metrics.
    phase_timings: Dict[str, float] = field(default_factory=dict)

    # -- recording -----------------------------------------------------------

    def add_phase_time(self, phase: str, seconds: float) -> None:
        """Accumulate wall-clock time spent in one phase of a profiled run."""
        self.phase_timings[phase] = self.phase_timings.get(phase, 0.0) + seconds

    def record_join(
        self,
        *,
        requested: int,
        accepted: int,
        join_delay: float,
        request_accepted: bool,
        dropped_by_sync: int = 0,
    ) -> None:
        """Record the outcome of one join request."""
        self.total_requested_streams += requested
        self.total_accepted_streams += accepted
        if request_accepted:
            self.accepted_requests += 1
        else:
            self.rejected_requests += 1
        self.sync_dropped_streams += dropped_by_sync
        self.join_delays.append(join_delay)

    def record_view_change(
        self,
        *,
        requested: int,
        accepted: int,
        change_delay: float,
        request_accepted: bool,
    ) -> None:
        """Record the outcome of one view-change request."""
        self.total_requested_streams += requested
        self.total_accepted_streams += accepted
        if request_accepted:
            self.accepted_requests += 1
        else:
            self.rejected_requests += 1
        self.view_change_delays.append(change_delay)

    def record_observed_join(self, delay: float) -> None:
        """Record the observed latency of one simulated join exchange."""
        self.observed_join_delays.append(delay)

    def record_observed_view_change(self, delay: float) -> None:
        """Record the observed latency of one simulated view-change exchange."""
        self.observed_view_change_delays.append(delay)

    def record_observed_repair(self, delay: float) -> None:
        """Record the observed detection-to-notify latency of one repair."""
        self.observed_repair_delays.append(delay)

    def record_stale_message(self) -> None:
        """Count a control message delivered after its subject left."""
        self.stale_control_messages += 1

    def record_control_traffic(self, *, sent: int, delivered: int) -> None:
        """Accumulate the control-channel counters of one driver run.

        Stale deliveries are recorded individually via
        :meth:`record_stale_message` as the driver observes them.
        """
        self.control_messages_sent += sent
        self.control_messages_delivered += delivered

    def record_qoe(self, report) -> None:
        """Accumulate the QoE report of one simulated data-plane replay.

        ``report`` is a :class:`repro.core.dataplane.QoEReport`; the raw
        per-viewer samples are kept so :meth:`summary` can report
        percentiles, and the frame counters add up across replays.
        """
        self.qoe_startup_delays.extend(report.startup_delays())
        self.qoe_continuities.extend(report.continuities())
        self.qoe_playable_continuities.extend(report.playable_continuities())
        self.qoe_skews.extend(report.skews())
        self.qoe_playout_skews.extend(report.playout_skews())
        self.qoe_dbuff = report.d_buff
        self.data_frames_sent += report.frames_sent
        self.data_frames_delivered += report.frames_delivered
        self.data_frames_lost += report.frames_lost
        self.data_frames_late += report.frames_late
        self.data_frames_dropped += report.frames_dropped

    def record_observed_refresh(self, *, adjusted: int, dropped: int) -> None:
        """Record one observed-delay layer refresh that changed streams."""
        self.observed_layer_adjustments += adjusted
        self.observed_streams_dropped += dropped

    def record_victims(self, *, victims: int, recovered: int) -> None:
        """Record a victim-recovery episode (departure or view change)."""
        self.victim_events += victims
        self.recovered_victims += recovered
        self.lost_victim_subscriptions += max(0, victims - recovered)

    def record_repair(
        self, *, repaired_p2p: int, repaired_cdn: int, lost: int
    ) -> None:
        """Record the repair outcome of one abrupt departure."""
        self.abrupt_departures += 1
        self.repaired_subscriptions_p2p += repaired_p2p
        self.repaired_subscriptions_cdn += repaired_cdn
        self.lost_repair_subscriptions += lost

    def record_failover(self, *, migrated: int, lost: int) -> None:
        """Record the outcome of one LSC failover."""
        self.lsc_failovers += 1
        self.failover_migrated_viewers += migrated
        self.failover_lost_viewers += lost

    def add_snapshot(self, snapshot: SystemSnapshot) -> None:
        """Store an instantaneous system snapshot (e.g. every 100 viewers)."""
        self.snapshots.append(snapshot)

    def merge_from(self, other: "SessionMetrics") -> None:
        """Fold another session's metrics into this one (shard merge).

        The shard-parallel engine (:mod:`repro.parallel`) records metrics
        per worker and merges them in shard-index order, so the merged
        object is a deterministic function of the run.  Counters add up;
        sample series are extended with the other side's retained values
        (exact below the reservoir cap, where every batch scenario
        lives, so order-insensitive summaries -- percentiles, means --
        match a single-process run recording the same sample multiset);
        snapshots are concatenated (each shard keeps its own
        ``snapshot_every`` cadence over its own joins).
        """
        for name in COUNTERS:
            setattr(self, name, getattr(self, name) + getattr(other, name))
        for series in SERIES.values():
            getattr(self, series.name).extend(getattr(other, series.name))
        if other.qoe_dbuff:
            self.qoe_dbuff = other.qoe_dbuff
        self.snapshots.extend(other.snapshots)
        for phase, seconds in other.phase_timings.items():
            self.add_phase_time(phase, seconds)

    # -- derived -----------------------------------------------------------------

    @property
    def acceptance_ratio(self) -> float:
        """Cumulative acceptance ratio ``rho`` = accepted / requested streams."""
        if self.total_requested_streams == 0:
            return 1.0
        return self.total_accepted_streams / self.total_requested_streams

    @property
    def request_acceptance_ratio(self) -> float:
        """Fraction of whole viewer requests that were accepted."""
        total = self.accepted_requests + self.rejected_requests
        if total == 0:
            return 1.0
        return self.accepted_requests / total

    def snapshot_at(self, num_viewers: int) -> Optional[SystemSnapshot]:
        """The first stored snapshot with at least ``num_viewers`` requests."""
        for snapshot in self.snapshots:
            if snapshot.num_requests >= num_viewers:
                return snapshot
        return None

    def summary(self) -> Dict[str, float]:
        """Machine-readable scalar summary of the session.

        The flat dict is what the sweep results store persists per point
        (``repro.experiments.sweep``); every value is a plain number so
        the record round-trips through JSON unchanged.
        """
        summary: Dict[str, float] = {
            "acceptance_ratio": self.acceptance_ratio,
            "request_acceptance_ratio": self.request_acceptance_ratio,
        }
        ran = {
            ALWAYS: True,
            CONTROL: bool(self.control_messages_sent),
            DATA: bool(self.data_frames_sent),
            NEVER: False,
        }
        for name, counter in COUNTERS.items():
            if ran[counter.metadata["summary"]]:
                summary[name] = getattr(self, name)
        for key, series in SERIES.items():
            samples = getattr(self, series.name)
            for stat in series.metadata["summary"] if samples else ():
                summary[f"{key}_{stat}"] = (
                    sum(samples) / len(samples)
                    if stat == "mean"
                    else percentile(samples, float(stat[1:]))
                )
        if self.qoe_playout_skews:
            within = sum(
                1 for skew in self.qoe_playout_skews if skew <= self.qoe_dbuff + 1e-9
            )
            summary["qoe_skew_within_dbuff"] = within / len(self.qoe_playout_skews)
        return summary


#: The declared counters (by field name) and series (by key: the singular
#: of the field name, ``join_delays`` -> ``join_delay``, ``qoe_continuities``
#: -> ``qoe_continuity``), in field order: what ``merge_from``, ``summary``,
#: the daemon's ``stats`` and the ``/metrics`` exporter loop over.
COUNTERS: Dict[str, Field] = {
    f.name: f for f in fields(SessionMetrics) if f.metadata.get("kind") == "counter"
}
SERIES: Dict[str, Field] = {
    (f.name[:-3] + "y" if f.name.endswith("ies") else f.name[:-1]): f
    for f in fields(SessionMetrics)
    if f.metadata.get("kind") == "series"
}
