"""Churn and failure recovery: detection, incremental subtree repair, failover.

The paper's evaluation stresses "large-scale simultaneous viewer arrivals
or departures", yet a graceful ``leave`` message is the best case: real
viewers crash, lose connectivity or are killed mid-session, and each such
abrupt departure strands the entire subtree below the viewer in every
stream tree it was forwarding.  This module makes recovery from those
events an explicit subsystem with three parts:

* **Failure detection** -- every connected viewer periodically renews a
  heartbeat with its Local Session Controller.  A sweep of the
  :class:`FailureDetector` declares any viewer silent for longer than the
  timeout failed and triggers the same repair path as an explicit abrupt
  departure.  Under the instant control plane heartbeats are bookkeeping
  calls; under the simulated one
  (:class:`~repro.core.session.EventDrivenSession`) they are messages
  with in-flight latency, sent every :data:`DEFAULT_HEARTBEAT_PERIOD`
  seconds and settled arithmetically from a ledger, so a slow or lossy
  control path can produce spurious failures -- a first-class outcome.
* **Incremental subtree repair** -- orphaned viewers keep their subtrees
  and are re-parented in place by the one repair loop
  (:meth:`LocalSessionController.repair_orphans
  <repro.core.controllers.LocalSessionController.repair_orphans>`), here
  in P2P-first order: the degree push-down level order
  (:meth:`~repro.core.topology.StreamTree.find_repair_parent`) first, a
  direct CDN subscription only when no forwarding capacity remains.  The
  alternative -- tearing the orphaned subtrees down and pushing every
  affected viewer through the full join pipeline again -- is the baseline
  that the ``churn.*`` rows of ``benchmarks/bench_claims.py`` time it
  against.
* **LSC failover** -- when a Local Session Controller itself fails, its
  sessions are evicted (:func:`evict_sessions`: CDN share released,
  region mappings collected) and re-admitted at the nearest surviving LSC
  through normal joins (:func:`readmit_sessions`).  :func:`failover_lsc`
  runs both halves in one process; the shard-parallel engine runs them in
  two, on either side of a barrier.

Repair preserves the tree and delay-layer invariants: every re-parented
viewer's subscription follows its tree node, and the view-synchronization
process re-runs down the repaired subtree whenever the new position can no
longer support the old delay layers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.controllers import (
    P2P_FIRST,
    GlobalSessionController,
    LocalSessionController,
    nearest_lsc,
)
from repro.core.state import ViewerSession
from repro.model.stream import StreamId
from repro.model.view import GlobalView
from repro.model.viewer import Viewer
from repro.util.validation import require_positive

#: Default heartbeat timeout (seconds) before a silent viewer is declared failed.
DEFAULT_HEARTBEAT_TIMEOUT = 10.0

#: Default interval (seconds) between two heartbeat messages of a viewer
#: under the simulated control plane.  Must stay comfortably below the
#: timeout or healthy viewers are swept away as failed -- which is exactly
#: the regime the ``controlplane`` sweep preset explores.
DEFAULT_HEARTBEAT_PERIOD = 2.0


class FailureDetector:
    """Heartbeat bookkeeping for the viewers of one LSC.

    The simulation does not exchange real keepalive packets; instead the
    control plane records the last time each viewer was heard from
    (:meth:`heartbeat`) and a periodic sweep asks for every viewer whose
    silence exceeds ``timeout`` (:meth:`expired`).
    """

    def __init__(self, timeout: float = DEFAULT_HEARTBEAT_TIMEOUT) -> None:
        require_positive(timeout, "timeout")
        self.timeout = timeout
        self._last_seen: Dict[str, float] = {}

    def __len__(self) -> int:
        return len(self._last_seen)

    def __contains__(self, viewer_id: str) -> bool:
        return viewer_id in self._last_seen

    def watch(self, viewer_id: str, now: float) -> None:
        """Start tracking a viewer (called when its join is accepted)."""
        self._last_seen[viewer_id] = now

    def heartbeat(self, viewer_id: str, now: float) -> None:
        """Renew a viewer's heartbeat; unknown viewers start being tracked."""
        self._last_seen[viewer_id] = now

    def forget(self, viewer_id: str) -> None:
        """Stop tracking a viewer (graceful departure or completed repair)."""
        self._last_seen.pop(viewer_id, None)

    def watched(self) -> List[str]:
        """All currently tracked viewer ids (sorted, for invariant checks)."""
        return sorted(self._last_seen)

    def expired(self, now: float) -> List[str]:
        """Viewers whose last heartbeat is older than the timeout."""
        return sorted(
            viewer_id
            for viewer_id, seen in self._last_seen.items()
            if now - seen > self.timeout
        )


@dataclass(frozen=True)
class RepairResult:
    """Outcome of recovering from one abrupt viewer departure."""

    viewer_id: str
    departed: bool
    #: (stream, viewer) pairs directly orphaned by the departure.
    orphaned: Tuple[Tuple[StreamId, str], ...] = ()
    #: Orphaned subscriptions re-parented onto another viewer (P2P).
    repaired_p2p: int = 0
    #: Orphaned subscriptions that fell back to a direct CDN subscription.
    repaired_cdn: int = 0
    #: Subscriptions lost because neither the overlay nor the CDN could help.
    lost_subscriptions: int = 0

    @property
    def repaired(self) -> int:
        """Total orphaned subscriptions successfully recovered."""
        return self.repaired_p2p + self.repaired_cdn


@dataclass(frozen=True)
class FailoverResult:
    """Outcome of failing over one Local Session Controller."""

    failed_lsc_id: str
    target_lsc_id: Optional[str]
    migrated_viewers: int = 0
    lost_viewers: int = 0
    #: Region names that were repointed to the target LSC.
    reassigned_regions: Tuple[str, ...] = ()


class RecoveryManager:
    """Event-driven churn recovery on top of one Local Session Controller."""

    def __init__(
        self,
        lsc: LocalSessionController,
        *,
        heartbeat_timeout: float = DEFAULT_HEARTBEAT_TIMEOUT,
    ) -> None:
        self.lsc = lsc
        self.detector = FailureDetector(heartbeat_timeout)

    # -- abrupt departures ----------------------------------------------------

    def handle_abrupt_departure(self, viewer_id: str, now: float = 0.0) -> RepairResult:
        """Remove a failed viewer and repair the subtrees it strands.

        Unlike :meth:`AdaptationManager.handle_departure
        <repro.core.adaptation.AdaptationManager.handle_departure>` (the
        graceful path, which supports victims from the CDN first), a
        crash repairs P2P-first: orphans are re-parented into free
        forwarding slots in degree push-down order and only fall back to
        the CDN when the overlay has no capacity left for them.
        """
        self.detector.forget(viewer_id)
        torn_down = self.lsc.teardown_session(viewer_id)
        if torn_down is None:
            return RepairResult(viewer_id=viewer_id, departed=False)
        group, orphans = torn_down
        p2p, cdn, lost = self.lsc.repair_orphans(group, orphans, now, P2P_FIRST)
        return RepairResult(
            viewer_id=viewer_id,
            departed=True,
            orphaned=tuple(orphans),
            repaired_p2p=p2p,
            repaired_cdn=cdn,
            lost_subscriptions=lost,
        )

    def sweep(self, now: float) -> List[RepairResult]:
        """Detect timed-out viewers and repair each as an abrupt departure."""
        return [
            self.handle_abrupt_departure(viewer_id, now)
            for viewer_id in self.detector.expired(now)
        ]


def evict_sessions(
    gsc: GlobalSessionController, failed_lsc_id: str
) -> Tuple[List[ViewerSession], Tuple[str, ...]]:
    """Owner half of a failover: tear a failed LSC out of its GSC.

    The controller's overlay state (trees, sessions) is
    considered lost with it: it is unregistered, the CDN reservations of
    its sessions are released and its region mappings are dropped.
    Returns its sessions in the order the target re-admits them --
    ``(join_time, viewer_id)`` -- and the regions it served, which the
    target takes over.
    """
    failed = gsc.remove_lsc(failed_lsc_id)
    sessions = sorted(failed.sessions.values(), key=lambda s: (s.join_time, s.viewer_id))
    for session in sessions:
        streams = session.view.stream_by_id
        for stream_id, node in session.subscriptions.items():
            if node.via_cdn:
                gsc.cdn.release(stream_id, streams[stream_id].bandwidth_mbps)
    return sessions, gsc.reassign_regions(failed_lsc_id, None)


def readmit_sessions(
    gsc: GlobalSessionController,
    failed_lsc_id: str,
    target_lsc_id: Optional[str],
    admissions: Sequence[Tuple[Viewer, GlobalView]],
    now: float,
    regions: Sequence[str],
) -> FailoverResult:
    """Target half of a failover: re-admit the evicted sessions.

    ``regions`` (the failed controller's service area) are pointed at the
    target and every ``(viewer, view)`` goes through the target's normal
    join pipeline, in the order given.  Without a target -- no LSC
    survives -- every viewer of the region is lost.
    """
    migrated = 0
    if target_lsc_id is not None:
        target = gsc.lsc(target_lsc_id)
        for region_name in regions:
            gsc.add_lsc(target_lsc_id, region_name=region_name)
        for viewer, view in admissions:
            if target.join(viewer, view, now).accepted:
                migrated += 1
    return FailoverResult(
        failed_lsc_id=failed_lsc_id,
        target_lsc_id=target_lsc_id,
        migrated_viewers=migrated,
        lost_viewers=len(admissions) - migrated,
        reassigned_regions=tuple(regions),
    )


def failover_lsc(
    gsc: GlobalSessionController, failed_lsc_id: str, now: float = 0.0
) -> FailoverResult:
    """Fail over a Local Session Controller to its nearest surviving neighbor.

    Evict, choose the target, re-admit: :func:`evict_sessions`, then the
    surviving LSC with the smallest propagation delay to the failed one
    (:func:`~repro.core.controllers.nearest_lsc`), then
    :func:`readmit_sessions`.
    """
    sessions, regions = evict_sessions(gsc, failed_lsc_id)
    target_lsc_id = nearest_lsc(
        gsc.delay_model, failed_lsc_id, (lsc.lsc_id for lsc in gsc.lscs)
    )
    admissions = [(session.viewer, session.view) for session in sessions]
    return readmit_sessions(gsc, failed_lsc_id, target_lsc_id, admissions, now, regions)
