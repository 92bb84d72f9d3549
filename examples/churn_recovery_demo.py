#!/usr/bin/env python3
"""Churn & failure recovery: abrupt departures, timeouts, mass-leave, failover.

This demo exercises the recovery subsystem end to end:

1. build a two-region session and join a population of viewers,
2. crash a heavily-forwarding viewer and watch its stranded subtrees be
   repaired incrementally (P2P re-parenting first, CDN as last resort),
3. let part of the population go silent and have the heartbeat sweep
   detect and repair them,
4. inject a correlated mass-leave followed by a rejoin flash crowd,
5. fail an entire Local Session Controller and fail its region over to
   the surviving neighbor.

Run with::

    python examples/churn_recovery_demo.py
"""

from __future__ import annotations

from repro.core import DelayLayerConfig, TeleCastSystem, build_views
from repro.model.cdn import CDN
from repro.model.producer import make_default_producers
from repro.model.viewer import Viewer
from repro.net.latency import DelayModel
from repro.net.planetlab import generate_planetlab_matrix
from repro.sim.rng import SeededRandom


def main() -> None:
    # --- substrates ---------------------------------------------------------
    producers = make_default_producers(num_sites=2, cameras_per_site=8)
    viewer_ids = [f"viewer-{i:02d}" for i in range(24)]
    latency = generate_planetlab_matrix(
        viewer_ids + ["GSC", "LSC-0", "LSC-1", "CDN"], rng=SeededRandom(1)
    )
    delay_model = DelayModel(latency, processing_delay=0.1, cdn_delta=60.0)
    cdn = CDN(outbound_capacity_mbps=600.0, delta=60.0)
    layer_config = DelayLayerConfig(delta=60.0, buffer_duration=0.3, kappa=2, d_max=65.0)
    system = TeleCastSystem(
        producers,
        cdn,
        delay_model,
        layer_config,
        lsc_regions=[["region-0"], ["region-1"]],
        heartbeat_timeout=10.0,
    )
    views = build_views(producers, num_views=2, streams_per_site=3)

    # --- a two-region population joins ---------------------------------------
    for index, viewer_id in enumerate(viewer_ids):
        viewer = Viewer(
            viewer_id=viewer_id,
            inbound_capacity_mbps=12.0,
            outbound_capacity_mbps=float(index % 4) * 6.0,
            region_name=f"region-{index % 2}",
        )
        system.join_viewer(viewer, views[index % 2], now=0.0)
    print(f"joined {system.connected_viewer_count} viewers across 2 regions")

    # --- an abrupt failure ----------------------------------------------------
    lsc = system.gsc.lscs[0]
    def fanout(vid: str) -> int:
        session = lsc.sessions[vid]
        group = lsc.groups[session.view.view_id]
        return sum(len(group.children_of(vid, sid)) for sid in session.subscriptions)

    forwarder = max(lsc.sessions, key=fanout)
    repair = system.fail_viewer(forwarder, now=5.0)
    print(
        f"\n{forwarder} crashed: {len(repair.orphaned)} subscriptions orphaned, "
        f"{repair.repaired_p2p} re-parented P2P, {repair.repaired_cdn} moved to "
        f"the CDN, {repair.lost_subscriptions} lost"
    )

    # --- timeout detection ----------------------------------------------------
    # Most viewers keep their heartbeats fresh; two go silent.
    silent = [vid for vid in viewer_ids if system.lsc_of(vid) is not None][:2]
    for viewer_id in viewer_ids:
        if viewer_id not in silent and system.lsc_of(viewer_id) is not None:
            system.heartbeat(viewer_id, now=12.0)
    swept = [r for r in system.detect_failures(now=14.0) if r.departed]
    print(
        f"heartbeat sweep at t=14s declared {len(swept)} silent viewers failed: "
        f"{', '.join(r.viewer_id for r in swept)}"
    )

    # --- correlated mass-leave + rejoin flash crowd ----------------------------
    leavers = [vid for vid in viewer_ids if system.lsc_of(vid) is not None][:8]
    for viewer_id in leavers:
        system.fail_viewer(viewer_id, now=20.0)
    print(f"\nmass-leave: {len(leavers)} viewers crashed simultaneously at t=20s")
    print(f"connected viewers after mass-leave : {system.connected_viewer_count}")
    for index, viewer_id in enumerate(leavers):
        viewer = Viewer(
            viewer_id=viewer_id,
            inbound_capacity_mbps=12.0,
            outbound_capacity_mbps=6.0,
            region_name=f"region-{index % 2}",
        )
        system.join_viewer(viewer, views[index % 2], now=25.0)
    print(f"connected viewers after flash crowd: {system.connected_viewer_count}")

    # --- LSC failover ----------------------------------------------------------
    doomed = system.gsc.lscs[0].lsc_id
    failover = system.fail_lsc(doomed, now=30.0)
    print(
        f"\n{doomed} failed; GSC reassigned regions {list(failover.reassigned_regions)} "
        f"to {failover.target_lsc_id}: {failover.migrated_viewers} viewers migrated, "
        f"{failover.lost_viewers} lost"
    )

    # --- final state ------------------------------------------------------------
    snapshot = system.snapshot()
    metrics = system.metrics
    print()
    print(f"connected viewers        : {snapshot.num_viewers}")
    print(f"active subscriptions     : {snapshot.active_subscriptions}")
    print(f"served by CDN            : {snapshot.cdn_subscriptions}")
    print(f"abrupt departures        : {metrics.abrupt_departures}")
    print(
        f"repaired subscriptions   : "
        f"{metrics.repaired_subscriptions_p2p + metrics.repaired_subscriptions_cdn} "
        f"({metrics.repaired_subscriptions_p2p} P2P / "
        f"{metrics.repaired_subscriptions_cdn} CDN)"
    )
    print(f"lost in repair           : {metrics.lost_repair_subscriptions}")
    print(f"LSC failovers            : {metrics.lsc_failovers}")


if __name__ == "__main__":
    main()
