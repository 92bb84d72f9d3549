#!/usr/bin/env python3
"""Broadcasting a collaborative dancing performance to a large audience.

The paper's motivating scenario: two dance studios (producer sites) perform
together in a shared virtual space while a large, passive audience watches
and freely picks viewing angles.  This example scales the audience from 100
to 600 viewers with heterogeneous uplinks and reports, at each step, the
CDN bandwidth the broadcast needs, how much of the traffic the audience
carries itself (the P2P share), and the acceptance ratio -- the same
quantities Figure 13 of the paper tracks.

Run with::

    python examples/collaborative_dancing_broadcast.py
"""

from __future__ import annotations

from repro.core import DelayLayerConfig, TeleCastSystem, build_views
from repro.model.cdn import CDN
from repro.model.producer import make_default_producers
from repro.net.latency import DelayModel
from repro.net.planetlab import generate_planetlab_matrix
from repro.sim.rng import SeededRandom
from repro.traces.workload import BandwidthDistribution, ViewerWorkload, WorkloadConfig

AUDIENCE_SIZE = 600
SNAPSHOT_EVERY = 100
CDN_CAPACITY_MBPS = 3600.0  # scaled from the paper's 6000 Mbps for 1000 viewers


def main() -> None:
    producers = make_default_producers(num_sites=2, cameras_per_site=8)

    workload = ViewerWorkload(
        WorkloadConfig(
            num_viewers=AUDIENCE_SIZE,
            outbound=BandwidthDistribution.uniform(0.0, 12.0),
            num_views=8,
            view_popularity_alpha=1.0,
        ),
        rng=SeededRandom(21),
    )
    audience = workload.viewers()
    schedule = workload.events()

    latency = generate_planetlab_matrix(
        [viewer.viewer_id for viewer in audience] + ["GSC", "LSC-0", "CDN"],
        rng=SeededRandom(5),
    )
    delay_model = DelayModel(latency, processing_delay=0.1, cdn_delta=60.0)
    system = TeleCastSystem(
        producers,
        CDN(CDN_CAPACITY_MBPS, delta=60.0),
        delay_model,
        DelayLayerConfig(),
    )
    views = build_views(producers, num_views=8, streams_per_site=3)

    print(f"broadcasting a 2-studio dance performance to {AUDIENCE_SIZE} viewers")
    print(f"{'viewers':>8} {'CDN Mbps':>10} {'P2P share':>10} {'acceptance':>11}")
    system.run_workload(audience, schedule, views, snapshot_every=SNAPSHOT_EVERY)
    reported = set()
    for snapshot in system.metrics.snapshots:
        if snapshot.num_requests in reported:
            continue
        reported.add(snapshot.num_requests)
        p2p_share = 1.0 - snapshot.cdn_fraction
        print(
            f"{snapshot.num_requests:>8} {snapshot.cdn_outbound_mbps:>10.0f} "
            f"{p2p_share:>10.0%} {snapshot.acceptance_ratio:>11.3f}"
        )

    final = system.metrics.snapshots[-1]
    audience_mbps = final.p2p_subscriptions * 2.0
    print()
    print(f"the audience itself carries {audience_mbps:.0f} Mbps of the broadcast "
          f"({1.0 - final.cdn_fraction:.0%} of all subscriptions)")
    print(f"join delay (95th percentile): "
          f"{sorted(system.metrics.join_delays)[int(0.95 * len(system.metrics.join_delays))] * 1000:.0f} ms")


if __name__ == "__main__":
    main()
