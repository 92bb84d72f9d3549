#!/usr/bin/env python3
"""An online exer-gaming event with a flash crowd and heavy view switching.

Two players fight with virtual light sabers (the TEEVE session the paper's
traces come from) while an audience of spectators floods in at the start of
the match, hops between viewing angles to follow the action, and partly
leaves before the end.  The example measures what the paper's Section VI is
about: how quickly view changes are served, how many viewers become
"victims" when their parent leaves or switches views, and how reliably they
are recovered.

Run with::

    python examples/exergaming_flash_crowd.py
"""

from __future__ import annotations

from repro.core import DelayLayerConfig, TeleCastSystem, build_views
from repro.metrics.stats import describe
from repro.model.cdn import CDN
from repro.model.producer import make_default_producers
from repro.net.latency import DelayModel
from repro.net.planetlab import generate_planetlab_matrix
from repro.sim.rng import SeededRandom
from repro.traces.workload import BandwidthDistribution, ViewerWorkload, WorkloadConfig

SPECTATORS = 300


def main() -> None:
    producers = make_default_producers(num_sites=2, cameras_per_site=8)

    # A flash crowd: every spectator requests the stream at match start
    # (arrival_rate_per_second=None puts all joins at t=0), then 60% switch
    # views mid-match and 30% leave early.
    workload = ViewerWorkload(
        WorkloadConfig(
            num_viewers=SPECTATORS,
            outbound=BandwidthDistribution.uniform(2.0, 10.0),
            num_views=8,
            view_popularity_alpha=0.8,
            view_change_probability=0.6,
            departure_probability=0.3,
            session_duration=120.0,
        ),
        rng=SeededRandom(8),
    )
    spectators = workload.viewers()
    schedule = workload.events()

    latency = generate_planetlab_matrix(
        [viewer.viewer_id for viewer in spectators] + ["GSC", "LSC-0", "CDN"],
        rng=SeededRandom(6),
    )
    system = TeleCastSystem(
        producers,
        CDN(1800.0, delta=60.0),
        DelayModel(latency, processing_delay=0.1, cdn_delta=60.0),
        DelayLayerConfig(),
    )
    views = build_views(producers, num_views=8, streams_per_site=3)

    print(f"{SPECTATORS} spectators join the exer-gaming match simultaneously")
    system.run_workload(spectators, schedule, views, snapshot_every=100)

    metrics = system.metrics
    joins = describe(metrics.join_delays)
    print()
    print(f"join delay          : p50={joins.p50 * 1000:.0f} ms  p95={joins.p95 * 1000:.0f} ms  "
          f"max={joins.maximum * 1000:.0f} ms")
    if metrics.view_change_delays:
        changes = describe(metrics.view_change_delays)
        print(f"view-change latency : p50={changes.p50 * 1000:.0f} ms  "
              f"p95={changes.p95 * 1000:.0f} ms  max={changes.maximum * 1000:.0f} ms")
        print(f"view changes served : {len(metrics.view_change_delays)}")
    print(f"victims created     : {metrics.victim_events}")
    print(f"victims recovered   : {metrics.recovered_victims}")
    print(f"subscriptions lost  : {metrics.lost_victim_subscriptions}")

    snapshot = system.snapshot()
    print()
    print(f"spectators still connected at the end : {snapshot.num_viewers}")
    print(f"stream acceptance ratio over the match: {metrics.acceptance_ratio:.3f}")
    print(f"CDN share of active subscriptions     : {snapshot.cdn_fraction:.0%}")


if __name__ == "__main__":
    main()
