#!/usr/bin/env python3
"""Quickstart: build a 3DTI session and join a handful of viewers.

This walks through the public API end to end:

1. create the producer sites (2 sites x 8 cameras, as in the paper),
2. create a CDN and a network delay model,
3. build candidate views and start a 4D TeleCast session,
4. join viewers, change a view, disconnect a viewer,
5. inspect the metrics and the overlay state.

Run with::

    python examples/quickstart.py
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
    viewer_ids = [f"viewer-{i}" for i in range(8)]
    latency = generate_planetlab_matrix(viewer_ids + ["GSC", "LSC-0", "CDN"], rng=SeededRandom(1))
    delay_model = DelayModel(latency, processing_delay=0.1, cdn_delta=60.0)
    cdn = CDN(outbound_capacity_mbps=200.0, delta=60.0)

    # --- the 4D TeleCast session ---------------------------------------------
    layer_config = DelayLayerConfig(delta=60.0, buffer_duration=0.3, kappa=2, d_max=65.0)
    system = TeleCastSystem(producers, cdn, delay_model, layer_config)
    views = build_views(producers, num_views=4, streams_per_site=3)
    print(f"created {len(views)} candidate views; view-0 streams: "
          f"{[str(s) for s in views[0].stream_ids]}")

    # --- viewers join ---------------------------------------------------------
    for index, viewer_id in enumerate(viewer_ids):
        viewer = Viewer(
            viewer_id=viewer_id,
            inbound_capacity_mbps=12.0,
            outbound_capacity_mbps=float(index % 4) * 4.0,
        )
        result = system.join_viewer(viewer, views[index % 2])
        print(
            f"{viewer_id}: accepted={result.accepted} "
            f"streams={result.num_accepted}/{result.num_requested} "
            f"via_cdn={len(result.cdn_stream_ids)} "
            f"join_delay={result.join_delay * 1000:.0f} ms"
        )

    # --- a view change and a departure ---------------------------------------
    change = system.change_view("viewer-0", views[3])
    print(
        f"viewer-0 changed {change.old_view_id} -> {change.new_view_id} "
        f"in {change.fast_path_delay * 1000:.0f} ms "
        f"(victims: {len(change.victims)}, recovered: {change.recovered_victims})"
    )
    departure = system.depart_viewer("viewer-1")
    print(f"viewer-1 departed; victims recovered: {departure.recovered_victims}")

    # --- session state ---------------------------------------------------------
    snapshot = system.snapshot()
    print()
    print(f"connected viewers        : {snapshot.num_viewers}")
    print(f"active subscriptions     : {snapshot.active_subscriptions}")
    print(f"served by CDN            : {snapshot.cdn_subscriptions} "
          f"({snapshot.cdn_fraction:.0%} of subscriptions)")
    print(f"CDN outbound bandwidth   : {snapshot.cdn_outbound_mbps:.0f} Mbps")
    print(f"stream acceptance ratio  : {system.metrics.acceptance_ratio:.2f}")
    max_layers = system.viewer_maps()[0].values()
    if max_layers:
        print(f"delay layers (max/viewer): min={min(max_layers)} max={max(max_layers)}")


if __name__ == "__main__":
    main()
