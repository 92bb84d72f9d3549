#!/usr/bin/env python3
"""View synchronization: delay layers, push-downs and frame-level skew.

The part of 4D TeleCast that is hardest to see in aggregate numbers is the
delay-layer hierarchy: viewers deliberately *delay* their freshest streams
so that all streams of a view stay within the gateway buffer and the
renderer can compose a consistent 3D scene.  This example builds a small
overlay, prints every viewer's per-stream layers and deliberate delays,
then replays a synthetic TEEVE frame trace through the overlay and measures
the actual inter-stream skew each viewer would observe.

Run with::

    python examples/view_synchronization_demo.py
"""

from __future__ import annotations

from repro.core import DelayLayerConfig, TeleCastSystem, build_views
from repro.core.dataplane import DataPlaneConfig, SimulatedDataPlane
from repro.model.cdn import CDN
from repro.model.producer import make_default_producers
from repro.model.viewer import Viewer
from repro.net.latency import DelayModel
from repro.net.planetlab import generate_planetlab_matrix
from repro.sim.rng import SeededRandom
from repro.traces.teeve import TeeveSessionConfig, TeeveSessionTrace


def main() -> None:
    producers = make_default_producers(num_sites=2, cameras_per_site=8)
    viewer_ids = [f"viewer-{i}" for i in range(10)]
    latency = generate_planetlab_matrix(viewer_ids + ["GSC", "LSC-0", "CDN"], rng=SeededRandom(4))
    layer_config = DelayLayerConfig(delta=60.0, buffer_duration=0.3, kappa=2, d_max=65.0)
    system = TeleCastSystem(
        producers,
        CDN(60.0, delta=60.0),  # a small CDN so most viewers relay for each other
        DelayModel(latency, processing_delay=0.1, cdn_delta=60.0),
        layer_config,
    )
    view = build_views(producers, num_views=1, streams_per_site=3)[0]

    # Decreasing uplink capacity: early viewers become relays for later ones.
    for index, viewer_id in enumerate(viewer_ids):
        viewer = Viewer(viewer_id=viewer_id, outbound_capacity_mbps=max(0.0, 12.0 - index * 1.5))
        system.join_viewer(viewer, view)

    print(f"layer width tau = {layer_config.tau * 1000:.0f} ms, "
          f"kappa = {layer_config.kappa}, buffer = {layer_config.buffer_duration * 1000:.0f} ms")
    print()
    print(f"{'viewer':>10} {'layers (per stream)':>28} {'spread':>7} {'delayed receive':>16}")
    lsc = system.gsc.lscs[0]
    for viewer_id in viewer_ids:
        session = lsc.session_of(viewer_id)
        if session is None:
            print(f"{viewer_id:>10} (rejected)")
            continue
        layers = [session.subscriptions[sid].layer for sid in sorted(session.subscriptions)]
        # The deliberate delayed receive: effective minus structural delay.
        delayed = max(
            node.effective_delay - node.end_to_end_delay
            for node in session.subscriptions.values()
        )
        print(
            f"{viewer_id:>10} {str(layers):>28} {session.layer_spread():>7} "
            f"{delayed * 1000:>13.0f} ms"
        )

    # Replay a short synthetic TEEVE capture through the overlay.
    trace = TeeveSessionTrace(
        producers, config=TeeveSessionConfig(duration=5.0), rng=SeededRandom(2)
    )
    # Reference mode: every frame arrives at its stream's effective delay
    # (no loss, no bandwidth model, no layer refresh).
    reference = DataPlaneConfig(
        bandwidth_headroom=None, refresh_interval=None, max_frames_per_stream=40
    )
    report = SimulatedDataPlane(system, trace, reference).run()

    print()
    print("frame-level skew between dependent streams at each viewer:")
    bound = layer_config.buffer_duration + layer_config.tau
    for viewer_id in viewer_ids:
        skew = report.playback.skew_for(viewer_id)
        if skew is None:
            continue
        status = "ok" if skew <= bound else "VIOLATION"
        print(f"  {viewer_id:>10}: {skew * 1000:6.0f} ms  (bound {bound * 1000:.0f} ms) {status}")


if __name__ == "__main__":
    main()
