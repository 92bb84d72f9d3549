"""Golden digests of the simulated frame replay, captured on the per-frame path.

``tests/golden/replay_digests.json`` was written at the parent of the
chunk-batched data plane (the commit that still built one ``DataMessage``
and made one ``DataLink.transmit`` call per frame).  The batched path must
reproduce it byte for byte: every delivery record, every per-viewer QoE
field and every gateway buffer's ``(frame_number, received_at)`` list,
under Bernoulli and Gilbert-Elliott loss, with and without the bandwidth
model, the layer refresh and extra transit.

Regenerate (only for an intentional behaviour change) with
``PYTHONPATH=src python tests/test_replay_golden.py``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path

import pytest

from repro.core.dataplane import DataPlaneConfig, SimulatedDataPlane
from repro.experiments.config import PAPER_CONFIG
from repro.experiments.runner import build_scenario, build_telecast_system
from repro.sim.rng import SeededRandom
from repro.traces.teeve import TeeveSessionTrace

GOLDEN_PATH = Path(__file__).parent / "golden" / "replay_digests.json"

WORLD = PAPER_CONFIG.with_scaled_population(30, num_lscs=1)

DELIVERY_FIELDS = (
    "viewer_id",
    "stream_id",
    "frame_number",
    "capture_time",
    "delivery_time",
)

PLANES = {
    "bernoulli_2pct_refresh": DataPlaneConfig(
        loss_rate=0.02, refresh_interval=5.0, max_frames_per_stream=120, seed=7
    ),
    "gilbert_burst3": DataPlaneConfig(
        loss_rate=0.05,
        loss_model="gilbert",
        mean_burst_length=3.0,
        refresh_interval=None,
        max_frames_per_stream=80,
        seed=7,
    ),
    "zero_loss": DataPlaneConfig(refresh_interval=None, max_frames_per_stream=80),
    "unconstrained": DataPlaneConfig(
        bandwidth_headroom=None, refresh_interval=None, max_frames_per_stream=80
    ),
    "unconstrained_lossy": DataPlaneConfig(
        loss_rate=0.02,
        bandwidth_headroom=None,
        refresh_interval=None,
        max_frames_per_stream=80,
        seed=11,
    ),
    "underprovisioned_drop": DataPlaneConfig(
        bandwidth_headroom=0.5, refresh_interval=4.0, max_frames_per_stream=200
    ),
    "extra_transit_late": DataPlaneConfig(
        loss_rate=0.02,
        bandwidth_headroom=0.9,
        transit_delay_scale=2.0,
        refresh_interval=None,
        max_frames_per_stream=80,
        seed=11,
    ),
}


def _sha(rows) -> str:
    return hashlib.sha256(json.dumps(rows, sort_keys=True).encode("ascii")).hexdigest()


def replay_digest(plane: DataPlaneConfig) -> dict:
    """Run one simulated replay on the fixed world and digest its outputs."""
    scenario = build_scenario(WORLD)
    system = build_telecast_system(scenario)
    system.run_workload(scenario.viewers, scenario.events, scenario.views)
    trace = TeeveSessionTrace(scenario.producers, rng=SeededRandom(WORLD.seed))
    report = SimulatedDataPlane(system, trace, plane).run()
    deliveries = sorted(
        [getattr(record, name) for name in DELIVERY_FIELDS]
        for record in report.deliveries
    )
    qoe = [
        dataclasses.asdict(report.per_viewer[viewer_id])
        for viewer_id in sorted(report.per_viewer)
    ]
    buffers = []
    for lsc in system.gsc.lscs:
        for viewer_id in sorted(lsc.sessions):
            viewer = lsc.sessions[viewer_id].viewer
            for stream_id in sorted(viewer.buffered_streams):
                buffers.append(
                    [
                        viewer_id,
                        stream_id,
                        [
                            (held.frame.frame_number, held.received_at)
                            for held in viewer.buffer_for(stream_id)._frames
                        ],
                    ]
                )
    return {
        "deliveries_sha256": _sha(deliveries),
        "qoe_sha256": _sha(qoe),
        "buffers_sha256": _sha(buffers),
        "frames_sent": report.frames_sent,
        "frames_delivered": report.frames_delivered,
        "frames_lost": report.frames_lost,
        "frames_late": report.frames_late,
        "frames_dropped": report.frames_dropped,
        "layer_adjustments": report.layer_adjustments,
    }


@pytest.mark.parametrize("name", sorted(PLANES))
def test_replay_matches_per_frame_golden(name):
    golden = json.loads(GOLDEN_PATH.read_text())
    assert replay_digest(PLANES[name]) == golden[name]


def test_golden_covers_every_plane():
    assert sorted(json.loads(GOLDEN_PATH.read_text())) == sorted(PLANES)


if __name__ == "__main__":
    GOLDEN_PATH.write_text(
        json.dumps(
            {name: replay_digest(plane) for name, plane in sorted(PLANES.items())},
            indent=2,
            sort_keys=True,
        )
        + "\n"
    )
    print(f"wrote {GOLDEN_PATH}")
