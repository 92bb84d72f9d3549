"""Golden digests of the simulated frame replay, captured on the per-frame path.

``tests/golden/replay_digests.json`` was written at the parent of the
chunk-batched data plane (the commit that still built one ``DataMessage``
and made one ``DataLink.transmit`` call per frame).  The batched path must
reproduce it byte for byte: every delivery record, every per-viewer QoE
field and every gateway buffer's ``(frame_number, received_at)`` list,
under Bernoulli and Gilbert-Elliott loss, with and without the bandwidth
model and the layer refresh (late frames: ``underprovisioned_drop``).

The delivery digest hashes *sorted* rows, so it cannot see the report's
own order.  ``tests/golden/replay_order.json`` pins that: a digest of
the ``deliveries`` list as returned -- sorted by ``(delivery_time,
viewer_id)``, ties in the order the per-frame records were appended --
for every plane, from the simulated replay and from the engine-free
:meth:`~repro.core.dataplane.OverlayDataPlane.replay` at the same frame
count.  It was captured on the code that appended one record per frame.

A replay stores one 8-byte arrival per frame sent, by edge, and builds
the per-frame records only when a row of ``deliveries`` is read (its
``len()`` counts the lanes); the allocation guard below holds it to that
(the per-frame code left 2.17 GC-tracked objects behind per delivered
frame on the guard's replay).  Ordering the records on that first read
allocates no key per record: the rows are built in viewer order and
sorted on the float delivery time alone, and the sort guard below holds
the transient bytes to the sort's pointer arrays.

Both files were re-captured, by one rule, when the CDN became one
aggregate ledger: this 30-viewer world's 180 Mbps CDN had been split
into four 45 Mbps edge servers, and 45 Mbps is not a whole number of
2 Mbps streams, so the split refused CDN slots the aggregate held.  Every
plane moved with the overlay (11 680 offline deliveries at zero loss
before, 11 520 after); nothing else did.

``underprovisioned_drop``'s ``buffers_sha256`` was re-captured, by one
rule, when the replay began to evict its gateway buffers: the parent's
buffers restricted to the frames within ``d_buff + d_cache`` of each
buffer's last arrival.  It is the only plane whose arrivals span more
than that 25.3 s horizon (its queues build up behind half the reserved
rate); every other digest stayed byte-identical.

The three lossy planes (``bernoulli_2pct_refresh``, ``gilbert_burst3``,
``unconstrained_lossy``; their ``simulated_*`` fields in the order
file) were re-captured, by one rule, each time the source of a link's
losses changed: when a link's generator was keyed by its edge instead of
its creation index, and when a frame's fate became a keyed hash of the
plane seed, the edge and the frame number instead of a per-link
generator's draw.  Every lossless plane and every ``offline_*`` field
stayed byte-identical both times.

Regenerate (only for an intentional behaviour change) with
``PYTHONPATH=src python tests/test_replay_golden.py``.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import json
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest

from repro.core import dataplane
from repro.core.dataplane import DataPlaneConfig, OverlayDataPlane, SimulatedDataPlane
from repro.experiments.config import PAPER_CONFIG
from repro.experiments.runner import build_scenario, build_telecast_system
from repro.sim.rng import SeededRandom
from repro.traces import teeve
from repro.traces.teeve import TeeveSessionTrace

GOLDEN_PATH = Path(__file__).parent / "golden" / "replay_digests.json"
ORDER_PATH = Path(__file__).parent / "golden" / "replay_order.json"

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
}


def _sha(rows) -> str:
    return hashlib.sha256(json.dumps(rows, sort_keys=True).encode("ascii")).hexdigest()


def joined_world():
    """The fixed world after its joins: ``(system, trace)``."""
    scenario = build_scenario(WORLD)
    system = build_telecast_system(scenario)
    system.run_workload(scenario.viewers, scenario.events, scenario.views)
    return system, TeeveSessionTrace(scenario.producers, rng=SeededRandom(WORLD.seed))


def replay_digest(plane: DataPlaneConfig) -> dict:
    """Run one simulated replay on the fixed world and digest its outputs."""
    system, trace = joined_world()
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
                            (frame.frame_number, received_at)
                            for frame, received_at in viewer.buffer_for(stream_id).held()
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
        "layer_adjustments": system.metrics.observed_layer_adjustments,
    }


def order_digest(plane: DataPlaneConfig) -> dict:
    """Digest the ``deliveries`` list in report order, on both data planes."""
    system, trace = joined_world()
    simulated = SimulatedDataPlane(system, trace, plane).run()
    system, trace = joined_world()
    offline = OverlayDataPlane(system, trace).replay(
        max_frames_per_stream=plane.max_frames_per_stream
    )
    digest = {}
    for side, report in (("simulated", simulated), ("offline", offline)):
        rows = [
            [getattr(record, name) for name in DELIVERY_FIELDS]
            for record in report.deliveries
        ]
        digest[f"{side}_deliveries"] = len(rows)
        digest[f"{side}_order_sha256"] = _sha(rows)
    return digest


@pytest.mark.parametrize("name", sorted(PLANES))
def test_replay_matches_per_frame_golden(name):
    golden = json.loads(GOLDEN_PATH.read_text())
    assert replay_digest(PLANES[name]) == golden[name]


@pytest.mark.parametrize("name", sorted(PLANES))
def test_delivery_order_matches_per_frame_golden(name):
    golden = json.loads(ORDER_PATH.read_text())
    assert order_digest(PLANES[name]) == golden[name]


#: GC-tracked objects a replay may leave behind per delivered frame: its
#: frames (one per stream, shared by the subscribers) and a few per edge
#: (state, link, buffer, lists); the arrival floats are untracked.
TRACKED_PER_DELIVERY = 0.25


def test_replay_leaves_no_object_per_delivered_frame():
    # The 2 % loss + refresh plane at 240 frames a stream, so the
    # per-edge objects weigh ~0.07 a frame and the bound reads per-frame
    # ones (0.18 here; the per-frame code left 2.17).
    system, trace = joined_world()
    config = dataclasses.replace(
        PLANES["bernoulli_2pct_refresh"], max_frames_per_stream=240
    )
    plane = SimulatedDataPlane(system, trace, config)
    gc.collect()
    before = len(gc.get_objects())
    report = plane.run()
    gc.collect()
    grown = len(gc.get_objects()) - before
    assert report.frames_delivered > 30_000
    assert grown <= TRACKED_PER_DELIVERY * report.frames_delivered


#: Transient bytes the first ``deliveries`` read may allocate per delivery
#: beyond the list it keeps: a float-key sort's pointer arrays (16.0 on
#: the replay below).  A ``(delivery_time, viewer_id)`` tuple key per
#: record read 68.7.
SORT_BYTES_PER_DELIVERY = 24


def test_ordering_the_report_builds_no_key_per_delivery():
    system, trace = joined_world()
    config = dataclasses.replace(
        PLANES["bernoulli_2pct_refresh"], max_frames_per_stream=240
    )
    report = SimulatedDataPlane(system, trace, config).run()
    tracemalloc.start()
    try:
        deliveries = report.deliveries
        deliveries[0]  # the first row read builds and sorts every row
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert deliveries._rows is not None and len(deliveries) > 30_000
    assert peak - current <= SORT_BYTES_PER_DELIVERY * len(deliveries)


def test_no_delivery_record_exists_until_deliveries_is_read(monkeypatch):
    built = []
    record = dataplane.DeliveryRecord

    def counted(*fields):
        built.append(fields)
        return record(*fields)

    monkeypatch.setattr(dataplane, "DeliveryRecord", counted)
    system, trace = joined_world()
    report = SimulatedDataPlane(system, trace, PLANES["bernoulli_2pct_refresh"]).run()
    deliveries = report.deliveries
    # Counting reads the lanes: len() and bool() build no record.
    counted = len(deliveries)
    assert report.per_viewer and deliveries and not built
    rows = list(deliveries)
    assert len(built) == len(rows) == counted == report.frames_delivered
    assert report.deliveries is deliveries and len(deliveries) == counted


@pytest.mark.parametrize("side", ["simulated", "offline"])
def test_counted_deliveries_are_the_rows(side):
    # On the lossy plane, so the simulated lanes hold lost frames.
    plane = PLANES["bernoulli_2pct_refresh"]
    system, trace = joined_world()
    if side == "simulated":
        report = SimulatedDataPlane(system, trace, plane).run()
        assert report.frames_lost > 0
        delivered = report.frames_delivered
    else:
        report = OverlayDataPlane(system, trace).replay(
            max_frames_per_stream=plane.max_frames_per_stream
        )
        delivered = json.loads(ORDER_PATH.read_text())[
            "bernoulli_2pct_refresh"
        ]["offline_deliveries"]
    counted = len(report.deliveries)
    assert counted == len(list(report.deliveries)) == delivered
    assert len(report.deliveries) == delivered


def test_a_replay_generates_only_the_frames_it_replays(monkeypatch):
    # The trace stops at the replay horizon: a 60-frame replay builds 60
    # frames a stream, not the 600 of the full 60 s trace.
    system, trace = joined_world()
    built = Counter()
    frame = teeve.Frame

    def counted(*args, **fields):
        made = frame(*args, **fields)
        built[made.stream_id] += 1
        return made

    monkeypatch.setattr(teeve, "Frame", counted)
    config = dataclasses.replace(
        PLANES["bernoulli_2pct_refresh"], max_frames_per_stream=60
    )
    report = SimulatedDataPlane(system, trace, config).run()
    assert report.frames_sent > 0 and built
    assert max(built.values()) <= 60


def test_golden_covers_every_plane():
    assert sorted(json.loads(GOLDEN_PATH.read_text())) == sorted(PLANES)
    assert sorted(json.loads(ORDER_PATH.read_text())) == sorted(PLANES)


if __name__ == "__main__":
    for path, digest in ((GOLDEN_PATH, replay_digest), (ORDER_PATH, order_digest)):
        path.write_text(
            json.dumps(
                {name: digest(plane) for name, plane in sorted(PLANES.items())},
                indent=2,
                sort_keys=True,
            )
            + "\n"
        )
        print(f"wrote {path}")
