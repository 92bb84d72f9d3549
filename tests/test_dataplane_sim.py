"""Tests for the event-driven QoE data plane (DataChannel + SimulatedDataPlane).

Covers the properties the tentpole promises:

* **Equivalence** -- at zero extra transit, zero loss and unconstrained
  bandwidth, the simulated replay produces ``DeliveryRecord``s identical
  to the offline :class:`~repro.core.dataplane.OverlayDataPlane` replay
  on the same seed (mirrors the PR-4 instant-vs-simulated pinning).
* **Determinism** -- same seed, same QoE summary, run over run (including
  under loss, a function of the seed, the edge and the frame number).
* **Physics** -- serialization queues frames at the parent's reserved
  forwarding bin, loss reduces continuity, and the observed-delay
  ``kappa`` refresh feeds back into subsequent deliveries.
* **Golden protection** -- QoE summary keys appear only when the
  simulated data plane ran.
* **Skew samples** -- the inter-stream skew reads only frames delivered
  on every received stream, up to the shortest lane.
* **Replay bytes** -- a lossy replay keeps a bounded number of traced
  bytes per frame sent, no link holds fates or a random generator, and no gateway
  buffer keeps a frame ``d_buff + d_cache`` older than its newest one.
"""

from __future__ import annotations

import dataclasses
import gc
import json
import math
import os
import subprocess
import sys
import tracemalloc
from array import array
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_dataplane
from reference_oracles import gilbert_elliott_walk
from repro.core import dataplane
from repro.core.dataplane import (
    DataPlaneConfig,
    OverlayDataPlane,
    SimulatedDataPlane,
)
from repro.experiments.config import PAPER_CONFIG
from repro.experiments.runner import (
    build_scenario,
    build_telecast_system,
    run_telecast_scenario,
)
from repro.model.stream import Frame, StreamId
from repro.model.viewer import Viewer
from repro.sim.rng import SeededRandom
from repro.sim.transport import DataChannel, DataLink, LossProcess
from repro.traces.teeve import TeeveSessionTrace

SMALL_CONFIG = PAPER_CONFIG.with_scaled_population(30, num_lscs=1)

STREAM = StreamId("site-0", 0)

#: Equivalence-mode data plane: the simulated engine with every
#: data-plane effect disabled must reproduce the offline schedule.
REFERENCE_PLANE = DataPlaneConfig(
    loss_rate=0.0,
    bandwidth_headroom=None,
    refresh_interval=None,
    max_frames_per_stream=120,
)

_RECORD_KEY = lambda d: (  # noqa: E731 - a sort key, not a function
    d.delivery_time,
    d.viewer_id,
    str(d.stream_id),
    d.frame_number,
)


def _joined_system(config):
    scenario = build_scenario(config)
    system = build_telecast_system(scenario)
    system.run_workload(scenario.viewers, scenario.events, scenario.views)
    trace = TeeveSessionTrace(scenario.producers, rng=SeededRandom(config.seed))
    return system, trace


def _held(viewer, stream_id):
    """``(frame_number, received_at)`` of every frame in one gateway buffer."""
    return [
        (frame.frame_number, received_at)
        for frame, received_at in viewer.buffer_for(stream_id).held()
    ]


def _frames(captures, size_megabits=0.2):
    return [
        Frame(STREAM, number, capture, size_megabits)
        for number, capture in enumerate(captures)
    ]


def _edge(frames):
    """A fresh edge of ``STREAM`` at one viewer, without a playout deadline."""
    session = SimpleNamespace(viewer=Viewer(viewer_id="v"))
    return dataplane._EdgeState("v", STREAM, session, frames, float("inf"))


def _channel(loss_rate=0.0, seed=0, burst=1.0):
    return DataChannel(loss_rate=loss_rate, mean_burst_length=burst, seed=seed)


def _send(channel, link, frames, *, path_delay, edge=None):
    """Arrival times of one chunk sent through ``link`` on a fresh (or given) edge."""
    if edge is None:
        edge = _edge(frames)
    sent = len(edge.arrivals)
    dataplane._send_chunk(channel, link, edge, frames, 0.0, path_delay)
    return list(edge.arrivals[sent:])


class TestDataMessagePlumbing:
    """Link/channel plumbing.  (Named from when every frame travelled as a
    ``DataMessage``; kept so the test ids stay comparable across PRs.)"""

    def test_link_serializes_fifo_at_the_reserved_rate(self):
        link = DataLink(2.0)  # 2 Mbps bin
        # 0.2 Mb at 2 Mbps = 100 ms of link time per frame; the second
        # frame queues behind the first.
        assert _send(
            _channel(), link, _frames([0.0, 0.0]), path_delay=1.0
        ) == pytest.approx([1.1, 1.2])
        assert link.free_at == pytest.approx(0.2)

    def test_unconstrained_link_has_zero_serialization(self):
        link = DataLink(None)
        assert _send(
            _channel(),
            link,
            _frames([3.0], size_megabits=5.0),
            path_delay=0.5,
        ) == pytest.approx([3.5])

    def test_loss_is_deterministic_per_seed_and_consumes_link_time(self):
        frames = _frames([number * 0.1 for number in range(20)])
        outcomes = []
        for _ in range(2):
            channel = _channel(0.5, seed=7)
            link = channel.link("p", "v", "s", 2.0)
            deliveries = _send(channel, link, frames, path_delay=0.0)
            outcomes.append((tuple(deliveries), channel.sent, channel.lost))
        assert outcomes[0] == outcomes[1]
        deliveries, sent, lost = outcomes[0]
        assert sent == 20
        assert 0 < lost < 20
        assert deliveries.count(dataplane.LOST) == lost
        # Lost frames still occupied the link: every survivor arrives
        # exactly when a lossless link of the same rate delivers it.
        lossless = _send(_channel(), DataLink(2.0), frames, path_delay=0.0)
        assert all(d == dataplane.LOST or d == t for d, t in zip(deliveries, lossless))

    def test_channel_counters_fold_once_per_chunk(self):
        channel = _channel(0.4, seed=3)
        frames = _frames([number * 0.05 for number in range(30)])
        link = channel.link("p", "v", STREAM, 2.0)
        edge = _edge(frames)
        delivered_at = _send(channel, link, frames[:10], path_delay=0.0, edge=edge)
        delivered_at += _send(channel, link, frames[10:], path_delay=0.0, edge=edge)
        assert channel.sent == 30
        assert channel.lost == delivered_at.count(dataplane.LOST) > 0
        assert channel.delivered == 30 - channel.lost
        assert (edge.expected, edge.lost, edge.delivered) == (
            30,
            channel.lost,
            channel.delivered,
        )

    def test_an_edge_looks_its_link_up_again_when_its_parent_changes(self):
        # An edge keeps its link while its parent stays the same; a
        # re-parented subscription (a CDN re-provision) starts on the new
        # parent's link, with its own queue and loss key.
        system, trace = _joined_system(SMALL_CONFIG)
        plane = SimulatedDataPlane(
            system,
            trace,
            DataPlaneConfig(
                loss_rate=0.05, refresh_interval=None, max_frames_per_stream=60, seed=3
            ),
        )
        session = next(
            session
            for lsc in system.gsc.lscs
            for session in lsc.sessions.values()
            if session.subscriptions
        )
        stream_id, sub = next(iter(session.subscriptions.items()))
        old_parent = sub.parent_id

        def reparent():
            sub.parent_id = "p2"

        system.simulator.schedule_at(system.simulator.now + 2.5, reparent)
        plane.run()
        viewer_id = session.viewer.viewer_id
        edge = next(
            edge
            for edge in plane._edges
            if (edge.viewer_id, edge.stream_id) == (viewer_id, stream_id)
        )
        old = plane._channel._links[old_parent, viewer_id, stream_id]
        new = plane._channel._links["p2", viewer_id, stream_id]
        assert edge.link is new and new is not old
        assert edge.link_parent == "p2"
        # The old link carried the chunks up to the one at 2.0 (frames
        # captured before 3.0); the new one carried the rest.
        assert 0.0 < old.free_at - plane._t0 < 3.5 < new.free_at - plane._t0

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            DataLink(0.0)
        with pytest.raises(ValueError):
            _channel(-0.1)
        with pytest.raises(ValueError):
            DataPlaneConfig(loss_rate=1.0)
        with pytest.raises(ValueError):
            DataPlaneConfig(bandwidth_headroom=0.0)
        with pytest.raises(ValueError):
            DataPlaneConfig(mean_burst_length=0.5)
        # A loss process is built only for a lossy link, with a finite burst.
        for loss_rate, burst in (
            (0.0, 1.0),
            (1.0, 1.0),
            (0.1, 0.5),
            (0.1, math.inf),
            (0.1, math.nan),
        ):
            with pytest.raises(ValueError):
                LossProcess(loss_rate, burst)


#: Edges of one lossy channel: re-parented (same viewer and stream, new
#: parent), sibling streams, and a viewer id that sorts before the rest.
LINK_KEYS = [
    ("cdn", "viewer-7", StreamId("site-0", 0)),
    ("viewer-3", "viewer-7", StreamId("site-0", 0)),
    ("viewer-3", "viewer-7", StreamId("site-0", 1)),
    ("cdn", "viewer-12", StreamId("site-1", 2)),
    ("viewer-12", "viewer-10", StreamId("site-1", 2)),
]

#: Prints the fates (hex) of ``LINK_KEYS``' first 200 frames, their
#: links created in reverse order.
_LINK_FATES = """
import json
from repro.model.stream import StreamId
from repro.sim.transport import DataChannel
keys = [(src, dst, StreamId(*stream)) for src, dst, stream in json.loads(input())]
channel = DataChannel(loss_rate=0.3, mean_burst_length=1.0, seed=11)
links = {key: channel.link(*key, None) for key in reversed(keys)}
print(json.dumps([channel.fates(links[key].key, 0, 200).hex() for key in keys]))
"""


def _link_fates(keys, order):
    """Fates (hex) of ``keys``' first 200 frames, their links created in ``order``."""
    channel = DataChannel(loss_rate=0.3, mean_burst_length=1.0, seed=11)
    links = {key: channel.link(*key, None) for key in order}
    return [channel.fates(links[key].key, 0, 200).hex() for key in keys]


def _lost_frames(channel, link, frames):
    """Frame numbers ``_send_chunk`` loses of ``frames`` sent on ``link``
    as one chunk (the arrivals are not read)."""
    edge = _edge(frames)
    dataplane._send_chunk(channel, link, edge, frames, 0.0, 0.0)
    return [
        frame.frame_number
        for frame, arrival in zip(frames, edge.arrivals)
        if arrival == dataplane.LOST
    ]


class TestKeyedLinkFates:
    """A lossy link's fates depend on its ``(src, dst, stream_id)`` key, the
    channel seed and the frame numbers alone: not on which links were
    created before it or exist beside it, not on how its frames are split
    into chunks or which frame it opened at, and not on the process's
    string-hash seed."""

    @settings(max_examples=100, deadline=None)
    @given(
        burst=st.sampled_from([1.0, 3.0]),
        cuts=st.sets(st.integers(1, 119)),
        seed=st.integers(0, 2**16),
    )
    def test_any_split_into_chunks_gives_the_same_fates(self, burst, cuts, seed):
        frames = _frames([number * 0.1 for number in range(120)])
        bounds = [0, *sorted(cuts), len(frames)]
        sides = []
        for splits in ([0, len(frames)], bounds):
            channel = _channel(0.3, seed=seed, burst=burst)
            link = channel.link("p", "v", STREAM, 2.0)
            lost = []
            for start, stop in zip(splits, splits[1:]):
                lost += _lost_frames(channel, link, frames[start:stop])
            sides.append(lost)
        assert sides[0] == sides[1]
        assert sides[0]  # 36 losses expected in 120 frames

    @pytest.mark.parametrize("burst", [1.0, 3.0])
    @pytest.mark.parametrize("opened_at", [1, 37, 150])
    def test_a_link_opened_at_frame_f_loses_the_suffix(self, burst, opened_at):
        # A child that subscribes mid-stream opens its link at frame f: it
        # loses exactly the frames >= f that a link of the same edge
        # opened at frame 0 loses, on a fresh channel of the same seed.
        frames = _frames([number * 0.1 for number in range(200)])
        whole = _channel(0.3, seed=3, burst=burst)
        from_zero = _lost_frames(whole, whole.link("p", "v", STREAM, 2.0), frames)
        late = _channel(0.3, seed=3, burst=burst)
        suffix = _lost_frames(late, late.link("p", "v", STREAM, 2.0), frames[opened_at:])
        assert suffix == [number for number in from_zero if number >= opened_at]
        assert suffix

    def test_links_created_in_any_order_draw_the_same_fates(self):
        forward = _link_fates(LINK_KEYS, LINK_KEYS)
        assert _link_fates(LINK_KEYS, LINK_KEYS[::-1]) == forward
        assert _link_fates(LINK_KEYS, LINK_KEYS[2:] + LINK_KEYS[:2]) == forward
        # A link opened alone, as by a mid-run edge, draws what it draws
        # among the others.
        for key, fates in zip(LINK_KEYS, forward):
            assert _link_fates([key], [key]) == [fates]
        # Different keys still draw different fates.
        assert len(set(forward)) == len(forward)

    def test_fates_are_the_same_under_two_hash_seeds(self):
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        keys = json.dumps([[src_id, dst, list(stream)] for src_id, dst, stream in LINK_KEYS])
        forward = _link_fates(LINK_KEYS, LINK_KEYS)
        for hash_seed in ("1", "2"):
            done = subprocess.run(
                [sys.executable, "-c", _LINK_FATES],
                input=keys,
                env=dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src),
                capture_output=True,
                text=True,
                timeout=60,
                check=False,
            )
            assert done.returncode == 0, done.stderr
            assert json.loads(done.stdout) == forward, f"PYTHONHASHSEED={hash_seed}"


class TestOfflineEquivalence:
    """Acceptance criterion: simulated @ zero delay/loss == offline, exactly."""

    def test_reference_mode_matches_offline_records(self):
        system_a, trace_a = _joined_system(SMALL_CONFIG)
        offline = OverlayDataPlane(system_a, trace_a).replay(
            max_frames_per_stream=REFERENCE_PLANE.max_frames_per_stream
        )
        system_b, trace_b = _joined_system(SMALL_CONFIG)
        simulated = SimulatedDataPlane(system_b, trace_b, REFERENCE_PLANE).run()
        assert sorted(offline.deliveries, key=_RECORD_KEY) == sorted(
            simulated.deliveries, key=_RECORD_KEY
        )
        assert simulated.frames_lost == 0
        assert simulated.frames_late == 0

    def test_reference_mode_matches_offline_buffers(self):
        system_a, trace_a = _joined_system(SMALL_CONFIG)
        OverlayDataPlane(system_a, trace_a).replay(max_frames_per_stream=50)
        system_b, trace_b = _joined_system(SMALL_CONFIG)
        plane = DataPlaneConfig(
            bandwidth_headroom=None, refresh_interval=None, max_frames_per_stream=50
        )
        SimulatedDataPlane(system_b, trace_b, plane).run()
        for lsc_a, lsc_b in zip(system_a.gsc.lscs, system_b.gsc.lscs):
            assert list(lsc_a.sessions) == list(lsc_b.sessions)
            for viewer_id, session_a in lsc_a.sessions.items():
                viewer_a = session_a.viewer
                viewer_b = lsc_b.sessions[viewer_id].viewer
                # One collector: both walk lsc -> viewer -> subscription,
                # so even the buffer creation order agrees.
                assert viewer_a.buffered_streams == viewer_b.buffered_streams
                assert viewer_a.buffered_streams
                for stream_id in viewer_a.buffered_streams:
                    assert _held(viewer_a, stream_id) == _held(viewer_b, stream_id)

    def test_replaying_twice_inserts_nothing_the_second_time(self):
        system, trace = _joined_system(SMALL_CONFIG)
        plane = OverlayDataPlane(system, trace)
        first = plane.replay(max_frames_per_stream=30)
        viewers = [
            session.viewer
            for lsc in system.gsc.lscs
            for session in lsc.sessions.values()
        ]
        held = [
            [_held(viewer, stream_id) for stream_id in viewer.buffered_streams]
            for viewer in viewers
        ]
        assert any(held)
        second = plane.replay(max_frames_per_stream=30)
        assert second.deliveries == first.deliveries
        assert held == [
            [_held(viewer, stream_id) for stream_id in viewer.buffered_streams]
            for viewer in viewers
        ]

    def test_constant_delay_batch_skips_frames_that_would_arrive_early(self):
        # A re-provision shortened the path mid-replay: the next batch's
        # first frames would land before the last buffered one.  They are
        # recorded as delivered but skipped in the buffer one by one.
        system, trace = _joined_system(SMALL_CONFIG)
        edge = dataplane._collect_edges(system, trace, 6)[0]
        frames = edge.frames
        dataplane._deliver_constant_delay(edge, frames[:3], 1.0)
        gap = frames[3].capture_time - frames[2].capture_time
        shorter = 1.0 - 1.5 * gap  # frame 3 too early, frame 4 on time
        dataplane._deliver_constant_delay(edge, frames[3:], shorter)
        assert list(edge.arrivals) == [frame.capture_time + 1.0 for frame in frames[:3]] + [
            frame.capture_time + shorter for frame in frames[3:]
        ]
        records = dataplane.PlaybackReport(dataplane._lanes([edge])).deliveries
        assert sorted(record.frame_number for record in records) == [0, 1, 2, 3, 4, 5]
        held = _held(edge.viewer, edge.stream_id)
        assert [number for number, _ in held] == [0, 1, 2, 4, 5]
        assert [received for _, received in held] == sorted(
            received for _, received in held
        )
        assert edge.delivered == edge.expected == 6

    def test_a_negative_frame_limit_is_refused_by_both_planes(self):
        # A -1 limit used to slice off each stream's last frame and replay
        # the rest; the trace now refuses it, as DataPlaneConfig does.
        result = run_telecast_scenario(SMALL_CONFIG, snapshot_every=None)
        trace = TeeveSessionTrace(result.system.producers, rng=SeededRandom(0))
        message = "max_frames_per_stream must be >= 0 or None"
        with pytest.raises(ValueError, match=message):
            OverlayDataPlane(result.system, trace).replay(max_frames_per_stream=-1)
        with pytest.raises(ValueError, match=message):
            DataPlaneConfig(max_frames_per_stream=-1)

    def test_batch_quantum_does_not_change_deliveries(self, monkeypatch):
        # Chunk boundaries must not move a single RNG draw: under loss the
        # fates, the counters and every viewer's QoE are quantum-invariant.
        for loss in (
            {},
            {"loss_rate": 0.05, "seed": 7},
            {"loss_rate": 0.05, "mean_burst_length": 3.0, "seed": 7},
        ):
            reports = []
            for quantum in (0.25, 1.0, 2.0):
                monkeypatch.setattr(dataplane, "BATCH_QUANTUM", quantum)
                system, trace = _joined_system(SMALL_CONFIG)
                plane = DataPlaneConfig(
                    bandwidth_headroom=1.0,
                    refresh_interval=None,
                    max_frames_per_stream=80,
                    **loss,
                )
                reports.append(SimulatedDataPlane(system, trace, plane).run())
            for other in reports[1:]:
                assert other.deliveries == reports[0].deliveries
                assert other.frames_lost == reports[0].frames_lost
                assert other.per_viewer == reports[0].per_viewer
            assert (reports[0].frames_lost > 0) == bool(loss)


class TestEngineEventsPerReplay:
    """A deterministic guard for the replay's engine overhead.

    Wall-clock gains do not survive a shared CI runner; event counts do.
    Edges share no state between two control events, so one drain event
    sends every due edge's chunks up to the next one: a replay fires one
    drain per quiet window plus its control events, at most
    ``2 * (refreshes + 1)`` without other traffic.  The counts below are
    pinned on the 30-viewer overlay (144 edges, 60 frames a stream, 2 %
    loss); they may only fall, and a change that lowers one states why
    here.  With one engine event per edge per ``BATCH_QUANTUM`` they were
    876 with the refresh off and 877 with it on.  The overlay had 146
    edges while the CDN split its 180 Mbps over four 45 Mbps edge
    servers: a reservation had to fit on one of them, which refused CDN
    slots the aggregate still held and moved the joins.  The one
    aggregate bound builds 144 edges; the event pins did not move.
    """

    #: ``(frames a stream, refresh interval) -> (engine events, refreshes)``.
    PINNED = {
        (60, None): (1, 0),
        (60, 5.0): (3, 1),
        (600, 5.0): (23, 11),
    }

    @pytest.mark.parametrize("frames, refresh", sorted(PINNED, key=str))
    def test_a_replay_fires_one_drain_per_quiet_window(self, frames, refresh):
        system, trace = _joined_system(SMALL_CONFIG)
        plane = SimulatedDataPlane(
            system,
            trace,
            DataPlaneConfig(
                loss_rate=0.02,
                refresh_interval=refresh,
                max_frames_per_stream=frames,
                seed=7,
            ),
        )
        refreshes = []
        run_refresh = plane._run_refresh

        def counted_refresh():
            refreshes.append(system.simulator.now)
            run_refresh()

        plane._run_refresh = counted_refresh
        before = system.simulator.fired
        report = plane.run()
        events = system.simulator.fired - before
        pinned_events, pinned_refreshes = self.PINNED[frames, refresh]
        assert len(plane._edges) == 144
        assert report.frames_sent + report.frames_dropped == sum(
            len(edge.frames) for edge in plane._edges
        )
        assert len(refreshes) == pinned_refreshes
        assert events <= 2 * (len(refreshes) + 1)
        assert events <= pinned_events


    def test_the_clock_stops_where_the_per_chunk_schedule_stopped(self):
        # The drain runs ahead of its chunks, yet a replay leaves the
        # clock at the last event a per-chunk engine fired: here every
        # edge is dropped at 0.5 s and ends at its next chunk start.
        clocks = []
        for driver in (SimulatedDataPlane, reference_dataplane.PerChunkSimulatedDataPlane):
            system, trace = _joined_system(SMALL_CONFIG)
            sessions = [s for lsc in system.gsc.lscs for s in lsc.sessions.values()]
            system.simulator.schedule_at(
                0.5, lambda: [session.subscriptions.clear() for session in sessions]
            )
            config = DataPlaneConfig(refresh_interval=None, max_frames_per_stream=60)
            assert driver(system, trace, config).run().frames_dropped > 0
            clocks.append(system.simulator.now)
        assert clocks[0] == clocks[1] >= 1.0


class TestQoEMetrics:
    def test_same_seed_twice_is_byte_identical_under_loss(self):
        config = SMALL_CONFIG.with_(
            data_plane="simulated",
            data_loss_rate=0.05,
            replay_frames_per_stream=100,
        )
        first = run_telecast_scenario(config, snapshot_every=None)
        second = run_telecast_scenario(config, snapshot_every=None)
        assert json.dumps(first.metrics.summary(), sort_keys=True) == json.dumps(
            second.metrics.summary(), sort_keys=True
        )
        assert first.metrics.data_frames_lost > 0

    def test_loss_reduces_continuity_proportionally(self):
        config = SMALL_CONFIG.with_(
            data_plane="simulated",
            data_loss_rate=0.1,
            data_refresh_interval=None,
            replay_frames_per_stream=150,
        )
        result = run_telecast_scenario(config, snapshot_every=None)
        summary = result.metrics.summary()
        assert summary["data_frames_lost"] == pytest.approx(
            0.1 * summary["data_frames_sent"], rel=0.2
        )
        assert summary["qoe_continuity_mean"] == pytest.approx(0.9, abs=0.03)

    def test_constrained_bandwidth_queues_frames(self):
        # At headroom 1.0 the reserved bin equals the nominal stream rate,
        # so size jitter queues frames and observed delays exceed the
        # structural schedule; the playout buffer absorbs the jitter.
        system, trace = _joined_system(SMALL_CONFIG)
        constrained = SimulatedDataPlane(
            system,
            trace,
            DataPlaneConfig(
                bandwidth_headroom=1.0, refresh_interval=None, max_frames_per_stream=100
            ),
        ).run()
        delays = [d.end_to_end_delay for d in constrained.deliveries]
        system_b, trace_b = _joined_system(SMALL_CONFIG)
        reference = SimulatedDataPlane(
            system_b,
            trace_b,
            DataPlaneConfig(
                bandwidth_headroom=None, refresh_interval=None, max_frames_per_stream=100
            ),
        ).run()
        reference_delays = [d.end_to_end_delay for d in reference.deliveries]
        assert sum(delays) > sum(reference_delays)
        assert max(
            d - r for d, r in zip(sorted(delays), sorted(reference_delays))
        ) > 0.0

    def test_startup_delay_and_skew_populate(self):
        config = SMALL_CONFIG.with_(
            data_plane="simulated", replay_frames_per_stream=80
        )
        result = run_telecast_scenario(config, snapshot_every=None)
        summary = result.metrics.summary()
        # Startup is dominated by the CDN Delta of the slowest stream.
        assert summary["qoe_startup_delay_p50"] > PAPER_CONFIG.cdn_delta
        # The raw arrival skew stays within the repo's structural bound
        # (d_buff + tau: viewers sit anywhere inside their layer)...
        layer_config = SMALL_CONFIG.layer_config()
        assert summary["qoe_skew_p99"] <= (
            layer_config.buffer_duration + layer_config.tau + 0.2
        )
        # ...and the renderer-visible skew at the playout point honours
        # Layer Property 2 for (nearly) everyone at mild contention.
        assert summary["qoe_skew_within_dbuff"] >= 0.99

    def test_qoe_keys_absent_without_data_plane(self):
        result = run_telecast_scenario(SMALL_CONFIG, snapshot_every=None)
        summary = result.metrics.summary()
        assert not [key for key in summary if key.startswith(("qoe_", "data_"))]

    def test_event_driven_control_plane_composes_with_data_plane(self):
        config = SMALL_CONFIG.with_(
            control_plane="simulated",
            data_plane="simulated",
            replay_frames_per_stream=60,
        )
        result = run_telecast_scenario(config, snapshot_every=None)
        summary = result.metrics.summary()
        assert summary["control_messages_sent"] > 0
        assert summary["data_frames_sent"] > 0
        assert "qoe_continuity_mean" in summary


def _skew_report(*delay_columns):
    """A report of viewer ``v``: one lane per column of per-frame delays
    (``None`` is a lost frame), frames captured every 0.25 s."""
    lanes = []
    for site, delays in enumerate(delay_columns):
        stream_id = StreamId(f"site-{site}", 0)
        frames = [Frame(stream_id, number, 0.25 * number) for number in range(len(delays))]
        arrivals = array(
            "d",
            (
                dataplane.LOST if delay is None else frame.capture_time + delay
                for frame, delay in zip(frames, delays)
            ),
        )
        lanes.append(("v", stream_id, frames, arrivals))
    return dataplane.PlaybackReport(lanes)


class TestSkewSamples:
    """Which frames ``PlaybackReport.skews_for`` spreads, on hand-built lanes."""

    def test_a_frame_lost_on_one_received_stream_is_not_a_sample(self):
        # Frame 1 is lost on the third stream: the 8 s spread of the
        # other two at frame 1 is not read; frame 2's 0.5 s is the worst.
        report = _skew_report([1.0, 9.0, 1.0], [1.0, 1.0, 1.5], [1.0, None, 1.0])
        assert report.skews_for("v", 0.0) == (0.5, 0.5)
        assert report.skew_for("v") == 0.5

    def test_no_frame_past_a_dropped_stream_is_a_sample(self):
        # The third stream was dropped after frame 2 (its lane is
        # shorter): frame 3's 8 s spread on the two others is not read.
        report = _skew_report([1.0, 1.0, 1.0, 9.0], [1.0, 1.0, 1.0, 1.0], [1.0, 1.25, 1.0])
        assert report.skews_for("v", 0.0) == (0.25, 0.25)

    def test_fewer_than_two_received_streams_give_no_skew(self):
        one_stream = _skew_report([1.0, 9.0])
        all_lost_second = _skew_report([1.0, 9.0], [None, None])
        for report in (one_stream, all_lost_second):
            assert report.skews_for("v", 0.0) == (None, None)
        assert _skew_report().skews_for("v", 0.0) == (None, None)


class TestReplayByteBudget:
    """What a lossy replay keeps, in traced bytes per frame sent."""

    #: The 30-viewer overlay at 240 frames a stream and 2 % loss keeps
    #: 47.9 B a frame sent (CPython 3.11): its frames (~17, shared by a
    #: stream's subscribers), the gateway buffers (~16: a frame pointer
    #: and an 8-byte receive time a held frame), the 8-byte arrival
    #: column and the per-edge state.  No fate is stored: it kept 48.9
    #: while each lossy link held one fate byte a frame, and 84.5 while
    #: an arrival was a float object (32 B) and each lossy link held its
    #: own ~2.5 KiB Mersenne Twister (10.5 B a frame here).  The budget
    #: fails either of the last two alone and leaves ~17 % for
    #: interpreter versions (55 would leave 14.8 %).
    BYTES_PER_FRAME_SENT = 56

    def test_a_lossy_replay_keeps_few_bytes_per_frame_sent(self):
        system, trace = _joined_system(SMALL_CONFIG)
        plane = SimulatedDataPlane(
            system,
            trace,
            DataPlaneConfig(
                loss_rate=0.02, refresh_interval=5.0, max_frames_per_stream=240, seed=7
            ),
        )
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            report = plane.run()
            gc.collect()
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert report.frames_sent > 30_000 and report.frames_lost > 0
        assert kept <= self.BYTES_PER_FRAME_SENT * report.frames_sent

    def test_no_link_holds_fates_or_a_generator(self):
        # A lossy link holds its rate, its FIFO clock and its loss key:
        # no fate column, no cursor, no burst state and no generator.
        system, trace = _joined_system(SMALL_CONFIG)
        plane = SimulatedDataPlane(
            system,
            trace,
            DataPlaneConfig(loss_rate=0.05, mean_burst_length=3.0, max_frames_per_stream=60),
        )
        report = plane.run()
        assert report.frames_lost > 0
        links = list(plane._channel._links.values())
        assert links
        for link in links:
            held = [item for item in gc.get_referents(link) if type(item) is not type]
            # The key is the one bytes object; the rest is floats or None.
            assert isinstance(link.key, bytes) and len(link.key) < 64
            assert [item for item in held if type(item) is not float] in (
                [link.key],
                [None, link.key],
            )

    @pytest.mark.parametrize(
        "plane",
        [
            DataPlaneConfig(loss_rate=0.02, refresh_interval=None, seed=7),
            DataPlaneConfig(bandwidth_headroom=None, refresh_interval=None),
            None,
        ],
        ids=["lossy-link", "constant-delay", "offline"],
    )
    def test_no_buffer_keeps_a_frame_past_the_cache_horizon(self, plane):
        # 600 frames are 60 s of trace, past the 25.3 s d_buff + d_cache.
        system, trace = _joined_system(SMALL_CONFIG)
        if plane is None:
            OverlayDataPlane(system, trace).replay(max_frames_per_stream=600)
        else:
            config = dataclasses.replace(plane, max_frames_per_stream=600)
            SimulatedDataPlane(system, trace, config).run()
        spans, evicted = [], 0
        for lsc in system.gsc.lscs:
            for session in lsc.sessions.values():
                viewer = session.viewer
                horizon = viewer.buffer_duration + viewer.cache_duration
                for stream_id in viewer.buffered_streams:
                    held = _held(viewer, stream_id)
                    spans.append(held[-1][1] - held[0][1] - horizon)
                    evicted += held[0][0] > 0
        assert spans and max(spans) <= 0
        assert evicted


class TestObservedDelayFeedback:
    def test_underprovisioned_edges_trigger_layer_adjustments(self):
        config = SMALL_CONFIG.with_(
            data_plane="simulated",
            data_bandwidth_headroom=0.7,
            data_refresh_interval=5.0,
            replay_frames_per_stream=150,
        )
        result = run_telecast_scenario(config, snapshot_every=None)
        summary = result.metrics.summary()
        assert summary["observed_layer_adjustments"] > 0

    def test_dropped_streams_count_against_continuity(self):
        # Severe under-provisioning drops streams mid-replay; the
        # undeliverable tail must show up as expected-but-missing frames
        # instead of silently inflating continuity.
        config = SMALL_CONFIG.with_(
            data_plane="simulated",
            data_bandwidth_headroom=0.5,
            data_refresh_interval=4.0,
            replay_frames_per_stream=200,
        )
        result = run_telecast_scenario(config, snapshot_every=None)
        summary = result.metrics.summary()
        assert summary["observed_streams_dropped"] > 0
        assert summary["data_frames_dropped"] > 0
        assert summary["qoe_continuity_mean"] < 0.9

    def test_feedback_keeps_sessions_consistent(self):
        config = SMALL_CONFIG.with_(
            data_plane="simulated",
            data_bandwidth_headroom=0.6,
            data_refresh_interval=4.0,
            replay_frames_per_stream=150,
        )
        scenario = build_scenario(config)
        system = build_telecast_system(scenario)
        system.run_workload(
            scenario.viewers,
            scenario.events,
            scenario.views,
            data_plane=config.data_plane_config(),
        )
        layer_config = system.layer_config
        for lsc in system.gsc.lscs:
            for session in lsc.sessions.values():
                for sub in session.subscriptions.values():
                    assert layer_config.is_acceptable_layer(sub.layer)
                    assert sub.effective_delay >= sub.end_to_end_delay - 1e-9
            for group in lsc.groups.values():
                for tree in group.trees.values():
                    tree.validate()


@pytest.mark.slow
class TestTwoThousandViewerReplay:
    def test_2k_viewers_replay_deterministically(self):
        config = PAPER_CONFIG.with_scaled_population(
            2000,
            num_lscs=3,
            data_plane="simulated",
            replay_frames_per_stream=40,
        )
        first = run_telecast_scenario(config, snapshot_every=None)
        second = run_telecast_scenario(config, snapshot_every=None)
        summary = first.metrics.summary()
        assert summary["data_frames_sent"] > 100_000
        assert summary["qoe_skew_within_dbuff"] >= 0.99
        assert json.dumps(summary, sort_keys=True) == json.dumps(
            second.metrics.summary(), sort_keys=True
        )


class TestGilbertElliottChannel:
    """The one loss process: a two-state Gilbert-Elliott channel whose
    burst length 1 is i.i.d. (Bernoulli) loss."""

    def test_from_mean_loss_roundtrips(self):
        process = LossProcess(0.08, mean_burst_length=5.0)
        a, b = process.flip, process.recover
        assert a / (a + b - a * b) == pytest.approx(0.08)
        assert 1.0 / b == pytest.approx(5.0)

    def test_memoryless_limit_is_exactly_bernoulli_parameters(self):
        process = LossProcess(0.1, mean_burst_length=1.0)
        assert process.recover == 1.0
        assert process.flip == 0.1

    def test_memoryless_limit_is_binomial_per_block(self):
        # Burst length 1 is Bernoulli loss: the losses in a block of 10
        # frames follow Binomial(10, p), whatever the blocks before it.
        loss_rate, blocks = 0.3, 20_000
        channel = _channel(loss_rate, seed=42)
        fates = channel.fates(channel.link("p", "v", STREAM, None).key, 0, 10 * blocks)
        counts = [sum(fates[at : at + 10]) for at in range(0, len(fates), 10)]
        for losses in range(7):
            binomial = math.comb(10, losses) * loss_rate**losses * (1 - loss_rate) ** (10 - losses)
            assert counts.count(losses) / blocks == pytest.approx(binomial, abs=0.01)

    def test_bursty_channel_produces_longer_runs_at_matched_mean(self):
        def loss_runs(burst, seed, frames=20_000):
            channel = _channel(0.1, seed=seed, burst=burst)
            runs, current = [], 0
            for lost in channel.fates(channel.link("p", "v", STREAM, None).key, 0, frames):
                if lost:
                    current += 1
                elif current:
                    runs.append(current)
                    current = 0
            if current:
                runs.append(current)
            return runs

        bursty = loss_runs(5.0, seed=9)
        iid = loss_runs(1.0, seed=9)
        mean = lambda runs: sum(runs) / len(runs)  # noqa: E731
        # Matched stationary rate, very different temporal structure.
        assert sum(bursty) == pytest.approx(sum(iid), rel=0.15)
        assert mean(bursty) == pytest.approx(5.0, rel=0.25)
        assert mean(iid) == pytest.approx(1.0 / 0.9, rel=0.1)

    @pytest.mark.parametrize("burst", [1.0, 3.0])
    def test_replay_is_byte_identical_to_the_frame_by_frame_walk(self, monkeypatch, burst):
        # A replay is byte-identical whether each chunk's fates come from
        # the run walk or from the frame-by-frame two-state oracle read at
        # the chunk's frame numbers -- not statistically close, identical.
        process = LossProcess(0.1, burst)

        def walk(channel, key, first, count):
            fates = gilbert_elliott_walk(process.flip, process.recover, key, first + count)
            return bytes(fates[first:])

        records = []
        for oracle in (False, True):
            if oracle:
                monkeypatch.setattr(DataChannel, "fates", walk)
            system, trace = _joined_system(SMALL_CONFIG)
            report = SimulatedDataPlane(
                system,
                trace,
                DataPlaneConfig(
                    loss_rate=0.1,
                    mean_burst_length=burst,
                    refresh_interval=None,
                    max_frames_per_stream=100,
                ),
            ).run()
            records.append(sorted(report.deliveries, key=_RECORD_KEY))
            assert report.frames_lost > 0
        assert records[0] == records[1]

    def test_burst_loss_degrades_playable_continuity_below_iid(self):
        # Property: at matched mean loss, bursty losses beat single-frame
        # concealment while i.i.d. losses mostly don't, so the
        # concealment-aware playable continuity separates the two where
        # plain (linear) continuity cannot.
        def qoe(burst):
            config = SMALL_CONFIG.with_(
                data_plane="simulated",
                data_loss_rate=0.1,
                data_mean_burst_length=burst,
                data_refresh_interval=None,
                replay_frames_per_stream=150,
            )
            summary = run_telecast_scenario(config, snapshot_every=None).metrics.summary()
            return summary["qoe_continuity_mean"], summary["qoe_playable_continuity_mean"]

        iid_plain, iid_playable = qoe(1.0)
        bursty_plain, bursty_playable = qoe(5.0)
        # Same mean rate: plain continuity is statistically indistinguishable...
        assert bursty_plain == pytest.approx(iid_plain, abs=0.05)
        # ...but bursts are unconcealable, so playable continuity drops.
        assert bursty_playable < iid_playable - 0.02
        # Concealment can only help: playable >= plain on both channels.
        assert iid_playable >= iid_plain
        assert bursty_playable >= bursty_plain
