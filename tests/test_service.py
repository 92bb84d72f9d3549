"""Service mode: op protocol, daemon, metrics exposition, snapshot/restore.

Four layers, tested separately:

* the pure protocol parser/formatter (no sockets);
* the Prometheus exporter (stats mapping in, valid text format out);
* the daemon driven directly through :meth:`handle_line` (no sockets),
  including the snapshot/restore parity properties;
* the daemon behind a real TCP socket, including the HTTP scrape path.

The parity tests pin the PR's central durability claim: a daemon that is
snapshotted, killed and restored continues *byte-identically* with an
uninterrupted one processing the same op script -- including control
messages that were in flight when the snapshot was taken.
"""

from __future__ import annotations

import hashlib
import json
import math
import pickle
import re
import signal
import socket
import threading
from pathlib import Path

import pytest

from reference_oracles import deterministic_stats
from repro.core.session import EventDrivenSession, event_sort_key
from repro.experiments.runner import build_scenario
from repro.scenarios.runner import resolve_spec
from repro.service import protocol
from repro.service.daemon import (
    MAX_ADVANCE_SWEEPS,
    ServeConfig,
    ServiceDaemon,
    ServiceState,
    experiment_config,
    placement_digest,
)
from repro.service.metrics_export import (
    Metric,
    quantiles_of,
    render_metrics,
    rss_bytes,
    service_metrics,
)
from repro.service.snapshot import (
    SNAPSHOT_VERSION,
    SnapshotError,
    dump_state,
    load_snapshot,
    load_state,
    save_snapshot,
)
from repro.sim.rng import SeededRandom
from repro.sim.transport import RepairNotify
from repro.traces.workload import ViewerEvent


def snapshot_roundtrip(state):
    """Serialise and restore a state graph in memory.

    Equivalent to saving to disk and loading in a fresh process (pickle
    rebuilds every object from scratch either way), without a file.
    """
    return load_state(dump_state(state))


def live_op_script(spec, *, viewers=None, seed=None, smoke=False):
    """A scenario preset's schedule as a daemon op script.

    Returns ``(config, lines)``: the config the preset runs under (so a
    daemon can be provisioned to match: same viewer pool, same seeds)
    and its workload as protocol lines, with ``advance`` ops supplying
    the time between events.  Streaming the lines at a daemon replays
    the preset through the live op path instead of the batch driver.
    """
    config = resolve_spec(spec).config(viewers=viewers, seed=seed, smoke=smoke)
    lines = []
    now_s = 0.0
    for event in sorted(build_scenario(config).events, key=event_sort_key):
        if event.time > now_s:
            lines.append(f"advance {event.time - now_s:g}")
            now_s = event.time
        lines.append(protocol.format_op(protocol.op_of_event(event)))
    return config, lines


ARCHITECTURE = Path(__file__).parent.parent / "docs" / "ARCHITECTURE.md"


class TestProtocol:
    def test_round_trip_every_session_op(self):
        for line in (
            "join viewer-00003 2",
            "view_change viewer-00003 5",
            "leave viewer-00003",
            "fail viewer-00003",
            "lsc_fail LSC-1",
            "advance 2.5",
            "replay 30",
            "snapshot /tmp/x.snap",
            "snapshot",
            "stats",
            "check",
            "ping",
            "quit",
        ):
            op = protocol.parse_op(line)
            assert protocol.parse_op(protocol.format_op(op)) == op

    def test_join_defaults_view_index_zero(self):
        assert protocol.parse_op("join v").view_index == 0

    @pytest.mark.parametrize(
        "line",
        [
            "",
            "bogus",
            "join",
            "join v x",
            "view_change v",
            "advance",
            "advance -1",
            "advance much",
            "advance nan",
            "advance inf",
            "advance 1e999",
            "replay 0",
            "replay -3",
            "ping extra",
            "snapshot a b",
        ],
    )
    def test_bad_lines_raise(self, line):
        with pytest.raises(protocol.ProtocolError):
            protocol.parse_op(line)

    def test_event_conversion_round_trip(self):
        event = ViewerEvent(time=4.0, kind="depart", viewer_id="v-1", view_index=2)
        op = protocol.op_of_event(event)
        assert op.kind == "leave"
        back = op.to_event(9.0)
        assert (back.kind, back.viewer_id, back.time) == ("depart", "v-1", 9.0)

    def test_non_event_op_refuses_conversion(self):
        with pytest.raises(protocol.ProtocolError):
            protocol.parse_op("stats").to_event(0.0)

    def test_the_architecture_grammar_names_exactly_the_op_kinds(self):
        section = ARCHITECTURE.read_text().split("### Op protocol grammar", 1)[1]
        block = section.split("```\n", 2)[1]
        entries = []  # one per op: its line and the continuation lines
        for line in block.splitlines():
            if line.startswith(" "):
                entries[-1] += " " + line.strip()
            else:
                entries.append(line)
        assert tuple(entry.split()[0] for entry in entries) == protocol.OP_KINDS
        (advance,) = [entry for entry in entries if entry.startswith("advance ")]
        limit = re.search(r"MAX_ADVANCE_SWEEPS \(([\d ]+)\)", advance)
        assert limit is not None, advance
        assert int(limit.group(1).replace(" ", "")) == MAX_ADVANCE_SWEEPS


class TestMetricsExport:
    def test_counter_name_must_end_in_total(self):
        with pytest.raises(ValueError):
            Metric("repro_widgets", "counter", "bad name")

    def test_kind_validated(self):
        with pytest.raises(ValueError):
            Metric("repro_x", "histogram", "unsupported")

    def test_render_has_help_type_and_samples(self):
        text = render_metrics(
            [
                Metric("repro_x_total", "counter", "things", (({}, 3.0),)),
                Metric(
                    "repro_y",
                    "gauge",
                    "labelled",
                    (({"quantile": "0.5"}, 1.5), ({"quantile": "0.95"}, 2.0)),
                ),
            ]
        )
        assert "# HELP repro_x_total things\n" in text
        assert "# TYPE repro_x_total counter\n" in text
        assert "repro_x_total 3\n" in text
        assert 'repro_y{quantile="0.5"} 1.5\n' in text
        assert text.endswith("\n")

    def test_label_values_escaped(self):
        text = render_metrics(
            [Metric("repro_z", "gauge", "h", (({"op": 'a"b\\c'}, 1.0),))]
        )
        assert 'op="a\\"b\\\\c"' in text

    def test_service_metrics_maps_known_keys(self):
        stats = {
            "sim_time": 12.5,
            "connected_viewers": 7,
            "accepted_requests": 9,
            "repaired_subscriptions_p2p": 2,
            "ops_total": {"join": 4, "stats": 1},
            "observed_join_delay_quantiles": {0.5: 0.1, 0.95: 0.2, 0.99: 0.3},
        }
        names = {metric.name for metric in service_metrics(stats)}
        assert {
            "repro_sim_time_seconds",
            "repro_connected_viewers",
            "repro_accepted_requests_total",
            "repro_repaired_subscriptions_total",
            "repro_ops_total",
            "repro_observed_join_delay_seconds",
        } <= names

    def test_quantiles_of_empty_is_empty(self):
        assert quantiles_of([]) == {}

    def test_quantiles_of_sorted_series(self):
        quantiles = quantiles_of(list(range(101)))
        assert quantiles[0.5] == pytest.approx(50.0)
        assert quantiles[0.95] == pytest.approx(95.0)

    def test_rss_measurable_on_this_platform(self):
        measured = rss_bytes()
        assert measured is None or measured > 0

    @pytest.mark.parametrize(
        "platform, maxrss, expected",
        [
            # 100 MiB: bytes on macOS, KiB on Linux and the BSDs.
            ("darwin", 100 * 2**20, 100 * 2**20),
            ("linux", 100 * 2**10, 100 * 2**20),
            ("freebsd14", 100 * 2**10, 100 * 2**20),
        ],
    )
    def test_rss_fallback_picks_the_unit_by_platform(
        self, monkeypatch, platform, maxrss, expected
    ):
        import resource
        import sys
        import types

        from repro.service import metrics_export

        def no_proc(*_args, **_kwargs):
            raise OSError("no /proc here")

        monkeypatch.setattr(metrics_export, "open", no_proc, raising=False)
        monkeypatch.setattr(sys, "platform", platform)
        monkeypatch.setattr(
            resource, "getrusage", lambda _who: types.SimpleNamespace(ru_maxrss=maxrss)
        )
        assert rss_bytes() == expected


def _daemon(viewers=50, seed=5, lscs=2, **overrides) -> ServiceDaemon:
    serve = ServeConfig(
        viewers=viewers, num_lscs=lscs, time_dilation=0.0, seed=seed, **overrides
    )
    return ServiceDaemon(serve)


def _script(prefix="", joins=12, view_count=3):
    lines = [f"join viewer-{i:05d} {i % view_count}" for i in range(joins)]
    lines += ["advance 10", "leave viewer-00001", "fail viewer-00002", "advance 30"]
    return lines


class TestDaemonOps:
    def test_join_advance_builds_sessions(self):
        daemon = _daemon()
        for line in _script():
            assert daemon.handle_line(line).startswith("ok")
        stats = daemon.stats()
        assert stats["connected_viewers"] == 10
        assert stats["accepted_requests"] == 12
        assert stats["abrupt_departures"] == 1
        assert stats["control_messages_sent"] > 0
        assert stats["control_messages_sent"] == stats["control_messages_delivered"] + (
            stats["control_messages_in_flight"]
        )

    def test_unknown_viewer_rejected_without_state_change(self):
        daemon = _daemon()
        before = deterministic_stats(daemon)
        assert daemon.handle_line("join nobody 0").startswith("err")
        assert daemon.handle_line("lsc_fail LSC-9").startswith("err")
        assert deterministic_stats(daemon) == before

    def test_malformed_line_is_an_error_not_a_crash(self):
        daemon = _daemon()
        assert daemon.handle_line("advance banana").startswith("err")
        assert daemon.handle_line("ping").startswith("ok")

    def test_an_advance_past_the_sweep_limit_is_refused_at_once(self):
        # ``advance 1e12`` used to run 5e11 idle failure sweeps and never
        # answer.  The limit is MAX_ADVANCE_SWEEPS heartbeat periods: at
        # the limit the advance runs, one period past it is refused and
        # the clock stays where it was.
        daemon = _daemon()
        period = daemon.state.driver.heartbeat_period
        limit = MAX_ADVANCE_SWEEPS * period
        for seconds in (1e12, limit + period):
            reply = daemon.handle_line(f"advance {seconds:g}")
            assert reply.startswith("err advance") and "MAX_ADVANCE_SWEEPS" in reply
        assert daemon.state.system.simulator.now == 0.0
        assert daemon.handle_line(f"advance {limit:g}") == (
            f"ok t={limit:.6f} pending={daemon.state.system.simulator.pending}"
        )

    def test_check_needs_replay_for_qoe_invariants(self):
        daemon = _daemon()
        for line in _script():
            daemon.handle_line(line)
        verdict = daemon.handle_line("check")
        assert verdict.startswith("err")
        assert "continuity" in verdict
        assert daemon.handle_line("replay 20").startswith("ok")
        assert daemon.handle_line("check").startswith("ok")

    def test_replay_keeps_session_live(self):
        daemon = _daemon()
        for line in _script():
            daemon.handle_line(line)
        daemon.handle_line("replay 10")
        # The session must keep accepting ops after a replay: heartbeats
        # and the failure sweep were paused and resumed around it.
        assert daemon.handle_line("join viewer-00020 0").startswith("ok")
        assert daemon.handle_line("advance 30").startswith("ok")
        stats = daemon.stats()
        assert stats["connected_viewers"] == 11
        assert stats["data_frames_sent"] > 0

    def test_lsc_fail_applies_failover(self):
        daemon = _daemon()
        for line in _script():
            daemon.handle_line(line)
        assert daemon.handle_line("lsc_fail LSC-0").startswith("ok")
        daemon.handle_line("advance 30")
        assert daemon.stats()["lsc_failovers"] == 1

    def test_stats_line_is_json(self):
        daemon = _daemon()
        response = daemon.handle_line("stats")
        assert response.startswith("ok ")
        parsed = json.loads(response[3:])
        assert parsed["pool_size"] == 50

    def test_metrics_text_renders_current_state(self):
        daemon = _daemon()
        for line in _script():
            daemon.handle_line(line)
        text = daemon.metrics_text()
        assert "repro_connected_viewers 10" in text
        assert "# TYPE repro_control_messages_sent_total counter" in text
        assert 'repro_ops_total{op="join"} 12' in text


#: What each earlier snapshot layout pickled that the current code no
#: longer has.
RETIRED_SNAPSHOT_VERSIONS = {
    1: "StreamId / MatchField as dataclass instances",
    2: "the simulator queue as _QueueEntry dataclasses, DeliveryRecord as a dataclass",
    3: "StreamSubscription, RoutingEntry and ChildForwardingState with a __dict__, "
    "TreeNode without its sort_key slot",
    4: "every ViewerSession with a stored routing table and two outbound-allocation dicts",
    5: "one heartbeat timer per connected viewer and a stored in-flight count",
    6: "gateway buffers as one deque of BufferedFrame records",
    7: "the latency world as a LazyPlanetLabMatrix with an interner and triangular rows",
    8: "[time, seq, callback, label, state] heap entries, PeriodicProcess labels, "
    "four ExperimentConfig and two DataPlaneConfig fields that are gone",
    9: "a CDN holding a list of EdgeServer objects",
    10: "a StreamSubscription beside every TreeNode, gateway buffers as two deques",
    11: "a Scenario without its hosted LSC indices and ownership timeline",
    12: "ViewerEvent with a __dict__ (its slots __setstate__ would read the old "
    "dict's keys as field values)",
}


class TestSnapshotFile:
    def test_save_load_round_trip(self, tmp_path):
        path = str(tmp_path / "state.snap")
        header = save_snapshot(path, {"hello": [1, 2, 3]}, sim_time=4.5)
        state, loaded_header = load_snapshot(path)
        assert state == {"hello": [1, 2, 3]}
        assert loaded_header["sha256"] == header["sha256"]
        assert loaded_header["sim_time"] == 4.5

    def test_truncated_payload_detected(self, tmp_path):
        path = str(tmp_path / "state.snap")
        save_snapshot(path, list(range(1000)), sim_time=0.0)
        with open(path, "rb") as handle:
            data = handle.read()
        with open(path, "wb") as handle:
            handle.write(data[:-10])
        with pytest.raises(SnapshotError):
            load_snapshot(path)

    def test_garbage_file_detected(self, tmp_path):
        path = str(tmp_path / "garbage.snap")
        with open(path, "wb") as handle:
            handle.write(b"\x80\x04 not a snapshot")
        with pytest.raises(SnapshotError):
            load_snapshot(path)

    def test_unpicklable_state_fails_loudly(self):
        with pytest.raises(SnapshotError):
            save_snapshot("/tmp/never-written.snap", lambda: None, sim_time=0.0)

    @pytest.mark.parametrize("version", sorted(RETIRED_SNAPSHOT_VERSIONS))
    def test_retired_version_file_refused_by_name(self, tmp_path, version):
        # Refused before pickle ever sees the payload (the reason each
        # layout no longer unpickles is RETIRED_SNAPSHOT_VERSIONS[version]).
        payload = pickle.dumps({"hello": [1, 2, 3]}, protocol=4)
        header = {
            "created_at": "2026-01-01T00:00:00Z",
            "magic": "repro-service-snapshot",
            "python": "pickle-p4",
            "sha256": hashlib.sha256(payload).hexdigest(),
            "sim_time": 0.0,
            "version": version,
        }
        path = str(tmp_path / f"v{version}.snap")
        with open(path, "wb") as handle:
            handle.write(json.dumps(header, sort_keys=True).encode("ascii") + b"\n")
            handle.write(payload)
        with pytest.raises(SnapshotError, match=f"unsupported version {version}"):
            load_snapshot(path)

    def test_every_earlier_version_is_retired_with_a_reason(self):
        assert sorted(RETIRED_SNAPSHOT_VERSIONS) == list(range(1, SNAPSHOT_VERSION))


class TestInFlightSnapshot:
    """Satellite: drain-and-continue across a snapshot boundary.

    A ``Simulator.run(until=t)`` followed by a snapshot must not drop
    scheduled-but-unfired events.  The regression scenario freezes a
    session at a point where a ``JoinAck`` is provably in flight and
    checks the restored session delivers it.
    """

    def _mid_exchange_state(self):
        state = ServiceState.build(
            experiment_config(ServeConfig(viewers=30, num_lscs=2, seed=9))
        )
        driver = state.driver
        sim = state.system.simulator
        for index in range(6):
            driver.submit(
                ViewerEvent(
                    time=sim.now, kind="join", viewer_id=f"viewer-{index:05d}"
                )
            )
        # Advance in tiny steps until at least one join was accepted at
        # the controller but its ack has not yet reached the viewer: the
        # ack is a scheduled-but-unfired event crossing the snapshot.
        for _ in range(10_000):
            sim.run(until=sim.now + 0.001)
            metrics = state.system.metrics
            if (
                metrics.accepted_requests > 0
                and not metrics.observed_join_delays
                and driver.channel.in_flight > 0
            ):
                return state
        pytest.fail("never caught a JoinAck in flight")

    def test_join_ack_survives_snapshot(self):
        state = self._mid_exchange_state()
        accepted_before = state.system.metrics.accepted_requests
        restored = snapshot_roundtrip(state)
        metrics = restored.system.metrics
        assert metrics.accepted_requests == accepted_before
        assert not metrics.observed_join_delays
        assert restored.driver.channel.in_flight > 0
        # Drain: the in-flight acks must deliver in the restored graph.
        restored.system.simulator.run(until=restored.system.simulator.now + 60)
        assert restored.driver.channel.in_flight == 0
        # Every exchange completed: each accepted join (the one whose ack
        # crossed the snapshot included) recorded its observed latency.
        assert len(metrics.observed_join_delays) == metrics.accepted_requests
        assert metrics.accepted_requests >= accepted_before

    def test_restored_drain_matches_uninterrupted(self):
        state = self._mid_exchange_state()
        restored = snapshot_roundtrip(state)
        for current in (state, restored):
            current.driver.pause_service()
            current.system.simulator.run()
        assert (
            state.system.metrics.summary() == restored.system.metrics.summary()
        )
        assert placement_digest(state.system) == placement_digest(restored.system)


def _run_script(daemon, lines):
    for line in lines:
        response = daemon.handle_line(line)
        assert response.startswith("ok"), (line, response)


def _in_flight(system, kind):
    """The control messages of one kind queued on the simulator."""
    return [
        entry[2].message
        for entry in system.simulator._queue
        if isinstance(getattr(entry[2], "message", None), kind)
    ]


def _detector_times(daemon):
    """Every failure detector's last-heard-from timestamps, per LSC."""
    managers = daemon.state.system.recovery_managers()
    return {
        lsc_id: dict(manager.detector._last_seen)
        for lsc_id, manager in managers.items()
    }


class TestSnapshotParity:
    def test_restore_continues_byte_identically(self, tmp_path):
        script = _script(joins=15)
        extra = ["join viewer-00030 1", "fail viewer-00004", "advance 25", "replay 10"]
        path = str(tmp_path / "mid.snap")

        interrupted = _daemon()
        _run_script(interrupted, script)
        assert interrupted.handle_line(f"snapshot {path}").startswith("ok")
        restored = ServiceDaemon.restore(interrupted.serve, path)
        _run_script(restored, extra)

        straight = _daemon()
        _run_script(straight, script + extra)

        assert deterministic_stats(restored) == deterministic_stats(straight)

    def test_cut_between_a_beat_and_its_landing(self, tmp_path):
        # At 8x control delays a beat is in flight for a second or two of
        # every 2 s period, so the snapshot is cut with beats sent but not
        # landed: they exist only in the driver's ledger, not as events.
        script = _script(joins=15)
        extra = ["join viewer-00030 1", "fail viewer-00004", "advance 3.7"]
        extra += ["replay 10", "view_change viewer-00003 1", "advance 25"]
        path = str(tmp_path / "mid.snap")

        interrupted = _daemon(control_delay_scale=8.0)
        _run_script(interrupted, script)
        assert interrupted.state.driver._beats_in_flight
        assert interrupted.handle_line(f"snapshot {path}").startswith("ok")
        restored = ServiceDaemon.restore(interrupted.serve, path)
        assert restored.state.driver._beats_in_flight
        _run_script(restored, extra)

        straight = _daemon(control_delay_scale=8.0)
        _run_script(straight, script + extra)

        assert deterministic_stats(restored) == deterministic_stats(straight)
        assert _detector_times(restored) == _detector_times(straight)

    def test_a_config_carrying_a_retired_field_restores_without_a_bump(self, tmp_path):
        # A version-9 file written while ExperimentConfig still had
        # ``data_loss_model`` unpickles that attribute onto the config.
        # Nothing reads it (``replace``, ``asdict`` and ``config_hash``
        # read fields only), so the file restores and continues exactly.
        script = _script(joins=15)
        extra = ["join viewer-00030 1", "advance 5", "replay 10", "advance 10"]
        path = str(tmp_path / "retired.snap")

        interrupted = _daemon()
        _run_script(interrupted, script)
        object.__setattr__(interrupted.state.config, "data_loss_model", "bernoulli")
        assert interrupted.handle_line(f"snapshot {path}").startswith("ok")
        restored = ServiceDaemon.restore(interrupted.serve, path)
        assert restored.state.config.data_loss_model == "bernoulli"
        _run_script(restored, extra)

        straight = _daemon()
        _run_script(straight, script + extra)

        assert deterministic_stats(restored) == deterministic_stats(straight)

    def test_a_world_carrying_retired_attributes_restores_without_a_bump(self, tmp_path):
        # A version-9 file written while producer sites had a
        # ``gateway_node_id`` and the CDN an inbound ledger unpickles those
        # attributes onto the restored objects.  Nothing reads them, so the
        # file restores and continues exactly.
        script = _script(joins=15)
        extra = ["join viewer-00030 1", "advance 5", "replay 10", "advance 10"]
        path = str(tmp_path / "retired.snap")

        interrupted = _daemon()
        _run_script(interrupted, script)
        system = interrupted.state.system
        for site in system.producers:
            site.gateway_node_id = f"gateway-{site.site_id}"
        system.cdn.inbound_capacity_mbps = math.inf
        system.cdn._used_inbound = sum(
            stream.bandwidth_mbps for site in system.producers for stream in site.streams
        )
        assert interrupted.handle_line(f"snapshot {path}").startswith("ok")
        restored = ServiceDaemon.restore(interrupted.serve, path)
        assert restored.state.system.producers[0].gateway_node_id == "gateway-A"
        assert restored.state.system.cdn._used_inbound == 32.0
        _run_script(restored, extra)

        straight = _daemon()
        _run_script(straight, script + extra)

        assert deterministic_stats(restored) == deterministic_stats(straight)

    def test_write_only_control_state_restores_without_a_bump(self, tmp_path):
        # A version-13 file written while the control plane still stored
        # state nothing read -- each session's join delay and rejected
        # streams, each LSC's in-flight acks, the system's heartbeat
        # timeout, the driver's staged acks and the repaired count of an
        # in-flight RepairNotify -- unpickles those attributes onto the
        # restored objects.  Nothing reads them, so the file restores and
        # continues exactly.
        script = _script(joins=15) + ["fail viewer-00000"]
        extra = ["join viewer-00030 1", "advance 5", "replay 10", "advance 10"]
        path = str(tmp_path / "write-only.snap")

        interrupted = _daemon(control_delay_scale=8.0)
        _run_script(interrupted, script)
        system = interrupted.state.system
        for _ in range(400):
            repairs = _in_flight(system, RepairNotify)
            if repairs:
                break
            script.append("advance 0.05")
            _run_script(interrupted, script[-1:])
        assert repairs, "no RepairNotify ever in flight"
        for message in repairs:
            object.__setattr__(message, "repaired_subscriptions", 1)
        for lsc in system.gsc.lscs:
            lsc.inflight_acks = {}
            for session in lsc.sessions.values():
                session.join_delay = 0.25
                session.rejected_stream_ids = ()
        system._heartbeat_timeout = 6.0
        interrupted.state.driver._staged_acks = {}
        assert interrupted.handle_line(f"snapshot {path}").startswith("ok")
        restored = ServiceDaemon.restore(interrupted.serve, path)
        assert restored.state.system._heartbeat_timeout == 6.0
        restored_repairs = _in_flight(restored.state.system, RepairNotify)
        assert [m.repaired_subscriptions for m in restored_repairs] == [1] * len(repairs)
        _run_script(restored, extra)

        straight = _daemon(control_delay_scale=8.0)
        _run_script(straight, script + extra)

        assert deterministic_stats(restored) == deterministic_stats(straight)

    def test_parity_over_seeds_and_snapshot_times(self, tmp_path):
        """Property: parity holds for any seed and any snapshot point."""
        rng = SeededRandom(2026)
        for seed in range(20):
            script = _script(joins=10)
            cut = rng.randint(1, len(script) - 1)
            straight = _daemon(viewers=30, seed=seed)
            interrupted = _daemon(viewers=30, seed=seed)
            _run_script(interrupted, script[:cut])
            restored = snapshot_roundtrip(interrupted.state)
            resumed = ServiceDaemon(interrupted.serve, state=restored)
            _run_script(resumed, script[cut:])
            _run_script(straight, script)
            assert (
                deterministic_stats(resumed) == deterministic_stats(straight)
            ), f"seed={seed} cut={cut}"


@pytest.mark.slow
class TestSnapshotParityAtScale:
    def test_1k_viewer_mid_churn_snapshot_is_byte_identical(self):
        """Golden-style: 1k-viewer adversarial churn, snapshot mid-run,

        restore, drain -- the final summary must match the uninterrupted
        run byte for byte (JSON-serialised comparison).
        """
        config, lines = live_op_script("flash-crowd", viewers=1000, seed=4)
        serve = ServeConfig(
            viewers=config.num_viewers,
            num_lscs=config.num_lscs,
            time_dilation=0.0,
            seed=4,
            heartbeat_period=config.heartbeat_period,
        )
        cut = len(lines) // 2

        interrupted = ServiceDaemon(serve)
        _run_script(interrupted, lines[:cut])
        resumed = ServiceDaemon(serve, state=snapshot_roundtrip(interrupted.state))
        _run_script(resumed, lines[cut:] + ["advance 60"])

        straight = ServiceDaemon(serve)
        _run_script(straight, lines + ["advance 60"])

        left = json.dumps(deterministic_stats(resumed), sort_keys=True)
        right = json.dumps(deterministic_stats(straight), sort_keys=True)
        assert left == right


class TestDaemonOverSockets:
    def _serve(self, daemon):
        ready = threading.Event()
        thread = threading.Thread(
            target=daemon.serve_forever, kwargs={"ready": ready}, daemon=True
        )
        thread.start()
        assert ready.wait(timeout=30)
        return thread

    def _connect(self, daemon):
        return socket.create_connection(
            ("127.0.0.1", daemon.bound_port), timeout=30
        )

    def test_ops_and_http_share_one_port(self):
        daemon = _daemon(viewers=30)
        thread = self._serve(daemon)
        try:
            with self._connect(daemon) as sock:
                reader = sock.makefile("r", encoding="utf-8", newline="\n")
                script = [
                    "ping",
                    "join viewer-00000 0",
                    "join viewer-00001 1",
                    "advance 10",
                    "stats",
                ]
                sock.sendall("".join(line + "\n" for line in script).encode())
                responses = [reader.readline().rstrip("\n") for _ in script]
                assert all(r.startswith("ok") for r in responses), responses
                stats = json.loads(responses[-1][3:])
                assert stats["connected_viewers"] == 2

            with self._connect(daemon) as sock:
                sock.sendall(b"GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n")
                payload = b""
                while True:
                    chunk = sock.recv(65536)
                    if not chunk:
                        break
                    payload += chunk
                head, _, body = payload.partition(b"\r\n\r\n")
                assert b"200 OK" in head
                assert b"text/plain" in head
                assert b"repro_connected_viewers 2" in body

            with self._connect(daemon) as sock:
                sock.sendall(b"GET /nope HTTP/1.1\r\n\r\n")
                assert b"404" in sock.recv(65536)
        finally:
            with self._connect(daemon) as sock:
                sock.sendall(b"quit\n")
                sock.recv(64)
            thread.join(timeout=30)
            assert not thread.is_alive()

    def test_overlong_line_is_refused_and_the_connection_closed(self):
        daemon = _daemon(viewers=30)
        assert daemon.handle_line("join viewer-00000 0").startswith("ok")
        assert daemon.handle_line("advance 10").startswith("ok")
        before = deterministic_stats(daemon)
        thread = self._serve(daemon)
        try:
            with self._connect(daemon) as sock:
                # 1 MiB and never a newline.  The daemon stops reading
                # once it has answered, so the tail of the send may fail.
                try:
                    sock.sendall(b"x" * (1 << 20))
                except (BrokenPipeError, ConnectionResetError):
                    pass
                payload = b""
                while True:
                    try:
                        chunk = sock.recv(65536)
                    except ConnectionResetError:
                        break  # closed with our bytes unread: EOF by reset
                    if not chunk:
                        break
                    payload += chunk
                assert payload == b"err line too long\n"
            # Same cap on an HTTP head that never ends.
            with self._connect(daemon) as sock:
                try:
                    sock.sendall(b"GET /" + b"a" * (1 << 18))
                except (BrokenPipeError, ConnectionResetError):
                    pass
                assert sock.recv(65536) == b"err line too long\n"
            with self._connect(daemon) as sock:
                sock.sendall(b"ping\n")
                assert sock.recv(64) == b"ok pong\n"
        finally:
            with self._connect(daemon) as sock:
                sock.sendall(b"quit\n")
                sock.recv(64)
            thread.join(timeout=30)
            assert not thread.is_alive()
        assert deterministic_stats(daemon) == before

    def test_snapshot_restore_over_sockets(self, tmp_path):
        path = str(tmp_path / "socket.snap")
        daemon = _daemon(viewers=30)
        thread = self._serve(daemon)
        with self._connect(daemon) as sock:
            reader = sock.makefile("r", encoding="utf-8", newline="\n")
            script = [
                "join viewer-00000 0",
                "join viewer-00001 1",
                "advance 10",
                f"snapshot {path}",
                "quit",
            ]
            sock.sendall("".join(line + "\n" for line in script).encode())
            responses = [reader.readline().rstrip("\n") for _ in script]
            assert all(r.startswith("ok") for r in responses), responses
        thread.join(timeout=30)

        restored = ServiceDaemon.restore(daemon.serve, path)
        assert (
            deterministic_stats(restored) == deterministic_stats(daemon)
        )


class TestServeCli:
    def test_serve_subcommand_listed_in_help(self, capsys):
        from repro.experiments.__main__ import main

        assert main([]) == 0
        assert "serve:" in capsys.readouterr().out

    def test_serve_parser_builds_config(self):
        from repro.experiments.__main__ import build_serve_parser

        args = build_serve_parser().parse_args(
            ["--viewers", "99", "--dilation", "0", "--seed", "3"]
        )
        assert (args.viewers, args.dilation, args.seed) == (99, 0.0, 3)


class TestLiveOpScript:
    def test_flash_crowd_streams_clean_through_daemon(self):
        config, lines = live_op_script("flash-crowd", viewers=60, seed=3, smoke=True)
        serve = ServeConfig(
            viewers=config.num_viewers,
            num_lscs=config.num_lscs,
            time_dilation=0.0,
            seed=3,
            heartbeat_period=config.heartbeat_period,
        )
        daemon = ServiceDaemon(serve)
        _run_script(daemon, lines)
        _run_script(daemon, ["advance 60", "replay 10"])
        assert daemon.handle_line("check").startswith("ok")


@pytest.mark.soak
class TestSoakSmoke:
    def test_tiny_soak_passes_every_gate(self, tmp_path):
        # Churn through the socket, then the cross-process cycle the
        # soak bench gates: snapshot, kill, spawn with --restore.
        from repro.service.soak import SoakClient, spawn_daemon

        serve = ["--viewers", "300", "--dilation", "0", "--seed", "7", "--port", "0"]
        snapshot = str(tmp_path / "soak-mid.snap")
        daemon = spawn_daemon(serve)
        client = SoakClient(daemon.host, daemon.port)
        try:
            # 600 joins cycle the 300-viewer pool, 100 a round; the oldest
            # leave once 150 are connected.
            for start in range(0, 600, 100):
                leaving = range(max(0, start - 150), max(0, start - 50))
                ops = [f"join viewer-{i % 300:05d} {i % 3}" for i in range(start, start + 100)]
                ops += [f"leave viewer-{i % 300:05d}" for i in leaving]
                assert all(r.startswith("ok") for r in client.ops(ops + ["advance 2"]))
            before = client.stats()["placement_digest"]
            client.must(f"snapshot {snapshot}")
            client.close()
            daemon.kill()
            daemon = spawn_daemon(serve + ["--restore", snapshot])
            client = SoakClient(daemon.host, daemon.port)
            assert client.stats()["placement_digest"] == before
            client.must("advance 30")
            client.must("replay 8")
            assert client.op("check").startswith("ok")
        finally:
            daemon.quit(client)
            client.close()


class TestSpawnDaemon:
    def test_a_daemon_that_never_reports_ready_is_killed_at_the_timeout(
        self, tmp_path, monkeypatch
    ):
        import sys
        import time

        from repro.service import soak

        # A child that sleeps without printing: ``readline()`` on its pipe
        # never returns, so the timeout has to be taken on the wait itself.
        silent = tmp_path / "silent-daemon"
        silent.write_text("#!/bin/sh\nexec sleep 30\n")
        silent.chmod(0o755)
        monkeypatch.setattr(sys, "executable", str(silent))
        monkeypatch.setattr(soak, "_SPAWN_TIMEOUT", 0.5)
        children = []
        popen = soak.subprocess.Popen

        def recording_popen(*args, **kwargs):
            children.append(popen(*args, **kwargs))
            return children[-1]

        monkeypatch.setattr(soak.subprocess, "Popen", recording_popen)
        outcome = []

        def spawn():
            try:
                soak.spawn_daemon(["--port", "0"])
            except soak.SoakError as exc:
                outcome.append(str(exc))

        started = time.monotonic()
        thread = threading.Thread(target=spawn, daemon=True)
        thread.start()
        thread.join(timeout=10.0)  # the parent code hangs here: fail, don't hang
        assert not thread.is_alive(), "spawn_daemon is still waiting on the pipe"
        assert outcome == ["daemon did not print its ready line in time"]
        assert 0.5 <= time.monotonic() - started < 10.0
        (child,) = children
        assert child.returncode == -signal.SIGKILL  # killed and reaped

    def test_a_daemon_that_exits_before_ready_is_reported(self, tmp_path, monkeypatch):
        import sys

        from repro.service import soak

        dying = tmp_path / "dying-daemon"
        dying.write_text("#!/bin/sh\necho 'no world today'\nexit 3\n")
        dying.chmod(0o755)
        monkeypatch.setattr(sys, "executable", str(dying))
        with pytest.raises(soak.SoakError, match=r"exited early \(code 3\)"):
            soak.spawn_daemon([])
