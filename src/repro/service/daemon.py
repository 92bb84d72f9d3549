"""The long-lived service daemon: live ops, pacing, metrics, snapshots.

The batch drivers replay a pre-baked schedule and exit; the daemon keeps
one :class:`~repro.core.session.EventDrivenSession` open indefinitely
and feeds it ops as they arrive over TCP.  Three clocks interact:

* the *simulated* clock (the :class:`~repro.sim.engine.Simulator`), on
  which every control message and failure sweep fires (heartbeats are
  settled against it arithmetically, not scheduled on it);
* the *wall* clock, against which the daemon paces the simulator --
  every loop tick advances simulation time by
  ``elapsed_wall * time_dilation`` seconds;
* with ``time_dilation == 0`` the simulated clock only moves on explicit
  ``advance`` ops, which makes a daemon run a deterministic function of
  its op script -- the property the snapshot-parity tests and the soak
  gate lean on.

One TCP port speaks both protocols: newline-delimited ops
(:mod:`repro.service.protocol`) and just enough HTTP for a Prometheus
scraper (``GET /metrics``) or a human (``GET /stats``).  The loop is
single-threaded (``selectors``), so op handling never races the pacing
advance and the session graph needs no locks -- which is also what makes
the ``snapshot`` op sound: the graph is quiescent whenever a line is
being handled.
"""

from __future__ import annotations

import json
import os
import selectors
import socket
import time
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

from repro.core.dataplane import DataPlaneConfig, SimulatedDataPlane
from repro.core.session import EventDrivenSession
from repro.experiments.config import PAPER_CONFIG, ExperimentConfig
from repro.experiments.runner import Scenario, build_scenario, build_telecast_system
from repro.metrics.placement import placement_digest
from repro.scenarios.invariants import INVARIANTS, check_invariants
from repro.service import protocol
from repro.service.metrics_export import (
    render_metrics,
    rss_bytes,
    service_metrics,
    session_stats,
)
from repro.service.snapshot import load_snapshot, save_snapshot
from repro.sim.rng import SeededRandom
from repro.traces.teeve import TeeveSessionTrace
from repro.util.validation import require_non_negative

#: Ops that mutate session state and therefore count into the pickled
#: :attr:`ServiceState.ops_applied` (read-only ops are daemon-local).
STATEFUL_OPS = ("join", "leave", "view_change", "fail", "lsc_fail", "advance", "replay")

#: Stats keys that legitimately differ between a restored daemon and an
#: uninterrupted one (wall-clock, process-local or op-accounting noise).
#: Everything else must match exactly after a snapshot/restore -- the
#: parity tests compare ``stats() - VOLATILE_STATS_KEYS``.
VOLATILE_STATS_KEYS = frozenset(
    {
        "uptime_seconds",
        "event_loop_lag_seconds",
        "rss_bytes",
        "snapshots_taken",
        # Merged with daemon-local read-only op counts (stats/ping/check),
        # which a restored daemon legitimately has not seen; the pickled
        # stateful counts are compared via "stateful_ops" instead.
        "ops_total",
    }
)

#: Longest op line (or HTTP request head) a connection may buffer before
#: its terminator arrives: one ``recv``.  A peer that exceeds it is
#: answered ``err line too long`` and disconnected.
MAX_LINE_BYTES = 65536

#: Event-loop select timeout / pacing granularity, wall seconds.
TICK_SECONDS = 0.05

#: Invariant parameters the ``check`` op evaluates the full catalog
#: under.  A live session sees orders of magnitude more control traffic
#: than a batch scenario (heartbeats accrue forever), so the stale
#: allowance is expressed mostly as a fraction of deliveries.
SERVICE_INVARIANT_PARAMS = {
    "bounded_stale_control": {"max_stale_abs": 50, "max_stale_fraction": 0.10},
    "acceptance_floor": {"min_acceptance": 0.5},
    "scenario_exercised": {"exercised": {"accepted_requests": 1}},
}


@dataclass(frozen=True)
class ServeConfig:
    """Parameters of one daemon process (CLI flags of ``serve``)."""

    host: str = "127.0.0.1"
    #: ``0`` binds an ephemeral port (printed on the ready line).
    port: int = 0
    #: Provisioned viewer pool (ignored when restoring from a snapshot).
    viewers: int = 400
    num_lscs: int = 3
    #: Simulated seconds per wall-clock second; ``0`` disables pacing so
    #: time moves only on explicit ``advance`` ops (deterministic mode).
    time_dilation: float = 1.0
    #: Heartbeat interval of connected viewers.  Must stay below the
    #: detectors' ``heartbeat_timeout`` (10 s in the paper config) or
    #: the failure sweep declares every idle viewer dead.
    heartbeat_period: float = 2.0
    control_delay_scale: float = 1.0
    #: Re-derives every world/workload RNG seed when set.
    seed: Optional[int] = None
    #: Directory default ``snapshot`` ops write into.
    snapshot_dir: str = "snapshots"
    #: Restore the session from this snapshot instead of building fresh.
    restore: Optional[str] = None
    #: Exit the loop after this many wall seconds (soak CI guard); ``0``
    #: stops after the first tick.
    max_wall_seconds: Optional[float] = None

    def __post_init__(self) -> None:
        require_non_negative(self.time_dilation, "time_dilation")
        if self.max_wall_seconds is not None:
            require_non_negative(self.max_wall_seconds, "max_wall_seconds")


def experiment_config(serve: ServeConfig) -> ExperimentConfig:
    """The experiment config of one fresh daemon world."""
    overrides: Dict[str, object] = {
        "num_lscs": serve.num_lscs,
        "control_plane": "simulated",
        "heartbeat_period": serve.heartbeat_period,
        "control_delay_scale": serve.control_delay_scale,
    }
    config = PAPER_CONFIG.with_scaled_population(serve.viewers, **overrides)
    return config if serve.seed is None else config.with_seed(serve.seed)


@dataclass
class ServiceState:
    """The pickled root of a daemon snapshot.

    Everything a restored daemon needs to continue exactly where the
    snapshotted one stood: the experiment config (world parameters), the
    producer sites (frame traces for ``replay`` ops), the live
    :class:`~repro.core.telecast.TeleCastSystem` (whose simulator queue
    carries every scheduled-but-unfired event, in-flight control
    messages included) and the open driver.  Wall-clock state
    deliberately stays out: a restored daemon re-anchors pacing to its
    own wall clock at the snapshot's simulated time.
    """

    config: ExperimentConfig
    scenario: Scenario
    system: object  # TeleCastSystem
    driver: EventDrivenSession
    ops_applied: Dict[str, int] = field(default_factory=dict)
    snapshots_taken: int = 0

    @classmethod
    def build(cls, config: ExperimentConfig) -> "ServiceState":
        """Build a fresh world and open a live session over it.

        The scenario's pre-baked event schedule is ignored -- the pool
        and substrates are built exactly as the batch runner builds
        them, but traffic arrives over the wire instead.
        """
        scenario = build_scenario(config)
        system = build_telecast_system(scenario)
        driver = EventDrivenSession(
            system,
            scenario.viewers,
            scenario.views,
            snapshot_every=None,
            heartbeat_period=config.heartbeat_period,
            delay_scale=config.control_delay_scale,
        )
        driver.open_service()
        return cls(config=config, scenario=scenario, system=system, driver=driver)

    def count_op(self, kind: str) -> None:
        self.ops_applied[kind] = self.ops_applied.get(kind, 0) + 1


@dataclass(frozen=True)
class _LiveSpec:
    """Spec shim so the live session satisfies the invariant runner."""

    invariants: Tuple[str, ...]
    invariant_params: Dict[str, Dict[str, object]]


@dataclass(frozen=True)
class _LiveRun:
    """Run shim: the live session dressed as a finished ScenarioRun."""

    spec: _LiveSpec
    scenario: Scenario
    system: object
    metrics: object
    summary: Dict[str, float]


class _Connection:
    """Per-socket buffers of the selector loop."""

    __slots__ = ("sock", "inbound", "outbound", "http", "closing")

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self.inbound = bytearray()
        self.outbound = bytearray()
        self.http = False
        self.closing = False


class ServiceDaemon:
    """One live session behind one TCP port.

    Construct with a :class:`ServeConfig` (fresh world) or via
    :meth:`restore` (resume a snapshot), then either call
    :meth:`serve_forever` or drive :meth:`handle_line` directly -- the
    protocol layer is independent of the transport, which is how the
    unit tests exercise ops without sockets.
    """

    def __init__(self, serve: ServeConfig, state: Optional[ServiceState] = None) -> None:
        self.serve = serve
        if state is None:
            state = ServiceState.build(experiment_config(serve))
        self.state = state
        self.bound_port: Optional[int] = None
        self._quit = False
        self._lag = 0.0
        self._local_ops: Dict[str, int] = {}
        self._started_wall = time.perf_counter()
        self._wall_anchor = self._started_wall
        self._sim_anchor = self.state.system.simulator.now

    @classmethod
    def restore(cls, serve: ServeConfig, path: str) -> "ServiceDaemon":
        """Resume a daemon from a snapshot file.

        The restored graph is not touched in any way -- the failure
        sweeper and every in-flight message are already inside the
        pickled simulator queue and the heartbeat ledger inside the
        pickled driver, so mutating anything here would break parity
        with the uninterrupted run.
        """
        state, _header = load_snapshot(path)
        if not isinstance(state, ServiceState):
            raise TypeError(f"snapshot {path!r} does not hold a ServiceState")
        return cls(serve, state=state)

    # -- op handling -----------------------------------------------------------

    def handle_line(self, line: str) -> str:
        """Process one protocol line; always return one response line."""
        try:
            op = protocol.parse_op(line)
        except protocol.ProtocolError as exc:
            return f"err {exc}"
        try:
            return self._apply(op)
        except protocol.ProtocolError as exc:
            return f"err {exc}"
        except Exception as exc:  # noqa: BLE001 - daemon must not die on one op
            return f"err internal {type(exc).__name__}: {exc}"

    def _apply(self, op: protocol.Op) -> str:
        sim = self.state.system.simulator
        if op.kind in protocol.EVENT_KINDS:
            self._validate_target(op)
            self.state.driver.submit(op.to_event(sim.now))
            self.state.count_op(op.kind)
            return f"ok queued t={sim.now:.6f}"
        if op.kind == "advance":
            started = time.perf_counter()
            sim.run(until=sim.now + op.seconds)
            self._lag = time.perf_counter() - started
            self.state.count_op(op.kind)
            return f"ok t={sim.now:.6f} pending={sim.pending}"
        if op.kind == "replay":
            return self._replay(op.frames)
        if op.kind == "snapshot":
            return self._snapshot(op.path)
        if op.kind == "check":
            self._count_local("check")
            violations = self._check_invariants()
            if violations:
                flat = "; ".join(
                    f"{name}: {'; '.join(messages)}"
                    for name, messages in sorted(violations.items())
                )
                return f"err invariants failed ({len(violations)}/{len(INVARIANTS)}): {flat}"
            return f"ok {len(INVARIANTS)}/{len(INVARIANTS)} invariants hold"
        if op.kind == "stats":
            self._count_local("stats")
            return "ok " + json.dumps(self.stats(), sort_keys=True, separators=(",", ":"))
        if op.kind == "ping":
            self._count_local("ping")
            return "ok pong"
        if op.kind == "quit":
            self._quit = True
            return "ok bye"
        raise protocol.ProtocolError(f"unhandled op {op.kind!r}")  # pragma: no cover

    def _validate_target(self, op: protocol.Op) -> None:
        if op.kind == "lsc_fail":
            if not self.state.system.gsc.has_lsc(op.viewer_id):
                raise protocol.ProtocolError(f"unknown LSC {op.viewer_id!r}")
            return
        if op.viewer_id not in self.state.driver.by_id:
            raise protocol.ProtocolError(f"unknown viewer {op.viewer_id!r}")

    def _replay(self, frames: int) -> str:
        """Run a data-plane frame replay over the live overlay.

        The failure sweeper is self-rescheduling, so the replay's drain
        (``sim.run()``) would never return against a live session; the
        driver is paused for the duration and resumed afterwards.
        In-flight control messages -- heartbeats the pause hands over
        included -- still deliver during the replay: they are part of
        the queue being drained, which mirrors the batch wind-down.
        """
        state = self.state
        dp_config = state.config.data_plane_config() or DataPlaneConfig(
            seed=state.config.seed
        )
        dp_config = replace(dp_config, max_frames_per_stream=frames)
        trace = TeeveSessionTrace(
            state.scenario.producers, rng=SeededRandom(dp_config.seed)
        )
        plane = SimulatedDataPlane(state.system, trace, dp_config)
        state.driver.pause_service()
        try:
            report = plane.run()
        finally:
            state.driver.open_service()
        state.system.metrics.record_qoe(report)
        state.count_op("replay")
        metrics = state.system.metrics
        return (
            f"ok frames sent={metrics.data_frames_sent} "
            f"delivered={metrics.data_frames_delivered} "
            f"lost={metrics.data_frames_lost}"
        )

    def _snapshot(self, path: Optional[str]) -> str:
        sim = self.state.system.simulator
        if path is None:
            path = os.path.join(
                self.serve.snapshot_dir, f"service-{sim.now:015.6f}.snap"
            )
        header = save_snapshot(path, self.state, sim_time=sim.now)
        self.state.snapshots_taken += 1
        return f"ok {path} sha256={header['sha256'][:16]} sim_time={sim.now:.6f}"

    def _count_local(self, kind: str) -> None:
        self._local_ops[kind] = self._local_ops.get(kind, 0) + 1

    # -- introspection ---------------------------------------------------------

    def _sync_control_traffic(self) -> None:
        """Publish the live channel counters into the session metrics.

        The batch driver accumulates them once at ``finish()``; a live
        session has no finish, so the cumulative totals are assigned
        (idempotently, not added) whenever stats or invariants read them
        -- after the heartbeat ledger has been settled through now.
        """
        metrics = self.state.system.metrics
        self.state.driver.settle_heartbeats()
        channel = self.state.driver.channel
        metrics.control_messages_sent = channel.sent
        metrics.control_messages_delivered = channel.delivered

    def _check_invariants(self) -> Dict[str, List[str]]:
        self._sync_control_traffic()
        metrics = self.state.system.metrics
        run = _LiveRun(
            spec=_LiveSpec(
                invariants=tuple(INVARIANTS), invariant_params=SERVICE_INVARIANT_PARAMS
            ),
            scenario=self.state.scenario,
            system=self.state.system,
            metrics=metrics,
            summary=metrics.summary(),
        )
        return check_invariants(run)

    def stats(self) -> Dict[str, object]:
        """Flat JSON-safe stats mapping (also the /metrics source).

        Deterministic given the op history when ``time_dilation`` is 0 --
        except for the keys in :data:`VOLATILE_STATS_KEYS`, which carry
        wall-clock or process-local measurements.
        """
        self._sync_control_traffic()
        state = self.state
        sim = state.system.simulator
        metrics = state.system.metrics
        driver = state.driver
        connected = sum(len(lsc.sessions) for lsc in state.system.gsc.lscs)
        ops_total = dict(state.ops_applied)
        for kind, count in self._local_ops.items():
            ops_total[kind] = ops_total.get(kind, 0) + count
        stats: Dict[str, object] = {
            "uptime_seconds": time.perf_counter() - self._started_wall,
            "sim_time": sim.now,
            "time_dilation": self.serve.time_dilation,
            "event_loop_lag_seconds": self._lag,
            "connected_viewers": connected,
            "pool_size": len(driver.by_id),
            "requests_total": metrics.accepted_requests + metrics.rejected_requests,
            "joins_applied": driver.joins_seen,
            "control_messages_in_flight": driver.channel.in_flight,
            "pending_events": sim.pending,
            "ops_total": ops_total,
            "stateful_ops": dict(state.ops_applied),
            "snapshots_taken": state.snapshots_taken,
            "placement_digest": placement_digest(state.system),
        }
        rss = rss_bytes()
        if rss is not None:
            stats["rss_bytes"] = rss
        stats.update(session_stats(metrics))
        return stats

    def metrics_text(self) -> str:
        """The Prometheus text exposition of the current stats."""
        return render_metrics(service_metrics(self.stats()))

    # -- transport -------------------------------------------------------------

    def _http_response(self, request_line: str) -> bytes:
        parts = request_line.split()
        path = parts[1] if len(parts) >= 2 else "/"
        if path in ("/metrics", "/metrics/"):
            body = self.metrics_text().encode("utf-8")
            content_type = "text/plain; version=0.0.4; charset=utf-8"
            status = "200 OK"
        elif path in ("/stats", "/stats/"):
            body = (
                json.dumps(self.stats(), sort_keys=True, indent=2) + "\n"
            ).encode("utf-8")
            content_type = "application/json"
            status = "200 OK"
        else:
            body = b"not found\n"
            content_type = "text/plain; charset=utf-8"
            status = "404 Not Found"
        head = (
            f"HTTP/1.1 {status}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n"
            "Connection: close\r\n"
            "\r\n"
        )
        return head.encode("ascii") + body

    def _advance_wall(self) -> None:
        """Pace the simulator against the wall clock (dilation > 0)."""
        if self.serve.time_dilation <= 0:
            return
        sim = self.state.system.simulator
        elapsed = time.perf_counter() - self._wall_anchor
        target = self._sim_anchor + elapsed * self.serve.time_dilation
        if target > sim.now:
            started = time.perf_counter()
            sim.run(until=target)
            self._lag = time.perf_counter() - started

    def serve_forever(self, ready=None) -> None:
        """Run the accept/op/pacing loop until a ``quit`` op (or deadline).

        ``ready`` is an optional :class:`threading.Event` set once the
        listener is bound (the in-process tests wait on it); out-of-
        process clients instead wait for the ``serving on host:port``
        line on stdout.
        """
        listener = socket.create_server((self.serve.host, self.serve.port))
        listener.setblocking(False)
        self.bound_port = listener.getsockname()[1]
        selector = selectors.DefaultSelector()
        selector.register(listener, selectors.EVENT_READ, None)
        self._started_wall = time.perf_counter()
        self._wall_anchor = self._started_wall
        self._sim_anchor = self.state.system.simulator.now
        print(
            f"serving on {self.serve.host}:{self.bound_port} "
            f"pool={len(self.state.driver.by_id)} "
            f"dilation={self.serve.time_dilation:g}",
            flush=True,
        )
        if ready is not None:
            ready.set()
        try:
            while not self._quit:
                for key, mask in selector.select(timeout=TICK_SECONDS):
                    if key.data is None:
                        self._accept(listener, selector)
                    else:
                        self._service(key, mask, selector)
                self._advance_wall()
                if (
                    self.serve.max_wall_seconds is not None
                    and time.perf_counter() - self._started_wall
                    > self.serve.max_wall_seconds
                ):
                    print("max wall time reached; shutting down", flush=True)
                    self._quit = True
        finally:
            for key in list(selector.get_map().values()):
                if key.data is not None:
                    key.fileobj.close()
            selector.close()
            listener.close()

    def _accept(self, listener: socket.socket, selector) -> None:
        try:
            sock, _addr = listener.accept()
        except OSError:
            return
        sock.setblocking(False)
        selector.register(sock, selectors.EVENT_READ, _Connection(sock))

    def _service(self, key, mask: int, selector) -> None:
        conn: _Connection = key.data
        if mask & selectors.EVENT_READ:
            try:
                chunk = conn.sock.recv(MAX_LINE_BYTES)
            except (BlockingIOError, InterruptedError):
                chunk = None
            except OSError:
                chunk = b""
            if chunk == b"":
                self._drop(conn, selector)
                return
            if chunk and not conn.closing:
                conn.inbound += chunk
                self._consume(conn)
                if len(conn.inbound) > MAX_LINE_BYTES:
                    # What is left after every complete line was consumed
                    # is one unterminated line (or HTTP head).
                    conn.inbound.clear()
                    conn.outbound += b"err line too long\n"
                    conn.closing = True
        if mask & selectors.EVENT_WRITE or conn.outbound:
            self._flush(conn, selector)

    def _consume(self, conn: _Connection) -> None:
        if not conn.http and conn.inbound[:4] in (b"GET ", b"HEAD"):
            conn.http = True
        if conn.http:
            if b"\r\n\r\n" not in conn.inbound and b"\n\n" not in conn.inbound:
                return
            request_line = bytes(conn.inbound).split(b"\r\n", 1)[0].split(b"\n", 1)[0]
            conn.inbound.clear()
            conn.outbound += self._http_response(
                request_line.decode("utf-8", errors="replace")
            )
            conn.closing = True
            return
        while True:
            newline = conn.inbound.find(b"\n")
            if newline < 0:
                return
            line = bytes(conn.inbound[:newline]).decode("utf-8", errors="replace")
            del conn.inbound[: newline + 1]
            if not line.strip():
                continue
            response = self.handle_line(line)
            conn.outbound += response.encode("utf-8") + b"\n"

    def _flush(self, conn: _Connection, selector) -> None:
        if conn.outbound:
            try:
                sent = conn.sock.send(conn.outbound)
                del conn.outbound[:sent]
            except (BlockingIOError, InterruptedError):
                pass
            except OSError:
                self._drop(conn, selector)
                return
        if conn.outbound:
            selector.modify(
                conn.sock, selectors.EVENT_READ | selectors.EVENT_WRITE, conn
            )
        elif conn.closing:
            self._drop(conn, selector)
        else:
            selector.modify(conn.sock, selectors.EVENT_READ, conn)

    def _drop(self, conn: _Connection, selector) -> None:
        try:
            selector.unregister(conn.sock)
        except (KeyError, ValueError):
            pass
        conn.sock.close()
