"""Churn client and soak driver for the service daemon.

``python -m repro.service.soak`` spawns (or connects to) a daemon and
pushes sustained join/leave churn through the live op path: a sliding
window of connected viewers cycles through the provisioned pool, every
round pipelines one batch of ops plus an ``advance`` that moves the
simulated clock, and the client periodically samples the daemon's RSS
and placement digest.  Midway through, the soak exercises the
durability story end to end -- ``snapshot``, kill the daemon process,
restart it with ``--restore``, verify the placement digest survived
byte-identically -- then keeps churning against the restored process.

The run ends with a data-plane ``replay`` and a ``check`` (the full
12-invariant catalog), and writes ``BENCH_soak.json`` with three gates:

* ``joins`` -- cumulative joins through the live op path reached the
  target;
* ``memory`` -- the RSS plateau held: the median of the last quarter of
  samples grew no more than ``--rss-growth-bound`` over the median of
  the second quarter (the first quarter is warm-up);
* ``invariants`` -- the final ``check`` reported 12/12 holding.

The daemon runs with ``--dilation 0``: simulation time is advanced
explicitly by the client, so the whole soak is a deterministic function
of its parameters no matter how fast the wall clock ticks.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import socket
import subprocess
import sys
import time
from dataclasses import dataclass, field
from statistics import median
from typing import Dict, List, Optional

#: Wall seconds to wait for a spawned daemon's ready line.
_SPAWN_TIMEOUT = 120.0


class SoakError(RuntimeError):
    """A soak step that failed hard (daemon died, op rejected, ...)."""


class SoakClient:
    """Line-protocol client with pipelining.

    One socket, newline-delimited ops; :meth:`ops` writes a whole batch
    before reading the same number of response lines back, which is what
    makes 100k-join soaks feasible over localhost.
    """

    def __init__(self, host: str, port: int, *, timeout: float = 60.0) -> None:
        self.sock = socket.create_connection((host, port), timeout=timeout)
        self._reader = self.sock.makefile("r", encoding="utf-8", newline="\n")

    def close(self) -> None:
        try:
            self._reader.close()
        finally:
            self.sock.close()

    def ops(self, lines: List[str]) -> List[str]:
        """Pipeline a batch of ops; return one response line per op."""
        payload = "".join(line + "\n" for line in lines).encode("utf-8")
        self.sock.sendall(payload)
        responses = []
        for _ in lines:
            response = self._reader.readline()
            if not response:
                raise SoakError("daemon closed the connection mid-batch")
            responses.append(response.rstrip("\n"))
        return responses

    def op(self, line: str) -> str:
        return self.ops([line])[0]

    def must(self, line: str) -> str:
        """Send one op and require an ``ok`` response."""
        response = self.op(line)
        if not response.startswith("ok"):
            raise SoakError(f"op {line!r} failed: {response}")
        return response

    def stats(self) -> Dict[str, object]:
        response = self.must("stats")
        return json.loads(response[len("ok ") :])


@dataclass
class DaemonProcess:
    """A spawned ``serve`` subprocess and its bound address."""

    process: subprocess.Popen
    host: str
    port: int

    def kill(self) -> None:
        """Terminate without ceremony (the durability test's 'crash')."""
        self.process.kill()
        self.process.wait(timeout=30)

    def quit(self, client: Optional[SoakClient] = None) -> None:
        if client is not None:
            try:
                client.op("quit")
            except (OSError, SoakError):
                pass
        try:
            self.process.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait(timeout=30)


def spawn_daemon(serve_args: List[str]) -> DaemonProcess:
    """Start ``python -m repro.experiments serve`` and wait for its port.

    Raises :class:`SoakError` (after killing the child) when the ready
    line has not arrived within ``_SPAWN_TIMEOUT`` seconds.
    """
    command = [sys.executable, "-m", "repro.experiments", "serve", *serve_args]
    process = subprocess.Popen(
        command,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        env=dict(os.environ),
    )
    deadline = time.monotonic() + _SPAWN_TIMEOUT
    assert process.stdout is not None
    # Read the descriptor, not the buffered file: ``readline()`` blocks
    # for as long as a hung daemon stays silent, and a line already in
    # the file's buffer would never make the descriptor readable again.
    descriptor = process.stdout.fileno()
    pending = b""
    try:
        while True:
            remaining = max(0.0, deadline - time.monotonic())
            if not select.select([descriptor], [], [], remaining)[0]:
                process.kill()
                process.wait()
                raise SoakError("daemon did not print its ready line in time")
            chunk = os.read(descriptor, 65536)
            if not chunk:
                process.wait()
                raise SoakError(f"daemon exited early (code {process.returncode})")
            *lines, pending = (pending + chunk).split(b"\n")
            for line in lines:
                if line.startswith(b"serving on "):
                    address = line.split()[2].decode()
                    host, _, port = address.rpartition(":")
                    return DaemonProcess(process=process, host=host, port=int(port))
    except SoakError:
        process.stdout.close()
        raise


@dataclass
class SoakConfig:
    """Parameters of one soak run (CLI flags of ``repro.service.soak``)."""

    target_joins: int = 100_000
    pool: int = 2000
    window: int = 400
    batch: int = 400
    advance_seconds: float = 2.0
    lscs: int = 3
    seed: int = 7
    view_count: int = 3
    frames_per_stream: int = 20
    rss_growth_bound: float = 1.5
    snapshot_path: str = "snapshots/soak-mid.snap"
    out: str = "BENCH_soak.json"
    #: Skip the mid-soak kill/restore cycle (used by the tiny unit soak).
    no_restore: bool = False


@dataclass
class SoakReport:
    """Everything one soak run measured, JSON-serialisable."""

    config: Dict[str, object]
    joins_total: int = 0
    leaves_total: int = 0
    rounds: int = 0
    wall_seconds: float = 0.0
    sim_seconds: float = 0.0
    rss_samples_bytes: List[int] = field(default_factory=list)
    rss_plateau_ratio: float = 0.0
    restore_digest_match: Optional[bool] = None
    invariants_ok: bool = False
    invariants_detail: str = ""
    final_stats: Dict[str, object] = field(default_factory=dict)
    gates: Dict[str, bool] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(self.gates.values())


def _viewer_id(index: int, pool: int) -> str:
    return f"viewer-{index % pool:05d}"


def _serve_args(config: SoakConfig) -> List[str]:
    return [
        "--viewers",
        str(config.pool),
        "--lscs",
        str(config.lscs),
        "--dilation",
        "0",
        "--seed",
        str(config.seed),
        "--port",
        "0",
    ]


def _rss_plateau_ratio(samples: List[int]) -> float:
    """Growth of the last quarter's median over the second quarter's.

    The first quarter is treated as warm-up (allocator arenas, lazy
    latency cache, reservoir fill); a leak shows up as the tail median
    still climbing relative to the early steady state.
    """
    if len(samples) < 8:
        return 1.0
    quarter = len(samples) // 4
    early = median(samples[quarter : 2 * quarter])
    late = median(samples[-quarter:])
    if early <= 0:
        return 1.0
    return late / early


def run_soak(config: SoakConfig) -> SoakReport:
    """Drive one full soak against a freshly spawned daemon."""
    report = SoakReport(config=dict(vars(config)))
    started = time.perf_counter()
    daemon = spawn_daemon(_serve_args(config))
    client = SoakClient(daemon.host, daemon.port)
    try:
        joined = 0
        departed = 0
        rounds = 0
        restore_done = config.no_restore
        next_join = 0
        next_leave = 0
        while joined < config.target_joins:
            batch: List[str] = []
            for _ in range(config.batch):
                batch.append(
                    f"join {_viewer_id(next_join, config.pool)} "
                    f"{next_join % config.view_count}"
                )
                next_join += 1
            # Keep the connected window bounded: once it is full, every
            # join is paired with the departure of the oldest member.
            while next_join - next_leave > config.window:
                batch.append(f"leave {_viewer_id(next_leave, config.pool)}")
                next_leave += 1
            batch.append(f"advance {config.advance_seconds:g}")
            responses = client.ops(batch)
            bad = [r for r in responses if not r.startswith("ok")]
            if bad:
                raise SoakError(f"{len(bad)} ops rejected, first: {bad[0]}")
            joined = next_join
            departed = next_leave
            rounds += 1
            if rounds % 10 == 0:
                stats = client.stats()
                rss = stats.get("rss_bytes")
                if isinstance(rss, int):
                    report.rss_samples_bytes.append(rss)
            if not restore_done and joined >= config.target_joins // 2:
                restore_done = True
                client, daemon = _kill_and_restore(
                    config, client, daemon, report
                )
        # Let in-flight traffic and pending departures settle, then
        # exercise the data plane so the QoE invariants have samples.
        client.must(f"advance {max(30.0, 3 * config.advance_seconds):g}")
        client.must(f"replay {config.frames_per_stream}")
        check = client.op("check")
        report.invariants_ok = check.startswith("ok")
        report.invariants_detail = check
        report.final_stats = client.stats()
        rss = report.final_stats.get("rss_bytes")
        if isinstance(rss, int):
            report.rss_samples_bytes.append(rss)
        report.joins_total = joined
        report.leaves_total = departed
        report.rounds = rounds
        report.sim_seconds = float(report.final_stats.get("sim_time", 0.0))
        report.rss_plateau_ratio = _rss_plateau_ratio(report.rss_samples_bytes)
        report.gates = {
            "joins": report.joins_total >= config.target_joins,
            "memory": report.rss_plateau_ratio <= config.rss_growth_bound,
            "invariants": report.invariants_ok,
        }
        if report.restore_digest_match is not None:
            report.gates["restore"] = report.restore_digest_match
        return report
    finally:
        report.wall_seconds = time.perf_counter() - started
        daemon.quit(client)
        client.close()


def _kill_and_restore(
    config: SoakConfig,
    client: SoakClient,
    daemon: DaemonProcess,
    report: SoakReport,
) -> tuple:
    """Snapshot, kill the daemon, restart from the snapshot, verify.

    Returns the replacement ``(client, daemon)`` pair.  The placement
    digest -- a canonical hash of every subscription edge -- must be
    byte-identical across the restart.
    """
    digest_before = client.stats()["placement_digest"]
    client.must(f"snapshot {config.snapshot_path}")
    client.close()
    daemon.kill()
    daemon = spawn_daemon(_serve_args(config) + ["--restore", config.snapshot_path])
    client = SoakClient(daemon.host, daemon.port)
    digest_after = client.stats()["placement_digest"]
    report.restore_digest_match = digest_before == digest_after
    if not report.restore_digest_match:
        raise SoakError(
            f"placement digest changed across restore: "
            f"{digest_before} != {digest_after}"
        )
    return client, daemon


def write_report(report: SoakReport, path: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(vars(report) | {"passed": report.passed}, handle, indent=2)
        handle.write("\n")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service.soak",
        description=(
            "Spawn a service daemon and push sustained join/leave churn "
            "through the live op path, with a mid-soak snapshot/kill/restore "
            "cycle and invariant + memory gates; writes BENCH_soak.json."
        ),
    )
    parser.add_argument("--target-joins", type=int, default=100_000)
    parser.add_argument("--pool", type=int, default=2000)
    parser.add_argument("--window", type=int, default=400)
    parser.add_argument("--batch", type=int, default=400)
    parser.add_argument("--advance", type=float, default=2.0, dest="advance_seconds")
    parser.add_argument("--lscs", type=int, default=3)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--frames", type=int, default=20, dest="frames_per_stream")
    parser.add_argument("--rss-growth-bound", type=float, default=1.5)
    parser.add_argument("--snapshot-path", default="snapshots/soak-mid.snap")
    parser.add_argument("--out", default="BENCH_soak.json")
    parser.add_argument(
        "--no-restore",
        action="store_true",
        help="skip the mid-soak kill/restore cycle",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    config = SoakConfig(
        target_joins=args.target_joins,
        pool=args.pool,
        window=args.window,
        batch=args.batch,
        advance_seconds=args.advance_seconds,
        lscs=args.lscs,
        seed=args.seed,
        frames_per_stream=args.frames_per_stream,
        rss_growth_bound=args.rss_growth_bound,
        snapshot_path=args.snapshot_path,
        out=args.out,
        no_restore=args.no_restore,
    )
    report = run_soak(config)
    write_report(report, config.out)
    print(
        f"soak: joins={report.joins_total} rounds={report.rounds} "
        f"sim={report.sim_seconds:.0f}s wall={report.wall_seconds:.1f}s "
        f"rss_plateau={report.rss_plateau_ratio:.3f} "
        f"restore={'ok' if report.restore_digest_match else 'skipped'} "
        f"gates={report.gates}"
    )
    if not report.passed:
        print(f"FAILED gates: {[k for k, v in report.gates.items() if not v]}")
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised by the CI soak job
    sys.exit(main())
