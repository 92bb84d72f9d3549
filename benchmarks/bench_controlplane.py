"""Event-driven control-plane overhead benchmark (simulated vs instant).

The simulated control plane turns every workload operation into in-flight
control messages (requests, acks, notices) scheduled on the
discrete-event engine, next to a periodic failure sweep and a heartbeat
ledger settled arithmetically.  That machinery must stay cheap: the
admission pipeline dominates a join either way, so delivering it through
the message plane may not cost more than a modest constant factor.

This benchmark runs the same 2k-viewer spread-arrival scenario once under
``control_plane="instant"`` and once under ``control_plane="simulated"``,
reports the simulated driver's throughput in control messages per second
(heartbeats included; they are messages but no longer engine events, so
events per second would fall while the wall clock improves), and emits
the machine-readable ``BENCH_controlplane.json`` perf-trajectory record.
The script exits non-zero when

* the simulated run is more than ``--max-slowdown`` (default 1.5x)
  slower than the instant run in wall-clock time, or
* the two drivers disagree on connected viewers or acceptance (the
  workload has nonzero control delays, so small placement differences are
  expected -- the gate bounds drift, it does not demand equality).

Usage::

    PYTHONPATH=src python benchmarks/bench_controlplane.py
    PYTHONPATH=src python benchmarks/bench_controlplane.py --viewers 500
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

from repro.experiments.config import PAPER_CONFIG, ExperimentConfig
from repro.experiments.runner import build_scenario, build_telecast_system

#: Population of the benchmark scenario.
DEFAULT_VIEWERS = 2000

#: Allowed wall-clock factor of simulated over instant mode.
DEFAULT_MAX_SLOWDOWN = 1.5

#: Allowed relative acceptance-ratio drift between the two drivers (the
#: simulated plane reorders contended joins, which can move a few
#: admissions around; it must not change the aggregate picture).
ACCEPTANCE_DRIFT = 0.05


def _config(num_viewers: int) -> ExperimentConfig:
    """Spread Poisson arrivals so control latency has room to matter.

    A 100/s arrival rate keeps the session horizon (and with it the
    heartbeat volume) proportional to the population instead of putting
    every join at t=0 where the message plane would have nothing to do;
    with in-flight join latencies around 0.5 s, tens of joins overlap at
    any instant.
    """
    return PAPER_CONFIG.with_scaled_population(
        num_viewers,
        num_lscs=3,
        arrival_rate_per_second=100.0,
        heartbeat_period=5.0,
    )


#: Wall-clock repetitions per leg; the fastest is reported (the metrics
#: are deterministic, only the timing varies).
REPETITIONS = 2


def _run(config: ExperimentConfig, control_plane: str) -> Dict[str, float]:
    elapsed = float("inf")
    for _ in range(REPETITIONS):
        # A scenario is stateful (CDN reservations, viewer buffers) and
        # can only be run once; rebuild it per repetition.
        scenario = build_scenario(config)
        system = build_telecast_system(scenario)
        started = time.perf_counter()
        metrics = system.run_workload(
            scenario.viewers,
            scenario.events,
            scenario.views,
            control_plane=control_plane,
            heartbeat_period=config.heartbeat_period,
            control_delay_scale=config.control_delay_scale,
        )
        elapsed = min(elapsed, time.perf_counter() - started)
    snapshot = system.snapshot()
    fired = system.simulator.fired
    summary = metrics.summary()
    sent = int(summary.get("control_messages_sent", 0))
    return {
        "control_plane": control_plane,
        "wall_clock_s": round(elapsed, 4),
        "sim_events_fired": fired,
        "connected": snapshot.num_viewers,
        "acceptance_ratio": snapshot.acceptance_ratio,
        "control_messages_sent": sent,
        "messages_per_s": round(sent / elapsed, 1) if elapsed > 0 else float("inf"),
        "stale_control_messages": int(summary.get("stale_control_messages", 0)),
        "observed_join_delay_p50": summary.get("observed_join_delay_p50"),
        "analytic_join_delay_p50": summary.get("join_delay_p50"),
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--viewers",
        type=int,
        default=DEFAULT_VIEWERS,
        help="population of the benchmark scenario (default: %(default)s)",
    )
    parser.add_argument(
        "--max-slowdown",
        type=float,
        default=DEFAULT_MAX_SLOWDOWN,
        help="allowed simulated/instant wall-clock factor (default: %(default)s)",
    )
    parser.add_argument(
        "--record",
        default="BENCH_controlplane.json",
        help="where to write the JSON record (default: %(default)s)",
    )
    args = parser.parse_args(argv)
    if args.viewers <= 0:
        parser.error("--viewers must be > 0")
    if args.max_slowdown <= 0:
        parser.error("--max-slowdown must be > 0")

    config = _config(args.viewers)
    instant = _run(config, "instant")
    simulated = _run(config.with_(control_plane="simulated"), "simulated")
    slowdown = (
        simulated["wall_clock_s"] / instant["wall_clock_s"]
        if instant["wall_clock_s"] > 0
        else float("inf")
    )

    record = {
        "benchmark": "controlplane",
        "num_viewers": args.viewers,
        "heartbeat_period_s": config.heartbeat_period,
        "instant": instant,
        "simulated": simulated,
        "slowdown": round(slowdown, 3),
        "max_slowdown": args.max_slowdown,
    }
    Path(args.record).write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")

    print(f"population                   : {args.viewers} viewers, 3 LSCs")
    print(
        f"instant                      : {instant['wall_clock_s'] * 1000:8.1f} ms "
        f"({instant['sim_events_fired']} sim events)"
    )
    print(
        f"simulated                    : {simulated['wall_clock_s'] * 1000:8.1f} ms "
        f"({simulated['sim_events_fired']} sim events, "
        f"{simulated['control_messages_sent']} messages, "
        f"{simulated['stale_control_messages']} stale)"
    )
    print(f"simulated driver throughput  : {simulated['messages_per_s']:10.1f} messages/s")
    print(f"slowdown (simulated/instant) : {slowdown:8.2f}x (gate: <= {args.max_slowdown}x)")
    observed = simulated["observed_join_delay_p50"]
    analytic = simulated["analytic_join_delay_p50"]
    if observed is not None and analytic is not None:
        print(
            f"join delay p50               : observed {observed:.3f}s "
            f"vs analytic {analytic:.3f}s"
        )
    print(f"record written to            : {args.record}")

    failures = []
    if slowdown > args.max_slowdown:
        failures.append(
            f"simulated driver is {slowdown:.2f}x slower than instant "
            f"(gate: {args.max_slowdown}x)"
        )
    drift = abs(simulated["acceptance_ratio"] - instant["acceptance_ratio"])
    if drift > ACCEPTANCE_DRIFT:
        failures.append(
            f"acceptance drifted {drift:.3f} between drivers "
            f"(gate: {ACCEPTANCE_DRIFT})"
        )
    connected_drift = abs(simulated["connected"] - instant["connected"]) / max(
        1, instant["connected"]
    )
    if connected_drift > ACCEPTANCE_DRIFT:
        failures.append(
            f"connected viewers drifted {connected_drift:.3f} between drivers "
            f"(gate: {ACCEPTANCE_DRIFT})"
        )
    for failure in failures:
        print(f"FAILED: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
