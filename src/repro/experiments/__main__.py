"""Command-line entry point: figures, single runs, sweeps and comparisons.

Examples::

    python -m repro.experiments --list
    python -m repro.experiments 14a
    python -m repro.experiments 13c --viewers 400 --step 100
    python -m repro.experiments run --viewers 2000 --lscs 3 --profile
    python -m repro.experiments run --viewers 10000 --profile --replay-frames 0
    python -m repro.experiments run --viewers 400 --control-plane simulated
    python -m repro.experiments sweep --list
    python -m repro.experiments sweep smoke --jobs 2
    python -m repro.experiments sweep scale10k --jobs 3
    python -m repro.experiments sweep --preset controlplane --jobs 2
    python -m repro.experiments scenario --list
    python -m repro.experiments scenario outage --smoke
    python -m repro.experiments scenario flash-crowd --viewers 2000 --seed 42
    python -m repro.experiments compare results/smoke.jsonl \\
        --baseline results/baseline_smoke.jsonl
    python -m repro.experiments serve --viewers 2000 --port 7400 --dilation 10
    python -m repro.experiments serve --restore snapshots/service-*.snap

Figure mode prints the same text table the benchmark harness prints, so
figures can be regenerated (e.g. at a different scale) without going
through pytest.  ``run`` executes one scenario end to end (with
``--profile`` printing the per-phase wall-clock breakdown); ``sweep``
runs a named parameter sweep process-parallel and appends one JSONL
record per point under ``results/``; ``scenario`` runs one adversarial
preset and gates it on its declared invariants (exit non-zero on any
violation); ``compare`` diffs two results files and exits non-zero on
regression.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, Dict, List

from repro.core.dataplane import OverlayDataPlane
from repro.experiments.config import PAPER_CONFIG, ExperimentConfig
from repro.experiments.figures import FIGURES
from repro.experiments.runner import run_random_scenario, run_telecast_scenario
from repro.experiments.sweep import (
    ResultsStore,
    compare_records,
    format_compare_report,
    load_records,
    named_sweeps,
    run_sweep,
)
from repro.experiments.sweep.compare import DEFAULT_TOLERANCE
from repro.sim.rng import SeededRandom
from repro.traces.teeve import TeeveSessionTrace

def render_figure(figure_id: str, config: ExperimentConfig, step: int) -> str:
    """Run one figure driver and return its text table."""
    spec = FIGURES[figure_id]
    return spec.format(spec.run(config, step))


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate a figure of the 4D TeleCast evaluation.",
    )
    parser.add_argument("figure", nargs="?", help="figure id, e.g. 13a, 14c, 15b")
    parser.add_argument(
        "--viewers",
        type=int,
        default=PAPER_CONFIG.num_viewers,
        help="population size (the CDN cap is scaled proportionally)",
    )
    parser.add_argument(
        "--step", type=int, default=100, help="snapshot interval for scaling figures"
    )
    parser.add_argument(
        "--list", action="store_true", help="list the available figures and exit"
    )
    return parser


def build_run_parser() -> argparse.ArgumentParser:
    """Argument parser of the ``run`` subcommand (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments run",
        description="Run one scenario end to end, optionally profiled per phase.",
    )
    parser.add_argument(
        "--viewers",
        type=int,
        default=PAPER_CONFIG.num_viewers,
        help="population size (the CDN cap is scaled proportionally)",
    )
    parser.add_argument(
        "--lscs", type=int, default=3, help="number of region-sharded LSCs"
    )
    parser.add_argument(
        "--shards",
        type=int,
        default=1,
        help="worker processes of the shard-parallel engine; each group of "
        "LSCs runs in its own process (requires --system telecast, the "
        "instant control plane and no data plane)",
    )
    parser.add_argument(
        "--views", type=int, default=PAPER_CONFIG.num_views, help="candidate views"
    )
    parser.add_argument(
        "--system",
        choices=("telecast", "random"),
        default="telecast",
        help="dissemination system to run",
    )
    parser.add_argument(
        "--snapshot-every",
        type=int,
        default=None,
        help="record a metrics snapshot every N joins (default: end only)",
    )
    parser.add_argument(
        "--replay-frames",
        type=int,
        default=None,
        metavar="N",
        help="after the control-plane run, replay N frames per stream "
        "through the data plane (TeleCast only; with --data-plane this "
        "truncates the simulated replay instead of running the offline one)",
    )
    parser.add_argument(
        "--data-plane",
        action="store_true",
        help="replay the TEEVE trace through the overlay as event-driven "
        "data messages (bandwidth serialization, loss, QoE metrics) "
        "instead of the offline constant-delay replay",
    )
    parser.add_argument(
        "--loss-rate",
        type=float,
        default=PAPER_CONFIG.data_loss_rate,
        help="per-frame, per-edge loss probability of the simulated data "
        "plane (default: %(default)s)",
    )
    parser.add_argument(
        "--bandwidth-headroom",
        type=float,
        default=PAPER_CONFIG.data_bandwidth_headroom,
        help="multiplier on each edge's reserved forwarding rate; 'inf' "
        "removes the bandwidth model (default: %(default)s)",
    )
    parser.add_argument(
        "--control-plane",
        choices=("instant", "simulated"),
        default=PAPER_CONFIG.control_plane,
        help="apply events instantly (seed semantics) or deliver them as "
        "simulated control messages with in-flight latency",
    )
    parser.add_argument(
        "--heartbeat-period",
        type=float,
        default=PAPER_CONFIG.heartbeat_period,
        help="heartbeat/failure-sweep interval of the simulated control "
        "plane (seconds)",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="print the per-phase wall-clock breakdown "
        "(build / join / view_change / churn / replay / metrics)",
    )
    return parser


#: Print order of the per-phase profile table.
_PROFILE_PHASES = ("build", "join", "view_change", "churn", "replay", "metrics")


def _format_profile(phase_timings: Dict[str, float]) -> str:
    """Render the per-phase wall-clock breakdown of a profiled run."""
    known = [
        (phase, phase_timings[phase])
        for phase in _PROFILE_PHASES
        if phase in phase_timings
    ]
    known.extend(
        (phase, seconds)
        for phase, seconds in sorted(phase_timings.items())
        if phase not in _PROFILE_PHASES
    )
    total = sum(seconds for _phase, seconds in known)
    lines = ["phase breakdown (wall clock):"]
    for phase, seconds in known:
        share = 100.0 * seconds / total if total > 0 else 0.0
        lines.append(f"  {phase:<12} {seconds * 1000:10.1f} ms  {share:5.1f}%")
    lines.append(f"  {'total':<12} {total * 1000:10.1f} ms")
    return "\n".join(lines)


def _format_worker_stats(sharded) -> str:
    """One line per shard worker: what it hosted and where its wall time went."""
    lines = []
    for index, stats in sharded.worker_stats.items():
        hosted = ",".join(
            f"LSC-{lsc}"
            for lsc, worker in enumerate(sharded.placement)
            if worker == index
        )
        lines.append(
            f"  worker {index} [{hosted}]: "
            f"{int(stats['viewers'])} viewers, {int(stats['events'])} events, "
            f"build={stats['build_s']:.2f}s busy={stats['busy_s']:.2f}s "
            f"barrier_wait={stats['barrier_wait_s']:.2f}s "
            f"finalize={stats['finalize_s']:.2f}s "
            f"maxrss={stats['ru_maxrss'] / 1024:.0f}MiB"
        )
    lines.append(f"  imbalance (max/mean busy) = {sharded.imbalance:.2f}")
    return "\n".join(lines)


def _run_main(argv: List[str]) -> int:
    parser = build_run_parser()
    args = parser.parse_args(argv)
    if args.viewers <= 0:
        parser.error("--viewers must be > 0")
    if args.lscs <= 0:
        parser.error("--lscs must be > 0")
    if args.views <= 0:
        parser.error("--views must be > 0")
    if args.replay_frames is not None and args.replay_frames < 0:
        parser.error("--replay-frames must be >= 0")
    if args.shards <= 0:
        parser.error("--shards must be > 0")
    if args.shards > 1:
        if args.system != "telecast":
            parser.error("--shards requires --system telecast")
        if args.control_plane != "instant":
            parser.error("--shards requires --control-plane instant")
        if args.data_plane:
            parser.error("--shards cannot run the simulated data plane")
        if args.replay_frames is not None:
            parser.error("--shards cannot run the frame replay")
    if args.heartbeat_period <= 0:
        parser.error("--heartbeat-period must be > 0")
    if not (0.0 <= args.loss_rate < 1.0):
        parser.error("--loss-rate must be in [0, 1)")
    if args.bandwidth_headroom is not None and args.bandwidth_headroom <= 0:
        parser.error("--bandwidth-headroom must be > 0 (use 'inf' to disable)")
    import math as _math

    headroom = (
        None
        if args.bandwidth_headroom is not None and _math.isinf(args.bandwidth_headroom)
        else args.bandwidth_headroom
    )
    config = PAPER_CONFIG.with_scaled_population(
        args.viewers,
        num_lscs=args.lscs,
        num_views=args.views,
        control_plane=args.control_plane,
        heartbeat_period=args.heartbeat_period,
        data_plane="simulated" if args.data_plane else "off",
        data_loss_rate=args.loss_rate,
        data_bandwidth_headroom=headroom,
        replay_frames_per_stream=args.replay_frames if args.data_plane else None,
    )
    import time as _time

    if args.system == "random":
        if args.replay_frames is not None:
            parser.error("--replay-frames requires --system telecast")
        if args.control_plane != "instant":
            parser.error("--control-plane simulated requires --system telecast")
        if args.data_plane:
            parser.error("--data-plane requires --system telecast")
        started = _time.perf_counter()
        result = run_random_scenario(config, snapshot_every=args.snapshot_every)
        elapsed = _time.perf_counter() - started
        print(f"random: {result.final_snapshot.num_viewers} connected, "
              f"acceptance={result.metrics.acceptance_ratio:.4f}, "
              f"{elapsed:.2f}s wall clock")
        return 0

    if args.shards > 1:
        from repro.parallel import run_sharded_scenario

        started = _time.perf_counter()
        sharded = run_sharded_scenario(
            config.with_(shard_workers=args.shards),
            snapshot_every=args.snapshot_every,
            profile=args.profile,
        )
        elapsed = _time.perf_counter() - started
        result = sharded.result
        snapshot = result.final_snapshot
        summary = result.metrics.summary()
        print(
            f"telecast[{sharded.num_workers} shards]: "
            f"{snapshot.num_viewers} connected / {snapshot.num_requests} requests, "
            f"acceptance={summary['acceptance_ratio']:.4f}, "
            f"cdn={snapshot.cdn_outbound_mbps:.1f}Mbps, "
            f"clock={sharded.merged_clock:.1f}s, "
            f"{elapsed:.2f}s wall clock"
        )
        print(_format_worker_stats(sharded))
        if args.profile:
            print(_format_profile(result.metrics.phase_timings))
        return 0

    result = run_telecast_scenario(
        config, snapshot_every=args.snapshot_every, profile=args.profile
    )
    metrics = result.metrics
    if args.replay_frames is not None and not args.data_plane:
        replay_started = _time.perf_counter()
        system = result.system
        trace = TeeveSessionTrace(system.producers, rng=SeededRandom(config.seed))
        report = OverlayDataPlane(system, trace).replay(
            max_frames_per_stream=args.replay_frames
        )
        replay_seconds = _time.perf_counter() - replay_started
        if args.profile:
            metrics.add_phase_time("replay", replay_seconds)
        print(f"replayed {len(report.deliveries)} frame deliveries")
    metrics_started = _time.perf_counter()
    snapshot = result.final_snapshot
    summary = metrics.summary()
    if args.profile:
        metrics.add_phase_time("metrics", _time.perf_counter() - metrics_started)
    print(
        f"telecast: {snapshot.num_viewers} connected / {snapshot.num_requests} requests, "
        f"acceptance={summary['acceptance_ratio']:.4f}, "
        f"cdn_fraction={snapshot.cdn_fraction:.4f}, "
        f"cdn={snapshot.cdn_outbound_mbps:.1f}Mbps"
    )
    if "qoe_continuity_mean" in summary:
        print(
            f"data plane: {int(summary['data_frames_delivered'])}/"
            f"{int(summary['data_frames_sent'])} frames delivered "
            f"({int(summary['data_frames_lost'])} lost, "
            f"{int(summary['data_frames_late'])} late), "
            f"continuity={summary['qoe_continuity_mean']:.4f}, "
            f"startup p95={summary.get('qoe_startup_delay_p95', float('nan')):.2f}s, "
            f"playout skew p99="
            f"{summary.get('qoe_playout_skew_p99', 0.0) * 1000:.0f}ms "
            f"(within d_buff: {summary.get('qoe_skew_within_dbuff', 1.0):.2%})"
        )
    if "observed_join_delay_p50" in summary:
        analytic = summary.get("join_delay_p50", float("nan"))
        print(
            f"control plane: observed join p50={summary['observed_join_delay_p50']:.3f}s "
            f"(analytic p50={analytic:.3f}s), "
            f"{int(summary.get('control_messages_sent', 0))} messages, "
            f"{int(summary.get('stale_control_messages', 0))} stale"
        )
    if args.profile:
        print(_format_profile(metrics.phase_timings))
    return 0


def build_sweep_parser() -> argparse.ArgumentParser:
    """Argument parser of the ``sweep`` subcommand (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments sweep",
        description="Run a named parameter sweep, optionally process-parallel.",
    )
    parser.add_argument("name", nargs="?", help="sweep name, e.g. smoke, scale")
    parser.add_argument(
        "--preset",
        default=None,
        help="alias for the positional sweep name (e.g. --preset controlplane)",
    )
    parser.add_argument(
        "--viewers", type=int, default=400, help="population scale of the sweep"
    )
    parser.add_argument(
        "--step", type=int, default=100, help="population step of the scale sweep"
    )
    parser.add_argument(
        "--lscs", type=int, default=3, help="number of region-sharded LSCs"
    )
    parser.add_argument(
        "--jobs", type=int, default=1, help="worker processes (1 = in-process)"
    )
    parser.add_argument(
        "--results",
        default="results",
        help="directory for the JSONL records (default: results/)",
    )
    parser.add_argument(
        "--no-store", action="store_true", help="run without persisting records"
    )
    parser.add_argument(
        "--baseline",
        default=None,
        help="JSONL file to compare against after the run (exit 1 on regression)",
    )
    parser.add_argument(
        "--list", action="store_true", help="list the available sweeps and exit"
    )
    return parser


def build_scenario_parser() -> argparse.ArgumentParser:
    """Argument parser of the ``scenario`` subcommand (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments scenario",
        description="Run one adversarial scenario preset and gate it on "
        "its declared invariants (exit 1 on any violation).",
    )
    parser.add_argument("name", nargs="?", help="scenario name, e.g. outage")
    parser.add_argument(
        "--viewers",
        type=int,
        default=None,
        help="population override (default: the preset's full scale)",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=None,
        help="re-derive every RNG seed from this value (world, workload "
        "and outage victims vary together)",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="run at the preset's smoke scale (CI population)",
    )
    parser.add_argument(
        "--results",
        default="results",
        help="directory for the JSONL record (default: results/)",
    )
    parser.add_argument(
        "--no-store", action="store_true", help="run without persisting a record"
    )
    parser.add_argument(
        "--list", action="store_true", help="list the available scenarios and exit"
    )
    return parser


def _scenario_main(argv: List[str]) -> int:
    parser = build_scenario_parser()
    args = parser.parse_args(argv)
    from repro.scenarios import SCENARIOS, run_record, run_scenario

    if args.list or not args.name:
        for name, spec in sorted(SCENARIOS.items()):
            print(f"  {name}: {spec.title}")
            print(
                f"      {spec.default_viewers} viewers "
                f"(smoke: {spec.smoke_viewers}); "
                f"invariants: {', '.join(spec.invariants)}"
            )
        return 0
    if args.name not in SCENARIOS:
        parser.error(f"unknown scenario {args.name!r}; use --list to see the options")
    if args.viewers is not None and args.viewers <= 0:
        parser.error("--viewers must be > 0")
    import time as _time

    started = _time.perf_counter()
    run = run_scenario(args.name, viewers=args.viewers, seed=args.seed, smoke=args.smoke)
    elapsed = _time.perf_counter() - started
    snapshot = run.system.snapshot()
    print(
        f"scenario {run.spec.name}: {run.config.num_viewers} viewers, "
        f"{snapshot.num_viewers} connected, "
        f"acceptance={run.summary['acceptance_ratio']:.4f}, "
        f"{elapsed:.2f}s wall clock"
    )
    for invariant in run.spec.invariants:
        messages = run.violations.get(invariant, [])
        print(f"  [{'FAIL' if messages else 'PASS'}] {invariant}")
        for message in messages[:5]:
            print(f"         {message}")
        if len(messages) > 5:
            print(f"         ... and {len(messages) - 5} more")
    if not args.no_store:
        store = ResultsStore(args.results)
        path = store.append(run_record(run, wall_clock_s=elapsed))
        print(f"  record appended to {path}")
    verdict = "PASS" if run.passed else "FAIL"
    print(
        f"verdict: {verdict} "
        f"({len(run.spec.invariants) - len(run.violations)}"
        f"/{len(run.spec.invariants)} invariants hold)"
    )
    return 0 if run.passed else 1


def build_compare_parser() -> argparse.ArgumentParser:
    """Argument parser of the ``compare`` subcommand (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments compare",
        description="Diff two sweep results files; exit 1 on regression.",
    )
    parser.add_argument("current", help="JSONL results file of the current run")
    parser.add_argument(
        "--baseline", required=True, help="JSONL results file of the baseline"
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=DEFAULT_TOLERANCE,
        help="allowed drop of quality metrics (default: %(default)s)",
    )
    return parser


#: Scale flags each named sweep does NOT honor (and why): ``smoke`` is
#: pinned so the checked-in baseline stays comparable, ``shards`` sweeps
#: the LSC count itself, ``bandwidth``'s axis is the outbound setting.
_SWEEP_IGNORED_FLAGS: Dict[str, Dict[str, str]] = {
    "smoke": {
        "--viewers": "fixed-scale CI grid",
        "--step": "fixed-scale CI grid",
        "--lscs": "fixed-scale CI grid",
    },
    "shards": {"--lscs": "the sweep varies num_lscs itself", "--step": "no population axis"},
    "bandwidth": {"--step": "no population axis"},
    "scale10k": {
        "--viewers": "fixed 2k/5k/10k population points",
        "--step": "fixed 2k/5k/10k population points",
        "--lscs": "pinned to 5 region-sharded LSCs",
    },
    "scale100k": {
        "--viewers": "fixed 20k/50k/100k population points",
        "--step": "fixed 20k/50k/100k population points",
        "--lscs": "pinned to 8 region-sharded LSCs",
    },
    "controlplane": {
        "--viewers": "fixed-scale control-plane grid",
        "--step": "no population axis",
        "--lscs": "fixed-scale control-plane grid",
    },
    "qoe": {
        "--viewers": "fixed-scale QoE grid",
        "--step": "no population axis",
        "--lscs": "fixed-scale QoE grid",
    },
    "scenarios": {
        "--viewers": "each preset pins its own smoke scale",
        "--step": "no population axis",
        "--lscs": "each preset pins its own control-plane layout",
    },
}


def _ignored_sweep_flags(
    args: argparse.Namespace, parser: argparse.ArgumentParser
) -> List[tuple]:
    """(flag, reason) pairs for non-default flags the chosen sweep ignores."""
    values = {"--viewers": args.viewers, "--step": args.step, "--lscs": args.lscs}
    ignored = []
    for flag, reason in _SWEEP_IGNORED_FLAGS.get(args.name, {}).items():
        default = parser.get_default(flag.lstrip("-"))
        if values[flag] != default:
            ignored.append((flag, reason))
    return ignored


def _sweep_main(argv: List[str]) -> int:
    parser = build_sweep_parser()
    args = parser.parse_args(argv)
    if args.viewers <= 0:
        parser.error("--viewers must be > 0")
    if args.lscs <= 0:
        parser.error("--lscs must be > 0")
    if args.name and args.preset and args.name != args.preset:
        parser.error("give the sweep name either positionally or via --preset, not both")
    args.name = args.name or args.preset
    sweeps = named_sweeps(
        viewers=args.viewers, step=max(10, args.step), num_lscs=args.lscs
    )
    if args.list or not args.name:
        for name, spec in sorted(sweeps.items()):
            print(f"  {name}: {spec.num_points()} points ({', '.join(spec.systems)})")
        return 0
    if args.name not in sweeps:
        parser.error(f"unknown sweep {args.name!r}; use --list to see the options")
    for flag, reason in _ignored_sweep_flags(args, parser):
        print(f"note: sweep {args.name!r} ignores {flag} ({reason})")
    spec = sweeps[args.name]
    store = None if args.no_store else ResultsStore(args.results)
    result = run_sweep(
        spec,
        jobs=max(1, args.jobs),
        store=store,
        progress=lambda point: print(
            f"  {point.point_id}: "
            + (
                f"acceptance={point.metrics.get('acceptance_ratio', float('nan')):.4f} "
                f"({point.wall_clock_s:.2f}s)"
                if point.ok
                else "FAILED"
            )
        ),
    )
    failed = result.failed()
    print(
        f"sweep {spec.name}: {len(result.ok())}/{len(result.results)} points ok, "
        f"{result.wall_clock_s:.2f}s wall clock with --jobs {result.jobs}"
    )
    for point in failed:
        print(f"  FAILED {point.point_id}:")
        print("    " + point.error.strip().splitlines()[-1])
    for path in result.stored_in:
        print(f"  records appended to {path}")
    if args.baseline:
        current_records = [
            point.to_record("(unstored)", 0.0) for point in result.results
        ]
        report = compare_records(
            load_records(args.baseline),
            current_records,
            baseline_label=args.baseline,
            current_label=f"sweep {spec.name}",
        )
        print(format_compare_report(report))
        if not report.ok:
            return 1
    return 1 if failed else 0


def _compare_main(argv: List[str]) -> int:
    parser = build_compare_parser()
    args = parser.parse_args(argv)
    if args.tolerance < 0:
        parser.error("--tolerance must be >= 0")
    baseline = load_records(args.baseline)
    current = load_records(args.current)
    if not baseline:
        parser.error(f"no records in baseline {args.baseline!r}")
    if not current:
        parser.error(f"no records in {args.current!r}")
    report = compare_records(
        baseline,
        current,
        tolerance=args.tolerance,
        baseline_label=args.baseline,
        current_label=args.current,
    )
    print(format_compare_report(report))
    return 0 if report.ok else 1


def build_serve_parser() -> argparse.ArgumentParser:
    """Parser of the ``serve`` subcommand (the long-lived service daemon)."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments serve",
        description=(
            "Run the live service daemon: a long-lived event-driven session "
            "accepting line-oriented ops (join/leave/view_change/fail/...) "
            "over TCP, serving Prometheus metrics on GET /metrics from the "
            "same port, with snapshot/restore of the full session state."
        ),
    )
    parser.add_argument("--host", default="127.0.0.1", help="bind address")
    parser.add_argument(
        "--port", type=int, default=0, help="TCP port (0 = ephemeral, printed on start)"
    )
    parser.add_argument(
        "--viewers", type=int, default=400, help="provisioned viewer pool size"
    )
    parser.add_argument(
        "--lscs", type=int, default=3, help="number of region-sharded LSCs"
    )
    parser.add_argument(
        "--dilation",
        type=float,
        default=1.0,
        help="simulated seconds per wall-clock second; 0 disables pacing so "
        "simulation time advances only on explicit 'advance' ops "
        "(fully deterministic op-driven mode)",
    )
    parser.add_argument(
        "--heartbeat-period",
        type=float,
        default=2.0,
        help="heartbeat/failure-sweep interval of connected viewers",
    )
    parser.add_argument(
        "--control-delay-scale",
        type=float,
        default=1.0,
        help="multiplier on every control-message transit delay",
    )
    parser.add_argument(
        "--seed", type=int, default=None, help="re-derive every RNG seed from this"
    )
    parser.add_argument(
        "--snapshot-dir",
        default="snapshots",
        help="directory bare 'snapshot' ops write into",
    )
    parser.add_argument(
        "--restore",
        default=None,
        help="resume from this snapshot file instead of building a fresh world",
    )
    parser.add_argument(
        "--max-wall-seconds",
        type=float,
        default=None,
        help="shut down after this many wall-clock seconds (CI guard)",
    )
    return parser


def _serve_main(arguments: List[str]) -> int:
    from repro.service.daemon import ServeConfig, ServiceDaemon

    args = build_serve_parser().parse_args(arguments)
    serve = ServeConfig(
        host=args.host,
        port=args.port,
        viewers=args.viewers,
        num_lscs=args.lscs,
        time_dilation=args.dilation,
        heartbeat_period=args.heartbeat_period,
        control_delay_scale=args.control_delay_scale,
        seed=args.seed,
        snapshot_dir=args.snapshot_dir,
        restore=args.restore,
        max_wall_seconds=args.max_wall_seconds,
    )
    if args.restore:
        daemon = ServiceDaemon.restore(serve, args.restore)
    else:
        daemon = ServiceDaemon(serve)
    daemon.serve_forever()
    return 0


def main(argv=None) -> int:
    """CLI entry point; returns a process exit code."""
    arguments: List[str] = list(sys.argv[1:] if argv is None else argv)
    if arguments and arguments[0] == "run":
        return _run_main(arguments[1:])
    if arguments and arguments[0] == "serve":
        return _serve_main(arguments[1:])
    if arguments and arguments[0] == "sweep":
        return _sweep_main(arguments[1:])
    if arguments and arguments[0] == "scenario":
        return _scenario_main(arguments[1:])
    if arguments and arguments[0] == "compare":
        return _compare_main(arguments[1:])
    parser = build_parser()
    args = parser.parse_args(arguments)
    if args.list or not args.figure:
        for figure_id, spec in sorted(FIGURES.items()):
            print(f"  {figure_id}: {spec.description}")
        print("  run: run one scenario end to end (--profile for phase timings)")
        print("  serve: run the live service daemon (ops over TCP, GET /metrics, "
              "snapshot/restore)")
        print("  sweep: run a named parameter sweep (see `sweep --list`)")
        print("  scenario: run an invariant-gated adversarial preset "
              "(see `scenario --list`)")
        print("  compare: diff two sweep results files")
        return 0
    figure_id = args.figure.lower().removeprefix("fig").lstrip(".")
    if figure_id not in FIGURES:
        parser.error(f"unknown figure {args.figure!r}; use --list to see the options")
    if args.viewers <= 0:
        parser.error("--viewers must be > 0")
    config = PAPER_CONFIG.with_scaled_population(args.viewers)
    print(render_figure(figure_id, config, max(10, args.step)))
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via tests calling main()
    sys.exit(main())
