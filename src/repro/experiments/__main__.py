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
    python -m repro.experiments sweep controlplane --jobs 2
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

Each subcommand imports what it runs inside its handler, so ``serve``
does not load the sweep executor and ``--help`` loads nothing below this file.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from typing import TYPE_CHECKING, List

if TYPE_CHECKING:
    from repro.experiments.config import ExperimentConfig


def _checked(parser: argparse.ArgumentParser, build, *args, **kwargs):
    """``build(*args, **kwargs)``, a ``ValueError`` becoming a usage error.

    ``ExperimentConfig`` / ``DataPlaneConfig`` and the sweep and compare
    entry points validate what they are given; each subcommand reports
    what they reject instead of checking it a second time.
    """
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        parser.error(str(exc))


def _check_step(parser: argparse.ArgumentParser, step: int) -> None:
    """Refuse a population step below 10 (scaling figures and sweeps)."""
    if step < 10:
        parser.error(f"--step must be >= 10, got {step}")


def render_figure(figure_id: str, config: ExperimentConfig, step: int) -> str:
    """Run one figure driver and return its text table."""
    from repro.experiments.figures import FIGURES

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
        default=None,
        help="population size (default: the paper's 1000; the CDN cap is "
        "scaled proportionally)",
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
    from repro.experiments.config import PAPER_CONFIG

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


def _run_main(argv: List[str]) -> int:
    from repro.experiments.config import PAPER_CONFIG
    from repro.experiments.reporting import format_profile, format_worker_stats
    from repro.experiments.runner import (
        run_offline_replay,
        run_random_scenario,
        run_telecast_scenario,
    )
    from repro.util.validation import require_non_negative

    parser = build_run_parser()
    args = parser.parse_args(argv)
    # What no config can reject: the offline replay's frame count and
    # flag combinations that pick an engine the request cannot run on.
    if args.replay_frames is not None and args.replay_frames < 0:
        parser.error("--replay-frames must be >= 0")
    if args.system == "random":
        for flag, given in (
            ("--shards", args.shards > 1),
            ("--replay-frames", args.replay_frames is not None),
            ("--control-plane simulated", args.control_plane != "instant"),
            ("--data-plane", args.data_plane),
        ):
            if given:
                parser.error(f"{flag} requires --system telecast")
    if args.shards > 1 and args.replay_frames is not None:
        parser.error("--shards cannot run the frame replay")
    if args.snapshot_every is not None:
        # The library refuses it too, but a TeleCast run only once its
        # world is built.
        _checked(parser, require_non_negative, args.snapshot_every, "snapshot_every")
    config = _checked(
        parser,
        PAPER_CONFIG.with_scaled_population,
        args.viewers,
        num_lscs=args.lscs,
        num_views=args.views,
        control_plane=args.control_plane,
        heartbeat_period=args.heartbeat_period,
        data_plane="simulated" if args.data_plane else "off",
        data_loss_rate=args.loss_rate,
        data_bandwidth_headroom=(
            None if math.isinf(args.bandwidth_headroom) else args.bandwidth_headroom
        ),
        replay_frames_per_stream=args.replay_frames if args.data_plane else None,
        shard_workers=args.shards,
    )
    # Flags the chosen planes never read, refused once the config has
    # stated its own rules on their values.
    for flag, name, needs, read in (
        ("--loss-rate", "data_loss_rate", "--data-plane", args.data_plane),
        ("--bandwidth-headroom", "data_bandwidth_headroom", "--data-plane", args.data_plane),
        (
            "--heartbeat-period",
            "heartbeat_period",
            "--control-plane simulated",
            args.control_plane == "simulated",
        ),
    ):
        if not read and getattr(config, name) != getattr(PAPER_CONFIG, name):
            parser.error(f"{flag} requires {needs}")
    started = time.perf_counter()
    if args.system == "random":
        summary = run_random_scenario(
            config, snapshot_every=args.snapshot_every
        ).summary()
        print(f"random: {summary['connected_viewers']} connected, "
              f"acceptance={summary['acceptance_ratio']:.4f}, "
              f"{time.perf_counter() - started:.2f}s wall clock")
        return 0

    if args.shards > 1:
        from repro.parallel import run_sharded_scenario

        sharded = run_sharded_scenario(
            config, snapshot_every=args.snapshot_every, profile=args.profile
        )
        elapsed = time.perf_counter() - started
        summary = sharded.result.summary()
        print(
            f"telecast[{sharded.num_workers} shards]: "
            f"{summary['connected_viewers']} connected / "
            f"{summary['num_requests']} requests, "
            f"acceptance={summary['acceptance_ratio']:.4f}, "
            f"cdn={summary['cdn_outbound_mbps']:.1f}Mbps, "
            f"clock={sharded.merged_clock:.1f}s, "
            f"{elapsed:.2f}s wall clock"
        )
        print(format_worker_stats(sharded))
        if args.profile:
            print(format_profile(sharded.result.metrics.phase_timings))
        return 0

    result = run_telecast_scenario(
        config, snapshot_every=args.snapshot_every, profile=args.profile
    )
    if args.replay_frames is not None and not args.data_plane:
        report = run_offline_replay(result, args.replay_frames, profile=args.profile)
        print(f"replayed {len(report.deliveries)} frame deliveries")
    metrics_started = time.perf_counter()
    summary = result.summary()
    if args.profile:
        result.metrics.add_phase_time("metrics", time.perf_counter() - metrics_started)
    print(
        f"telecast: {summary['connected_viewers']} connected / "
        f"{summary['num_requests']} requests, "
        f"acceptance={summary['acceptance_ratio']:.4f}, "
        f"cdn_fraction={summary['cdn_fraction']:.4f}, "
        f"cdn={summary['cdn_outbound_mbps']:.1f}Mbps"
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
        print(format_profile(result.metrics.phase_timings))
    return 0


def build_sweep_parser() -> argparse.ArgumentParser:
    """Argument parser of the ``sweep`` subcommand (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments sweep",
        description="Run a named parameter sweep, optionally process-parallel.",
    )
    parser.add_argument("name", nargs="?", help="sweep name, e.g. smoke, scale")
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
    from repro.experiments.sweep import ResultsStore
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
    scale = {"viewers": args.viewers, "seed": args.seed, "smoke": args.smoke}
    _checked(parser, SCENARIOS[args.name].config, **scale)
    started = time.perf_counter()
    run = run_scenario(args.name, **scale)
    elapsed = time.perf_counter() - started
    print(
        f"scenario {run.spec.name}: {run.config.num_viewers} viewers, "
        f"{run.summary['connected_viewers']} connected, "
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
    from repro.experiments.sweep import DEFAULT_TOLERANCE

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


#: The flag that sets each scale argument of ``named_sweeps``.
_SCALE_FLAGS = {"viewers": "--viewers", "step": "--step", "num_lscs": "--lscs"}


def _ignored_sweep_flags(
    args: argparse.Namespace, parser: argparse.ArgumentParser
) -> List[tuple]:
    """(flag, reason) pairs for non-default flags the chosen sweep ignores."""
    from repro.experiments.sweep.presets import ignored_scale_arguments

    ignored = []
    for argument, reason in ignored_scale_arguments(args.name).items():
        flag = _SCALE_FLAGS[argument]
        if getattr(args, flag.lstrip("-")) != parser.get_default(flag.lstrip("-")):
            ignored.append((flag, reason))
    return ignored


def _sweep_main(argv: List[str]) -> int:
    from repro.experiments.sweep import (
        ResultsStore,
        compare_records,
        format_compare_report,
        load_records,
        named_sweeps,
        run_sweep,
    )

    parser = build_sweep_parser()
    args = parser.parse_args(argv)
    _check_step(parser, args.step)
    if args.jobs < 1:
        parser.error(f"--jobs must be >= 1, got {args.jobs}")
    sweeps = _checked(
        parser, named_sweeps, viewers=args.viewers, step=args.step, num_lscs=args.lscs
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
        jobs=args.jobs,
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
    from repro.experiments.sweep import (
        compare_records,
        format_compare_report,
        load_records,
    )

    parser = build_compare_parser()
    args = parser.parse_args(argv)
    baseline = load_records(args.baseline)
    current = load_records(args.current)
    if not baseline:
        parser.error(f"no records in baseline {args.baseline!r}")
    if not current:
        parser.error(f"no records in {args.current!r}")
    report = _checked(
        parser,
        compare_records,
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
    from repro.service.daemon import (
        ServeConfig,
        ServiceDaemon,
        ServiceState,
        experiment_config,
    )

    parser = build_serve_parser()
    args = parser.parse_args(arguments)
    serve = _checked(
        parser,
        ServeConfig,
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
        config = _checked(parser, experiment_config, serve)
        daemon = ServiceDaemon(serve, ServiceState.build(config))
    daemon.serve_forever()
    return 0


_SUBCOMMANDS = {
    "run": _run_main,
    "serve": _serve_main,
    "sweep": _sweep_main,
    "scenario": _scenario_main,
    "compare": _compare_main,
}


def main(argv=None) -> int:
    """CLI entry point; returns a process exit code."""
    arguments: List[str] = list(sys.argv[1:] if argv is None else argv)
    if arguments and arguments[0] in _SUBCOMMANDS:
        return _SUBCOMMANDS[arguments[0]](arguments[1:])
    parser = build_parser()
    args = parser.parse_args(arguments)
    from repro.experiments.config import PAPER_CONFIG
    from repro.experiments.figures import FIGURES

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
    _check_step(parser, args.step)
    viewers = PAPER_CONFIG.num_viewers if args.viewers is None else args.viewers
    config = _checked(parser, PAPER_CONFIG.with_scaled_population, viewers)
    print(render_figure(figure_id, config, args.step))
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via tests calling main()
    sys.exit(main())
