"""The four workloads, driven through the repo's public entry points.

Every workload builds its inputs from the seed alone (fanned out to
``seed / latency_seed / churn_seed / baseline_seed / outage seed`` the
way ``ScenarioSpec.config`` does), times a setup section and one or two
bodies on a freshly built world, then verifies the outputs untimed.

Calls into the program go through *module attributes*
(``runner.build_scenario``, not a by-name import) so the tracer's
rebinding reaches them.
"""

from __future__ import annotations

import json
import os
import resource
from contextlib import contextmanager, nullcontext
from dataclasses import replace
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.core import dataplane, session
from repro.experiments import runner
from repro.experiments.config import PAPER_CONFIG, ExperimentConfig
from repro.metrics import placement
from repro.parallel import runner as parallel_runner
from repro.scenarios import invariants
from repro.service import daemon as service_daemon
from repro.service import protocol, snapshot, soak
from repro.sim.rng import SeededRandom
from repro.traces import teeve
from repro.traces.workload import ChurnConfig, OutageConfig

from harness import Bracket, Rep, Stopwatch, Timing
from tracer import Tracer


def seeded(config: ExperimentConfig, seed: int) -> ExperimentConfig:
    """Re-derive every RNG seed of a config from one benchmark seed."""
    updates: Dict[str, object] = {
        "seed": seed,
        "latency_seed": seed + 1,
        "churn_seed": seed + 2,
        "baseline_seed": seed + 3,
    }
    if config.outage is not None:
        updates["outage"] = replace(config.outage, seed=seed + 4)
    return config.with_(**updates)


@contextmanager
def captured_systems() -> Iterator[List[object]]:
    """Keep every ``TeleCastSystem`` the runner builds inside the block.

    ``run_telecast_scenario`` returns metrics only; verification needs the
    live overlay (trees, routing tables, placement digest).
    """
    built: List[object] = []
    original = runner.build_telecast_system

    def capture(scenario):
        system = original(scenario)
        built.append(system)
        return system

    runner.build_telecast_system = capture
    try:
        yield built
    finally:
        runner.build_telecast_system = original


def structural_checks(system, population) -> Dict[str, bool]:
    """The four structural invariants (tree validation included)."""
    gone = {viewer.viewer_id for viewer in population}
    gone -= invariants.connected_viewer_ids(system)
    return {
        "no_dangling_routing_state": not invariants.dangling_reference_violations(system, gone),
        "routing_matches_trees": not invariants.routing_tree_mismatches(system),
        "layer_bounds": not invariants.layer_bound_violations(system),
        "single_home": not invariants.single_home_violations(system),
    }


def process_peak_rss_mb() -> float:
    """Peak RSS of this process or of its waited-for children, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def _count(events, kind: str) -> int:
    return sum(1 for event in events if event.kind == kind)


def _paper_metrics(result) -> Dict[str, float]:
    """The seed-exact outcomes every batch workload reports (Fig. 13b/13c/14c)."""
    return {
        "acceptance_ratio": result.acceptance_ratio,
        "cdn_fraction": result.final_snapshot.cdn_fraction,
        "sim_join_delay_p95_s": result.metrics.summary()["join_delay_p95"],
    }


def _unaccounted_joins(metrics, joins: int) -> int:
    """Join events the run's counters neither accepted nor refused."""
    return abs(joins - metrics.accepted_requests - metrics.rejected_requests)


class Workload:
    """One workload at one seed and size; ``rep`` is one timed repetition."""

    name = ""

    def __init__(self, seed: int, params: Dict[str, object], out_dir: str) -> None:
        self.seed = seed
        self.params = params
        self.out_dir = out_dir

    def rep(self, watch: Stopwatch, tracer: Optional[Tracer] = None) -> Rep:
        raise NotImplementedError

    def finish(self, reps: List[Rep], watch: Stopwatch) -> Tuple[Dict[str, bool], Dict[str, object]]:
        """Run-level verification after the timed reps: ``(checks, extra)``."""
        return {}, {}

    @staticmethod
    def _rooted(tracer: Optional[Tracer], name: str):
        """A tracer root when tracing (spans outside every root are not kept)."""
        return nullcontext() if tracer is None else tracer.root(name)

    @classmethod
    def _timed(
        cls, bracket: Bracket, tracer: Optional[Tracer], name: str, body: Callable[[], object]
    ) -> object:
        """Time one section in the bracket, under a tracer root of its name."""

        def rooted():
            with cls._rooted(tracer, name):
                return body()

        return bracket(name, rooted)


class BroadcastJoin(Workload):
    """The paper's simultaneous-arrival telecast: one view, capped CDN."""

    name = "broadcast_join"

    def rep(self, watch: Stopwatch, tracer: Optional[Tracer] = None) -> Rep:
        params = self.params
        config = seeded(
            PAPER_CONFIG.with_scaled_population(
                params["viewers"], num_lscs=params["num_lscs"], num_views=params["num_views"]
            ),
            self.seed,
        )

        def setup():
            scenario = runner.build_scenario(config)
            runner.build_telecast_system(scenario)
            return scenario

        with watch.bracket() as bracket, captured_systems() as systems:
            scenario = self._timed(bracket, tracer, "setup", setup)
            result = self._timed(
                bracket,
                tracer,
                "body",
                lambda: runner.run_telecast_scenario(
                    config, scenario=scenario, snapshot_every=None
                ),
            )
        timings = bracket.timings
        system = systems[-1]
        joins = _count(scenario.events, "join")
        with self._rooted(tracer, "verify"):
            digest = placement.placement_digest(system)
        return Rep(
            timings=timings,
            host={
                "setup_s": timings["setup"].cal_s,
                "joins_per_s": joins / timings["body"].cal_s,
            },
            exact=_paper_metrics(result),
            digests={"placement": digest},
            attempted=joins,
            failed=_unaccounted_joins(result.metrics, joins),
            checks=structural_checks(system, scenario.viewers),
            extra={"joins": joins, "connected": result.final_snapshot.num_viewers},
        )


class ShardedBroadcast(Workload):
    """The same joins over ``repro.parallel``: 2 workers, uncapped CDN, one outage."""

    name = "sharded_broadcast"

    def __init__(self, seed: int, params: Dict[str, object], out_dir: str) -> None:
        super().__init__(seed, params, out_dir)
        viewers = params["viewers"]
        outage = params["outage"]
        self.workers = params["workers"]
        self.config = seeded(
            PAPER_CONFIG.with_scaled_population(
                viewers, num_lscs=params["num_lscs"], num_views=params["num_views"]
            )
            .with_uncapped_cdn()
            .with_(
                arrival_rate_per_second=viewers / params["arrival_window_s"],
                outage=OutageConfig(
                    time=outage["time"],
                    lsc_index=outage["lsc_index"],
                    viewer_fraction=outage["viewer_fraction"],
                ),
            ),
            seed,
        ).with_(
            # The one seed that does not follow ``--seed``.  Which LSC is
            # nearest to the failed one, and how many viewers each region
            # holds, are functions of the latency world; they decide whether
            # the failover crosses workers and how evenly the two workers are
            # loaded.  With the world following the seed, joins/s came in
            # three clusters across seeds (2.6k / 3.3k / 3.6k); pinned, every
            # seed fails LSC-1 over to LSC-0 on the other worker.
            latency_seed=params["latency_seed"]
        )
        #: The latest single-process leg of this config: (digests, connected,
        #: timing).  A function of the seed, so one run serves every rep.
        self._single: Optional[Tuple[Dict[str, str], int, Timing]] = None

    def _shard_build(self, worker_index: int):
        return runner.build_scenario(
            self.config, shard=runner.ShardSelection(self.workers, worker_index)
        )

    def single_leg(self, watch: Stopwatch, tracer: Optional[Tracer] = None):
        """One single-process run of the same config: the parity oracle."""
        with watch.bracket() as bracket, captured_systems() as systems:
            result = self._timed(
                bracket,
                tracer,
                "body",
                lambda: runner.run_telecast_scenario(self.config, snapshot_every=None),
            )
        with self._rooted(tracer, "verify"):
            digests = placement.per_lsc_placement_digests(systems[-1])
        self._single = (digests, result.final_snapshot.num_viewers, bracket.timings["body"])
        return self._single

    def rep(self, watch: Stopwatch, tracer: Optional[Tracer] = None) -> Rep:
        extra: Dict[str, object] = {}
        with watch.bracket() as bracket:
            scenario = bracket("setup", lambda: self._shard_build(0))
            sharded = bracket(
                "body",
                lambda: parallel_runner.run_sharded_scenario(
                    self.config,
                    num_workers=self.workers,
                    snapshot_every=None,
                    profile=tracer is not None,
                ),
            )
        timings = bracket.timings
        if tracer is not None:
            # The workers' layers live in other processes: take their merged
            # phase timings, time every worker's build here, and trace the
            # single-process leg in this process.
            with watch.bracket() as builds:
                for index in range(1, self.workers):
                    builds(f"build-{index}", lambda index=index: self._shard_build(index))
            extra["shard_build_cal_s"] = [timings["setup"].cal_s] + [
                timing.cal_s for timing in builds.timings.values()
            ]
            extra["phase_timings"] = dict(sharded.result.metrics.phase_timings)
            extra["single_leg_cal_s"] = self.single_leg(watch, tracer)[2].cal_s
        result = sharded.result
        # No churn overlay: every viewer joins exactly once, in some shard.
        joins = self.config.num_viewers
        extra.update(
            joins=joins,
            connected=result.final_snapshot.num_viewers,
            failovers=result.metrics.lsc_failovers,
            migrated=result.metrics.failover_migrated_viewers,
            shard_events=len(scenario.events),
        )
        return Rep(
            timings=timings,
            host={
                "setup_s": timings["setup"].cal_s,
                "joins_per_s": joins / timings["body"].cal_s,
            },
            exact=_paper_metrics(result),
            digests=dict(sharded.placement_digests),
            attempted=joins,
            failed=_unaccounted_joins(result.metrics, joins),
            checks={"one_failover": result.metrics.lsc_failovers == 1},
            extra=extra,
        )

    def finish(self, reps: List[Rep], watch: Stopwatch):
        digests, connected, timing = self._single or self.single_leg(watch)
        checks = {
            "digests_equal_single_process": all(rep.digests == digests for rep in reps),
            "connected_equal_single_process": all(
                rep.extra["connected"] == connected for rep in reps
            ),
        }
        return checks, {"single_leg": timing.to_json()}


class ServiceChurn(Workload):
    """A closed loop of pipelined op batches at a ``serve --dilation 0`` daemon."""

    name = "service_churn"

    def __init__(self, seed: int, params: Dict[str, object], out_dir: str) -> None:
        super().__init__(seed, params, out_dir)
        self.script = self._script()
        self.snapshot_path = os.path.join(out_dir, f"service_churn-{os.getpid()}.snap")
        self.final_advance, *closing = params["closing"]
        self.closing = [
            f"snapshot {self.snapshot_path}" if line == "snapshot" else line
            for line in closing
        ]

    def _serve_config(self) -> service_daemon.ServeConfig:
        return service_daemon.ServeConfig(
            viewers=self.params["pool"],
            num_lscs=self.params["num_lscs"],
            time_dilation=0.0,
            seed=self.seed,
            snapshot_dir=self.out_dir,
        )

    def _script(self) -> List[str]:
        """The generated churn schedule as protocol lines with advance ticks."""
        params = self.params
        pool = params["pool"]
        churn = params["churn"]
        outage = params["outage"]
        config = service_daemon.experiment_config(self._serve_config()).with_(
            arrival_rate_per_second=pool / params["arrival_window_s"],
            view_change_probability=params["view_change_probability"],
            departure_probability=params["departure_probability"],
            session_duration=params["session_duration_s"],
            churn=ChurnConfig(
                failure_rate_per_second=pool * churn["failures_per_pool_per_s"],
                graceful_fraction=churn["graceful_fraction"],
                rejoin_probability=churn["rejoin_probability"],
                rejoin_delay_mean=churn["rejoin_delay_mean"],
                duration=churn["duration"],
            ),
            outage=OutageConfig(
                time=outage["time"],
                lsc_index=outage["lsc_index"],
                viewer_fraction=outage["viewer_fraction"],
                seed=self.seed + 4,
            ),
        )
        tick = params["tick_s"]
        advance = protocol.format_op(protocol.Op(kind="advance", seconds=tick))
        lines: List[str] = []
        now = 0.0
        events = runner.build_scenario(config).events
        for event in sorted(events, key=session.event_sort_key):
            while event.time >= now + tick:
                lines.append(advance)
                now += tick
            lines.append(protocol.format_op(protocol.op_of_event(event)))
        return lines

    def _rep_from(
        self, timings: Dict[str, Timing], replies: List[str], extra: Dict[str, object]
    ) -> Rep:
        """Verify one run's replies and snapshot; shape the result.

        ``replies`` holds one line per script op, then the final advance,
        then the closing ops in order.
        """
        body_lines = len(self.script) + 1
        closing_reply = dict(zip((line.split()[0] for line in self.closing), replies[body_lines:]))
        stats = json.loads(closing_reply["stats"][len("ok ") :])
        errors = sum(1 for reply in replies if not reply.startswith("ok"))
        state, _header = snapshot.load_snapshot(self.snapshot_path)  # verifies the SHA-256
        extra["snapshot_bytes"] = os.path.getsize(self.snapshot_path)
        os.remove(self.snapshot_path)
        join_quantiles = stats.get("observed_join_delay_quantiles", {})
        repair_quantiles = stats.get("observed_repair_delay_quantiles", {})
        extra.update(
            ops=body_lines,
            op_kinds=stats["ops_total"],
            control_messages_sent=stats["control_messages_sent"],
            loop_lag_s=stats["event_loop_lag_seconds"],
        )
        return Rep(
            timings=timings,
            host={
                "setup_s": timings["setup"].cal_s,
                "ops_per_s": body_lines / timings["body"].cal_s,
                "peak_rss_mb": stats["rss_bytes"] / 2**20,
            },
            exact={
                "acceptance_ratio": stats["acceptance_ratio"],
                "cdn_fraction": state.system.snapshot().cdn_fraction,
                "sim_join_delay_p95_s": join_quantiles.get("0.95", 0.0),
                "sim_repair_delay_p50_s": repair_quantiles.get("0.5", 0.0),
            },
            digests={"placement": stats["placement_digest"]},
            attempted=len(replies),
            failed=errors,
            checks={
                "every_reply_ok": errors == 0,
                "check_12_of_12": closing_reply["check"].startswith("ok 12/12"),
                "snapshot_restores": placement.placement_digest(state.system)
                == stats["placement_digest"],
            },
            extra=extra,
        )

    def rep(self, watch: Stopwatch, tracer: Optional[Tracer] = None) -> Rep:
        if tracer is not None:
            return self._rep_in_process(watch, tracer)
        params = self.params
        size = params["batch_lines"]
        batches = [self.script[i : i + size] for i in range(0, len(self.script), size)]
        replies: List[str] = []
        rtts: List[float] = []
        clock = watch.clock
        spawned = client = None

        def body():
            for batch in batches:
                sent = clock()
                replies.extend(client.ops(batch))
                rtts.append(clock() - sent)
            replies.append(client.op(self.final_advance))

        try:
            with watch.bracket() as bracket:
                spawned = bracket(
                    "setup",
                    lambda: soak.spawn_daemon(
                        [
                            "--viewers", str(params["pool"]),
                            "--lscs", str(params["num_lscs"]),
                            "--dilation", "0",
                            "--seed", str(self.seed),
                            "--snapshot-dir", self.out_dir,
                        ]
                    ),
                )
                client = soak.SoakClient(spawned.host, spawned.port, timeout=120.0)
                bracket("body", body)
                for line in self.closing:
                    bracket(line.split()[0], lambda line=line: replies.append(client.op(line)))
        finally:
            if spawned is not None:
                spawned.quit(client)
            if client is not None:
                client.close()
        return self._rep_from(bracket.timings, replies, {"batch_rtt_s": rtts})

    def _rep_in_process(self, watch: Stopwatch, tracer: Tracer) -> Rep:
        """The same script fed to ``ServiceDaemon.handle_line``, traced."""
        replies: List[str] = []
        clock = watch.clock
        advance_wall = [0.0]

        def body():
            for line in self.script + [self.final_advance]:
                if line.startswith("advance"):
                    started = clock()
                    replies.append(daemon.handle_line(line))
                    advance_wall[0] += clock() - started
                else:
                    replies.append(daemon.handle_line(line))

        with watch.bracket() as bracket:
            daemon = self._timed(
                bracket,
                tracer,
                "setup",
                lambda: service_daemon.ServiceDaemon(self._serve_config()),
            )
            self._timed(bracket, tracer, "body", body)
            for line in self.closing:
                self._timed(
                    bracket,
                    tracer,
                    line.split()[0],
                    lambda line=line: replies.append(daemon.handle_line(line)),
                )
        return self._rep_from(bracket.timings, replies, {"advance_wall_s": advance_wall[0]})


class ReplayQoE(Workload):
    """Joins then frame replay, on the simulated and on the offline data plane."""

    name = "replay_qoe"

    def rep(self, watch: Stopwatch, tracer: Optional[Tracer] = None) -> Rep:
        params = self.params
        frames = params["frames_per_stream"]
        config = seeded(
            PAPER_CONFIG.with_scaled_population(
                params["viewers"], num_lscs=params["num_lscs"]
            ).with_(
                data_plane="simulated",
                data_loss_rate=params["loss_rate"],
                data_bandwidth_headroom=params["bandwidth_headroom"],
                data_refresh_interval=params["refresh_interval_s"],
                replay_frames_per_stream=frames,
            ),
            self.seed,
        )

        def setup():
            scenario = runner.build_scenario(config)
            runner.build_telecast_system(scenario)
            teeve.TeeveSessionTrace(scenario.producers, rng=SeededRandom(config.seed))
            return scenario

        with captured_systems() as systems:
            with watch.bracket() as bracket:
                scenario = self._timed(bracket, tracer, "setup", setup)
                result = self._timed(
                    bracket,
                    tracer,
                    "body",
                    lambda: runner.run_telecast_scenario(
                        config, scenario=scenario, snapshot_every=None
                    ),
                )
            with self._rooted(tracer, "verify"):
                digest = placement.placement_digest(systems[-1])
            # Body B: the offline replay over an identically built overlay
            # (joins untimed: the control plane is absent from body B).
            offline_config = config.with_(data_plane="off")
            runner.run_telecast_scenario(offline_config, snapshot_every=None)
            overlay = systems[-1]
        trace = teeve.TeeveSessionTrace(overlay.producers, rng=SeededRandom(config.seed))
        with watch.bracket() as offline:
            report = self._timed(
                offline,
                tracer,
                "offline_body",
                lambda: dataplane.OverlayDataPlane(overlay, trace).replay(
                    max_frames_per_stream=frames
                ),
            )
        timings = {**bracket.timings, **offline.timings}
        metrics = result.metrics
        summary = metrics.summary()
        delivered = metrics.data_frames_delivered
        offline_delivered = len(report.deliveries)
        unbalanced = abs(
            metrics.data_frames_sent - delivered - metrics.data_frames_lost
        )
        joins = _count(scenario.events, "join")
        return Rep(
            timings=timings,
            host={
                "setup_s": timings["setup"].cal_s,
                "deliveries_per_s": delivered / timings["body"].cal_s,
                "offline_deliveries_per_s": offline_delivered / timings["offline_body"].cal_s,
            },
            exact={
                **_paper_metrics(result),
                "qoe_continuity": summary["qoe_playable_continuity_mean"],
                "qoe_playout_skew_p99_s": summary["qoe_playout_skew_p99"],
            },
            digests={"placement": digest},
            attempted=metrics.data_frames_sent + joins,
            failed=unbalanced + _unaccounted_joins(metrics, joins),
            checks={
                "frame_accounting": unbalanced == 0,
                "skew_within_dbuff": summary["qoe_skew_within_dbuff"] >= 0.99,
                "offline_delivers_every_frame": offline_delivered
                == metrics.data_frames_sent + metrics.data_frames_dropped,
            },
            extra={
                "joins": joins,
                "frames_sent": metrics.data_frames_sent,
                "frames_delivered": delivered,
                "frames_lost": metrics.data_frames_lost,
                "frames_late": metrics.data_frames_late,
                "offline_delivered": offline_delivered,
                "layer_adjustments": metrics.observed_layer_adjustments,
            },
        )


WORKLOADS = {
    cls.name: cls for cls in (BroadcastJoin, ShardedBroadcast, ServiceChurn, ReplayQoE)
}
