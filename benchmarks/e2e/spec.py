"""The benchmark's fixed definitions: workloads, metrics, bounds, constants.

Everything a reader needs to interpret a result file lives here, so a
later PR that claims a gain cannot quietly move a size, a bound or the
calibration constant: changing this file is changing the benchmark.
``BENCHMARK.json`` at the repository root is the subset of this module
the driver's contract allows (see :func:`benchmark_json`).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

#: The one command (the harness puts ``src/`` on ``sys.path`` itself).
COMMAND = ["python3", "benchmarks/e2e/run.py"]

#: Seconds one run measures (the driver passes it as ``--seconds``).
RUN_SECONDS = 25

#: Timed reps a run never goes below, however slow the box.
MIN_REPS = 5

#: Seed of the recorded pass, and the held-out seed recorded beside it.
DEFAULT_SEED = 7
HELD_OUT_SEED = 11

#: Wall seconds the calibration kernel took on the reference box (2-core
#: shared VM, CPython 3.11) the day the sizes below were fixed.  Every
#: host-time metric is ``t_wall * CALIB_REF_S / mean(kernel before, after)``.
CALIB_REF_S = 0.155

#: Rounds of the calibration kernel (fixed: changing it changes the unit).
CALIB_ROUNDS = 40

#: 1-in-N top-level ops keep their full spans in the traced pass.
TRACE_SAMPLE_EVERY = 50

#: Reference sizes.  The ISSUE's 10k/10k/2000/1000 populations give 5-10 s
#: bodies; the driver's cap (4 + 22 x 4 runs in 3420 s) leaves ~35 s per
#: run, so populations were shrunk -- never the rep count, never a workload.
WORKLOADS: Dict[str, Dict[str, object]] = {
    "broadcast_join": {
        "why": "one view group: trees as large as the audience, so "
        "topology/subscription/controllers/latency dominate a capped-CDN join",
        "rate": "joins_per_s",
        "params": {"viewers": 4000, "num_lscs": 3, "num_views": 1},
    },
    "sharded_broadcast": {
        "why": "same joins over 2 shard workers, uncapped CDN, shard-filtered "
        "build in the body, one lsc_fail barrier: shows pickling/merge/CDN-path cost",
        "rate": "joins_per_s",
        "params": {
            "viewers": 4000,
            "num_lscs": 4,
            "num_views": 1,
            "workers": 2,
            "latency_seed": DEFAULT_SEED + 1,
            "arrival_window_s": 60.0,
            "outage": {"time": 30.0, "lsc_index": 1, "viewer_fraction": 0.2},
        },
    },
    "service_churn": {
        "why": "closed-loop op script at a serve daemon over TCP: session, "
        "engine, heartbeats and the tree remove/repair side on small trees",
        "rate": "ops_per_s",
        "params": {
            "pool": 400,
            "num_lscs": 3,
            "num_views": 8,
            "batch_lines": 50,
            "tick_s": 0.25,
            "arrival_window_s": 60.0,
            "view_change_probability": 0.5,
            "departure_probability": 0.3,
            "session_duration_s": 120.0,
            "churn": {
                "failures_per_pool_per_s": 1.0 / 400.0,
                "graceful_fraction": 0.25,
                "rejoin_probability": 0.5,
                "rejoin_delay_mean": 10.0,
                "duration": 120.0,
            },
            "outage": {"time": 70.0, "lsc_index": 1, "viewer_fraction": 0.2},
            "closing": ["advance 30", "replay 20", "check", "stats", "snapshot"],
        },
    },
    "replay_qoe": {
        "why": "joins then frame replay on both data planes (simulated with "
        "2% loss, offline): dataplane/transport/engine/buffers do the work",
        "rate": "deliveries_per_s",
        "params": {
            "viewers": 300,
            "num_lscs": 3,
            "frames_per_stream": 60,
            "loss_rate": 0.02,
            "bandwidth_headroom": 1.0,
            "refresh_interval_s": 5.0,
        },
    },
}

#: Workload parameters that scale with ``--scale`` / ``--quick``.
SCALED_PARAMS = ("viewers", "pool")

HOST, EXACT = "host", "exact"

#: The twelve end-to-end metrics: name -> (unit, better, bound, kind,
#: workloads it is defined on).  ``bound`` is the share of the baseline
#: median by which the metric may worsen before it counts as a regression.
#: Exact metrics are functions of the seed, so any movement at equal seeds
#: is a behaviour change (bound 0).  The host-time bounds are three times
#: the run-to-run spread measured on the reference box (README, "Measured
#: noise"): the ISSUE's 0.10 for the four rates is inside that spread there.
ALL = tuple(WORKLOADS)
END_TO_END: Dict[str, Tuple[str, str, float, str, Tuple[str, ...]]] = {
    "setup_s": ("s", "lower", 0.25, HOST, ALL),
    "joins_per_s": ("1/s", "higher", 0.25, HOST, ("broadcast_join", "sharded_broadcast")),
    "ops_per_s": ("1/s", "higher", 0.25, HOST, ("service_churn",)),
    "deliveries_per_s": ("1/s", "higher", 0.25, HOST, ("replay_qoe",)),
    "offline_deliveries_per_s": ("1/s", "higher", 0.25, HOST, ("replay_qoe",)),
    "peak_rss_mb": ("MiB", "lower", 0.10, HOST, ALL),
    "acceptance_ratio": ("ratio", "higher", 0.0, EXACT, ALL),
    "cdn_fraction": ("ratio", "lower", 0.0, EXACT, ALL),
    "sim_join_delay_p95_s": ("sim_s", "lower", 0.0, EXACT, ALL),
    "sim_repair_delay_p50_s": ("sim_s", "lower", 0.0, EXACT, ("service_churn",)),
    "qoe_continuity": ("ratio", "higher", 0.0, EXACT, ("replay_qoe",)),
    "qoe_playout_skew_p99_s": ("sim_s", "lower", 0.0, EXACT, ("replay_qoe",)),
}

#: What the driver's contract can carry: metrics defined (and never 0) on
#: every workload.  ``work_per_s`` is the workload's own rate metric
#: (``WORKLOADS[w]["rate"]``).  The driver gives every run another seed,
#: so the seed-exact metrics get three times their measured spread across
#: seeds instead of 0; ``compare.py`` still holds them to 0 at equal seeds.
CONTRACT_END_TO_END: List[Dict[str, object]] = [
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "work_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MiB", "better": "lower", "bound": 0.10},
    {"name": "acceptance_ratio", "unit": "ratio", "better": "higher", "bound": 0.15},
    {"name": "cdn_fraction", "unit": "ratio", "better": "lower", "bound": 0.15},
    {"name": "sim_join_delay_p95_s", "unit": "sim_s", "better": "lower", "bound": 0.25},
]

#: End-to-end metrics that exist on some workloads only travel to the
#: driver as layer metrics of the traced run (0 where undefined).
CONTRACT_EXTRA_LAYER = (
    "joins_per_s",
    "ops_per_s",
    "deliveries_per_s",
    "offline_deliveries_per_s",
    "sim_repair_delay_p50_s",
    "qoe_continuity",
    "qoe_playout_skew_p99_s",
)

_J_BROADCAST = "joins_per_s on broadcast_join"
_J_SHARDED = "joins_per_s on sharded_broadcast"
_OPS = "ops_per_s on service_churn"
_DELIV = "deliveries_per_s on replay_qoe"

#: Layer metrics: name -> (unit, better, what it should move).  Written
#: down before measuring; on every other workload the prediction is
#: *no change*.
PER_LAYER: Dict[str, Tuple[str, str, str]] = {
    "experiments.runner.build_s": ("s", "lower", f"setup_s everywhere; {_J_SHARDED}"),
    "experiments.runner.shard_build_s": ("s", "lower", f"setup_s and {_J_SHARDED}"),
    "traces.workload.gen_s": ("s", "lower", f"setup_s; {_J_SHARDED}"),
    "traces.workload.events": ("count", "lower", "setup_s"),
    "net.planetlab.matrix_build_s": ("s", "lower", "setup_s"),
    "net.latency.lookup_calls": ("count", "lower", _J_BROADCAST),
    "net.latency.self_s": ("s", "lower", _J_BROADCAST),
    "net.latency.lookups_per_join": ("ratio", "lower", _J_BROADCAST),
    "core.controllers.join_calls": ("count", "lower", f"{_J_BROADCAST}, {_J_SHARDED}"),
    "core.controllers.join_self_s": ("s", "lower", f"{_J_BROADCAST}, {_J_SHARDED}"),
    "core.controllers.join_p50_us": ("us", "lower", f"{_J_BROADCAST}, {_J_SHARDED}"),
    "core.controllers.join_p99_us": ("us", "lower", f"{_J_BROADCAST}, {_J_SHARDED}"),
    "core.controllers.join_growth": ("ratio", "lower", "the superlinearity of joins_per_s, located"),
    "core.bandwidth.alloc_calls": ("count", "lower", _J_BROADCAST),
    "core.bandwidth.self_s": ("s", "lower", _J_BROADCAST),
    "core.bandwidth.inbound_reject_ratio": ("ratio", "lower", "acceptance_ratio"),
    "core.topology.insert_calls": ("count", "lower", _J_BROADCAST),
    "core.topology.insert_self_s": ("s", "lower", _J_BROADCAST),
    "core.topology.insert_p99_us": ("us", "lower", _J_BROADCAST),
    "core.topology.displace_ratio": ("ratio", "lower", _J_BROADCAST),
    "core.topology.cdn_ratio": ("ratio", "lower", "cdn_fraction"),
    "core.topology.remove_calls": ("count", "lower", _OPS),
    "core.topology.remove_self_s": ("s", "lower", _OPS),
    "core.topology.repair_search_calls": ("count", "lower", _OPS),
    "core.topology.repair_search_self_s": ("s", "lower", f"{_OPS}; sim_repair_delay_p50_s"),
    "core.topology.repair_hit_ratio": ("ratio", "higher", "cdn_fraction on service_churn"),
    "core.subscription.plan_calls": ("count", "lower", _J_BROADCAST),
    "core.subscription.self_s": ("s", "lower", _J_BROADCAST),
    "core.subscription.plans_per_join": ("ratio", "lower", f"{_J_BROADCAST} (re-plans are wasted work)"),
    "core.routing_table.update_calls": ("count", "lower", f"{_J_BROADCAST}; {_OPS}"),
    "core.routing_table.self_s": ("s", "lower", f"{_J_BROADCAST}; {_OPS}"),
    "model.cdn.alloc_calls": ("count", "lower", "cdn_fraction on broadcast_join"),
    "model.cdn.refused_ratio": ("ratio", "lower", "acceptance_ratio, cdn_fraction on broadcast_join; 0 on sharded_broadcast"),
    "core.adaptation.view_change_calls": ("count", "lower", _OPS),
    "core.adaptation.departure_calls": ("count", "lower", _OPS),
    "core.adaptation.self_s": ("s", "lower", _OPS),
    "core.adaptation.victims_per_departure": ("ratio", "lower", _OPS),
    "core.recovery.abrupt_calls": ("count", "lower", _OPS),
    "core.recovery.self_s": ("s", "lower", f"{_OPS}; sim_repair_delay_p50_s"),
    "core.recovery.failover_s": ("s", "lower", f"{_OPS}; {_J_SHARDED}"),
    "core.recovery.lost_ratio": ("ratio", "lower", "acceptance_ratio on service_churn"),
    "core.session.submit_calls": ("count", "lower", _OPS),
    "core.session.self_s": ("s", "lower", _OPS),
    "sim.engine.run_calls": ("count", "lower", _OPS),
    "sim.engine.events_fired": ("count", "lower", f"{_OPS}; {_DELIV}"),
    "sim.engine.self_s": ("s", "lower", f"{_OPS}; {_DELIV}"),
    "sim.transport.control_msgs": ("count", "lower", _OPS),
    "sim.transport.heartbeat_share": ("ratio", "lower", _OPS),
    "sim.transport.send_self_s": ("s", "lower", _OPS),
    "core.dataplane.sim_run_s": ("s", "lower", _DELIV),
    "core.dataplane.offline_replay_s": ("s", "lower", "offline_deliveries_per_s on replay_qoe"),
    "core.dataplane.frames_sent": ("count", "lower", _DELIV),
    "core.dataplane.us_per_delivery": ("us", "lower", _DELIV),
    "core.dataplane.lost_ratio": ("ratio", "lower", "qoe_continuity"),
    "core.dataplane.late_ratio": ("ratio", "lower", "qoe_continuity"),
    "core.dataplane.layer_adjustments": ("count", "lower", "qoe_playout_skew_p99_s"),
    "metrics.collectors.record_calls": ("count", "lower", _J_BROADCAST),
    "metrics.collectors.self_s": ("s", "lower", f"{_J_BROADCAST}; {_DELIV} (record_qoe)"),
    "metrics.placement.digest_s": ("s", "lower", _J_SHARDED),
    "parallel.runner.wall_s": ("s", "lower", _J_SHARDED),
    "parallel.worker.build_s": ("s", "lower", _J_SHARDED),
    "parallel.worker.join_s": ("s", "lower", _J_SHARDED),
    "parallel.runner.coord_overhead_ratio": ("ratio", "lower", _J_SHARDED),
    "parallel.runner.speedup": ("ratio", "higher", _J_SHARDED),
    "service.daemon.handle_calls": ("count", "lower", _OPS),
    "service.daemon.self_s": ("s", "lower", _OPS),
    "service.protocol.parse_self_s": ("s", "lower", _OPS),
    "service.daemon.advance_s": ("s", "lower", _OPS),
    "service.daemon.batch_rtt_p50_ms": ("ms", "lower", _OPS),
    "service.daemon.batch_rtt_p95_ms": ("ms", "lower", f"{_OPS} (rises before ops_per_s falls)"),
    "service.daemon.err_ratio": ("ratio", "lower", "ops_failed on service_churn"),
    "service.daemon.loop_lag_s": ("s", "lower", _OPS),
    "service.snapshot.save_s": ("s", "lower", "none (closing op)"),
    "service.snapshot.bytes": ("count", "lower", "none (closing op)"),
    "trace.overhead_ratio": ("ratio", "lower", "how far the layer numbers can be trusted"),
    "trace.unattributed_ratio": ("ratio", "lower", "how far the layer numbers can be trusted"),
}


def contract_layer_metrics() -> List[Dict[str, str]]:
    """The ``per_layer`` list of ``BENCHMARK.json``."""
    metrics = [
        {"name": name, "unit": unit, "better": better}
        for name, (unit, better, _moves) in PER_LAYER.items()
    ]
    metrics.extend(
        {"name": name, "unit": END_TO_END[name][0], "better": END_TO_END[name][1]}
        for name in CONTRACT_EXTRA_LAYER
    )
    return metrics


def benchmark_json() -> Dict[str, object]:
    """Exactly the keys the driver's contract allows in ``BENCHMARK.json``."""
    return {
        "command": COMMAND,
        "paths": ["benchmarks/e2e"],
        "run_seconds": RUN_SECONDS,
        "workloads": [
            {"name": name, "why": str(entry["why"])} for name, entry in WORKLOADS.items()
        ],
        "end_to_end": CONTRACT_END_TO_END,
        "per_layer": contract_layer_metrics(),
    }


def scaled_params(workload: str, scale: float) -> Dict[str, object]:
    """The workload's parameters with its population multiplied by ``scale``."""
    params = dict(WORKLOADS[workload]["params"])  # type: ignore[call-overload]
    for key in SCALED_PARAMS:
        if key in params:
            params[key] = max(20, int(round(params[key] * scale)))
    return params


def defined_on(metric: str, workload: str) -> bool:
    """Whether an end-to-end metric exists on a workload."""
    return workload in END_TO_END[metric][4]
