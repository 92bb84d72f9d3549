"""Where the tracer cuts the program into layers, and the layer metrics.

:data:`SPAN_POINTS` names the public callables of each ``repro`` module
the traced pass times; :func:`layer_metrics` turns one traced rep's
aggregates into the metrics of ``spec.PER_LAYER``.  Per-frame functions
(``DataLink.transmit``, buffer inserts) are deliberately absent: span
points stay under ~10^6 calls a rep.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Optional, Sequence

from repro.core import (
    adaptation,
    bandwidth,
    controllers,
    dataplane,
    recovery,
    routing_table,
    session,
    subscription,
    telecast,
    topology,
)
from repro.experiments import runner
from repro.metrics import collectors, placement
from repro.metrics.stats import percentile
from repro.model import cdn
from repro.net import latency, planetlab
from repro.service import daemon as service_daemon
from repro.service import protocol, snapshot
from repro.sim import engine, transport
from repro.traces import workload

import spec
from harness import Rep
from tracer import SpanPoint, SpanStats, Tracer


def _insert_outcome(result, _args):
    if not result.accepted:
        return "rejected"
    key = "accepted"
    if result.via_cdn:
        key += "+cdn"
    if result.displaced_node_id is not None:
        key += "+displaced"
    return key


def _refused(result, _args):
    return None if result else "refused"


def _points() -> List[SpanPoint]:
    P = SpanPoint
    tree = topology.StreamTree
    table = routing_table.SessionRoutingTable
    entry = routing_table.RoutingEntry
    system = telecast.TeleCastSystem
    metrics = collectors.SessionMetrics
    points = [
        P("experiments.runner", runner, "build_scenario"),
        P("experiments.runner", runner, "build_telecast_system"),
        P("traces.workload", workload.ViewerWorkload, "viewers"),
        P("traces.workload", workload.ViewerWorkload, "events",
          outcome=lambda result, _a: (("events", len(result)),)),
        P("traces.workload", workload.ChurnWorkload, "events",
          outcome=lambda result, _a: (("events", len(result)),)),
        P("net.planetlab", planetlab, "generate_planetlab_matrix"),
        P("net.latency", latency.DelayModel, "propagation"),
        P("net.latency", latency.DelayModel, "rtt"),
        P("net.latency", latency.DelayModel, "hop_delay"),
        P("net.latency", latency.DelayModel, "approx_hop_delays"),
        P("core.controllers", system, "join_viewer"),
        P("core.controllers", controllers.LocalSessionController, "join", keep=True),
        P("core.controllers", controllers.GlobalSessionController, "lsc_for_viewer"),
        P("core.bandwidth", bandwidth, "allocate_inbound",
          outcome=lambda result, _a: None if result.request_accepted else "rejected"),
        P("core.bandwidth", bandwidth, "allocate_outbound"),
        P("core.topology", tree, "insert", keep=True, outcome=_insert_outcome),
        P("core.topology", tree, "remove"),
        P("core.topology", tree, "reparent"),
        P("core.topology", tree, "reattach_orphan"),
        P("core.topology", tree, "attach_under"),
        P("core.topology", tree, "find_repair_parent",
          outcome=lambda result, _a: "miss" if result is None else "hit"),
        P("core.subscription", subscription, "plan_view_synchronization"),
        P("core.subscription", subscription, "apply_plan"),
        P("core.subscription", subscription, "needs_resubscription"),
        P("core.routing_table", table, "upsert"),
        P("core.routing_table", table, "reparent"),
        P("core.routing_table", table, "remove"),
        P("core.routing_table", table, "remove_stream"),
        P("core.routing_table", entry, "add_child"),
        P("core.routing_table", entry, "remove_child"),
        P("model.cdn", cdn.CDN, "can_serve", outcome=_refused),
        P("model.cdn", cdn.CDN, "allocate", outcome=_refused),
        P("model.cdn", cdn.CDN, "release"),
        P("core.adaptation", adaptation.AdaptationManager, "handle_view_change"),
        P("core.adaptation", adaptation.AdaptationManager, "handle_departure",
          outcome=lambda result, _a: (("victims", len(result.victims)),)),
        P("core.recovery", recovery.RecoveryManager, "handle_abrupt_departure",
          outcome=lambda result, _a: (
              ("lost", result.lost_subscriptions), ("repaired", result.repaired))),
        P("core.recovery", recovery.RecoveryManager, "sweep"),
        P("core.recovery", recovery, "failover_lsc"),
        P("core.session", session.EventDrivenSession, "submit"),
        P("core.session", session, "dispatch_event", op=True),
        P("core.session", session.InstantDriver, "run"),
        P("core.telecast", system, "change_view"),
        P("core.telecast", system, "depart_viewer"),
        P("core.telecast", system, "fail_viewer"),
        P("core.telecast", system, "detect_failures"),
        P("core.telecast", system, "fail_lsc"),
        P("core.telecast", system, "renew_heartbeat"),
        P("sim.engine", engine.Simulator, "run",
          outcome=lambda result, _a: (("events", result),)),
        P("sim.transport", transport.ControlChannel, "send",
          outcome=lambda _result, args: type(args[1]).__name__),
        P("core.dataplane", dataplane.SimulatedDataPlane, "run", op=True),
        P("core.dataplane", dataplane.OverlayDataPlane, "replay", op=True),
        P("metrics.collectors", system, "take_snapshot"),
        P("metrics.collectors", metrics, "summary"),
        P("metrics.placement", placement, "placement_digest"),
        P("metrics.placement", placement, "per_lsc_placement_digests"),
        P("service.daemon", service_daemon.ServiceDaemon, "handle_line", op=True),
        P("service.protocol", protocol, "parse_op"),
        P("service.snapshot", snapshot, "save_snapshot"),
    ]
    points.extend(
        P("metrics.collectors", metrics, name)
        for name in sorted(vars(metrics))
        if name.startswith("record_")
    )
    return points


SPAN_POINTS: List[SpanPoint] = _points()


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _percentile(values: Sequence[float], q: float) -> float:
    return percentile(values, q) if values else 0.0


def _growth(durations: Sequence[int]) -> float:
    """Mean span of the last decile of calls over that of the first."""
    decile = len(durations) // 10
    if decile < 2:
        return 0.0
    return _ratio(statistics.fmean(durations[-decile:]), statistics.fmean(durations[:decile]))


def layer_metrics(
    workload_name: str,
    tracer: Tracer,
    traced: Rep,
    untraced: Sequence[Rep],
) -> Dict[str, float]:
    """Every metric of ``spec.PER_LAYER`` for one traced rep.

    Span times are wall nanoseconds; they are converted to calibrated
    seconds (or microseconds) with the traced body's calibration factor.
    A layer the workload never enters reads 0.
    """
    stats = tracer.stats()
    body = traced.timings["body"]
    factor = body.cal_s / body.wall_s
    blank = SpanStats(layer="")

    def span(name: str) -> SpanStats:
        return stats.get(name, blank)

    def seconds(ns: float) -> float:
        return ns * 1e-9 * factor

    def layer_self_s(layer: str) -> float:
        return seconds(sum(s.self_ns for s in stats.values() if s.layer == layer))

    def layer_calls(layer: str) -> int:
        return sum(s.calls for s in stats.values() if s.layer == layer)

    def outcome(name: str, key: str) -> float:
        return tracer.outcomes.get(name, {}).get(key, 0)

    def outcomes_with(name: str, part: str) -> float:
        return sum(v for k, v in tracer.outcomes.get(name, {}).items() if part in k)

    def micros(name: str, q: float) -> float:
        return _percentile(tracer.durations.get(name, []), q) * 1e-3 * factor

    extra = traced.extra
    joins = span("LocalSessionController.join").calls
    lookups = span("DelayModel.propagation").calls + span("DelayModel.approx_hop_delays").calls
    insert = span("StreamTree.insert")
    inserted = outcomes_with("StreamTree.insert", "accepted")
    repair = span("StreamTree.find_repair_parent")
    cdn_asks = span("CDN.can_serve").calls + span("CDN.allocate").calls
    departures = span("AdaptationManager.handle_departure")
    abrupt = "RecoveryManager.handle_abrupt_departure"
    lost, repaired = outcome(abrupt, "lost"), outcome(abrupt, "repaired")
    sends = span("ControlChannel.send")
    sim_run = span("SimulatedDataPlane.run")
    handled = span("ServiceDaemon.handle_line")
    record_calls = sum(
        s.calls for name, s in stats.items() if name.startswith("SessionMetrics.record_")
    )
    roots = [s for name, s in stats.items() if name in ("root:body", "root:offline_body")]
    untraced_body = statistics.median(rep.timings["body"].cal_s for rep in untraced)

    values: Dict[str, float] = {
        "experiments.runner.build_s": seconds(
            span("runner.build_scenario").total_ns
            + span("runner.build_telecast_system").total_ns
        ),
        "experiments.runner.shard_build_s": sum(extra.get("shard_build_cal_s", [])),
        "traces.workload.gen_s": seconds(
            sum(s.total_ns for s in stats.values() if s.layer == "traces.workload")
        ),
        "traces.workload.events": max(
            outcome("ViewerWorkload.events", "events"), outcome("ChurnWorkload.events", "events")
        ),
        "net.planetlab.matrix_build_s": seconds(
            span("planetlab.generate_planetlab_matrix").total_ns
        ),
        "net.latency.lookup_calls": lookups,
        "net.latency.self_s": layer_self_s("net.latency"),
        "net.latency.lookups_per_join": _ratio(lookups, joins),
        "core.controllers.join_calls": joins,
        "core.controllers.join_self_s": layer_self_s("core.controllers"),
        "core.controllers.join_p50_us": micros("LocalSessionController.join", 50),
        "core.controllers.join_p99_us": micros("LocalSessionController.join", 99),
        "core.controllers.join_growth": _growth(
            tracer.durations.get("LocalSessionController.join", [])
        ),
        "core.bandwidth.alloc_calls": layer_calls("core.bandwidth"),
        "core.bandwidth.self_s": layer_self_s("core.bandwidth"),
        "core.bandwidth.inbound_reject_ratio": _ratio(
            outcome("bandwidth.allocate_inbound", "rejected"),
            span("bandwidth.allocate_inbound").calls,
        ),
        "core.topology.insert_calls": insert.calls,
        "core.topology.insert_self_s": seconds(insert.self_ns),
        "core.topology.insert_p99_us": micros("StreamTree.insert", 99),
        "core.topology.displace_ratio": _ratio(
            outcomes_with("StreamTree.insert", "displaced"), inserted
        ),
        "core.topology.cdn_ratio": _ratio(outcomes_with("StreamTree.insert", "cdn"), inserted),
        "core.topology.remove_calls": span("StreamTree.remove").calls,
        "core.topology.remove_self_s": seconds(span("StreamTree.remove").self_ns),
        "core.topology.repair_search_calls": repair.calls,
        "core.topology.repair_search_self_s": seconds(repair.self_ns),
        "core.topology.repair_hit_ratio": _ratio(
            outcome("StreamTree.find_repair_parent", "hit"), repair.calls
        ),
        "core.subscription.plan_calls": span("subscription.plan_view_synchronization").calls,
        "core.subscription.self_s": layer_self_s("core.subscription"),
        "core.subscription.plans_per_join": _ratio(
            span("subscription.plan_view_synchronization").calls, joins
        ),
        "core.routing_table.update_calls": layer_calls("core.routing_table"),
        "core.routing_table.self_s": layer_self_s("core.routing_table"),
        "model.cdn.alloc_calls": span("CDN.allocate").calls,
        "model.cdn.refused_ratio": _ratio(
            outcome("CDN.can_serve", "refused") + outcome("CDN.allocate", "refused"), cdn_asks
        ),
        "core.adaptation.view_change_calls": span("AdaptationManager.handle_view_change").calls,
        "core.adaptation.departure_calls": departures.calls,
        "core.adaptation.self_s": layer_self_s("core.adaptation"),
        "core.adaptation.victims_per_departure": _ratio(
            outcome("AdaptationManager.handle_departure", "victims"), departures.calls
        ),
        "core.recovery.abrupt_calls": span(abrupt).calls,
        "core.recovery.self_s": layer_self_s("core.recovery"),
        "core.recovery.failover_s": seconds(span("recovery.failover_lsc").total_ns),
        "core.recovery.lost_ratio": _ratio(lost, lost + repaired),
        "core.session.submit_calls": span("EventDrivenSession.submit").calls,
        "core.session.self_s": layer_self_s("core.session"),
        "sim.engine.run_calls": span("Simulator.run").calls,
        "sim.engine.events_fired": outcome("Simulator.run", "events"),
        "sim.engine.self_s": layer_self_s("sim.engine"),
        "sim.transport.control_msgs": sends.calls,
        "sim.transport.heartbeat_share": _ratio(
            outcome("ControlChannel.send", "Heartbeat"), sends.calls
        ),
        "sim.transport.send_self_s": seconds(sends.self_ns),
        "core.dataplane.sim_run_s": seconds(sim_run.total_ns),
        "core.dataplane.offline_replay_s": seconds(span("OverlayDataPlane.replay").total_ns),
        "core.dataplane.frames_sent": extra.get("frames_sent", 0),
        "core.dataplane.us_per_delivery": _ratio(
            seconds(sim_run.total_ns) * 1e6, extra.get("frames_delivered", 0)
        ),
        "core.dataplane.lost_ratio": _ratio(
            extra.get("frames_lost", 0), extra.get("frames_sent", 0)
        ),
        "core.dataplane.late_ratio": _ratio(
            extra.get("frames_late", 0), extra.get("frames_delivered", 0)
        ),
        "core.dataplane.layer_adjustments": extra.get("layer_adjustments", 0),
        "metrics.collectors.record_calls": record_calls,
        "metrics.collectors.self_s": layer_self_s("metrics.collectors"),
        "metrics.placement.digest_s": seconds(
            sum(s.total_ns for s in stats.values() if s.layer == "metrics.placement")
        ),
        "service.daemon.handle_calls": handled.calls,
        "service.daemon.self_s": layer_self_s("service.daemon"),
        "service.protocol.parse_self_s": layer_self_s("service.protocol"),
        "service.daemon.advance_s": extra.get("advance_wall_s", 0.0) * factor,
        "service.daemon.err_ratio": _ratio(traced.failed, handled.calls),
        "service.daemon.loop_lag_s": extra.get("loop_lag_s", 0.0) * factor,
        "service.snapshot.save_s": seconds(span("snapshot.save_snapshot").total_ns),
        "service.snapshot.bytes": extra.get("snapshot_bytes", 0),
        "trace.overhead_ratio": 0.0
        if workload_name == "sharded_broadcast"
        else _ratio(body.cal_s, untraced_body),
        "trace.unattributed_ratio": _ratio(
            sum(s.self_ns for s in roots), sum(s.total_ns for s in roots)
        ),
    }
    values.update(_batch_rtt(untraced))
    values.update(_parallel(traced))
    missing = set(spec.PER_LAYER) - set(values)
    if missing:
        raise KeyError(f"layer metrics not derived: {sorted(missing)}")
    return values


def _batch_rtt(untraced: Sequence[Rep]) -> Dict[str, float]:
    """Client-side batch round trips of the untraced TCP reps, calibrated."""
    rtts_ms: List[float] = []
    for rep in untraced:
        body = rep.timings["body"]
        factor = body.cal_s / body.wall_s
        rtts_ms.extend(rtt * factor * 1e3 for rtt in rep.extra.get("batch_rtt_s", []))
    return {
        "service.daemon.batch_rtt_p50_ms": _percentile(rtts_ms, 50),
        "service.daemon.batch_rtt_p95_ms": _percentile(rtts_ms, 95),
    }


def _parallel(traced: Rep) -> Dict[str, float]:
    """Coordinator and worker numbers of a profiled sharded run."""
    extra = traced.extra
    phases: Optional[Dict[str, float]] = extra.get("phase_timings")
    if phases is None:
        return {name: 0.0 for name in spec.PER_LAYER if name.startswith("parallel.")}
    body = traced.timings["body"]
    factor = body.cal_s / body.wall_s
    workers = len(extra["shard_build_cal_s"])
    worker_seconds = workers * body.wall_s
    return {
        "parallel.runner.wall_s": body.cal_s,
        "parallel.worker.build_s": max(extra["shard_build_cal_s"]),
        "parallel.worker.join_s": phases.get("join", 0.0) * factor,
        "parallel.runner.coord_overhead_ratio": _ratio(
            worker_seconds - sum(phases.values()), worker_seconds
        ),
        "parallel.runner.speedup": _ratio(extra["single_leg_cal_s"], body.cal_s),
    }
