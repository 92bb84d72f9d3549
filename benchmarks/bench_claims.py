"""The paper's claims as one table: regenerate, check and record them.

Every figure of Section VII and four design choices (kappa, the outbound
policy, push-down against first-fit, churn repair against rejoin) run
once at the paper's 1 000 viewers (the bounds' calibration; the CLI's
figure mode takes any ``--viewers``), timed by ``records.STOPWATCH``.
Each :data:`CLAIMS` row -- name, the paper's statement and value,
measured quantity, bound -- is one gate of ``BENCH_claims.json`` whose
value is the margin the claim holds by (``measured - bound`` or ``bound
- measured``): 0 passes a non-strict bound, a strict one needs
:data:`STRICT`, and a two-sided claim is two rows.  As a test it writes
``benchmarks/out/``, as a script it re-captures the checked-in record::

    PYTHONPATH=src python -m pytest -q -s benchmarks/bench_claims.py
    PYTHONPATH=src python benchmarks/bench_claims.py
"""

from __future__ import annotations

import sys
from typing import Callable, Dict, List, NamedTuple, Optional

import records

from repro.core.bandwidth import allocate_outbound as round_robin
from repro.core.bandwidth import allocate_outbound_equal_split as equal_split
from repro.core.bandwidth import allocate_outbound_priority_only as priority_only
from repro.core.telecast import TeleCastSystem, build_views
from repro.core.topology import StreamTree
from repro.experiments.config import PAPER_CONFIG
from repro.experiments.figures import FIGURES
from repro.experiments.reporting import paper_vs_measured
from repro.experiments.runner import build_scenario, build_telecast_system, run_telecast_scenario
from repro.model.producer import make_default_producers
from repro.net.latency import DelayModel, LatencyMatrix
from repro.sim.rng import SeededRandom
from repro.traces.workload import BandwidthDistribution

#: The paper's world (1 000 viewers, a 6 000 Mbps CDN, 0-12 Mbps outbound).
CONFIG = PAPER_CONFIG
#: Snapshot interval (in joins) of the scaling figures.
STEP = 100

#: The margin a strict claim needs: below any difference its quantities
#: can show (counts, 2 Mbps streams, ratios of a few thousand requests, ns).
STRICT = 1e-9

_fixed, _uniform = BandwidthDistribution.fixed, BandwidthDistribution.uniform

#: The outbound-bandwidth curves each Figure 13 panel is checked on.
DRIVER_KWARGS = {
    figure_id: {"bandwidth_settings": (*map(_fixed, fixed), *(_uniform(*r) for r in ranges))}
    for figure_id, fixed, ranges in (
        ("13a", (0.0, 6.0, 10.0), ((0.0, 12.0), (2.0, 10.0), (4.0, 14.0))),
        ("13b", (0.0, 4.0, 8.0, 10.0), ((0.0, 12.0), (4.0, 14.0))),
        ("13c", (0.0, 4.0, 6.0, 8.0), ((0.0, 12.0), (4.0, 14.0))),
    )
}

#: Churn experiment: this many of the most-forwarding viewers of a
#: 500-viewer session fail, one after another.
CHURN_VIEWERS, CHURN_FAILURES = 500, 25


def kappa() -> Dict[int, tuple]:
    """``kappa -> (largest max layer minus the layer bound, acceptance)`` in
    Figure 14(a)'s world, at kappa = 2 (the paper's), 4 and 8."""
    runs = {}
    for k in (2, 4, 8):
        run = run_telecast_scenario(CONFIG.with_(kappa=k), snapshot_every=None)
        max_layers, _counts = run.system.viewer_maps()
        top = max(max_layers.values(), default=0)
        runs[k] = (top - run.config.layer_config().max_layer_index, run.acceptance_ratio)
    return runs


def outbound() -> Dict[str, List[int]]:
    """``policy -> slots per stream, in priority order`` for 1 000 viewers of
    0-12 Mbps: Figure 8's trade-off between the outbound policies."""
    rng = SeededRandom(5)
    capacities = [rng.uniform(0.0, 12.0) for _ in range(1000)]
    view = build_views(make_default_producers(), num_views=1, streams_per_site=3)[0]
    accepted = view.prioritized_streams
    slots = {}
    policies = {"round_robin": round_robin, "priority_only": priority_only,
                "equal_split": equal_split}
    for name, policy in policies.items():
        totals = dict.fromkeys((entry.stream_id for entry in accepted), 0)
        for capacity in capacities:
            for stream_id, degree in policy(accepted, capacity).out_degree.items():
                totals[stream_id] += degree
        slots[name] = list(totals.values())
    return slots


def _shallowest_free_parent(tree: StreamTree) -> Optional[str]:
    frontier = list(tree.root.children)
    while frontier:
        for node_id in frontier:
            if tree.node(node_id).free_slots > 0:
                return node_id
        frontier = [child for node_id in frontier for child in tree.node(node_id).children]
    return None


def pushdown() -> Dict[bool, tuple]:
    """``(members, mean depth)`` of 600 viewers inserted with degree push-down
    (True) and first-fit (False): the shallowest free slot, no displacement."""
    rng = SeededRandom(13)
    capacities = [rng.uniform(0.0, 12.0) for _ in range(600)]
    stream = make_default_producers()[0].streams[0]
    trees = {}
    for push_down in (True, False):
        delays = DelayModel(LatencyMatrix(default_delay=0.05), processing_delay=0.1, cdn_delta=60.0)
        tree = StreamTree(stream, delays, d_max=10_000.0)
        for index, capacity in enumerate(capacities):
            node_id, degree = f"viewer-{index:04d}", int(capacity // 2.0) % 4
            if push_down:
                tree.insert(node_id, degree, capacity, allow_cdn=tree.free_p2p_slots() == 0)
            else:
                parent = _shallowest_free_parent(tree) or tree.root.node_id
                tree.attach_under(node_id, parent, degree, capacity)
        tree.validate()
        depths = [tree.depth_of(node) for node in tree.members()]
        trees[push_down] = (len(depths), _mean(depths))
    return trees


def _pick_victims(system: TeleCastSystem) -> List[str]:
    """The most heavily forwarding viewers (their failure strands the most)."""
    fanout = {}
    for lsc in system.gsc.lscs:
        for vid, session in lsc.sessions.items():
            group = lsc.groups[session.view.view_id]
            fanout[vid] = sum(len(group.children_of(vid, sid)) for sid in session.subscriptions)
    ranked = sorted(fanout, key=lambda vid: (-fanout[vid], vid))
    return [vid for vid in ranked if fanout[vid] > 0][:CHURN_FAILURES]


def _fail_and_rejoin(system: TeleCastSystem, viewer_id: str) -> None:
    """Rejoin-from-scratch: tear every orphaned subtree down (cascading) and
    re-admit each affected viewer through the join pipeline; the lost
    subscriptions are the net drop in delivered streams."""
    lsc = system.lsc_of(viewer_id)
    system.recovery_managers()[lsc.lsc_id].detector.forget(viewer_id)
    group, orphans = lsc.teardown_session(viewer_id)
    affected, before, after = {}, 0, 0
    worklist = [m for sid, orphan in orphans for m in group.tree(sid).subtree_ids(orphan)]
    while worklist:
        session = lsc.session_of(worklist.pop())
        if session is None:
            continue  # already torn down via another stream's subtree
        affected[session.viewer_id] = session
        before += len(session.subscriptions)
        _group, secondary = lsc.teardown_session(session.viewer_id)
        worklist.extend(orphan_id for _stream_id, orphan_id in secondary)
    for _viewer_id, session in sorted(affected.items()):
        after += lsc.join(session.viewer, session.view).num_accepted
    system.metrics.record_repair(repaired_p2p=0, repaired_cdn=0, lost=max(0, before - after))


def _churn(timed) -> Dict[str, tuple]:
    """``leg -> (victims, lost subscriptions, wall s)``: the same crashes
    repaired in place and rejoined on identical sessions; only they are timed."""
    legs = {}
    for leg, fail in (("repair", TeleCastSystem.fail_viewer), ("rejoin", _fail_and_rejoin)):
        scenario = build_scenario(CONFIG.with_scaled_population(CHURN_VIEWERS))
        system = build_telecast_system(scenario)
        for index, viewer in enumerate(scenario.viewers):
            system.join_viewer(viewer, scenario.views[index % len(scenario.views)])
        victims = _pick_victims(system)
        timed(f"churn.{leg}", lambda: [fail(system, victim) for victim in victims])
        for lsc in system.gsc.lscs:
            for group in lsc.groups.values():
                for tree in group.trees.values():
                    tree.validate()
        lost = system.metrics.lost_repair_subscriptions
        legs[leg] = (len(victims), lost, timed.walls[f"churn.{leg}"])
    return legs


class Claim(NamedTuple):
    """One row: ``measure(results) <op> bound``, ``op`` one of ``>= > <= <``."""

    name: str
    paper: str
    quantity: str
    measure: Callable[[dict], float]
    op: str
    bound: float


def _between(name, paper, quantity, measure, low, high, strict=False) -> List[Claim]:
    """A two-sided claim as two rows, ``.min`` and ``.max``."""
    return [
        Claim(f"{name}.min", paper, quantity, measure, ">" if strict else ">=", low),
        Claim(f"{name}.max", paper, quantity, measure, "<" if strict else "<=", high),
    ]


def _at(figure: str, label: str) -> Callable[[dict], float]:
    """Measure: a curve's value at its largest x."""
    return lambda r: r[figure].series_by_label(label).final_value()


def _fall(figure: str, before: str, after: str) -> Callable[[dict], float]:
    """Measure: how far a figure's curve ``after`` ends below its curve ``before``."""
    return lambda r: _at(figure, before)(r) - _at(figure, after)(r)


def _samples(figure: str, label: str, reduce) -> Callable[[dict], float]:
    """Measure: ``reduce`` of one CDF's samples."""
    return lambda r: reduce(r[figure].samples[label])


def _share(figure: str, label: str, keep) -> Callable[[dict], float]:
    """Measure: the share of one CDF's samples that ``keep`` accepts."""
    return _samples(figure, label, lambda values: _mean([keep(v) for v in values]))


def _least_step(values) -> float:
    return min(b - a for a, b in zip(values, values[1:]))


def _mean(values) -> float:
    return sum(values) / len(values)


def _spread(r, policy: str) -> int:
    return max(r[OUT][policy]) - min(r[OUT][policy])


def _gaps(r, figure: str) -> List[float]:
    """TeleCast minus Random acceptance at each x of a Figure 15 panel."""
    telecast, random = (r[figure].series_by_label(side).values for side in ("TeleCast", "Random"))
    return [t - x for t, x in zip(telecast, random)]


DEMAND = CONFIG.demand_mbps
SIZES, OUT = "accepted_streams", "outbound"
CLAIMS: List[Claim] = [
    *_between("13a.cdn_at_0_obw", "no contribution: CDN carries 12 Mbps x N = 12000",
              "CDN Mbps at C_obw=0", _at("13a", "C_obw=0"), DEMAND, DEMAND),
    Claim("13a.cdn_falls_0_to_6", "CDN need falls as viewers contribute",
          "CDN Mbps, C_obw=0 minus 6", _fall("13a", "C_obw=0", "C_obw=6"), ">", 0.0),
    Claim("13a.cdn_falls_6_to_10", "CDN need falls as viewers contribute",
          "CDN Mbps, C_obw=6 minus 10", _fall("13a", "C_obw=6", "C_obw=10"), ">", 0.0),
    *_between("13a.cdn_at_0_12_obw", "about half the demand at 0-12 Mbps (~6000)",
              "CDN Mbps at C_obw=0-12", _at("13a", "C_obw=0-12"), 0.4 * DEMAND, 0.7 * DEMAND),
    Claim("13a.cdn_grows_with_audience", "every curve grows with the audience",
          "least CDN Mbps step of any curve",
          lambda r: min(_least_step(s.values) for s in r["13a"].series), ">=", 0.0),
    *_between("13b.cdn_share_at_0_obw", "no contribution: every request from the CDN",
              "CDN share at C_obw=0", _at("13b", "C_obw=0"), 1.0, 1.0),
    Claim("13b.share_falls_4_to_8", "CDN share falls with contribution",
          "CDN share, C_obw=4 minus 8", _fall("13b", "C_obw=4", "C_obw=8"), ">", 0.0),
    Claim("13b.share_falls_8_to_10", "CDN share falls with contribution",
          "CDN share, C_obw=8 minus 10", _fall("13b", "C_obw=8", "C_obw=10"), ">", 0.0),
    Claim("13b.cdn_share_at_8_obw", ">= 55 % served by P2P at >= 8 Mbps",
          "CDN share at C_obw=8", _at("13b", "C_obw=8"), "<=", 0.45),
    Claim("13b.cdn_share_at_4_14_obw", ">= 55 % served by P2P at 4-14 Mbps",
          "CDN share at C_obw=4-14", _at("13b", "C_obw=4-14"), "<=", 0.45),
    Claim("13c.acceptance_at_0_obw", "the capped CDN alone: about half accepted",
          "acceptance at C_obw=0", _at("13c", "C_obw=0"), "<", 0.7),
    Claim("13c.acceptance_rises_0_to_4", "acceptance rises with contribution",
          "acceptance, C_obw=4 minus 0", _fall("13c", "C_obw=4", "C_obw=0"), ">", 0.0),
    Claim("13c.acceptance_rises_4_to_8", "acceptance rises with contribution",
          "acceptance, C_obw=8 minus 4", _fall("13c", "C_obw=8", "C_obw=4"), ">", 0.0),
    Claim("13c.acceptance_at_8_obw", "perfect acceptance at >= 8 Mbps",
          "acceptance at C_obw=8", _at("13c", "C_obw=8"), ">=", 0.99),
    Claim("13c.acceptance_at_4_14_obw", "perfect acceptance at 4-14 Mbps",
          "acceptance at C_obw=4-14", _at("13c", "C_obw=4-14"), ">=", 0.99),
    Claim("14a.viewers_measured", "CDF over the connected viewers",
          "connected viewers", _samples("14a", "max_layer", len), ">", 0.0),
    Claim("14a.layer0_share", "about 30 % in Layer-0",
          "share in Layer-0", _share("14a", "max_layer", lambda v: v <= 0.0), ">=", 0.1),
    Claim("14a.within_layer4_share", "about 80 % within Layer-4",
          "share within Layer-4", _share("14a", "max_layer", lambda v: v <= 4.0), ">=", 0.6),
    Claim("14a.layer_bound", "no viewer past the d_max layer bound", "largest max layer",
          _samples("14a", "max_layer", max), "<=", CONFIG.layer_config().max_layer_index),
    Claim("14b.viewers_measured", "CDF over the requesting viewers",
          "requesting viewers", _samples("14b", SIZES, len), ">", 0.0),
    Claim("14b.full_view_share", "> 70 % receive all 6 streams",
          "share with all 6", _share("14b", SIZES, lambda v: v >= CONFIG.streams_per_view),
          ">=", 0.6),
    Claim("14b.rejected_share", "about 15 % receive none",
          "share with none", _share("14b", SIZES, lambda v: v == 0), "<=", 0.35),
    Claim("14b.streams_per_site", "a stream per site for every connected viewer",
          "fewest streams of a connected viewer",
          _samples("14b", SIZES, lambda s: min((v for v in s if v > 0), default=CONFIG.num_sites)),
          ">=", CONFIG.num_sites),
    Claim("14c.joins_measured", "CDF over the joins",
          "joins", _samples("14c", "join_delay", len), ">", 0.0),
    Claim("14c.view_changes_measured", "CDF over the view changes",
          "view changes", _samples("14c", "view_change_delay", len), ">", 0.0),
    Claim("14c.join_max_s", "joins within about 1.5 s",
          "slowest join (s)", _samples("14c", "join_delay", max), "<=", 2.0),
    Claim("14c.join_within_1_5s_share", "joins within about 1.5 s",
          "share of joins <= 1.5 s", _share("14c", "join_delay", lambda v: v <= 1.5), ">=", 0.95),
    Claim("14c.view_change_within_0_5s_share", "view changes within about 500 ms",
          "share <= 0.5 s", _share("14c", "view_change_delay", lambda v: v <= 0.5), ">=", 0.9),
    Claim("14c.view_change_faster", "a view change is served faster than a join",
          "mean join minus mean view change (s)",
          lambda r: _samples("14c", "join_delay", _mean)(r)
          - _samples("14c", "view_change_delay", _mean)(r), ">", 0.0),
    *_between("15a.gap_at_0_obw", "no contribution: both CDN-only, equal",
              "TeleCast minus Random at 0 Mbps", lambda r: _gaps(r, "15a")[0], -0.02, 0.02,
              strict=True),
    Claim("15a.never_loses", "TeleCast never below Random",
          "least TeleCast minus Random", lambda r: min(_gaps(r, "15a")), ">=", -0.02),
    Claim("15a.best_gain", "about 20 % more acceptance than Random",
          "largest TeleCast minus Random", lambda r: max(_gaps(r, "15a")), ">=", 0.08),
    Claim("15a.telecast_rises", "TeleCast rises with outbound bandwidth",
          "least TeleCast step",
          lambda r: _least_step(r["15a"].series_by_label("TeleCast").values), ">=", -1e-9),
    Claim("15b.telecast_at_1000", "98-99 % acceptance at 1000 viewers",
          "TeleCast acceptance at 1000", _at("15b", "TeleCast"), ">=", 0.97),
    Claim("15b.gain_at_1000", "Random degrades into 80-88 %",
          "TeleCast minus Random at 1000", lambda r: _gaps(r, "15b")[-1], ">=", 0.05),
    Claim("15b.random_no_gain", "Random does not improve with scale", "Random, 1000 minus 100",
          lambda r: _at("15b", "Random")(r) - r["15b"].series_by_label("Random").values[0],
          "<=", 1e-9),
    Claim("15b.never_loses", "TeleCast never below Random",
          "least TeleCast minus Random", lambda r: min(_gaps(r, "15b")), ">=", -0.02),
    Claim("kappa.layer_bound", "design choice: the d_max layer bound holds at any kappa",
          "largest max layer minus its bound, kappa 2/4/8",
          lambda r: max(over for over, _ in r["kappa"].values()), "<=", 0.0),
    Claim("kappa.acceptance_kept", "design choice: kappa = 2; the skew bound is kappa-free",
          "least acceptance minus kappa=2's",
          lambda r: min(a - r["kappa"][2][1] for _, a in r["kappa"].values()), ">=", -0.1),
    Claim("outbound.priority_only_spread", "Fig. 8: priority-only starves lower streams",
          "slot spread, priority-only minus round-robin",
          lambda r: _spread(r, "priority_only") - _spread(r, "round_robin"), ">", 0.0),
    Claim("outbound.round_robin_no_waste", "Fig. 8: round-robin wastes no capacity",
          "slots, round-robin minus equal split",
          lambda r: sum(r[OUT]["round_robin"]) - sum(r[OUT]["equal_split"]), ">=", 0.0),
    Claim("outbound.round_robin_by_priority", "Fig. 8: round-robin in priority order",
          "least slot drop to the next priority",
          lambda r: _least_step(r[OUT]["round_robin"][::-1]), ">=", 0.0),
    *_between("pushdown.same_members", "design choice: both accept all at a loose d_max",
              "members, push-down minus first-fit",
              lambda r: r["pushdown"][True][0] - r["pushdown"][False][0], 0.0, 0.0),
    Claim("pushdown.mean_depth", "design choice: push-down flattens the tree",
          "mean depth, push-down minus first-fit",
          lambda r: r["pushdown"][True][1] - r["pushdown"][False][1], "<=", 1e-9),
    Claim("churn.victims.min", "25 forwarding viewers of 500 fail", "fewest victims of a leg",
          lambda r: min(leg[0] for leg in r["churn"].values()), ">=", CHURN_FAILURES),
    Claim("churn.victims.max", "25 forwarding viewers of 500 fail", "most victims of a leg",
          lambda r: max(leg[0] for leg in r["churn"].values()), "<=", CHURN_FAILURES),
    Claim("churn.repair_faster", "design choice: repair in place beats rejoin",
          "rejoin - repair (wall s)", lambda r: r["churn"]["rejoin"][2] - r["churn"]["repair"][2],
          ">", 0.0),
    Claim("churn.repair_loses_no_more", "design choice: repair loses no more subscriptions",
          "lost, rejoin minus repair",
          lambda r: r["churn"]["rejoin"][1] - r["churn"]["repair"][1], ">=", 0.0),
]


def _margin(claim: Claim, measured: float) -> float:
    return measured - claim.bound if claim.op[0] == ">" else claim.bound - measured


def measure(quick: bool) -> int:
    """Run every experiment, check every claim, write the record; 1 on a failed gate."""
    results: Dict[str, object] = {}
    with records.STOPWATCH.bracket() as timed:
        for figure_id, spec in sorted(FIGURES.items()):
            kwargs = DRIVER_KWARGS.get(figure_id, {})
            results[figure_id] = timed(figure_id, lambda: spec.run(CONFIG, STEP, **kwargs))
            print(spec.format(results[figure_id]))
        for experiment in (kappa, outbound, pushdown):
            results[experiment.__name__] = timed(experiment.__name__, experiment)
        results["churn"] = _churn(timed)
    measured = {claim.name: claim.measure(results) for claim in CLAIMS}
    print(paper_vs_measured(
        (f"{c.name}: {c.quantity}", c.paper, f"{measured[c.name]:.6g} ({c.op} {c.bound:g})")
        for c in CLAIMS
    ))
    points = [
        {
            "experiment": experiment,
            "timings": {
                section.partition(".")[2] or "run": timing.to_json()
                for section, timing in timed.timings.items()
                if section.partition(".")[0] == experiment
            },
            "claims": [
                {"name": c.name, "paper": c.paper, "quantity": c.quantity, "op": c.op,
                 "bound": c.bound, "measured": measured[c.name]}
                for c in CLAIMS
                if c.name.partition(".")[0] == experiment
            ],
        }
        for experiment in results
    ]
    gates = [
        records.gate(c.name, STRICT if len(c.op) == 1 else 0.0, _margin(c, measured[c.name]))
        for c in CLAIMS
    ]
    return records.write("claims", quick=quick, points=points, gates=gates)


def test_every_claim_holds_at_the_paper_s_scale():
    assert measure(quick=True) == 0


if __name__ == "__main__":
    sys.exit(measure(quick=False))
