"""Churn recovery: incremental subtree repair vs. rejoin-from-scratch.

Not a figure of the paper: this benchmark quantifies the recovery
subsystem added for the "large-scale simultaneous viewer arrivals or
departures" scenario.  A 500-viewer session is built twice from the same
seeds; in each copy the same heavily-forwarding viewers fail abruptly one
after another.  The first copy repairs the stranded subtrees incrementally
(orphans are re-parented in place in degree push-down order, CDN only as a
last resort); the second tears every affected subtree down and pushes each
viewer through the full join pipeline again.  Incremental repair must win
on wall-clock time -- it touches only the orphans instead of every
descendant -- while recovering at least as many subscriptions.
"""

from __future__ import annotations

import time

from repro.core.telecast import TeleCastSystem
from repro.experiments.config import PAPER_CONFIG
from repro.experiments.runner import build_scenario, build_telecast_system

#: The acceptance scenario is pinned to a 500-viewer session.
NUM_VIEWERS = 500
#: How many forwarding viewers fail, one after another.
NUM_FAILURES = 25


def _build_session() -> TeleCastSystem:
    """One fully-joined 500-viewer session (identical across calls)."""
    scenario = build_scenario(PAPER_CONFIG.with_scaled_population(NUM_VIEWERS))
    system = build_telecast_system(scenario)
    views = scenario.views
    for index, viewer in enumerate(scenario.viewers):
        system.join_viewer(viewer, views[index % len(views)])
    return system


def _pick_victims(system: TeleCastSystem) -> list:
    """The most heavily forwarding viewers (their failure strands the most)."""
    fanout = {}
    for lsc in system.gsc.lscs:
        for viewer_id, session in lsc.sessions.items():
            group = lsc.groups[session.view.view_id]
            fanout[viewer_id] = sum(
                len(group.children_of(viewer_id, stream_id))
                for stream_id in session.subscriptions
            )
    ranked = sorted(fanout, key=lambda vid: (-fanout[vid], vid))
    return [vid for vid in ranked if fanout[vid] > 0][:NUM_FAILURES]


def _fail_and_rejoin(system: TeleCastSystem, viewer_id: str) -> None:
    """The rejoin-from-scratch baseline for one abrupt departure.

    The victim is torn down like any crash, but nothing is repaired in
    place: every viewer in an orphaned subtree is fully disconnected --
    which cascades into further orphans that are torn down too -- and
    then re-admitted through the normal join pipeline.  Lost
    subscriptions are the net drop in delivered streams across the
    affected viewers.
    """
    lsc = system.lsc_of(viewer_id)
    system.recovery_managers()[lsc.lsc_id].detector.forget(viewer_id)
    group, orphans = lsc.teardown_session(viewer_id)
    affected = {}
    subs_before = subs_after = 0
    worklist = []
    for stream_id, orphan_id in orphans:
        worklist.extend(group.tree(stream_id).subtree_ids(orphan_id))
    while worklist:
        session = lsc.session_of(worklist.pop())
        if session is None:
            continue  # already torn down via another stream's subtree
        affected[session.viewer_id] = session
        subs_before += len(session.subscriptions)
        _group, secondary = lsc.teardown_session(session.viewer_id)
        worklist.extend(orphan_id for _stream_id, orphan_id in secondary)
    for member_id in sorted(affected):
        session = affected[member_id]
        subs_after += lsc.join(session.viewer, session.view).num_accepted
    system.metrics.record_repair(
        repaired_p2p=0, repaired_cdn=0, lost=max(0, subs_before - subs_after)
    )


def _run_failures(fail):
    """Fail the victim set through ``fail(system, viewer_id)``.

    Returns ``(seconds, metrics, system)``.
    """
    system = _build_session()
    victims = _pick_victims(system)
    assert len(victims) == NUM_FAILURES
    started = time.perf_counter()
    for victim in victims:
        fail(system, victim)
    elapsed = time.perf_counter() - started
    return elapsed, system.metrics, system


def test_incremental_repair_beats_full_rejoin():
    incremental_s, incremental_m, incremental_sys = _run_failures(
        TeleCastSystem.fail_viewer
    )
    rejoin_s, rejoin_m, rejoin_sys = _run_failures(_fail_and_rejoin)

    repaired = (
        incremental_m.repaired_subscriptions_p2p
        + incremental_m.repaired_subscriptions_cdn
    )
    print()
    print(f"failures injected            : {NUM_FAILURES} (of {NUM_VIEWERS} viewers)")
    print(
        f"incremental repair           : {incremental_s * 1000:8.1f} ms  "
        f"(repaired {repaired} subscriptions, "
        f"{incremental_m.repaired_subscriptions_p2p} via P2P, "
        f"lost {incremental_m.lost_repair_subscriptions})"
    )
    print(
        f"rejoin from scratch          : {rejoin_s * 1000:8.1f} ms  "
        f"(lost {rejoin_m.lost_repair_subscriptions} subscriptions)"
    )
    print(f"speedup                      : {rejoin_s / incremental_s:8.1f}x")

    # The headline claim: incremental repair is measurably faster than
    # tearing the subtrees down and rejoining every affected viewer.
    assert incremental_s < rejoin_s

    # And it is not buying speed with quality: no more subscriptions are
    # lost than under the full-rejoin baseline, and both sessions stay
    # internally consistent.
    assert (
        incremental_m.lost_repair_subscriptions <= rejoin_m.lost_repair_subscriptions
    )
    for system in (incremental_sys, rejoin_sys):
        for lsc in system.gsc.lscs:
            for group in lsc.groups.values():
                for tree in group.trees.values():
                    tree.validate()
