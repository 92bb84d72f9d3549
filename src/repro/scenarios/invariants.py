"""Post-hoc invariant catalog for adversarial scenario runs.

Every scenario preset (:mod:`repro.scenarios.presets`) declares a set of
named invariants; after the workload drains, :func:`check_invariants`
evaluates each declared name against the finished system and metrics and
returns the violations found.  The checks are *violation finders*, not
assertions: each returns a list of human-readable messages (empty =
invariant holds), so the CLI can print a verdict table and exit non-zero
while the pytest harness can assert the union is empty.

The granular finders (``dangling_reference_violations`` and friends) are
also the implementation behind the ``tests/conftest.py`` assertion
helpers, so the property-test suite and the scenario gate can never
drift apart on what "no dangling routing state" means.

Catalog
-------
``no_dangling_routing_state``
    No session, group, tree or subscription references a viewer that is
    no longer connected; all trees validate structurally.
``routing_matches_trees``
    Sessions and trees agree on membership: each tree member has a
    session subscribed to the stream, and each subscription is the node
    the stream's tree holds for its viewer.  (A subscription *is* that
    node, so parent and CDN flag cannot disagree, and Table I is read
    off the nodes.)
``layer_bounds``
    Every connected viewer satisfies the skew bound (``kappa``) and
    every subscription sits in an acceptable delay layer.
``no_orphaned_subscriptions``
    Every P2P subscription's parent is a connected viewer (post-repair
    consistency).
``single_home``
    No viewer is connected through more than one LSC.
``detector_consistent``
    Each LSC's failure detector watches exactly its connected viewers.
``bounded_stale_control``
    Stale control-message deliveries stay under an absolute plus
    relative bound (params: ``max_stale_abs``, ``max_stale_fraction``).
``acceptance_floor``
    The request acceptance ratio stays above ``min_acceptance``.
``skew_within_dbuff_floor``
    The fraction of viewers whose renderer-visible skew stays within
    ``d_buff`` is at least ``min_skew_within_dbuff`` (data plane only).
``continuity_floor``
    Mean concealment-aware playable continuity is at least
    ``min_playable_continuity`` (data plane only).
``frame_accounting``
    Data-plane frame counters balance: sent == delivered + lost.
``scenario_exercised``
    The hostile condition actually happened: each metric named in the
    ``exercised`` param meets its minimum (guards against a preset
    silently degenerating into a benign run).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, Iterable, List, Mapping

from repro.model.cdn import CDN_NODE_ID

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.telecast import TeleCastSystem


# -- granular violation finders (shared with tests/conftest.py) ----------------


def connected_viewer_ids(system: "TeleCastSystem") -> set:
    """All viewer ids currently holding a session at any LSC."""
    connected: set = set()
    for lsc in system.gsc.lscs:
        connected.update(lsc.sessions)
    return connected


def dangling_reference_violations(
    system: "TeleCastSystem", gone_viewer_ids: Iterable[str]
) -> List[str]:
    """References to departed viewers in sessions, groups, trees or subscriptions."""
    gone = set(gone_viewer_ids)
    violations: List[str] = []
    for lsc in system.gsc.lscs:
        still = gone & set(lsc.sessions)
        if still:
            violations.append(f"{lsc.lsc_id}: departed viewers hold sessions {sorted(still)}")
        for view_key, group in lsc.groups.items():
            ghost = gone & set(group.sessions)
            if ghost:
                violations.append(
                    f"{lsc.lsc_id}/{view_key}: departed viewers in group {sorted(ghost)}"
                )
            for stream_id, tree in group.trees.items():
                try:
                    tree.validate()
                except Exception as exc:  # structural corruption is a violation
                    violations.append(
                        f"{lsc.lsc_id}/{view_key}/{stream_id}: tree invalid: {exc}"
                    )
                members = gone & set(tree.members())
                if members:
                    violations.append(
                        f"{lsc.lsc_id}/{view_key}/{stream_id}: departed viewers in "
                        f"tree {sorted(members)}"
                    )
            for viewer_id, session in group.sessions.items():
                for stream_id, sub in session.subscriptions.items():
                    if sub.parent_id in gone:
                        violations.append(
                            f"{viewer_id}/{stream_id}: subscribed to departed "
                            f"parent {sub.parent_id}"
                        )
    return violations


def routing_tree_mismatches(system: "TeleCastSystem") -> List[str]:
    """Tree members without a subscription, and subscriptions their tree lacks."""
    violations: List[str] = []
    for lsc in system.gsc.lscs:
        for group in lsc.groups.values():
            for stream_id, tree in group.trees.items():
                for viewer_id in tree.members():
                    session = lsc.sessions.get(viewer_id)
                    if session is None:
                        violations.append(
                            f"{viewer_id}/{stream_id}: in tree but has no session"
                        )
                    elif stream_id not in session.subscriptions:
                        violations.append(
                            f"{viewer_id}/{stream_id}: in tree but not subscribed"
                        )
            for viewer_id, session in group.sessions.items():
                for stream_id, node in session.subscriptions.items():
                    tree = group.trees.get(stream_id)
                    if (
                        tree is None
                        or viewer_id not in tree
                        or tree.node(viewer_id) is not node
                    ):
                        violations.append(
                            f"{viewer_id}/{stream_id}: subscribed but not in tree"
                        )
    return violations


def layer_bound_violations(system: "TeleCastSystem") -> List[str]:
    """Connected viewers breaking the skew bound or layer acceptability."""
    config = system.layer_config
    violations: List[str] = []
    for lsc in system.gsc.lscs:
        for viewer_id, session in lsc.sessions.items():
            if not session.skew_bound_satisfied(config.kappa):
                violations.append(f"{viewer_id}: skew bound (kappa) violated")
            for stream_id, sub in session.subscriptions.items():
                if not config.is_acceptable_layer(sub.layer):
                    violations.append(
                        f"{viewer_id}/{stream_id}: unacceptable layer {sub.layer}"
                    )
                if sub.effective_delay < sub.end_to_end_delay - 1e-9:
                    violations.append(
                        f"{viewer_id}/{stream_id}: effective delay below "
                        f"end-to-end delay"
                    )
    return violations


def orphaned_subscription_violations(system: "TeleCastSystem") -> List[str]:
    """P2P subscriptions whose parent is no longer connected."""
    violations: List[str] = []
    for lsc in system.gsc.lscs:
        for group in lsc.groups.values():
            for viewer_id, session in group.sessions.items():
                for stream_id, sub in session.subscriptions.items():
                    if sub.parent_id != CDN_NODE_ID and sub.parent_id not in lsc.sessions:
                        violations.append(
                            f"{viewer_id}/{stream_id}: parent {sub.parent_id} "
                            f"has no session"
                        )
    return violations


def single_home_violations(system: "TeleCastSystem") -> List[str]:
    """Viewers connected through more than one LSC at once."""
    homes: Dict[str, List[str]] = {}
    for lsc in system.gsc.lscs:
        for viewer_id in lsc.sessions:
            homes.setdefault(viewer_id, []).append(lsc.lsc_id)
    return [
        f"{viewer_id}: connected at multiple LSCs {sorted(lsc_ids)}"
        for viewer_id, lsc_ids in sorted(homes.items())
        if len(lsc_ids) > 1
    ]


def detector_consistency_violations(system: "TeleCastSystem") -> List[str]:
    """Failure detectors watching ghosts, or missing connected viewers."""
    violations: List[str] = []
    managers = system.recovery_managers()
    for lsc in system.gsc.lscs:
        manager = managers.get(lsc.lsc_id)
        if manager is None:
            violations.append(f"{lsc.lsc_id}: no recovery manager registered")
            continue
        watched = set(manager.detector.watched())
        connected = set(lsc.sessions)
        ghosts = watched - connected
        if ghosts:
            violations.append(
                f"{lsc.lsc_id}: detector watches departed viewers {sorted(ghosts)}"
            )
        missing = connected - watched
        if missing:
            violations.append(
                f"{lsc.lsc_id}: connected viewers unwatched {sorted(missing)}"
            )
    return violations


# -- named invariant checks (run against a finished ScenarioRun) ---------------


def _population_gone(run) -> set:
    """Viewer ids of the scenario population that ended disconnected."""
    population = {viewer.viewer_id for viewer in run.scenario.viewers}
    return population - connected_viewer_ids(run.system)


def check_no_dangling_routing_state(run, params: Mapping) -> List[str]:
    return dangling_reference_violations(run.system, _population_gone(run))


def check_routing_matches_trees(run, params: Mapping) -> List[str]:
    return routing_tree_mismatches(run.system)


def check_layer_bounds(run, params: Mapping) -> List[str]:
    return layer_bound_violations(run.system)


def check_no_orphaned_subscriptions(run, params: Mapping) -> List[str]:
    return orphaned_subscription_violations(run.system)


def check_single_home(run, params: Mapping) -> List[str]:
    return single_home_violations(run.system)


def check_detector_consistent(run, params: Mapping) -> List[str]:
    return detector_consistency_violations(run.system)


def check_bounded_stale_control(run, params: Mapping) -> List[str]:
    metrics = run.metrics
    stale = metrics.stale_control_messages
    delivered = metrics.control_messages_delivered
    max_abs = params.get("max_stale_abs", 5)
    max_fraction = params.get("max_stale_fraction", 0.10)
    bound = max(max_abs, max_fraction * delivered)
    if stale > bound:
        return [
            f"stale control messages {stale} exceed bound {bound:.1f} "
            f"(delivered={delivered})"
        ]
    return []


def check_acceptance_floor(run, params: Mapping) -> List[str]:
    floor = params.get("min_acceptance", 0.5)
    ratio = run.metrics.request_acceptance_ratio
    if ratio < floor:
        return [f"request acceptance ratio {ratio:.3f} below floor {floor}"]
    return []


def check_skew_within_dbuff_floor(run, params: Mapping) -> List[str]:
    value = run.summary.get("qoe_skew_within_dbuff")
    if value is None:
        return ["no skew-within-d_buff sample (data plane did not run?)"]
    floor = params.get("min_skew_within_dbuff", 0.95)
    if value < floor:
        return [f"skew-within-d_buff fraction {value:.3f} below floor {floor}"]
    return []


def check_continuity_floor(run, params: Mapping) -> List[str]:
    value = run.summary.get("qoe_playable_continuity_mean")
    if value is None:
        return ["no playable-continuity sample (data plane did not run?)"]
    floor = params.get("min_playable_continuity", 0.7)
    if value < floor:
        return [f"playable continuity {value:.3f} below floor {floor}"]
    return []


def check_frame_accounting(run, params: Mapping) -> List[str]:
    metrics = run.metrics
    sent = metrics.data_frames_sent
    delivered = metrics.data_frames_delivered
    lost = metrics.data_frames_lost
    if sent != delivered + lost:
        return [
            f"frame counters unbalanced: sent={sent} != "
            f"delivered={delivered} + lost={lost}"
        ]
    return []


def check_scenario_exercised(run, params: Mapping) -> List[str]:
    """The hostile condition fired: named metrics meet their minimums."""
    violations: List[str] = []
    for name, minimum in sorted(params.get("exercised", {}).items()):
        value = run.summary.get(name)
        if value is None:
            value = getattr(run.metrics, name, None)
        if value is None:
            violations.append(f"metric {name!r} not recorded")
        elif value < minimum:
            violations.append(f"{name}={value} below required minimum {minimum}")
    return violations


#: name -> check(run, params) -> violation messages.
INVARIANTS: Dict[str, Callable[..., List[str]]] = {
    "no_dangling_routing_state": check_no_dangling_routing_state,
    "routing_matches_trees": check_routing_matches_trees,
    "layer_bounds": check_layer_bounds,
    "no_orphaned_subscriptions": check_no_orphaned_subscriptions,
    "single_home": check_single_home,
    "detector_consistent": check_detector_consistent,
    "bounded_stale_control": check_bounded_stale_control,
    "acceptance_floor": check_acceptance_floor,
    "skew_within_dbuff_floor": check_skew_within_dbuff_floor,
    "continuity_floor": check_continuity_floor,
    "frame_accounting": check_frame_accounting,
    "scenario_exercised": check_scenario_exercised,
}


def check_invariants(run) -> Dict[str, List[str]]:
    """Evaluate the run's declared invariants; return violations per name.

    An unknown invariant name is itself a violation -- a preset must
    never silently declare a check that does not exist.
    """
    spec = run.spec
    params = spec.invariant_params
    violations: Dict[str, List[str]] = {}
    for name in spec.invariants:
        check = INVARIANTS.get(name)
        if check is None:
            violations[name] = [f"unknown invariant {name!r}"]
            continue
        found = check(run, params.get(name, {}))
        if found:
            violations[name] = found
    return violations
