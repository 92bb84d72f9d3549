"""A deterministic guard for the join path's per-call overhead.

Wall-clock gains do not survive a shared CI runner; call counts do.  One
400-viewer, one-view, 3-LSC broadcast (the ``broadcast_join`` workload of
``benchmarks/e2e`` at a tenth of its size, seed 7) runs under
``sys.setprofile`` and every Python-level ``call`` event whose code lives
under ``src/repro/`` is counted.  Two things are pinned:

* the *algorithm* did not change: the calls into the four functions that
  do a join's real work (latency lookups, tree placements, plans, CDN
  reservations) equal the counts captured on the commit before the
  overhead was removed, and
* the *overhead* stays removed: Python-level calls per join stay under a
  budget set 5 % above the last measurement (266 per join on CPython
  3.11; 284 while a subscription was a copy of its tree node, 355
  before view sync took one pass, 375 while every join still wrote
  routing tables, 614 before the join fast path).

``DelayModel.propagation`` was pinned at 7711 until a plan became rows.
It is 6602 since, and the view-sync algorithm is the same: 626 of the
1268 lookups ``apply_plan`` made for Equation 2 re-read the pair the plan
had just read for the same parent, and now reuse that value; 483 of the
1400 lookups ``needs_resubscription`` made in the push-down cascade came
after the structural delay already exceeded the effective one, which
forces the re-plan by itself and is now tested first.  No pair is derived
in a different order: the mean of the latency world's stored pairs after
the body, summed left to right in storage (= derivation) order, is pinned
too.

``plan_view_synchronization`` was pinned at 986 and
``DelayModel.propagation`` at 6602 while a subscription was a copy of
its tree node.  The push-down cascade re-planned a viewer displaced in
several of the joiner's trees while its other streams' copies still held
their pre-push-down delays; the stale structural delay then forced a
second plan when that stream's own cascade arrived.  With the node as
the one record every plan reads the current delay, and 40 plans (145
lookups) fall away.  The stored pairs are unchanged.

``SessionRoutingTable.upsert`` was the fifth pinned function (3995
calls).  It left the list when the stored table did: Table I is built on
read by ``ViewGroup.routing_table_of`` and a join writes none of it, so
the count is 0 by construction and pins nothing.

Comprehensions and generator resumptions are ``call`` events; 3.12
inlines comprehensions, so a budget measured on 3.11 bounds every newer
interpreter from above.

Beside the call budget sits an object budget: the GC-tracked objects the
same body leaves behind, per tree position (one viewer in one stream
tree).  It read 3.53 (7324 objects over 2074 positions) while a
``StreamSubscription`` record sat beside every ``TreeNode``, and 2.53
(5251) once the node became the subscription, on CPython 3.11 and 3.12
alike.  CPython 3.10 tracks every instance ``__dict__`` as an object of
its own, 384 more here: it read 3.72 (7708) and reads 2.72 (5635).
"""

from __future__ import annotations

import gc
import os
import sys
from collections import Counter

import repro
from repro.core.subscription import plan_view_synchronization
from repro.core.topology import StreamTree
from repro.experiments import runner
from repro.experiments.config import PAPER_CONFIG
from repro.model.cdn import CDN
from repro.net.latency import DelayModel

VIEWERS = 400
SEED = 7

#: Calls into the functions that do the work, captured on the parent
#: commit (be283b3; ``DelayModel.propagation`` re-captured when a plan
#: became rows, it and ``plan_view_synchronization`` when the tree node
#: became the subscription, see above): a change to any of them is a
#: change of algorithm.
WORK_CALLS = {
    "DelayModel.propagation": 6457,
    "StreamTree.insert": 2076,
    "plan_view_synchronization": 946,
    "CDN.allocate": 1200,
}

#: Mean delay and number of the latency world's stored pairs after the
#: body, captured on the commit before a plan became rows.
MEAN_DELAY = 0.04665910749195726
DERIVED_PAIRS = 1716

#: Python-level calls per join: 5 % above the 266.2 measured on CPython 3.11.
CALLS_PER_JOIN_BUDGET = 279

#: GC-tracked objects the body adds per tree position: 5 % above the
#: 2.53 of CPython 3.11+ (2.72 on 3.10, see above).
OBJECTS_PER_POSITION_BUDGET = 2.66 if sys.version_info >= (3, 11) else 2.85

_WORK_CODE = {
    DelayModel.propagation.__code__: "DelayModel.propagation",
    StreamTree.insert.__code__: "StreamTree.insert",
    plan_view_synchronization.__code__: "plan_view_synchronization",
    CDN.allocate.__code__: "CDN.allocate",
}


def _profiled_broadcast():
    """Run the body under ``sys.setprofile``: ``(result, calls, work calls)``."""
    config = PAPER_CONFIG.with_scaled_population(
        VIEWERS, num_lscs=3, num_views=1
    ).with_seed(SEED)
    scenario = runner.build_scenario(config)
    package_root = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep
    in_package = {}
    work = Counter()
    total = 0

    def on_event(frame, event, _arg):
        nonlocal total
        if event != "call":
            return
        code = frame.f_code
        counted = in_package.get(code)
        if counted is None:
            counted = in_package[code] = code.co_filename.startswith(package_root)
        if counted:
            total += 1
            name = _WORK_CODE.get(code)
            if name is not None:
                work[name] += 1

    sys.setprofile(on_event)
    try:
        result = runner.run_telecast_scenario(config, scenario=scenario, snapshot_every=None)
    finally:
        sys.setprofile(None)
    return result, total, dict(work)


def _running_mean(matrix) -> float:
    """Mean of the stored pair delays, added one by one in storage order.

    A plain loop, not ``sum()``: CPython 3.12's float ``sum`` is
    compensated, so only a loop adds in the order the pin was taken in.
    """
    total = 0.0
    for _a, _b, delay in matrix.pairs():
        total += delay
    return total / matrix.explicit_pair_count()


def test_join_path_work_is_unchanged_and_its_overhead_stays_within_budget():
    result, total, work = _profiled_broadcast()
    joins = result.metrics.accepted_requests + result.metrics.rejected_requests
    assert joins == VIEWERS
    assert work == WORK_CALLS
    matrix = result.system.delay_model.matrix
    assert (_running_mean(matrix), matrix.explicit_pair_count()) == (MEAN_DELAY, DERIVED_PAIRS)
    assert total / joins <= CALLS_PER_JOIN_BUDGET, (
        f"{total} Python-level calls for {joins} joins = {total / joins:.1f} per join"
    )


def test_the_body_leaves_under_the_object_budget_per_tree_position():
    config = PAPER_CONFIG.with_scaled_population(
        VIEWERS, num_lscs=3, num_views=1
    ).with_seed(SEED)
    scenario = runner.build_scenario(config)
    gc.collect()
    before = len(gc.get_objects())
    result = runner.run_telecast_scenario(config, scenario=scenario, snapshot_every=None)
    gc.collect()
    added = len(gc.get_objects()) - before
    positions = sum(
        len(tree)
        for lsc in result.system.gsc.lscs
        for group in lsc.groups.values()
        for tree in group.trees.values()
    )
    assert positions == 2074
    assert added / positions <= OBJECTS_PER_POSITION_BUDGET, (
        f"{added} objects over {positions} tree positions = {added / positions:.2f}"
    )
