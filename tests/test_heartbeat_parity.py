"""Nothing a heartbeat can move may move: counts, digests, detector timestamps.

``tests/golden/heartbeat_parity.json`` was captured at the parent of the
heartbeat-ledger change (e50e139), when every connected viewer owned a
timer event and every beat was a scheduled ``Heartbeat`` delivery.  The
ledger that replaced them settles beats arithmetically, so every run
below must reproduce the parent's record to the last bit:

* ``batch`` -- 63 batch runs: every ``SCENARIOS`` preset at smoke scale
  x seeds 1-3, and the six ``controlplane_sweep()`` points x seeds 5, 6
  x ``control_delay_scale`` 0 (every delay a tie), 1, 8 and 40 (beats
  land later than the timeout; period 12 s > timeout 10 s is the
  spurious-repair regime).  Per run: a SHA-256 over ``summary()`` and
  the per-LSC placement digests, plus the three message counts.
* ``ties`` -- the ``service_churn`` op script of ``benchmarks/e2e`` at a
  dilation-0 daemon (seeds 7, 11 x scale 0, 1) with two ``replay`` ops
  injected: ``pause_service`` -> ``open_service`` puts *every* viewer on
  the failure sweep's exact phase, so sweep/beat/op ties are systematic
  from there on.  Per run: a SHA-256 over the deterministic stats (minus
  ``pending_events``, the one observable that moves), the ``check``
  verdict and every ``detector._last_seen`` float of every LSC.
* ``intent_tie`` -- a hand-timed batch session whose ``depart`` intent
  lands exactly on a beat: the intent wins, that beat is never sent.

Nine batch runs were re-captured, by one rule, when the CDN became one
aggregate ledger: those whose CDN capacity split over four edge servers
is not a whole number of 2 Mbps streams (``burst-loss`` and ``flapping``
at 150 viewers, 225 Mbps an edge; ``outage`` at 250 viewers, 375 Mbps an
edge; seeds 1-3 each).  The split refused CDN slots the aggregate held.
Every other run, ``ties`` and ``intent_tie`` stayed byte-identical.

Four batch runs and one tie run were re-captured when the tree node
became the only record of a subscription, because their parent planned
over a stale copy of it; every message count stayed the same, only the
digest moved.  ``flash-crowd/seed{2,3}`` and ``outage/seed2``: a join's
push-down cascade re-planned a viewer displaced in two of the joiner's
trees while its other stream's copy still held the pre-push-down delay.
``controlplane/001/telecast/seed5/scale40`` and ``ties`` ``seed7/scale0``:
an orphan repair re-planned a viewer whose other orphaned stream's copy
still named the departed parent; an orphaned stream now keeps its layer.

The three ``burst-loss`` batch runs, the only runs that replay frames
with loss, were re-captured each time the source of a link's losses
changed (a generator keyed by the edge, then a keyed hash of the plane
seed, the edge and the frame number); every other run, ``ties`` and
``intent_tie`` stayed byte-identical.

Regenerate the golden (only for an intentional change) with
``PYTHONPATH=src python tests/test_heartbeat_parity.py``.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict, Iterator, List, Tuple

import pytest

from reference_oracles import deterministic_stats
from repro.core.session import event_sort_key
from repro.core.telecast import TeleCastSystem, build_views
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import build_scenario, run_telecast_scenario
from repro.experiments.sweep import controlplane_sweep
from repro.metrics.placement import per_lsc_placement_digests
from repro.model.cdn import CDN
from repro.model.producer import make_default_producers
from repro.model.viewer import Viewer
from repro.net.latency import DelayModel, LatencyMatrix
from repro.scenarios import SCENARIOS
from repro.service import protocol
from repro.service.daemon import ServeConfig, ServiceDaemon, experiment_config
from repro.traces.workload import ChurnConfig, OutageConfig, ViewerEvent

GOLDEN_PATH = Path(__file__).parent / "golden" / "heartbeat_parity.json"

POOL = 400
TICK_S = 0.25
TIE_RUNS = [(seed, scale) for seed in (7, 11) for scale in (0.0, 1.0)]


def _digest(value) -> str:
    canonical = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("ascii")).hexdigest()


# -- the batch grid -------------------------------------------------------------


def batch_grid() -> Iterator[Tuple[str, ExperimentConfig]]:
    for name in sorted(SCENARIOS):
        for seed in (1, 2, 3):
            yield f"{name}/seed{seed}", SCENARIOS[name].config(smoke=True, seed=seed)
    for point in controlplane_sweep().expand():
        for seed in (5, 6):
            for scale in (0.0, 1.0, 8.0, 40.0):
                yield (
                    f"{point.point_id}/seed{seed}/scale{scale:g}",
                    point.config.with_seed(seed).with_(control_delay_scale=scale),
                )


def batch_record(config: ExperimentConfig) -> Dict[str, object]:
    result = run_telecast_scenario(config)
    summary = {
        key: value
        for key, value in result.summary().items()
        if "wall" not in key and "phase" not in key
    }
    return {
        "sha256": _digest(
            {"summary": summary, "placement": per_lsc_placement_digests(result.system)}
        ),
        # The instant control plane (burst-loss) sends no messages and
        # its summary leaves the three counts out.
        "sent": summary.get("control_messages_sent", 0),
        "delivered": summary.get("control_messages_delivered", 0),
        "stale": summary.get("stale_control_messages", 0),
    }


# -- the daemon tie runs --------------------------------------------------------


def churn_script(seed: int) -> List[str]:
    """The ``service_churn`` op script of ``benchmarks/e2e`` (same parameters)."""
    serve = ServeConfig(viewers=POOL, num_lscs=3, time_dilation=0.0, seed=seed)
    config = experiment_config(serve).with_(
        arrival_rate_per_second=POOL / 60.0,
        view_change_probability=0.5,
        departure_probability=0.3,
        session_duration=120.0,
        churn=ChurnConfig(
            failure_rate_per_second=POOL * (1.0 / 400.0),
            graceful_fraction=0.25,
            rejoin_probability=0.5,
            rejoin_delay_mean=10.0,
            duration=120.0,
        ),
        outage=OutageConfig(time=70.0, lsc_index=1, viewer_fraction=0.2, seed=seed + 4),
    )
    advance = protocol.format_op(protocol.Op(kind="advance", seconds=TICK_S))
    lines: List[str] = []
    now = 0.0
    for event in sorted(build_scenario(config).events, key=event_sort_key):
        while event.time >= now + TICK_S:
            lines.append(advance)
            now += TICK_S
        lines.append(protocol.format_op(protocol.op_of_event(event)))
    return lines


def tie_script(seed: int) -> List[str]:
    script = churn_script(seed)
    return (
        script[:900]
        + ["replay 5"]
        + script[900:]
        + ["advance 13", "replay 5", "advance 0.5"]
    )


def tie_daemon(seed: int, scale: float) -> ServiceDaemon:
    return ServiceDaemon(
        ServeConfig(
            viewers=POOL,
            num_lscs=3,
            time_dilation=0.0,
            seed=seed,
            control_delay_scale=scale,
        )
    )


def observable_state(daemon: ServiceDaemon) -> Dict[str, object]:
    """Everything a heartbeat can reach, ``pending_events`` excepted."""
    stats = json.loads(json.dumps(deterministic_stats(daemon)))
    stats.pop("pending_events")
    managers = daemon.state.system.recovery_managers()
    return {
        "stats": stats,
        "check": daemon.handle_line("check"),
        "last_seen": {
            lsc_id: dict(manager.detector._last_seen)
            for lsc_id, manager in sorted(managers.items())
        },
    }


def tie_record(seed: int, scale: float) -> Dict[str, object]:
    daemon = tie_daemon(seed, scale)
    for line in tie_script(seed):
        assert daemon.handle_line(line).startswith("ok"), line
    state = observable_state(daemon)
    return {
        "sha256": _digest(state),
        "sent": state["stats"]["control_messages_sent"],
        "watched": sum(len(seen) for seen in state["last_seen"].values()),
    }


# -- the hand-timed intent tie --------------------------------------------------


def intent_tie_record() -> Dict[str, int]:
    """``early`` joins at 1.0 with zero delays, so it beats at 3.0, 5.0, ...;
    its ``depart`` intent fires at exactly 5.0.  ``late`` keeps the session
    open past that instant (the close also stops beats)."""
    producers = make_default_producers(2, 3)
    delay_model = DelayModel(LatencyMatrix(default_delay=0.05))
    system = TeleCastSystem(producers, CDN(10_000.0, delta=60.0), delay_model)
    views = build_views(producers, num_views=1, streams_per_site=3)
    viewers = [
        Viewer("early", inbound_capacity_mbps=12.0, outbound_capacity_mbps=4.0),
        Viewer("late", inbound_capacity_mbps=12.0, outbound_capacity_mbps=4.0),
    ]
    events = [
        ViewerEvent(time=0.5, kind="join", viewer_id="late"),
        ViewerEvent(time=1.0, kind="join", viewer_id="early"),
        ViewerEvent(time=5.0, kind="depart", viewer_id="early"),
        ViewerEvent(time=20.0, kind="depart", viewer_id="late"),
    ]
    metrics = system.run_workload(
        viewers, events, views, control_plane="simulated", control_delay_scale=0.0
    )
    return {
        "sent": metrics.control_messages_sent,
        "delivered": metrics.control_messages_delivered,
    }


# -- tests ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def golden() -> Dict[str, object]:
    return json.loads(GOLDEN_PATH.read_text())


def test_batch_grid_matches_the_parent(golden):
    current = {run_id: batch_record(config) for run_id, config in batch_grid()}
    assert len(current) == 63
    assert current == golden["batch"]


@pytest.mark.parametrize("seed,scale", TIE_RUNS)
def test_daemon_ties_match_the_parent(golden, seed, scale):
    assert tie_record(seed, scale) == golden["ties"][f"seed{seed}/scale{scale:g}"]


def test_a_depart_intent_landing_on_a_beat_wins(golden):
    # early: JoinRequest, JoinAck, the beat at 3.0, DepartNotice -- not the
    # beat at 5.0.  late: JoinRequest, JoinAck, nine beats, DepartNotice.
    assert intent_tie_record() == golden["intent_tie"] == {"sent": 16, "delivered": 16}


def _regenerate() -> None:
    record = {
        "batch": {run_id: batch_record(config) for run_id, config in batch_grid()},
        "ties": {
            f"seed{seed}/scale{scale:g}": tie_record(seed, scale)
            for seed, scale in TIE_RUNS
        },
        "intent_tie": intent_tie_record(),
    }
    GOLDEN_PATH.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    _regenerate()
