"""Curated hostile-workload scenario presets and their declared invariants.

Each preset is a declarative :class:`ScenarioSpec`: a bundle of
experiment-config overrides (workload schedule, world shape, control- and
data-plane knobs) plus the named invariants (:mod:`repro.scenarios.invariants`)
that must hold after the run drains.  Presets run via
``python -m repro.experiments scenario <name>`` (invariant-gated, exit
non-zero on violation), as the ``scenarios`` sweep family, and under the
seed-swept property tests in ``tests/test_scenarios.py``.

The registry is deliberately adversarial -- every preset encodes one of
the hostile conditions the paper's design claims to survive:

========================  ====================================================
``flash-crowd``           10k simultaneous arrivals with Zipf(1.2) view skew
                          over the simulated control plane, plus churn.
``outage``                Correlated regional failure: one LSC crashes
                          together with 40% of its viewers in a single event.
``burst-loss``            Bursty correlated loss (Gilbert-Elliott, mean burst
                          5 frames) at the same mean rate as an i.i.d. run.
``flapping``              Heartbeat period beyond the failure timeout: every
                          healthy viewer is spuriously swept and repaired.
``slot-oscillation``      Join/leave oscillation under scarce outbound
                          capacity, hammering the last free P2P slots.
========================  ====================================================
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional, Tuple

from repro.experiments.config import PAPER_CONFIG, ExperimentConfig
from repro.scenarios.invariants import INVARIANTS
from repro.traces.workload import (
    BandwidthDistribution,
    ChurnConfig,
    OscillationConfig,
    OutageConfig,
)


@dataclass(frozen=True)
class ScenarioSpec:
    """One named adversarial scenario: config overrides + invariant gate."""

    name: str
    title: str
    description: str
    #: Field overrides applied on top of the scaled paper config.
    overrides: Mapping[str, Any] = field(default_factory=dict)
    #: Names from :data:`repro.scenarios.invariants.INVARIANTS` checked
    #: after every run of this preset.
    invariants: Tuple[str, ...] = ()
    #: Per-invariant parameters (floors, allowances, exercised minimums).
    invariant_params: Mapping[str, Mapping[str, Any]] = field(default_factory=dict)
    #: Population of a full (CLI default) run.
    default_viewers: int = 1000
    #: Population of a ``--smoke`` run (CI and the fast property tests).
    smoke_viewers: int = 200

    def __post_init__(self) -> None:
        if len(self.invariants) < 3:
            raise ValueError(
                f"scenario {self.name!r} declares {len(self.invariants)} "
                f"invariants; every preset must declare at least 3"
            )
        unknown = [name for name in self.invariants if name not in INVARIANTS]
        if unknown:
            raise ValueError(f"scenario {self.name!r}: unknown invariants {unknown}")
        stray = [name for name in self.invariant_params if name not in self.invariants]
        if stray:
            raise ValueError(
                f"scenario {self.name!r}: params for undeclared invariants {stray}"
            )

    def config(
        self,
        *,
        viewers: Optional[int] = None,
        seed: Optional[int] = None,
        smoke: bool = False,
    ) -> ExperimentConfig:
        """The experiment config of one run of this scenario.

        ``viewers`` overrides the population (default: the preset's full
        scale, or its smoke scale under ``smoke=True``); ``seed``
        re-derives every RNG seed so seed sweeps vary the world, the
        workload *and* the outage victim draw together.
        """
        if viewers is None:
            viewers = self.smoke_viewers if smoke else self.default_viewers
        config = PAPER_CONFIG.with_scaled_population(viewers, **dict(self.overrides))
        return config if seed is None else config.with_seed(seed)


#: Invariants every preset shares: whatever the workload did, the final
#: overlay must be structurally sound.
_STRUCTURAL = (
    "no_dangling_routing_state",
    "routing_matches_trees",
    "layer_bounds",
    "single_home",
)


FLASH_CROWD = ScenarioSpec(
    name="flash-crowd",
    title="Flash crowd with Zipf view skew",
    description=(
        "The full population joins in the same instant with Zipf(1.2) "
        "view popularity -- the most popular view absorbs most of the "
        "crowd -- over the simulated control plane, then Poisson churn "
        "with rejoins keeps the trees moving."
    ),
    overrides={
        "view_popularity_alpha": 1.2,
        "control_plane": "simulated",
        "num_lscs": 2,
        "session_duration": 60.0,
        "churn": ChurnConfig(
            failure_rate_per_second=0.5,
            graceful_fraction=0.25,
            rejoin_probability=0.5,
            duration=60.0,
        ),
    },
    invariants=_STRUCTURAL
    + (
        "detector_consistent",
        "bounded_stale_control",
        "acceptance_floor",
        "scenario_exercised",
    ),
    invariant_params={
        "acceptance_floor": {"min_acceptance": 0.5},
        "scenario_exercised": {
            "exercised": {"abrupt_departures": 1, "control_messages_delivered": 100}
        },
    },
    default_viewers=10_000,
    smoke_viewers=300,
)


OUTAGE = ScenarioSpec(
    name="outage",
    title="Correlated regional outage",
    description=(
        "At t=6s one LSC crashes together with 40% of its region's "
        "viewers in a single correlated event: the GSC must fail the "
        "region over to a surviving controller while the failed viewers' "
        "subtrees are repaired, with the losses racing in-flight control "
        "traffic."
    ),
    overrides={
        "control_plane": "simulated",
        "num_lscs": 3,
        "session_duration": 60.0,
        "outage": OutageConfig(
            time=6.0, lsc_index=1, viewer_fraction=0.4, seed=17
        ),
    },
    invariants=_STRUCTURAL
    + (
        "no_orphaned_subscriptions",
        "detector_consistent",
        "bounded_stale_control",
        "scenario_exercised",
    ),
    invariant_params={
        "bounded_stale_control": {"max_stale_abs": 50, "max_stale_fraction": 0.15},
        "scenario_exercised": {
            "exercised": {"lsc_failovers": 1, "abrupt_departures": 1}
        },
    },
    default_viewers=1000,
    smoke_viewers=250,
)


BURST_LOSS = ScenarioSpec(
    name="burst-loss",
    title="Bursty correlated loss (Gilbert-Elliott)",
    description=(
        "The frame replay runs over a two-state Gilbert-Elliott channel "
        "at 8% mean loss with mean burst length 5: the same average rate "
        "as an i.i.d. run, but losses arrive in unconcealable runs, so "
        "concealment-aware playable continuity degrades where plain "
        "continuity would not."
    ),
    overrides={
        "data_plane": "simulated",
        "data_loss_rate": 0.08,
        "data_mean_burst_length": 5.0,
        "replay_frames_per_stream": 200,
        "num_lscs": 2,
        "session_duration": 60.0,
    },
    invariants=_STRUCTURAL
    + (
        "frame_accounting",
        "continuity_floor",
        "scenario_exercised",
    ),
    invariant_params={
        "continuity_floor": {"min_playable_continuity": 0.5},
        "scenario_exercised": {"exercised": {"data_frames_lost": 1}},
    },
    default_viewers=500,
    smoke_viewers=150,
)


FLAPPING = ScenarioSpec(
    name="flapping",
    title="Heartbeat period beyond the failure timeout",
    description=(
        "Viewers heartbeat every 15s against a 10s failure timeout: "
        "every healthy viewer goes silent longer than the detector "
        "tolerates, so the periodic sweep spuriously repairs live "
        "viewers and their late heartbeats land on controllers that "
        "already evicted them.  The gate: spurious repairs are allowed, "
        "dangling routing state is not.  A deterministic late "
        "leave/rejoin tail keeps the session open past two sweep "
        "periods on every seed (the event horizon is the last workload "
        "intent, and Poisson churn alone can draw an empty schedule)."
    ),
    overrides={
        "control_plane": "simulated",
        "heartbeat_period": 15.0,
        "num_lscs": 2,
        "session_duration": 45.0,
        "churn": ChurnConfig(
            failure_rate_per_second=0.05,
            graceful_fraction=0.5,
            rejoin_probability=0.5,
            duration=45.0,
        ),
        "oscillation": OscillationConfig(
            start_time=31.0, period=4.0, cycles=3, num_oscillators=2, graceful=True
        ),
    },
    invariants=_STRUCTURAL
    + (
        "detector_consistent",
        "bounded_stale_control",
        "scenario_exercised",
    ),
    invariant_params={
        "bounded_stale_control": {"max_stale_abs": 50, "max_stale_fraction": 0.25},
        "scenario_exercised": {"exercised": {"abrupt_departures": 1}},
    },
    default_viewers=300,
    smoke_viewers=150,
)


SLOT_OSCILLATION = ScenarioSpec(
    name="slot-oscillation",
    title="Join/leave oscillation at the last free P2P slot",
    description=(
        "Outbound capacity is fixed at 2 Mbps (one 2 Mbps stream slot "
        "per viewer), so the overlay runs near its degree ceiling; two "
        "viewers then oscillate leave/rejoin every 0.4s, repeatedly "
        "freeing and reclaiming the last slots while their own departure "
        "notices are still in flight."
    ),
    overrides={
        "control_plane": "simulated",
        "num_lscs": 2,
        "session_duration": 30.0,
        "outbound": BandwidthDistribution.fixed(2.0),
        "oscillation": OscillationConfig(
            start_time=10.0, period=0.4, cycles=8, num_oscillators=2, graceful=True
        ),
    },
    invariants=_STRUCTURAL
    + (
        "no_orphaned_subscriptions",
        "detector_consistent",
        "bounded_stale_control",
    ),
    invariant_params={
        "bounded_stale_control": {"max_stale_abs": 60, "max_stale_fraction": 0.25},
    },
    default_viewers=200,
    smoke_viewers=100,
)


#: All presets, keyed by CLI name.
SCENARIOS: Dict[str, ScenarioSpec] = {
    spec.name: spec
    for spec in (FLASH_CROWD, OUTAGE, BURST_LOSS, FLAPPING, SLOT_OSCILLATION)
}
