"""Run a scenario preset and gate it on its declared invariants.

:func:`run_scenario` runs a preset through
:func:`repro.experiments.runner.run_telecast_scenario` and keeps the live
:class:`~repro.core.telecast.TeleCastSystem` that ran it on the result,
so the post-hoc invariant checks can walk sessions, trees and failure
detectors after the workload drained.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Union

from repro.core.telecast import TeleCastSystem
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import (
    Scenario,
    build_scenario,
    run_telecast_scenario,
)
from repro.experiments.sweep.grid import config_hash
from repro.experiments.sweep.store import SweepRecord, git_describe, now
from repro.metrics.collectors import SessionMetrics
from repro.scenarios.invariants import check_invariants
from repro.scenarios.presets import SCENARIOS, ScenarioSpec


@dataclass
class ScenarioRun:
    """One finished scenario run: live system + metrics + verdict."""

    spec: ScenarioSpec
    config: ExperimentConfig
    scenario: Scenario
    system: TeleCastSystem
    metrics: SessionMetrics
    summary: Dict[str, object]
    #: Violations per invariant name (empty mapping = all gates passed);
    #: populated by :func:`run_scenario` after the workload drains.
    violations: Dict[str, List[str]] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        """Whether every declared invariant held."""
        return not self.violations


def resolve_spec(spec: Union[str, ScenarioSpec]) -> ScenarioSpec:
    """Look up a preset by name (pass-through for a spec instance)."""
    if isinstance(spec, ScenarioSpec):
        return spec
    try:
        return SCENARIOS[spec]
    except KeyError:
        known = ", ".join(sorted(SCENARIOS))
        raise KeyError(f"unknown scenario {spec!r} (known: {known})") from None


def run_scenario(
    spec: Union[str, ScenarioSpec],
    *,
    viewers: Optional[int] = None,
    seed: Optional[int] = None,
    smoke: bool = False,
) -> ScenarioRun:
    """Run one scenario preset end to end and check its invariants.

    The workload runs through ``run_telecast_scenario``, then every
    invariant the preset declares is evaluated against the final system
    state and metrics.
    The run is returned either way; callers decide whether violations
    are fatal (the CLI exits non-zero, the tests assert ``passed``).
    """
    resolved = resolve_spec(spec)
    config = resolved.config(viewers=viewers, seed=seed, smoke=smoke)
    scenario = build_scenario(config)
    result = run_telecast_scenario(config, scenario=scenario)
    run = ScenarioRun(
        spec=resolved,
        config=config,
        scenario=scenario,
        system=result.system,
        metrics=result.metrics,
        summary=result.summary(),
    )
    run.violations = check_invariants(run)
    return run


def run_record(run: ScenarioRun, *, wall_clock_s: float = 0.0) -> SweepRecord:
    """Persistable JSONL record of one scenario run (``results/scenarios.jsonl``).

    Scenario runs land in the same append-only store as sweep points,
    with the invariant verdict carried in ``extra`` so a stored run can
    be audited without re-executing it.
    """
    return SweepRecord(
        sweep="scenarios",
        point_id=f"scenario/{run.spec.name}",
        system="telecast",
        params={
            "scenario": run.spec.name,
            "num_viewers": run.config.num_viewers,
            "seed": run.config.seed,
        },
        config_hash=config_hash(run.config),
        git=git_describe(),
        created_at=now(),
        wall_clock_s=wall_clock_s,
        metrics={
            key: float(value)
            for key, value in run.summary.items()
            if isinstance(value, (int, float))
        },
        extra={
            "passed": run.passed,
            "invariants_declared": list(run.spec.invariants),
            "invariant_violations": {
                name: list(messages) for name, messages in run.violations.items()
            },
        },
    )
