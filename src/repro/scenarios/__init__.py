"""Adversarial scenario library with post-hoc invariant gates.

Curated hostile-workload presets (flash crowds, correlated regional
outages, bursty Gilbert-Elliott loss, heartbeat flapping, P2P-slot
oscillation) plus the named invariants every run is checked against.
See :mod:`repro.scenarios.presets` for the preset table and
:mod:`repro.scenarios.invariants` for the invariant catalog.

Re-exported lazily: the service daemon needs only the invariant catalog,
not the presets or the batch runner behind them.
"""

from repro.util.lazy import lazy_exports

_EXPORTS = {
    "INVARIANTS": "repro.scenarios.invariants",
    "check_invariants": "repro.scenarios.invariants",
    "SCENARIOS": "repro.scenarios.presets",
    "ScenarioSpec": "repro.scenarios.presets",
    "ScenarioRun": "repro.scenarios.runner",
    "resolve_spec": "repro.scenarios.runner",
    "run_record": "repro.scenarios.runner",
    "run_scenario": "repro.scenarios.runner",
}

__all__ = sorted(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
