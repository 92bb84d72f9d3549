"""Experiment drivers reproducing the paper's evaluation (Section VII).

:mod:`repro.experiments.config` holds the experimental setup of the paper;
:mod:`repro.experiments.runner` builds and runs one simulated session;
:mod:`repro.experiments.figures` regenerates the data series of every
figure of the evaluation; :mod:`repro.experiments.reporting` renders those
series as the text tables the benchmark harness prints;
:mod:`repro.experiments.sweep` runs declarative parameter sweeps
process-parallel with persistent JSONL results and regression reports.

The names below are re-exported lazily: ``python -m repro.experiments
serve`` imports this package on its way to ``__main__`` and should not
pay for the sweep executor or the figure drivers.
"""

from repro.util.lazy import lazy_exports

_EXPORTS = {
    "ExperimentConfig": "repro.experiments.config",
    "PAPER_CONFIG": "repro.experiments.config",
    "Scenario": "repro.experiments.runner",
    "ScenarioResult": "repro.experiments.runner",
    "build_scenario": "repro.experiments.runner",
    "build_telecast_system": "repro.experiments.runner",
    "run_random_scenario": "repro.experiments.runner",
    "run_telecast_scenario": "repro.experiments.runner",
    "SweepSpec": "repro.experiments.sweep",
    "run_sweep": "repro.experiments.sweep",
    "figure_13a_cdn_bandwidth": "repro.experiments.figures",
    "figure_13b_cdn_fraction": "repro.experiments.figures",
    "figure_13c_acceptance_ratio": "repro.experiments.figures",
    "figure_14a_layer_distribution": "repro.experiments.figures",
    "figure_14b_accepted_streams": "repro.experiments.figures",
    "figure_14c_overhead": "repro.experiments.figures",
    "figure_15a_vs_random_bandwidth": "repro.experiments.figures",
    "figure_15b_vs_random_scale": "repro.experiments.figures",
}

__all__ = sorted(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
