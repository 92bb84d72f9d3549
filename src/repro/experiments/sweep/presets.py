"""Named sweep families exposed by ``python -m repro.experiments sweep``.

Each preset mirrors one axis of the paper's evaluation at a configurable
scale.  The CDN capacity follows the population (6000 Mbps per 1000
viewers, the paper's supply/demand balance), which a cartesian grid cannot
express -- those presets use explicit point lists with paired overrides.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Mapping, Tuple

from repro.experiments.config import (
    FIGURE_13_BANDWIDTH_SETTINGS,
    PAPER_CONFIG,
    ExperimentConfig,
    viewer_counts,
)
from repro.experiments.sweep.grid import SweepSpec

#: Outbound settings of the bandwidth preset: the subset of Figure 13's
#: legend that spans the no/low/high-contribution regimes.
_BANDWIDTH_LABELS = (
    "C_obw=0",
    "C_obw=4",
    "C_obw=8",
    "C_obw=0-12",
    "C_obw=2-10",
    "C_obw=4-14",
)
_BANDWIDTH_SETTINGS = tuple(
    setting
    for setting in FIGURE_13_BANDWIDTH_SETTINGS
    if setting.label() in _BANDWIDTH_LABELS
)


def _scaled_points(counts: List[int], **extra: object) -> List[Mapping[str, object]]:
    """One point per population size, CDN cap scaled proportionally."""
    return [
        {
            "num_viewers": count,
            "cdn_capacity_mbps": PAPER_CONFIG.with_scaled_population(count).cdn_capacity_mbps,
            **extra,
        }
        for count in counts
    ]


def smoke_sweep() -> SweepSpec:
    """Tiny 6-point grid for CI: 3 populations x both systems, 3 LSCs."""
    return SweepSpec(
        name="smoke",
        base=PAPER_CONFIG,
        points=_scaled_points([40, 80, 120], num_lscs=3),
        systems=("telecast", "random"),
    )


def scale_sweep(*, viewers: int = 1000, step: int = 100, num_lscs: int = 3) -> SweepSpec:
    """Figure-15b-style scale curve: population sweep, TeleCast vs Random."""
    return SweepSpec(
        name="scale",
        base=PAPER_CONFIG,
        points=_scaled_points(viewer_counts(viewers, step), num_lscs=num_lscs),
        systems=("telecast", "random"),
    )


def bandwidth_sweep(*, viewers: int = 400, num_lscs: int = 3) -> SweepSpec:
    """Figure-13-style outbound-bandwidth grid at a fixed population."""
    scaled = PAPER_CONFIG.with_scaled_population(viewers, num_lscs=num_lscs)
    return SweepSpec(
        name="bandwidth",
        base=scaled,
        grid={"outbound": list(_BANDWIDTH_SETTINGS)},
    )


def shard_sweep(*, viewers: int = 400) -> SweepSpec:
    """Control-plane sharding sweep: the same network world over 1..5 LSCs.

    The latency trace derives every delay from a per-pair digest
    (:func:`repro.net.planetlab.generate_planetlab_matrix`), so points
    differ *only* in control-plane layout -- viewer-to-viewer delays,
    regions and workloads are identical across the axis.
    """
    scaled = PAPER_CONFIG.with_scaled_population(viewers)
    return SweepSpec(
        name="shards",
        base=scaled,
        grid={"num_lscs": [1, 2, 3, 5]},
        # One fixed world, resharded: deriving per-point seeds here would
        # change the population along with the control plane.
        derive_seeds=False,
    )


#: Populations of the ``scale10k`` preset (an order of magnitude past the
#: paper's 1000-viewer maximum, unlocked by the performance core).
SCALE10K_POPULATIONS = (2000, 5000, 10000)


def scale10k_sweep() -> SweepSpec:
    """Order-of-magnitude scale curve: 2k / 5k / 10k-viewer telecasts.

    Only feasible on the performance core: the latency world derives
    pair delays on first lookup and the degree push-down is indexed, so
    a 10k-viewer point joins in seconds instead of minutes.  TeleCast only -- the Random baseline's probe
    loop contributes nothing to a scale ceiling measurement.
    """
    return SweepSpec(
        name="scale10k",
        base=PAPER_CONFIG,
        points=_scaled_points(list(SCALE10K_POPULATIONS), num_lscs=5),
        systems=("telecast",),
    )


#: Populations of the ``scale100k`` preset (the shard-parallel engine's
#: territory: another order of magnitude past ``scale10k``).
SCALE100K_POPULATIONS = (20000, 50000, 100000)


def scale100k_sweep() -> SweepSpec:
    """Scale curve toward the 100k-viewer target of the parallel engine.

    Every point runs on the shard-parallel engine
    (4 worker processes over 8 LSCs), the
    lazy latency world and the streamed, generator-based workload
    (:meth:`~repro.traces.workload.ViewerWorkload.iter_events`), so no
    phase materializes O(n^2) state up front.  TeleCast only, like
    ``scale10k``.  Run with ``--jobs 1`` (the default): each point
    already owns the machine's cores through its shard workers, and a
    daemonic sweep pool could not spawn them anyway.
    """
    return SweepSpec(
        name="scale100k",
        base=PAPER_CONFIG,
        points=_scaled_points(list(SCALE100K_POPULATIONS), num_lscs=8, shard_workers=4),
        systems=("telecast",),
    )


#: Populations of the ``scale1m`` preset (the shard-filtered build's
#: territory: the march from ``scale100k`` toward one million viewers).
SCALE1M_POPULATIONS = (200000, 500000, 1000000)


def scale1m_sweep() -> SweepSpec:
    """Scale curve toward the 1M-viewer target of the shard-filtered build.

    Same engine as ``scale100k`` -- shard workers over the lazy latency
    world and the streamed workload -- but each worker now builds *only
    its shard's projection* of the scenario
    (``build_scenario(config, shard=...)``), so per-worker startup no
    longer rebuilds the whole O(n) world.  That is what moves the
    feasible ceiling from 100k to 1M: at this scale the full rebuild
    alone would dominate every point.  16 LSCs keep per-shard
    populations near the ``scale100k`` regime.  TeleCast only; run with
    ``--jobs 1`` like ``scale100k``.  Budget hours, not minutes, for
    the full curve -- ``benchmarks/bench_scale_parallel.py --scale1m``
    measures the single 1M point with gates, into ``BENCH_scale1m.json``,
    if that is all you need.
    """
    return SweepSpec(
        name="scale1m",
        base=PAPER_CONFIG,
        points=_scaled_points(list(SCALE1M_POPULATIONS), num_lscs=16, shard_workers=4),
        systems=("telecast",),
    )


def controlplane_sweep() -> SweepSpec:
    """Control-plane delay sensitivity on the event-driven driver.

    Every point runs with ``control_plane="simulated"``: joins arrive as
    in-flight messages over a spread Poisson schedule with graceful and
    abrupt churn, so controller processing delay shapes the observed
    join latency and the heartbeat period decides how fast silent
    failures are swept.  The grid crosses the per-step processing delay
    (zero, the paper's 50 ms, and a slow 200 ms controller) with a safe
    heartbeat period and one *beyond the 10 s failure timeout* -- in the
    lazy regime healthy viewers go silent longer than the detector
    tolerates and are spuriously repaired, the pathology the
    event-driven control plane exists to expose.  Summaries carry both
    the analytic (``join_delay_*``) and the observed
    (``observed_join_delay_*``) percentiles, which is the data behind
    the observed-vs-analytic comparison in ``docs/BENCHMARKS.md``.
    """
    from repro.traces.workload import ChurnConfig

    scaled = PAPER_CONFIG.with_scaled_population(
        120,
        num_lscs=3,
        control_plane="simulated",
        arrival_rate_per_second=4.0,
        view_change_probability=0.1,
        departure_probability=0.1,
        churn=ChurnConfig(
            failure_rate_per_second=0.1,
            graceful_fraction=0.25,
            rejoin_probability=0.3,
            duration=120.0,
        ),
    )
    return SweepSpec(
        name="controlplane",
        base=scaled,
        grid={
            "control_processing_delay": [0.0, 0.05, 0.2],
            "heartbeat_period": [4.0, 12.0],
        },
        # One fixed world per axis point: deriving per-point seeds would
        # vary the workload along with the control-plane knobs, burying
        # the delay sensitivity under population noise.
        derive_seeds=False,
    )


def qoe_sweep() -> SweepSpec:
    """QoE sensitivity of the simulated data plane: loss x bandwidth headroom.

    Every point appends an event-driven frame replay to the workload run
    (``data_plane="simulated"``): 200 frames per stream travel through
    the built overlay with per-edge serialization at
    ``data_bandwidth_headroom`` times the reserved stream rate and a
    ``data_loss_rate`` i.i.d. drop per edge, with the observed-delay
    ``kappa`` layer refresh closing the feedback loop.  Summaries carry
    the QoE keys (``qoe_startup_delay_*``, ``qoe_continuity_mean``,
    ``qoe_skew_*``, ``qoe_skew_within_dbuff``) next to the usual
    acceptance metrics -- the data behind the skew-vs-``d_buff`` table in
    ``docs/BENCHMARKS.md``.
    """
    scaled = PAPER_CONFIG.with_scaled_population(
        80,
        num_lscs=2,
        data_plane="simulated",
        replay_frames_per_stream=200,
    )
    return SweepSpec(
        name="qoe",
        base=scaled,
        grid={
            "data_loss_rate": [0.0, 0.02, 0.05],
            "data_bandwidth_headroom": [1.0, 2.0],
        },
        # One fixed world per axis point: deriving per-point seeds would
        # vary the overlay along with the data-plane knobs, burying the
        # QoE sensitivity under placement noise.
        derive_seeds=False,
    )


def scenarios_sweep() -> SweepSpec:
    """Every adversarial scenario preset at smoke scale, one point each.

    Each point reproduces exactly the config of
    ``python -m repro.experiments scenario <name> --smoke``, expressed as
    the field-by-field diff against the paper defaults so the stored
    params name every hostile knob (outage, oscillation, Gilbert-Elliott
    loss, flapping heartbeat...).  Seeds are part of the preset identity,
    hence ``derive_seeds=False``; the invariant *gate* runs through the
    ``scenario`` CLI / the pytest harness, while this family provides the
    comparable JSONL metrics trail.
    """
    import dataclasses

    from repro.scenarios.presets import SCENARIOS

    points = []
    for spec in SCENARIOS.values():
        config = spec.config(smoke=True)
        points.append(
            {
                name.name: getattr(config, name.name)
                for name in dataclasses.fields(ExperimentConfig)
                if getattr(config, name.name) != getattr(PAPER_CONFIG, name.name)
            }
        )
    return SweepSpec(
        name="scenarios",
        base=PAPER_CONFIG,
        points=points,
        derive_seeds=False,
    )


def _pinned(populations: str, num_lscs: int) -> Dict[str, str]:
    """Why a preset with fixed population points ignores every scale argument."""
    points = f"fixed {populations} population points"
    lscs = f"pinned to {num_lscs} region-sharded LSCs"
    return {"viewers": points, "step": points, "num_lscs": lscs}


#: CLI name -> (builder, why it ignores a scale argument of
#: :func:`named_sweeps`).  An argument without a reason is passed to the
#: builder, which must then take it: a preset cannot drop a flag silently,
#: and the CLI prints the reason when an ignored one is given anyway.
_PRESETS: Dict[str, Tuple[Callable[..., SweepSpec], Mapping[str, str]]] = {
    "smoke": (
        smoke_sweep,
        dict.fromkeys(("viewers", "step", "num_lscs"), "fixed-scale CI grid"),
    ),
    "scale": (scale_sweep, {}),
    "scale10k": (scale10k_sweep, _pinned("2k/5k/10k", 5)),
    "scale100k": (scale100k_sweep, _pinned("20k/50k/100k", 8)),
    "scale1m": (scale1m_sweep, _pinned("200k/500k/1M", 16)),
    "bandwidth": (bandwidth_sweep, {"step": "no population axis"}),
    "shards": (
        shard_sweep,
        {"num_lscs": "the sweep varies num_lscs itself", "step": "no population axis"},
    ),
    "controlplane": (
        controlplane_sweep,
        {
            "viewers": "fixed-scale control-plane grid",
            "step": "no population axis",
            "num_lscs": "fixed-scale control-plane grid",
        },
    ),
    "qoe": (
        qoe_sweep,
        {
            "viewers": "fixed-scale QoE grid",
            "step": "no population axis",
            "num_lscs": "fixed-scale QoE grid",
        },
    ),
    "scenarios": (
        scenarios_sweep,
        {
            "viewers": "each preset pins its own smoke scale",
            "step": "no population axis",
            "num_lscs": "each preset pins its own control-plane layout",
        },
    ),
}


def named_sweeps(
    *,
    viewers: int = 400,
    step: int = 100,
    num_lscs: int = 3,
) -> Dict[str, SweepSpec]:
    """All presets, keyed by CLI name, at the requested scale."""
    scale = {"viewers": viewers, "step": step, "num_lscs": num_lscs}
    return {
        name: build(**{arg: scale[arg] for arg in scale if arg not in ignored})
        for name, (build, ignored) in _PRESETS.items()
    }


def ignored_scale_arguments(name: str) -> Mapping[str, str]:
    """Scale arguments the named sweep does not honour, each with its reason."""
    return _PRESETS[name][1]
