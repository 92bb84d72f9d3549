"""Shard-parallel scale benchmark: 100k-viewer telecasts across processes.

The scenario is the same telecast broadcast the single-process scale
benchmark (``bench_scale.py``) runs -- one headline view, region-sharded
control plane -- pushed an order of magnitude further and executed on
the shard-parallel engine (:mod:`repro.parallel`): each group of LSCs
runs its controller, stream trees and event loop in its own worker
process.  The benchmark times, in calibrated seconds, one single-process
leg and one sharded leg over the identical seeded scenario, and writes
``BENCH_scale_parallel.json`` in the one record shape
(``benchmarks/records.py``) with three gates:

* ``placement_parity`` (always armed): the per-LSC placement digests of
  the sharded run are byte-identical to the single-process run's at
  every population -- the parallel engine may only change wall-clock
  time, never placement.
* ``build_speedup`` (armed on full runs): the slowest worker's
  shard-filtered scenario build
  (:class:`~repro.experiments.runner.ShardSelection`; every worker's is
  timed, the critical one gates) is at least :data:`MIN_BUILD_SPEEDUP`
  times faster than the one-worker build (the whole world) at the
  headline population.  It compares two builds in one process, so it
  needs no spare cores; a quick run's tiny population is dominated by
  constant substrate costs.
* ``run_speedup`` (armed on >= :data:`MIN_CORES_FOR_GATE` cores): the
  sharded leg is at least :data:`MIN_SPEEDUP` times faster at the
  headline population.  On smaller machines process parallelism cannot
  win anything, so the speedup is reported but not gated.

``--scale1m`` switches to the 1M-viewer scale axis: a single 1M-viewer
point over 16 LSCs and 4 workers, sharded leg only (the single-process
leg at that population is exactly the O(n) cost the projection removes;
parity is pinned by the default mode and the test suite).  It writes
``BENCH_scale1m.json`` with the build-speedup gate and a ``connected``
gate (every viewer connected).  With ``--quick`` the scale1m leg
shrinks to a 20k-viewer smoke point on 2 workers.  Quick runs write
their record under ``benchmarks/out/``.

Usage::

    PYTHONPATH=src python benchmarks/bench_scale_parallel.py            # full: up to 100k
    PYTHONPATH=src python benchmarks/bench_scale_parallel.py --quick    # CI: 10k, 2 workers
    PYTHONPATH=src python benchmarks/bench_scale_parallel.py --scale1m  # 1M viewers, sharded leg
    PYTHONPATH=src python benchmarks/bench_scale_parallel.py --scale1m --quick  # CI smoke
"""

from __future__ import annotations

import argparse
import os
import statistics
import sys
from typing import Dict, List, Optional, Tuple

import records

from repro.experiments.config import PAPER_CONFIG, ExperimentConfig
from repro.experiments.runner import (
    ShardSelection,
    build_scenario,
    build_telecast_system,
)
from repro.metrics.placement import per_lsc_placement_digests
from repro.parallel import run_sharded_scenario
from repro.parallel.runner import DEFAULT_STALL_TIMEOUT

#: Populations, LSCs and workers of the full benchmark and of --quick.
POPULATIONS = (20000, 50000, 100000)
NUM_LSCS = 8
WORKERS = 4
QUICK_POPULATION = 10000
QUICK_WORKERS = 2
QUICK_NUM_LSCS = 4

#: The --scale1m axis: one point at a million viewers, 16 LSCs, sharded
#: leg only.  The quick variant is the CI smoke point.
SCALE1M_POPULATION = 1_000_000
SCALE1M_NUM_LSCS = 16
SCALE1M_WORKERS = 4
SCALE1M_QUICK_POPULATION = 20000
SCALE1M_QUICK_NUM_LSCS = 8
SCALE1M_QUICK_WORKERS = 2

#: Stall timeout of the scale1m sharded leg: workers report to the
#: coordinator only at barriers and completion, and a 1M-viewer shard
#: can legitimately stay silent far longer than the 600 s default.
SCALE1M_STALL_TIMEOUT = 7200.0

#: Required sharded-vs-single-process speedup at the headline population.
MIN_SPEEDUP = 3.0

#: Required shard-filtered-vs-full scenario build speedup (per worker).
MIN_BUILD_SPEEDUP = 2.0

#: Repetitions of the build measurement (the median speedup counts),
#: after one untimed warm-up build of each leg.
BUILD_REPS = 5

#: Cores below which the run-speedup gate is report-only: with fewer
#: cores than this there is nothing for process parallelism to win.
MIN_CORES_FOR_GATE = 4


def _broadcast_config(num_viewers: int, num_lscs: int) -> ExperimentConfig:
    """The benchmark scenario: one headline view, uncapped CDN.

    The CDN is uncapped so the parity guarantee is unconditional: with
    per-shard CDN accounting, admission decisions match the
    single-process run exactly whenever the CDN never saturates.
    """
    return PAPER_CONFIG.with_scaled_population(
        num_viewers, num_lscs=num_lscs, num_views=1
    ).with_uncapped_cdn()


def _measure_builds(config: ExperimentConfig, workers: int) -> Dict[str, object]:
    """Time a worker's scenario build: one-worker build vs its own slice.

    ``build_full`` is the one-worker build -- the whole world, what every
    worker paid before shard projection.  Under load-aware placement no
    single worker is "the" typical shard, so every worker's projected
    build is timed (``build_worker_<i>``) and a rep's speedup divides by
    the slowest of them: the critical worker's build is what the run
    waits for.  Each rep times every leg inside one stopwatch bracket,
    so the bracket's calibration cancels in the rep's ratio; the gated
    speedup is the median over :data:`BUILD_REPS` reps, since single-run
    wall times on a busy box are noisy enough to flip the gate.  Every
    leg is first built once untimed, so no rep pays a first build's
    warm-up (at 100k the first of three reps read the slowest).  The
    bracket collects garbage before each leg, and the legs run in
    reverse order every other rep, so ``build_full`` is not always the
    leg that runs on the heap the previous rep left.
    """
    legs = [("build_full", None)] + [
        (f"build_worker_{index}", ShardSelection(num_workers=workers, worker_index=index))
        for index in range(workers)
    ]
    for _name, shard in legs:
        build_scenario(config, shard=shard)
    reps = []
    for rep in range(BUILD_REPS):
        with records.STOPWATCH.bracket() as timed:
            for name, shard in legs if rep % 2 == 0 else legs[::-1]:
                timed(name, lambda: build_scenario(config, shard=shard))
        slowest = max(wall for name, wall in timed.walls.items() if name != "build_full")
        reps.append(
            {
                "timings": {name: timing.to_json() for name, timing in timed.timings.items()},
                "build_speedup": timed.walls["build_full"] / slowest,
            }
        )
    return {
        "warmup_builds_per_leg": 1,
        "reps": reps,
        "build_speedup": statistics.median(rep["build_speedup"] for rep in reps),
    }


def _leg(snapshot, workers: int, timing) -> Dict[str, object]:
    """One timed run's outcome and throughput, raw and calibrated."""
    return {
        "workers_used": workers,
        "connected": snapshot.num_viewers,
        "acceptance_ratio": snapshot.acceptance_ratio,
        "timings": {"run": timing.to_json()},
        "joins_per_s": snapshot.num_requests / timing.wall_s,
        "cal_joins_per_s": snapshot.num_requests / timing.cal_s,
    }


def _measure_single(config: ExperimentConfig) -> Tuple[Dict[str, object], Dict[str, str]]:
    """Single-process leg: full workload run plus placement digests."""
    scenario = build_scenario(config)
    system = build_telecast_system(scenario)
    with records.STOPWATCH.bracket() as timed:
        timed(
            "run",
            lambda: system.run_workload(
                scenario.viewers, scenario.events, scenario.views, snapshot_every=None
            ),
        )
    leg = _leg(system.snapshot(), 1, timed.timings["run"])
    return leg, per_lsc_placement_digests(system)


def _measure_sharded(
    config: ExperimentConfig, workers: int, stall_timeout: float = DEFAULT_STALL_TIMEOUT
) -> Tuple[Dict[str, object], Dict[str, str]]:
    """Sharded leg: the same scenario over ``workers`` processes."""
    with records.STOPWATCH.bracket() as timed:
        sharded = timed(
            "run",
            lambda: run_sharded_scenario(
                config.with_(shard_workers=workers),
                snapshot_every=None,
                stall_timeout=stall_timeout,
            ),
        )
    leg = _leg(sharded.result.final_snapshot, sharded.num_workers, timed.timings["run"])
    # Which worker hosted which LSC, and where each worker's wall time
    # went (JSON keys are strings: worker index as text).
    leg["placement"] = list(sharded.placement)
    leg["worker_stats"] = {
        str(index): dict(stats) for index, stats in sharded.worker_stats.items()
    }
    leg["imbalance"] = sharded.imbalance
    return leg, dict(sharded.placement_digests)


def _run_scale1m(quick: bool, record: Optional[str]) -> int:
    """The 1M-viewer axis: sharded leg only, in its own record."""
    if quick:
        population, num_lscs, workers = (
            SCALE1M_QUICK_POPULATION, SCALE1M_QUICK_NUM_LSCS, SCALE1M_QUICK_WORKERS
        )
    else:
        population, num_lscs, workers = SCALE1M_POPULATION, SCALE1M_NUM_LSCS, SCALE1M_WORKERS
    config = _broadcast_config(population, num_lscs)
    build = _measure_builds(config, workers)
    print(f"n={population:>7}: build speedup {build['build_speedup']:5.2f}x")
    sharded, _digests = _measure_sharded(config, workers, SCALE1M_STALL_TIMEOUT)
    print(
        f"n={population:>7}: sharded[{sharded['workers_used']}w] "
        f"{sharded['cal_joins_per_s']:8.2f} cal joins/s, connected {sharded['connected']}"
    )
    point = {"num_viewers": population, "num_lscs": num_lscs, "build": build, "sharded": sharded}
    gates = [
        records.gate("build_speedup", MIN_BUILD_SPEEDUP, build["build_speedup"], armed=not quick),
        records.gate("connected", 1.0, sharded["connected"] / population),
    ]
    return records.write("scale1m", quick=quick, points=[point], gates=gates, path=record)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help=f"CI mode: {QUICK_POPULATION} viewers, {QUICK_WORKERS} workers, "
        "recorded under benchmarks/out/",
    )
    parser.add_argument(
        "--scale1m",
        action="store_true",
        help=f"1M-viewer axis: {SCALE1M_POPULATION} viewers over "
        f"{SCALE1M_NUM_LSCS} LSCs, sharded leg only (--quick: "
        f"{SCALE1M_QUICK_POPULATION} viewers)",
    )
    parser.add_argument("--record", help="where to write the JSON record")
    args = parser.parse_args(argv)

    if args.scale1m:
        return _run_scale1m(args.quick, args.record)
    if args.quick:
        populations, workers, num_lscs = (QUICK_POPULATION,), QUICK_WORKERS, QUICK_NUM_LSCS
    else:
        populations, workers, num_lscs = POPULATIONS, WORKERS, NUM_LSCS

    points = []
    for count in populations:
        config = _broadcast_config(count, num_lscs)
        build = _measure_builds(config, workers)
        single, single_digests = _measure_single(config)
        sharded, sharded_digests = _measure_sharded(config, workers)
        speedup = single["timings"]["run"]["cal_s"] / sharded["timings"]["run"]["cal_s"]
        parity = single_digests == sharded_digests
        points.append(
            {
                "num_viewers": count,
                "num_lscs": num_lscs,
                "build": build,
                "single": single,
                "sharded": sharded,
                "speedup": speedup,
                "placement_parity": parity,
            }
        )
        print(
            f"n={count:>6}: build speedup {build['build_speedup']:.2f}x, "
            f"single {single['cal_joins_per_s']:8.1f} cal joins/s, "
            f"sharded[{sharded['workers_used']}w] {sharded['cal_joins_per_s']:8.1f} cal joins/s, "
            f"speedup {speedup:5.2f}x, parity {'ok' if parity else 'FAIL'}"
        )

    headline = points[-1]
    cores = os.cpu_count() or 1
    gates = [
        records.gate(
            "placement_parity",
            1.0,
            sum(point["placement_parity"] for point in points) / len(points),
        ),
        records.gate(
            "build_speedup",
            MIN_BUILD_SPEEDUP,
            headline["build"]["build_speedup"],
            armed=not args.quick,
        ),
        records.gate(
            "run_speedup", MIN_SPEEDUP, headline["speedup"], armed=cores >= MIN_CORES_FOR_GATE
        ),
    ]
    return records.write(
        "scale_parallel", quick=args.quick, points=points, gates=gates, path=args.record
    )


if __name__ == "__main__":
    sys.exit(main())
