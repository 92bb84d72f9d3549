"""Shard-parallel scale benchmark: 100k-viewer telecasts across processes.

The scenario is the same telecast broadcast the single-process scale
benchmark (``bench_scale.py``) runs -- one headline view, region-sharded
control plane -- pushed an order of magnitude further and executed on
the shard-parallel engine (:mod:`repro.parallel`): each group of LSCs
runs its controller, stream trees and event loop in its own worker
process.  The benchmark times one single-process leg and one sharded leg
over the identical seeded scenario and checks three things:

* **Parity** (always enforced): the per-LSC placement digests of the
  sharded run must be byte-identical to the single-process run's -- the
  parallel engine may only change wall-clock time, never placement.
* **Build speedup** (enforced on full runs): the slowest worker's
  shard-filtered scenario build
  (:class:`~repro.experiments.runner.ShardSelection`; every worker's is
  timed, the critical one gates) must be at least
  ``--min-build-speedup`` (default 2x) faster than the
  one-worker build (the whole world) at the headline population.  This
  gate needs no
  spare cores -- it compares two builds in the same process -- so it is
  armed everywhere except ``--quick`` (tiny populations, where constant
  substrate costs dominate the build).
* **Run speedup** (enforced on >= 4 cores): the sharded leg must be at
  least ``--min-speedup`` (default 3x) faster at the headline
  population.  On smaller machines process parallelism cannot win
  anything, so the measured speedup is reported in the record
  (``speedup_gate_armed`` says whether it was enforced) but not gated.

``--scale1m`` switches to the 1M-viewer scale axis: a single 1M-viewer
point over 16 LSCs and 4 workers, sharded leg only (the single-process
leg at that population is exactly the O(n) cost the projection removes;
parity is pinned by the default mode and the test suite).  Its results
merge into the same record under a ``scale1m`` key.  With ``--quick``
the scale1m leg shrinks to a 20k-viewer smoke point on 2 workers.

Output is the machine-readable ``BENCH_scale_parallel.json``
perf-trajectory record (``cpu_count`` reports the machine,
``workers_used`` the actual worker processes).

Usage::

    PYTHONPATH=src python benchmarks/bench_scale_parallel.py            # full: up to 100k
    PYTHONPATH=src python benchmarks/bench_scale_parallel.py --quick    # CI: 10k, 2 workers
    PYTHONPATH=src python benchmarks/bench_scale_parallel.py --scale1m  # 1M viewers, sharded leg
    PYTHONPATH=src python benchmarks/bench_scale_parallel.py --scale1m --quick  # CI smoke
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

from repro.experiments.config import PAPER_CONFIG, ExperimentConfig
from repro.experiments.runner import (
    ShardSelection,
    build_scenario,
    build_telecast_system,
)
from repro.metrics.placement import per_lsc_placement_digests
from repro.parallel import run_sharded_scenario

#: Populations of the full benchmark (the --quick CI mode uses QUICK_*).
POPULATIONS = (20000, 50000, 100000)

#: LSC count of the full benchmark (shards spread over the workers).
NUM_LSCS = 8

#: Worker processes of the full benchmark.
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
DEFAULT_MIN_SPEEDUP = 3.0

#: Required shard-filtered-vs-full scenario build speedup (per worker).
DEFAULT_MIN_BUILD_SPEEDUP = 2.0

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


def _measure_builds(
    config: ExperimentConfig, workers: int, *, reps: int = 3
) -> Dict[str, object]:
    """Time a worker's scenario build: one-worker build vs its own slice.

    ``build_full_s`` is the one-worker build -- the whole world, what
    every worker paid before shard projection.  Under load-aware placement
    no single worker is "the" typical shard, so every worker's projected
    build is timed (``build_filtered_per_worker_s``) and
    ``build_filtered_s`` -- the gated figure -- is the slowest of them:
    the critical worker's build is what the run waits for.  Best of
    ``reps`` on every leg: single-run wall times on a busy box are noisy
    enough to flip the gate.
    """
    build_full = float("inf")
    per_worker = [float("inf")] * workers
    for _ in range(reps):
        started = time.perf_counter()
        build_scenario(config)
        build_full = min(build_full, time.perf_counter() - started)
        for index in range(workers):
            started = time.perf_counter()
            build_scenario(
                config, shard=ShardSelection(num_workers=workers, worker_index=index)
            )
            per_worker[index] = min(per_worker[index], time.perf_counter() - started)
    build_filtered = max(per_worker)
    return {
        "build_full_s": round(build_full, 4),
        "build_filtered_s": round(build_filtered, 4),
        "build_filtered_per_worker_s": [round(seconds, 4) for seconds in per_worker],
        "build_speedup": round(build_full / build_filtered, 2)
        if build_filtered > 0
        else float("inf"),
    }


def _measure_single(config: ExperimentConfig) -> Dict[str, object]:
    """Single-process leg: full workload run plus placement digests."""
    scenario = build_scenario(config)
    system = build_telecast_system(scenario)
    started = time.perf_counter()
    metrics = system.run_workload(
        scenario.viewers, scenario.events, scenario.views, snapshot_every=None
    )
    elapsed = time.perf_counter() - started
    snapshot = system.snapshot()
    return {
        "num_viewers": config.num_viewers,
        "workers_used": 1,
        "connected": snapshot.num_viewers,
        "acceptance_ratio": snapshot.acceptance_ratio,
        "wall_clock_s": round(elapsed, 4),
        "joins_per_s": round(snapshot.num_requests / elapsed, 2)
        if elapsed > 0
        else float("inf"),
        "digests": per_lsc_placement_digests(system),
    }


def _measure_sharded(
    config: ExperimentConfig,
    workers: int,
    *,
    stall_timeout: Optional[float] = None,
) -> Dict[str, object]:
    """Sharded leg: the same scenario over ``workers`` processes."""
    kwargs = {} if stall_timeout is None else {"stall_timeout": stall_timeout}
    started = time.perf_counter()
    sharded = run_sharded_scenario(
        config.with_(shard_workers=workers), snapshot_every=None, **kwargs
    )
    elapsed = time.perf_counter() - started
    snapshot = sharded.result.final_snapshot
    return {
        "num_viewers": config.num_viewers,
        "workers_used": sharded.num_workers,
        "connected": snapshot.num_viewers,
        "acceptance_ratio": snapshot.acceptance_ratio,
        "wall_clock_s": round(elapsed, 4),
        "joins_per_s": round(snapshot.num_requests / elapsed, 2)
        if elapsed > 0
        else float("inf"),
        "digests": dict(sharded.placement_digests),
        # Which worker hosted which LSC, and where each worker's wall
        # time went (JSON keys are strings: worker index as text).
        "placement": list(sharded.placement),
        "worker_stats": {
            str(index): {name: round(value, 4) for name, value in stats.items()}
            for index, stats in sharded.worker_stats.items()
        },
        "imbalance": round(sharded.imbalance, 3),
    }


def _check_build_gate(
    headline: Dict[str, object], min_build_speedup: float, armed: bool
) -> bool:
    """Print the build-speedup verdict; return True on failure."""
    speedup = headline["build"]["build_speedup"]
    if not armed:
        print(f"build-speedup gate: report-only (--quick): measured {speedup:.2f}x")
        return False
    if speedup < min_build_speedup:
        print(
            f"FAIL: shard-filtered build speedup {speedup:.2f}x below "
            f"required {min_build_speedup:.1f}x"
        )
        return True
    print(f"build-speedup gate: {speedup:.2f}x >= {min_build_speedup:.1f}x: ok")
    return False


def _run_scale1m(args, cores: int) -> int:
    """The 1M-viewer axis: sharded leg only, merged into the record."""
    if args.quick:
        population = SCALE1M_QUICK_POPULATION
        num_lscs = SCALE1M_QUICK_NUM_LSCS
        workers = SCALE1M_QUICK_WORKERS
    else:
        population = SCALE1M_POPULATION
        num_lscs = SCALE1M_NUM_LSCS
        workers = SCALE1M_WORKERS
    config = _broadcast_config(population, num_lscs)
    build = _measure_builds(config, workers)
    print(
        f"n={population:>7}: build full {build['build_full_s']:8.2f}s, "
        f"filtered {build['build_filtered_s']:8.2f}s, "
        f"speedup {build['build_speedup']:5.2f}x"
    )
    sharded = _measure_sharded(
        config, workers, stall_timeout=SCALE1M_STALL_TIMEOUT
    )
    sharded.pop("digests")
    print(
        f"n={population:>7}: sharded[{sharded['workers_used']}w] "
        f"{sharded['wall_clock_s']:8.2f}s, "
        f"{sharded['joins_per_s']:8.2f} joins/s, "
        f"connected {sharded['connected']}"
    )

    block = {
        "quick": args.quick,
        "cpu_count": cores,
        "num_lscs": num_lscs,
        "workers_used": workers,
        "point": {"num_viewers": population, "build": build, "sharded": sharded},
        "min_build_speedup": args.min_build_speedup,
        "build_speedup_gate_armed": not args.quick,
    }
    record_path = Path(args.record)
    try:
        record = json.loads(record_path.read_text())
        if not isinstance(record, dict):
            record = {}
    except (OSError, ValueError):
        record = {}
    record.setdefault("benchmark", "scale_parallel")
    record["scale1m"] = block
    record_path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(f"scale1m block merged into {args.record}")

    headline = {"build": build}
    failed = _check_build_gate(headline, args.min_build_speedup, not args.quick)
    if sharded["connected"] != population:
        print(
            f"FAIL: sharded run connected {sharded['connected']} of "
            f"{population} viewers"
        )
        failed = True
    return 1 if failed else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help=f"CI mode: {QUICK_POPULATION} viewers, {QUICK_WORKERS} workers",
    )
    parser.add_argument(
        "--scale1m",
        action="store_true",
        help=f"1M-viewer axis: {SCALE1M_POPULATION} viewers over "
        f"{SCALE1M_NUM_LSCS} LSCs, sharded leg only (--quick: "
        f"{SCALE1M_QUICK_POPULATION} viewers)",
    )
    parser.add_argument(
        "--record",
        default="BENCH_scale_parallel.json",
        help="where to write the JSON record (default: %(default)s)",
    )
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=DEFAULT_MIN_SPEEDUP,
        help="required sharded speedup at the headline population on "
        f">= {MIN_CORES_FOR_GATE} cores (default: %(default)s)",
    )
    parser.add_argument(
        "--min-build-speedup",
        type=float,
        default=DEFAULT_MIN_BUILD_SPEEDUP,
        help="required shard-filtered vs full scenario-build speedup at "
        "the headline population (default: %(default)s)",
    )
    args = parser.parse_args(argv)

    cores = os.cpu_count() or 1
    if args.scale1m:
        return _run_scale1m(args, cores)
    if args.quick:
        populations = (QUICK_POPULATION,)
        workers = QUICK_WORKERS
        num_lscs = QUICK_NUM_LSCS
    else:
        populations = POPULATIONS
        workers = WORKERS
        num_lscs = NUM_LSCS

    points = []
    parity_ok = True
    for count in populations:
        config = _broadcast_config(count, num_lscs)
        build = _measure_builds(config, workers)
        single = _measure_single(config)
        sharded = _measure_sharded(config, workers)
        point_parity = single["digests"] == sharded["digests"]
        parity_ok = parity_ok and point_parity
        speedup = (
            single["wall_clock_s"] / sharded["wall_clock_s"]
            if sharded["wall_clock_s"] > 0
            else float("inf")
        )
        single.pop("digests")
        sharded.pop("digests")
        points.append(
            {
                "num_viewers": count,
                "build": build,
                "single": single,
                "sharded": sharded,
                "speedup": round(speedup, 2),
                "placement_parity": point_parity,
            }
        )
        print(
            f"n={count:>6}: build {build['build_full_s']:7.2f}s -> "
            f"{build['build_filtered_s']:7.2f}s ({build['build_speedup']:.2f}x), "
            f"single {single['wall_clock_s']:8.2f}s, "
            f"sharded[{sharded['workers_used']}w] {sharded['wall_clock_s']:8.2f}s, "
            f"speedup {speedup:5.2f}x, "
            f"parity {'ok' if point_parity else 'FAIL'}"
        )
        if not point_parity:
            print(f"FAIL: sharded placement diverged at {count} viewers")

    headline = points[-1]
    gate_armed = cores >= MIN_CORES_FOR_GATE
    record = {
        "benchmark": "scale_parallel",
        "quick": args.quick,
        "cpu_count": cores,
        "workers_used": workers,
        "scenario": (
            f"telecast broadcast (num_views=1, num_lscs={num_lscs}, "
            "uncapped CDN), sharded vs single-process"
        ),
        "points": points,
        "headline_speedup": headline["speedup"],
        "headline_build_speedup": headline["build"]["build_speedup"],
        "speedup_gate_armed": gate_armed,
        "build_speedup_gate_armed": not args.quick,
        "min_speedup": args.min_speedup,
        "min_build_speedup": args.min_build_speedup,
        "placement_parity": parity_ok,
    }
    record_path = Path(args.record)
    try:
        previous = json.loads(record_path.read_text())
        if isinstance(previous, dict) and "scale1m" in previous:
            record["scale1m"] = previous["scale1m"]
    except (OSError, ValueError):
        pass
    record_path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(f"record written to {args.record}")

    failures = not parity_ok
    failures = (
        _check_build_gate(headline, args.min_build_speedup, not args.quick)
        or failures
    )
    if gate_armed:
        if headline["speedup"] < args.min_speedup:
            print(
                f"FAIL: headline speedup {headline['speedup']:.2f}x below "
                f"required {args.min_speedup:.1f}x on {cores} cores"
            )
            failures = True
        else:
            print(
                f"speedup gate: {headline['speedup']:.2f}x >= "
                f"{args.min_speedup:.1f}x on {cores} cores: ok"
            )
    else:
        print(
            f"speedup gate: report-only on {cores} core(s) "
            f"(< {MIN_CORES_FOR_GATE}): measured {headline['speedup']:.2f}x"
        )
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
