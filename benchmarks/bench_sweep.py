"""Parallel vs. serial sweep execution (not a paper figure).

The sweep subsystem promises that process-parallel execution changes
wall-clock time and nothing else.  This benchmark runs the same 6-point
scale sweep (3 populations x TeleCast/Random, 3 region-sharded LSCs)
serially and with two worker processes, times both legs in calibrated
seconds and writes ``BENCH_sweep.json`` in the one record shape
(``benchmarks/records.py``) with two gates: ``parity`` (every point ran
and its metrics are identical on both legs) and ``speedup`` (at least
:data:`MIN_SPEEDUP`).  The speedup itself is hardware-dependent (a
single-core runner cannot beat serial execution), so its floor only
says the pool did not collapse.

Run as a test it writes ``benchmarks/out/BENCH_sweep.json``; run as a
script it re-captures the checked-in record::

    PYTHONPATH=src python -m pytest -q -s benchmarks/bench_sweep.py
    PYTHONPATH=src python benchmarks/bench_sweep.py
"""

from __future__ import annotations

import os
import sys
from typing import Tuple

import records

from repro.experiments.config import PAPER_CONFIG
from repro.experiments.sweep import SweepSpec, run_sweep

#: Population sizes of the benchmark sweep (CDN cap scales with each).
POPULATIONS = (100, 200, 300)

#: Worker processes of the parallel leg.
JOBS = 2

#: Parallel-over-serial speedup below which the pool counts as collapsed.
MIN_SPEEDUP = 0.2


def _spec() -> SweepSpec:
    return SweepSpec(
        name="bench-sweep",
        base=PAPER_CONFIG,
        points=[
            {
                "num_viewers": count,
                "cdn_capacity_mbps": PAPER_CONFIG.with_scaled_population(
                    count
                ).cdn_capacity_mbps,
                "num_lscs": 3,
            }
            for count in POPULATIONS
        ],
        systems=("telecast", "random"),
    )


def measure(quick: bool) -> Tuple[int, float]:
    """Run both legs and write the record; (exit status, speedup)."""
    spec = _spec()
    with records.STOPWATCH.bracket() as timed:
        serial = timed("serial", lambda: run_sweep(spec, jobs=1))
        parallel = timed("parallel", lambda: run_sweep(spec, jobs=JOBS))
    timings = timed.timings
    speedup = timings["serial"].cal_s / timings["parallel"].cal_s
    points = [
        {
            "jobs": jobs,
            "timings": {"sweep": timings[leg].to_json()},
            "sweep_points": [
                {
                    "point_id": point.point_id,
                    "system": point.system,
                    "num_viewers": point.params.get("num_viewers"),
                    "wall_clock_s": point.wall_clock_s,
                    "acceptance_ratio": point.metrics["acceptance_ratio"],
                }
                for point in result.results
            ],
        }
        for leg, jobs, result in (("serial", 1, serial), ("parallel", JOBS, parallel))
    ]
    # Parallelism must not change a single metric of a single point.
    same = (
        not serial.failed()
        and not parallel.failed()
        and serial.metrics_by_point() == parallel.metrics_by_point()
    )
    print(
        f"{len(serial.results)} points (populations {list(POPULATIONS)} x "
        f"{list(spec.systems)}): serial {timings['serial'].cal_s * 1000:.1f} cal ms, "
        f"parallel (--jobs {JOBS}) {timings['parallel'].cal_s * 1000:.1f} cal ms, "
        f"speedup {speedup:.2f}x on {os.cpu_count()} CPU(s)"
    )
    gates = [
        records.gate("parity", 1.0, float(same)),
        records.gate("speedup", MIN_SPEEDUP, speedup),
    ]
    return records.write("sweep", quick=quick, points=points, gates=gates), speedup


def test_parallel_sweep_matches_serial_and_records_trajectory():
    status, speedup = measure(quick=True)
    assert status == 0
    # A two-worker pool cannot beat serial fifty-fold: a larger figure
    # means the parallel leg did not do the work.
    assert speedup < 50.0


if __name__ == "__main__":
    sys.exit(measure(quick=False)[0])
