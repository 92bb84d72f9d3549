"""Join-phase scale benchmark: 10k-viewer telecasts on the performance core.

The scenario is a *telecast broadcast*: every viewer requests the same
global view (the paper's large-scale simultaneous-arrival case), which
concentrates the whole population into one view group and makes the
overlay trees -- and therefore the placement data structures -- as large
as the audience.  The benchmark measures the wall clock of the join
phase (control-plane joins only, no snapshots) at increasing populations
and compares the indexed :class:`~repro.core.topology.StreamTree`
against the frozen pre-refactor implementation
(``ReferenceStreamTree`` in ``tests/reference_topology.py``) at 2k
viewers.

Output is the machine-readable ``BENCH_scale.json`` perf-trajectory
record.  The script exits non-zero when

* the indexed engine is not at least ``--min-speedup`` (default 5x)
  faster than the reference path at 2k viewers, or
* 2k-viewer join throughput regressed more than ``--max-regression``
  (default 2x) against the checked-in baseline record (CI gate).

Usage::

    PYTHONPATH=src python benchmarks/bench_scale.py          # full: 2k + 5k + 10k
    PYTHONPATH=src python benchmarks/bench_scale.py --quick  # CI: 2k only
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

import repro.core.group as group_module
from repro.core.topology import StreamTree
from repro.experiments.config import PAPER_CONFIG, ExperimentConfig
from repro.experiments.runner import build_scenario, build_telecast_system

# The reference tree lives with the tests that compare against it.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from reference_topology import ReferenceStreamTree  # noqa: E402

#: Populations of the full benchmark (the --quick CI mode keeps only the first).
POPULATIONS = (2000, 5000, 10000)

#: Population at which the indexed engine is compared to the reference path.
REFERENCE_POPULATION = 2000

#: Required indexed-vs-reference join-phase speedup at 2k viewers.
DEFAULT_MIN_SPEEDUP = 5.0

#: Allowed throughput regression factor against the checked-in record.
DEFAULT_MAX_REGRESSION = 2.0


def _broadcast_config(num_viewers: int) -> ExperimentConfig:
    """The benchmark scenario: one headline view, region-sharded control plane."""
    return PAPER_CONFIG.with_scaled_population(num_viewers, num_lscs=3, num_views=1)


def _measure_join_phase(config: ExperimentConfig, tree_class) -> Dict[str, float]:
    """Build one scenario and time its join phase under ``tree_class``.

    The tree implementation is swapped at the single instantiation point
    (``repro.core.group``); everything else -- workload, latency world,
    controllers -- is byte-identical between the two legs.
    """
    scenario = build_scenario(config)
    original = group_module.StreamTree
    group_module.StreamTree = tree_class
    try:
        system = build_telecast_system(scenario)
        by_id = {viewer.viewer_id: viewer for viewer in scenario.viewers}
        events = sorted(scenario.events, key=lambda e: (e.time, e.viewer_id))
        joins = 0
        started = time.perf_counter()
        for event in events:
            if event.kind != "join":
                continue
            view = scenario.views[event.view_index % len(scenario.views)]
            system.join_viewer(by_id[event.viewer_id], view, event.time)
            joins += 1
        elapsed = time.perf_counter() - started
    finally:
        group_module.StreamTree = original
    snapshot = system.snapshot()
    return {
        "num_viewers": config.num_viewers,
        "joins": joins,
        "connected": snapshot.num_viewers,
        "acceptance_ratio": snapshot.acceptance_ratio,
        "join_wall_clock_s": round(elapsed, 4),
        "joins_per_s": round(joins / elapsed, 2) if elapsed > 0 else float("inf"),
    }


def _load_baseline(path: Path) -> Optional[dict]:
    if not path.exists():
        return None
    try:
        return json.loads(path.read_text())
    except (OSError, json.JSONDecodeError):
        return None


def _baseline_throughput(baseline: Optional[dict]) -> Optional[float]:
    """2k-viewer joins/sec of the checked-in record, if present."""
    if not baseline:
        return None
    for point in baseline.get("points", []):
        if point.get("num_viewers") == REFERENCE_POPULATION:
            return point.get("joins_per_s")
    return None


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help=f"CI mode: only the {REFERENCE_POPULATION}-viewer point",
    )
    parser.add_argument(
        "--record",
        default="BENCH_scale.json",
        help="where to write the JSON record (default: %(default)s)",
    )
    parser.add_argument(
        "--baseline",
        default="BENCH_scale.json",
        help="checked-in record to gate throughput against (default: %(default)s)",
    )
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=DEFAULT_MIN_SPEEDUP,
        help="required speedup vs the reference tree at 2k (default: %(default)s)",
    )
    parser.add_argument(
        "--max-regression",
        type=float,
        default=DEFAULT_MAX_REGRESSION,
        help="allowed joins/sec regression factor vs the baseline (default: %(default)s)",
    )
    args = parser.parse_args(argv)

    # Load the baseline before the record file is overwritten.
    baseline_throughput = _baseline_throughput(_load_baseline(Path(args.baseline)))

    populations = POPULATIONS[:1] if args.quick else POPULATIONS
    points = []
    for count in populations:
        point = _measure_join_phase(_broadcast_config(count), StreamTree)
        points.append(point)
        print(
            f"indexed   n={count:>6}: {point['join_wall_clock_s']:8.2f}s join phase, "
            f"{point['joins_per_s']:>9.1f} joins/s, "
            f"acceptance={point['acceptance_ratio']:.4f}"
        )

    reference = _measure_join_phase(
        _broadcast_config(REFERENCE_POPULATION), ReferenceStreamTree
    )
    print(
        f"reference n={REFERENCE_POPULATION:>6}: "
        f"{reference['join_wall_clock_s']:8.2f}s join phase, "
        f"{reference['joins_per_s']:>9.1f} joins/s (pre-refactor path)"
    )

    indexed_2k = points[0]
    speedup = (
        reference["join_wall_clock_s"] / indexed_2k["join_wall_clock_s"]
        if indexed_2k["join_wall_clock_s"] > 0
        else float("inf")
    )
    print(f"speedup vs pre-refactor path at {REFERENCE_POPULATION} viewers: {speedup:.1f}x")

    # Both legs must place every viewer identically (same acceptance).
    parity_ok = (
        reference["acceptance_ratio"] == indexed_2k["acceptance_ratio"]
        and reference["connected"] == indexed_2k["connected"]
    )
    if not parity_ok:
        print("FAIL: indexed and reference legs disagree on placement outcomes")

    record = {
        "benchmark": "scale",
        "quick": args.quick,
        # cpu_count reports the machine; this benchmark itself is
        # single-process (workers_used == 1 by construction).
        "cpu_count": os.cpu_count(),
        "workers_used": 1,
        "scenario": "telecast broadcast (num_views=1, num_lscs=3)",
        "points": points,
        "reference_2k": reference,
        "speedup_vs_reference_2k": round(speedup, 2),
    }
    Path(args.record).write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n"
    )
    print(f"record written to {args.record}")

    failures = not parity_ok
    if speedup < args.min_speedup:
        print(f"FAIL: speedup {speedup:.1f}x below required {args.min_speedup:.1f}x")
        failures = True
    if baseline_throughput:
        current = indexed_2k["joins_per_s"]
        floor = baseline_throughput / args.max_regression
        verdict = "ok" if current >= floor else "REGRESSION"
        print(
            f"throughput gate: {current:.1f} joins/s vs baseline "
            f"{baseline_throughput:.1f} (floor {floor:.1f}): {verdict}"
        )
        if current < floor:
            failures = True
    else:
        print("throughput gate: no baseline record found, skipping")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
