"""Join-phase scale benchmark: 10k-viewer telecasts on the performance core.

The scenario is a *telecast broadcast*: every viewer requests the same
global view (the paper's large-scale simultaneous-arrival case), which
concentrates the whole population into one view group and makes the
overlay trees -- and therefore the placement data structures -- as large
as the audience.  The benchmark times the join phase (control-plane
joins only, no snapshots) in calibrated seconds at increasing
populations and compares the indexed
:class:`~repro.core.topology.StreamTree` against the frozen
pre-refactor implementation (``ReferenceStreamTree`` in
``tests/reference_topology.py``) at 2k viewers.

It writes ``BENCH_scale.json`` in the one record shape
(``benchmarks/records.py``) and exits non-zero when an armed gate fails:

* ``reference_parity``: both legs place the 2k viewers alike;
* ``speedup_vs_reference``: the indexed engine is at least
  :data:`MIN_SPEEDUP` times faster than the reference path at 2k;
* ``throughput_vs_record``: calibrated joins/s at 2k is at least
  :data:`MIN_THROUGHPUT_RATIO` of the checked-in record's (armed when
  that record has the point).

Usage::

    PYTHONPATH=src python benchmarks/bench_scale.py          # full: 2k + 5k + 10k
    PYTHONPATH=src python benchmarks/bench_scale.py --quick  # CI: 2k only
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Dict, List, Optional

import records

import repro.core.group as group_module
from repro.core.topology import StreamTree
from repro.experiments.config import PAPER_CONFIG
from repro.experiments.runner import build_scenario, build_telecast_system

# The reference tree lives with the tests that compare against it.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from reference_topology import ReferenceStreamTree  # noqa: E402

#: Populations of the full benchmark (the --quick CI mode keeps only the first).
POPULATIONS = (2000, 5000, 10000)

#: Population at which the indexed engine is compared to the reference path.
REFERENCE_POPULATION = 2000

#: Required indexed-vs-reference join-phase speedup at 2k viewers.
MIN_SPEEDUP = 5.0

#: Required share of the checked-in record's calibrated 2k joins/s.
MIN_THROUGHPUT_RATIO = 0.5


def _measure_join_phase(num_viewers: int, tree_class) -> Dict[str, object]:
    """Build one scenario and time its join phase under ``tree_class``.

    The tree implementation is swapped at the single instantiation point
    (``repro.core.group``); everything else -- workload, latency world,
    controllers -- is byte-identical between the two legs.
    """
    config = PAPER_CONFIG.with_scaled_population(num_viewers, num_lscs=3, num_views=1)
    scenario = build_scenario(config)
    original = group_module.StreamTree
    group_module.StreamTree = tree_class
    try:
        system = build_telecast_system(scenario)
        by_id = {viewer.viewer_id: viewer for viewer in scenario.viewers}
        views = scenario.views
        joins = [
            (by_id[event.viewer_id], views[event.view_index % len(views)], event.time)
            for event in sorted(scenario.events, key=lambda e: (e.time, e.viewer_id))
            if event.kind == "join"
        ]

        def join_all() -> None:
            for viewer, view, at in joins:
                system.join_viewer(viewer, view, at)

        with records.STOPWATCH.bracket() as timed:
            timed("join", join_all)
    finally:
        group_module.StreamTree = original
    timing = timed.timings["join"]
    snapshot = system.snapshot()
    return {
        "num_viewers": num_viewers,
        "joins": len(joins),
        "connected": snapshot.num_viewers,
        "acceptance_ratio": snapshot.acceptance_ratio,
        "timings": {"join": timing.to_json()},
        "joins_per_s": len(joins) / timing.wall_s,
        "cal_joins_per_s": len(joins) / timing.cal_s,
    }


def _recorded_throughput() -> Optional[float]:
    """Calibrated 2k joins/s of the checked-in record, if it has one."""
    for point in (records.checked_in("scale") or {}).get("points", []):
        if point.get("tree") == "indexed" and point.get("num_viewers") == REFERENCE_POPULATION:
            return point.get("cal_joins_per_s")
    return None


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help=f"CI mode: only the {REFERENCE_POPULATION}-viewer point, "
        "recorded under benchmarks/out/",
    )
    parser.add_argument("--record", help="where to write the JSON record")
    args = parser.parse_args(argv)

    points = []
    for count in POPULATIONS[:1] if args.quick else POPULATIONS:
        points.append({"tree": "indexed", **_measure_join_phase(count, StreamTree)})
    reference = {
        "tree": "reference",
        **_measure_join_phase(REFERENCE_POPULATION, ReferenceStreamTree),
    }
    points.append(reference)
    for point in points:
        print(
            f"{point['tree']:<9} n={point['num_viewers']:>6}: "
            f"{point['timings']['join']['cal_s']:8.2f} cal s join phase, "
            f"{point['cal_joins_per_s']:>9.1f} cal joins/s "
            f"({point['joins_per_s']:.1f} raw), acceptance={point['acceptance_ratio']:.4f}"
        )

    indexed = points[0]
    recorded = _recorded_throughput()
    same = all(indexed[key] == reference[key] for key in ("acceptance_ratio", "connected"))
    gates = [
        records.gate("reference_parity", 1.0, float(same)),
        records.gate(
            "speedup_vs_reference",
            MIN_SPEEDUP,
            indexed["cal_joins_per_s"] / reference["cal_joins_per_s"],
        ),
        records.gate(
            "throughput_vs_record",
            MIN_THROUGHPUT_RATIO,
            indexed["cal_joins_per_s"] / recorded if recorded else 0.0,
            armed=recorded is not None,
        ),
    ]
    return records.write("scale", quick=args.quick, points=points, gates=gates, path=args.record)


if __name__ == "__main__":
    sys.exit(main())
