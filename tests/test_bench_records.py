"""The checked-in root benchmark records all have one shape.

``benchmarks/records.py`` writes ``BENCH_claims.json``,
``BENCH_scale.json``, ``BENCH_scale_parallel.json``, ``BENCH_scale1m.json``
and ``BENCH_sweep.json``: which benchmark, on which machine, at which
commit, quick or full, the measured points with raw and calibrated
timings, and every gate with whether it armed and passed.
``BENCH_soak.json`` is the soak client's report and has its own shape.
Every gate of ``BENCH_claims.json`` -- one per claim of the paper the
repo checks -- is named in docs/BENCHMARKS.md "Figure reproductions".
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Iterator, Tuple

import pytest

ROOT = Path(__file__).resolve().parent.parent
RECORDS = sorted(path for path in ROOT.glob("BENCH_*.json") if path.name != "BENCH_soak.json")

#: ``(record, gate)`` pairs whose armed gate fails in the checked-in
#: record, each with the reason.  Shrink-only: an entry whose gate
#: passes again must go, and a new failure may not be added to make a
#: record pass.
KNOWN_FAILING: Dict[Tuple[str, str], str] = {
    ("BENCH_scale_parallel.json", "build_speedup"): (
        "the slowest of 4 workers' shard-filtered builds is 1.87x faster than "
        "the one-worker build at 100k viewers in the record (2 cores), not 2x: "
        "every worker still derives every viewer's key and region and walks "
        "every viewer's bandwidth draw (ROADMAP open items)"
    ),
}


def _timings(node: object) -> Iterator[dict]:
    """Every timed section anywhere below ``node``."""
    if isinstance(node, dict):
        for key, value in node.items():
            if key == "timings":
                yield from value.values()
            else:
                yield from _timings(value)
    elif isinstance(node, list):
        for item in node:
            yield from _timings(item)


def test_each_root_benchmark_has_its_record():
    assert [path.name for path in RECORDS] == [
        "BENCH_claims.json",
        "BENCH_scale.json",
        "BENCH_scale1m.json",
        "BENCH_scale_parallel.json",
        "BENCH_sweep.json",
    ]


@pytest.mark.parametrize("path", RECORDS, ids=lambda path: path.name)
def test_record_has_the_one_shape(path):
    record = json.loads(path.read_text())
    assert set(record) == {"benchmark", "machine", "git", "quick", "points", "gates"}
    assert path.name == f"BENCH_{record['benchmark']}.json"
    assert set(record["machine"]) == {"cpu_count", "platform", "python"}
    assert record["git"] and record["quick"] is False
    assert record["points"]
    for point in record["points"]:
        timings = list(_timings(point))
        assert timings, "a point carries at least one timed section"
        for timing in timings:
            assert set(timing) == {"wall_s", "calib_s", "cal_s"}
            assert timing["wall_s"] > 0 and timing["cal_s"] > 0
            assert len(timing["calib_s"]) == 2


@pytest.mark.parametrize("path", RECORDS, ids=lambda path: path.name)
def test_no_armed_gate_failed(path):
    gates = json.loads(path.read_text())["gates"]
    assert gates
    failed = set()
    for gate in gates:
        assert set(gate) == {"name", "threshold", "value", "armed", "passed"}
        assert gate["passed"] == (gate["value"] >= gate["threshold"])
        if gate["armed"] and not gate["passed"]:
            failed.add((path.name, gate["name"]))
    known = {key for key in KNOWN_FAILING if key[0] == path.name}
    assert failed == known, "an armed gate failed, or a known failure passes again"


def test_every_known_failure_has_a_reason():
    assert all(reason.strip() for reason in KNOWN_FAILING.values())


def test_every_claim_gate_is_named_in_the_figure_reproductions_section():
    gates = json.loads((ROOT / "BENCH_claims.json").read_text())["gates"]
    doc = (ROOT / "docs" / "BENCHMARKS.md").read_text()
    section = doc.split("\n## Figure reproductions\n", 1)[1].split("\n## ", 1)[0]
    assert [gate["name"] for gate in gates if f"`{gate['name']}`" not in section] == []
