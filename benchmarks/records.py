"""The one record and gate shape of the root ``BENCH_*.json`` benchmarks.

``bench_scale.py``, ``bench_scale_parallel.py`` and ``bench_sweep.py``
time their sections with the repo benchmark's calibrated stopwatch
(``benchmarks/e2e/harness.py``: a section's wall time divided by how
slow a fixed pure-Python kernel ran around it) and write one record::

    {"benchmark": ..., "machine": {"cpu_count", "platform", "python"},
     "git": ..., "quick": ..., "points": [...],
     "gates": [{"name", "threshold", "value", "armed", "passed"}]}

A gate passes when its value is at least its threshold; only an armed
gate fails a run.  A full run writes the checked-in record at the repo
root; a quick run writes under the gitignored ``benchmarks/out/``, so a
smoke run never replaces the record the next run's gates read.
"""

from __future__ import annotations

import json
import os
import platform
import sys
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
REPO_ROOT = HERE.parent
OUT_DIR = HERE / "out"

# The harness imports its sibling ``spec`` module by name.
sys.path.insert(0, str(HERE / "e2e"))
from harness import Stopwatch  # noqa: E402

from repro.experiments.sweep.store import git_describe  # noqa: E402

STOPWATCH = Stopwatch()


def checked_in(benchmark: str) -> Optional[dict]:
    """The checked-in record of ``benchmark``, or ``None``."""
    try:
        return json.loads((REPO_ROOT / f"BENCH_{benchmark}.json").read_text())
    except (OSError, ValueError):
        return None


def gate(name: str, threshold: float, value: float, armed: bool = True) -> Dict[str, object]:
    """One gate: ``value`` must be at least ``threshold`` when ``armed``."""
    return {
        "name": name,
        "threshold": threshold,
        "value": value,
        "armed": armed,
        "passed": value >= threshold,
    }


def write(
    benchmark: str,
    *,
    quick: bool,
    points: List[Dict[str, object]],
    gates: List[Dict[str, object]],
    path: Optional[str] = None,
) -> int:
    """Write the record, print every gate; 1 if an armed gate failed."""
    target = Path(path) if path else (OUT_DIR if quick else REPO_ROOT) / f"BENCH_{benchmark}.json"
    record = {
        "benchmark": benchmark,
        "machine": {
            "cpu_count": os.cpu_count(),
            "platform": platform.platform(),
            "python": platform.python_version(),
        },
        "git": git_describe(REPO_ROOT),
        "quick": quick,
        "points": points,
        "gates": gates,
    }
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(f"record written to {target}")
    failed = False
    for entry in gates:
        verdict = ("ok" if entry["passed"] else "FAIL") if entry["armed"] else "report-only"
        print(
            f"gate {entry['name']}: {entry['value']:.4g} "
            f"(at least {entry['threshold']:.4g}): {verdict}"
        )
        failed = failed or (entry["armed"] and not entry["passed"])
    return 1 if failed else 0
