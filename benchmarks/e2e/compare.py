#!/usr/bin/env python3
"""Compare two benchmark records: ``compare.py A.json B.json``.

``A`` is the base (parent commit), ``B`` the change.  Each argument is a
merged record (``out/result.json``) or one workload's record
(``out/<workload>.json``).  Prints one row per workload and end-to-end
metric -- both medians with their quartiles, the ratio ``B/A`` with its
base, and a verdict:

``better``        B's median beats A's by more than both sides' run-to-run spreads
``within-bound``  B's median is no worse than A's by more than the bound
``worse``         it is worse by more than the bound
``unresolved``    a side's run-to-run spread is wider than the bound, and
                  the two sample sets overlap (not *unchanged*: unknown)

A record holds one run, so the run-to-run spread of its median is
estimated from the run's own reps: for n reps with quartile distance
IQR, medians of such runs have quartile distance about
``1.2533 * IQR / sqrt(n)`` (the standard error of a median, scaled back
to quartiles).  On the reference box that estimate (6-12 %) matches the
spread seen between real runs (README, "Measured noise").

Seed-exact metrics and digests must be identical at equal seeds (bound
0); at different seeds they are listed without a verdict.  Exits 1 when
any row is ``worse`` or ``unresolved``, an exact metric or digest moved,
or either side failed an op or a check.
"""

from __future__ import annotations

import json
import math
import os
import sys
from typing import Dict, List, Optional, Tuple

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import spec  # noqa: E402


def load(path: str) -> Dict[str, dict]:
    """Workload records of a merged or single-workload result file."""
    with open(path, encoding="utf-8") as handle:
        record = json.load(handle)
    if "workloads" in record:
        return record["workloads"]
    return {record["workload"]: record}


def median_spread(entry: dict) -> float:
    """Estimated run-to-run spread of the median, as a share of it."""
    if not entry["value"]:
        return 0.0
    return 1.2533 * (entry["q3"] - entry["q1"]) / (entry["value"] * math.sqrt(entry["n"]))


def host_verdict(base: dict, change: dict, better: str, bound: float) -> str:
    """The verdict of one host-time metric (see the module docstring)."""
    sign = 1.0 if better == "lower" else -1.0
    worsening = sign * (change["value"] - base["value"]) / base["value"]
    a = [sign * value for value in base["samples"]]
    b = [sign * value for value in change["samples"]]
    if max(median_spread(base), median_spread(change)) > bound:
        if max(b) < min(a):
            return "better"
        if min(b) > max(a) and worsening > bound:
            return "worse"
        return "unresolved"
    if worsening > bound:
        return "worse"
    # One sample says nothing about its own spread: only the bound can vouch.
    noise = median_spread(base) + median_spread(change) if base["n"] > 1 else bound
    if -worsening > noise:
        return "better"
    return "within-bound"


def _cell(entry: Optional[dict]) -> str:
    if entry is None:
        return "-"
    if "q1" in entry:
        return f"{entry['value']:.5g} [{entry['q1']:.5g}, {entry['q3']:.5g}] n={entry['n']}"
    return f"{entry['value']:.9g}"


def compare(base: Dict[str, dict], change: Dict[str, dict]) -> Tuple[List[str], bool]:
    """Report lines and whether the change holds every bound."""
    lines: List[str] = []
    ok = True
    for workload in spec.WORKLOADS:
        if workload not in base or workload not in change:
            lines.append(f"{workload}: missing on one side")
            ok = False
            continue
        a, b = base[workload], change[workload]
        same_seed = a["seed"] == b["seed"]
        lines.append(
            f"{workload}  seeds {a['seed']}/{b['seed']}  reps {a['reps']}/{b['reps']}"
        )
        for metric, (unit, better, bound, kind, _on) in spec.END_TO_END.items():
            left, right = a["end_to_end"].get(metric), b["end_to_end"].get(metric)
            if left is None or right is None:
                continue
            ratio = right["value"] / left["value"] if left["value"] else float("nan")
            if kind == spec.EXACT:
                if not same_seed:
                    verdict = "n/a (seeds differ)"
                elif left["value"] == right["value"]:
                    verdict = "identical"
                else:
                    verdict = "MOVED (behaviour change)"
                    ok = False
            else:
                verdict = host_verdict(left, right, better, bound)
                ok = ok and verdict not in ("worse", "unresolved")
            lines.append(
                f"  {metric:<26} {unit:<6} {better:<6} bound {bound:<5g} "
                f"A {_cell(left):<44} B {_cell(right):<44} "
                f"B/A {ratio:.4f} of {left['value']:.5g}  {verdict}"
            )
        for side, record in (("A", a), ("B", b)):
            share = record["ops_failed"] / record["ops_attempted"]
            failed = sorted(c for c, passed in record["checks"].items() if not passed)
            lines.append(
                f"  {side}: failed ops {record['ops_failed']}/{record['ops_attempted']} "
                f"({share:.6f}); checks failed: {', '.join(failed) or 'none'}"
            )
            ok = ok and record["ops_failed"] == 0 and not failed
        if same_seed:
            equal = a["digests"] == b["digests"]
            lines.append(f"  digests: {'identical' if equal else 'DIFFER'}")
            ok = ok and equal
    return lines, ok


def main(argv: Optional[List[str]] = None) -> int:
    arguments = sys.argv[1:] if argv is None else argv
    if len(arguments) != 2:
        print(__doc__)
        return 2
    lines, ok = compare(load(arguments[0]), load(arguments[1]))
    print("\n".join(lines))
    print("verdict: every bound holds" if ok else "verdict: NOT within bounds")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
