#!/usr/bin/env python3
"""The repo benchmark: four workloads, end-to-end metrics, per-layer trace.

Usage (from the repository root; ``src/`` is put on the path here)::

    python3 benchmarks/e2e/run.py                      # all four workloads, both passes
    python3 benchmarks/e2e/run.py --quick              # 1/10 populations, 2 reps: smoke
    python3 benchmarks/e2e/run.py --workload replay_qoe --seed 11 --trace 1

Without ``--workload`` every workload runs in its own fresh subprocess
(heap isolation, per-workload peak RSS) and the merged record lands in
``benchmarks/e2e/out/result.json``.  With ``--workload`` the run happens
in this process: one untimed warm-up rep at 1/10 scale, then timed reps
(at least ``--reps``, more while they fit in ``--seconds``), each on a
freshly built world.  ``--trace 0`` measures the end-to-end metrics with
tracing off, ``--trace 1`` the layer metrics from traced reps (after a
few untraced ones that give the tracing overhead its base); without
``--trace`` both passes run.

Every metric is printed by name with its unit.  The last line of standard
output is one JSON object ``{"correct", "attempted", "failed",
"metrics"}`` for the driver.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence

HERE = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(REPO_ROOT, "src")
if not os.path.isdir(os.path.join(SRC, "repro")):
    sys.exit(f"benchmarks/e2e/run.py: no program to measure under {SRC}")
sys.path[:0] = [SRC, HERE]
# The daemon and the shard workers are children: they need the program too.
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))

from repro.experiments.sweep.store import git_describe  # noqa: E402

import spec  # noqa: E402
from harness import Rep, Stopwatch, run_reps, summarize  # noqa: E402
from layers import SPAN_POINTS, layer_metrics  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, Workload, process_peak_rss_mb  # noqa: E402

#: Untraced reps a traced-only run makes first (the overhead ratio's base,
#: and the batch round trips of ``service_churn``).
TRACE_BASE_REPS = 2
#: Share of ``--seconds`` a traced-only run spends on them.
TRACE_BASE_SHARE = 0.35


def fingerprint() -> Dict[str, object]:
    """Which commit ran on which machine."""
    # A checkout that is not a repository must not be described by a parent's.
    os.environ.setdefault("GIT_CEILING_DIRECTORIES", os.path.dirname(REPO_ROOT))
    return {
        "git": git_describe(Path(REPO_ROOT)),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
    }


def _fold_checks(checks: Dict[str, bool], reps: Sequence[Rep]) -> None:
    for rep in reps:
        for check, passed in rep.checks.items():
            checks[check] = checks.get(check, True) and passed


def traced_pass(
    workload: Workload, watch: Stopwatch, untraced: Sequence[Rep], seconds: float, out_dir: str
) -> Dict[str, object]:
    """Traced reps: layer metrics (median over reps), span table, JSONL sample."""
    per_rep: List[Dict[str, float]] = []
    tracers: List[Tracer] = []

    def traced_rep() -> Rep:
        tracer = Tracer(SPAN_POINTS, sample_every=spec.TRACE_SAMPLE_EVERY)
        with tracer:
            rep = workload.rep(watch, tracer)
        tracers.append(tracer)
        per_rep.append(layer_metrics(workload.name, tracer, rep, untraced))
        return rep

    traced = run_reps(traced_rep, min_reps=1, seconds=seconds)
    last = tracers[-1]
    units = {entry["name"]: entry["unit"] for entry in spec.contract_layer_metrics()}
    jsonl = os.path.join(out_dir, f"trace-{workload.name}.jsonl")
    body = traced[-1].timings["body"]
    factor = body.cal_s / body.wall_s
    return {
        "reps": traced,
        "per_layer": {
            metric: {
                "value": statistics.median(values[metric] for values in per_rep),
                "unit": units[metric],
            }
            for metric in spec.PER_LAYER
        },
        "trace": {
            "traced_reps": len(traced),
            "ops_seen": last.ops_seen,
            "sampled_spans": last.write_jsonl(jsonl),
            "jsonl": os.path.relpath(jsonl, REPO_ROOT),
            "spans": {
                span: {
                    "layer": stats.layer,
                    "calls": stats.calls,
                    "total_s": stats.total_ns * 1e-9 * factor,
                    "self_s": stats.self_ns * 1e-9 * factor,
                }
                for span, stats in sorted(last.stats().items())
                if stats.calls
            },
            "outcomes": {k: v for k, v in sorted(last.outcomes.items()) if v},
        },
    }


def run_workload(
    name: str,
    *,
    seed: int,
    scale: float,
    min_reps: int,
    seconds: float,
    passes: Sequence[str],
    out_dir: str,
) -> Dict[str, object]:
    """Measure one workload in this process; return its result record."""
    os.makedirs(out_dir, exist_ok=True)
    watch = Stopwatch()
    WORKLOADS[name](seed, spec.scaled_params(name, scale * 0.1), out_dir).rep(watch)
    workload = WORKLOADS[name](seed, spec.scaled_params(name, scale), out_dir)

    end_to_end = "end_to_end" in passes
    if end_to_end:
        reps = run_reps(lambda: workload.rep(watch), min_reps=min_reps, seconds=seconds)
    else:
        reps = run_reps(
            lambda: workload.rep(watch),
            min_reps=TRACE_BASE_REPS,
            seconds=seconds * TRACE_BASE_SHARE,
        )
    # Before any run-level verification allocates: the reps' own high-water mark.
    peak_rss_mb = process_peak_rss_mb()

    checks: Dict[str, bool] = {}
    _fold_checks(checks, reps)
    checks["digests_repeat"] = all(rep.digests == reps[0].digests for rep in reps)
    checks["exact_metrics_repeat"] = all(rep.exact == reps[0].exact for rep in reps)

    record: Dict[str, object] = {
        "workload": name,
        "seed": seed,
        "scale": scale,
        "params": workload.params,
        "rate_metric": spec.WORKLOADS[name]["rate"],
        "calib_ref_s": spec.CALIB_REF_S,
        "fingerprint": fingerprint(),
    }
    traced: List[Rep] = []
    if "per_layer" in passes:
        share = 0.5 if end_to_end else 1.0 - TRACE_BASE_SHARE
        layers_pass = traced_pass(workload, watch, reps, seconds * share, out_dir)
        traced = layers_pass.pop("reps")
        record.update(layers_pass)
        _fold_checks(checks, traced)
        checks["trace_matches_untraced"] = all(
            rep.exact == reps[0].exact and rep.digests == reps[0].digests for rep in traced
        )

    finish_checks, finish_extra = workload.finish(reps, watch)
    checks.update(finish_checks)

    metrics: Dict[str, Optional[Dict[str, object]]] = {}
    for metric, (unit, _better, _bound, kind, _on) in spec.END_TO_END.items():
        if not spec.defined_on(metric, name):
            metrics[metric] = None
        elif kind == spec.EXACT:
            metrics[metric] = {"value": reps[0].exact[metric], "unit": unit}
        elif metric in reps[0].host:
            metrics[metric] = summarize([rep.host[metric] for rep in reps], unit)
        else:
            metrics[metric] = summarize([peak_rss_mb], unit)
    record.update(
        reps=len(reps),
        end_to_end=metrics,
        ops_attempted=sum(rep.attempted for rep in reps + traced),
        ops_failed=sum(rep.failed for rep in reps + traced),
        checks=checks,
        correct=all(checks.values()),
        digests=reps[0].digests,
        raw=[
            {
                "timings": {key: timing.to_json() for key, timing in rep.timings.items()},
                "extra": rep.extra,
            }
            for rep in reps
        ],
        run_extra=finish_extra,
    )
    return record


def contract_line(record: Dict[str, object], trace: bool) -> str:
    """The driver's result object for one run."""
    if trace:
        metrics = dict(record["per_layer"])
        for name in spec.CONTRACT_EXTRA_LAYER:
            entry = record["end_to_end"][name]
            metrics[name] = {
                "value": entry["value"] if entry else 0.0,
                "unit": spec.END_TO_END[name][0],
            }
    else:
        end_to_end = dict(record["end_to_end"])
        end_to_end["work_per_s"] = end_to_end[record["rate_metric"]]
        metrics = {
            entry["name"]: {
                "value": end_to_end[entry["name"]]["value"],
                "unit": entry["unit"],
            }
            for entry in spec.CONTRACT_END_TO_END
        }
    return json.dumps(
        {
            "correct": bool(record["correct"]),
            "attempted": int(record["ops_attempted"]),
            "failed": int(record["ops_failed"]),
            "metrics": metrics,
        }
    )


def print_record(record: Dict[str, object]) -> None:
    """Every metric by name, with its unit."""
    print(
        f"== {record['workload']}  seed={record['seed']} scale={record['scale']:g} "
        f"reps={record['reps']}  correct={record['correct']} "
        f"ops_attempted={record['ops_attempted']} ops_failed={record['ops_failed']}"
    )
    for name, entry in record["end_to_end"].items():
        if entry is None:
            print(f"  {name:<34} -")
        elif "q1" in entry:
            print(
                f"  {name:<34} {entry['value']:>14.6g} {entry['unit']:<6} "
                f"[q1 {entry['q1']:.6g}, q3 {entry['q3']:.6g}, n={entry['n']}]"
            )
        else:
            print(f"  {name:<34} {entry['value']:>14.6g} {entry['unit']:<6} (exact)")
    for name, entry in record.get("per_layer", {}).items():
        print(f"  {name:<38} {entry['value']:>14.6g} {entry['unit']}")
    failed = sorted(check for check, passed in record["checks"].items() if not passed)
    print(f"  checks: {len(record['checks']) - len(failed)}/{len(record['checks'])} passed"
          + (f"; FAILED: {', '.join(failed)}" if failed else ""))
    for key, digest in sorted(record["digests"].items()):
        print(f"  digest {key}: {digest}")


def run_all(args: argparse.Namespace, passthrough: List[str]) -> int:
    """Each workload in a fresh subprocess; merge their records."""
    merged: Dict[str, object] = {
        "benchmark": "benchmarks/e2e",
        "command": spec.COMMAND,
        "seed": args.seed,
        "calib_ref_s": spec.CALIB_REF_S,
        "fingerprint": fingerprint(),
        "workloads": {},
    }
    status = 0
    for name in spec.WORKLOADS:
        completed = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name, *passthrough]
        )
        status = status or completed.returncode
        path = os.path.join(args.out, f"{name}.json")
        if os.path.exists(path):
            with open(path, encoding="utf-8") as handle:
                merged["workloads"][name] = json.load(handle)
    target = args.json or os.path.join(args.out, "result.json")
    with open(target, "w", encoding="utf-8") as handle:
        json.dump(merged, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"record written to {os.path.relpath(target)}")
    return status


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=list(spec.WORKLOADS))
    parser.add_argument("--seed", type=int, default=spec.DEFAULT_SEED)
    parser.add_argument("--reps", type=int, default=None, help="minimum timed reps")
    parser.add_argument("--seconds", type=float, default=None, help="seconds one run measures")
    parser.add_argument("--quick", action="store_true", help="1/10 populations, 2 reps")
    parser.add_argument(
        "--trace", nargs="?", type=int, choices=(0, 1), const=1, default=None,
        help="0: end-to-end pass only; 1: traced pass only; absent: both",
    )
    parser.add_argument("--out", default=os.path.join(HERE, "out"), help="output directory")
    parser.add_argument("--json", default=None, help="merged record path (all-workload runs)")
    args = parser.parse_args(argv)

    if args.workload is None:
        passthrough = [a for a in (sys.argv[1:] if argv is None else argv)]
        return run_all(args, passthrough)

    scale = 0.1 if args.quick else 1.0
    min_reps = args.reps if args.reps is not None else (2 if args.quick else spec.MIN_REPS)
    seconds = args.seconds if args.seconds is not None else (0.0 if args.quick else spec.RUN_SECONDS)
    passes = {None: ("end_to_end", "per_layer"), 0: ("end_to_end",), 1: ("per_layer",)}[args.trace]
    record = run_workload(
        args.workload,
        seed=args.seed,
        scale=scale,
        min_reps=min_reps,
        seconds=seconds,
        passes=passes,
        out_dir=args.out,
    )
    with open(os.path.join(args.out, f"{args.workload}.json"), "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print_record(record)
    print(contract_line(record, trace=args.trace == 1))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
