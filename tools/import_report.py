#!/usr/bin/env python3
"""What each CLI entry point imports, and what that costs.

Runs ``python -X importtime -m <module> <arguments>`` for the targets
below, each in a fresh interpreter, and prints per-package import self
time, the module count, the resident set at exit and the wall time from
exec to the first line of output (``serve``'s ready line) -- the table
behind docs/BENCHMARKS.md "Cold start".  Wall times on a shared machine
are not a measurement, so ``--check`` gates only on what must *not* have
been imported (:data:`FORBIDDEN`): a long-lived ``serve`` daemon pays for
every module at every restart, its client is stdlib only, and ``--help``
should load nothing below the CLI.

    python tools/import_report.py            # the tables
    python tools/import_report.py --check    # exit 1 on a forbidden import
"""

from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path
from statistics import median
from typing import Dict, List, Sequence, Tuple

REPO = Path(__file__).resolve().parent.parent

_CLI = "repro.experiments"

#: Target name -> ``python -m`` arguments, module first.  ``serve`` builds
#: its 400-viewer world, binds, prints its ready line and stops after one
#: tick; ``run`` is one small instant-driver scenario; ``soak client``
#: imports the daemon's line-protocol client (``repro.service.soak``), which
#: shares a package with the daemon and nothing else.
TARGETS: Dict[str, List[str]] = {
    "serve": [_CLI, "serve", "--viewers", "400", "--dilation", "0", "--max-wall-seconds", "0"],
    "run": [_CLI, "run", "--viewers", "200"],
    "sweep --list": [_CLI, "sweep", "--list"],
    "--help": [_CLI, "--help"],
    "soak client": ["repro.service.soak"],
}

#: Modules (and everything below them) a target must not have loaded by
#: the time it exits.  tests/test_import_graph.py holds the same lists
#: against longer sessions (400 viewers of scripted ops, a 4000-viewer run).
#: The package has no runtime dependency; the ``numpy`` rows keep one from
#: coming back onto the daemon's or a run's import path.
FORBIDDEN: Dict[str, Tuple[str, ...]] = {
    "serve": (
        "numpy",
        "repro.experiments.sweep",
        "repro.experiments.figures",
        "repro.baselines",
        "concurrent.futures",
    ),
    "run": ("numpy",),
    "--help": ("repro.core", "repro.sim"),
    "soak client": ("repro.core", "repro.sim", "repro.service.daemon"),
}

#: Runs the module as ``python -m`` does, then reports on stderr, after
#: the ``-X importtime`` lines, what the process holds.
_PROBE = """
import json, runpy, sys
del sys.argv[0]
try:
    runpy.run_module(sys.argv[0], run_name="__main__", alter_sys=True)
except SystemExit:
    pass
rss_kib = 0
try:
    with open("/proc/self/status") as status:
        rss_kib = next(int(line.split()[1]) for line in status if line.startswith("VmRSS"))
except OSError:
    pass
print("IMPORT_REPORT " + json.dumps({"modules": sorted(sys.modules), "rss_kib": rss_kib}),
      file=sys.stderr)
"""

#: Wall-time samples per target; the tables report the median.
_RUNS = 7

_IMPORT_LINE = re.compile(r"^import time:\s+(\d+) \|\s+\d+ \|\s+(\S+)$")


def offenders(modules: Sequence[str], forbidden: Sequence[str]) -> List[str]:
    """The forbidden names that were loaded, themselves or anything below."""
    return [
        name
        for name in forbidden
        if any(module == name or module.startswith(name + ".") for module in modules)
    ]


def _package(module: str) -> str:
    parts = module.split(".")
    if parts[0] == "repro":
        return ".".join(parts[:2])
    return "(stdlib)"


def child_env() -> Dict[str, str]:
    """The environment of a child interpreter: this checkout's ``src`` first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def probe(arguments: Sequence[str]) -> Dict[str, object]:
    """One fresh interpreter: modules loaded, RSS, self time per package."""
    child = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", _PROBE, *arguments],
        env=child_env(),
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
        timeout=300,
    )
    self_us: Counter = Counter()
    report = None
    for line in child.stderr.splitlines():
        match = _IMPORT_LINE.match(line)
        if match:
            self_us[_package(match.group(2))] += int(match.group(1))
        elif line.startswith("IMPORT_REPORT "):
            report = json.loads(line[len("IMPORT_REPORT ") :])
    if report is None:
        raise SystemExit(
            f"{' '.join(arguments)}: exited {child.returncode} without a report\n"
            + child.stderr[-2000:]
        )
    report["self_us"] = dict(self_us)
    return report


def first_output_ms(arguments: Sequence[str], runs: int = _RUNS) -> float:
    """Median wall time from exec to ``python -m``'s first line of output.

    For ``serve`` that line is ``serving on host:port``: the cold start a
    client waits for.  The other targets print when they are done, and
    ``soak client`` prints nothing: its end of output is its exit.
    """
    samples = []
    for _ in range(runs):
        started = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, "-m", *arguments],
            env=child_env(),
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
        ) as child:
            child.stdout.readline()
            samples.append((time.perf_counter() - started) * 1000.0)
            child.communicate(timeout=300)
    return median(samples)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--check",
        action="store_true",
        help="assert the forbidden-module lists only; no tables, no timing",
    )
    args = parser.parse_args(argv)

    failed = False
    for name, arguments in TARGETS.items():
        report = probe(arguments)
        modules = report["modules"]
        bad = offenders(modules, FORBIDDEN.get(name, ()))
        failed = failed or bool(bad)
        if args.check:
            verdict = f"FAIL, imported {', '.join(bad)}" if bad else "ok"
            print(f"{name}: {len(modules)} modules, {verdict}")
            continue
        print(
            f"== {name}: {len(modules)} modules "
            f"({sum(m.startswith('repro') for m in modules)} repro), "
            f"rss at exit {report['rss_kib'] / 1024.0:.1f} MiB, "
            f"first output after {first_output_ms(arguments):.0f} ms "
            f"(median of {_RUNS})"
        )
        self_us = report["self_us"]
        for package, micros in sorted(self_us.items(), key=lambda item: -item[1]):
            print(f"   {package:<24} {micros / 1000.0:8.1f} ms import self time")
        print(f"   {'total':<24} {sum(self_us.values()) / 1000.0:8.1f} ms")
        if bad:
            print(f"   FORBIDDEN: {', '.join(bad)}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
