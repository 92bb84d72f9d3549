"""Sample the Python stack on SIGPROF and print each function's share.

cProfile charges every Python call, so a loop of cheap calls looks
dearer than one C call doing the same work.  This reads the stack every
``INTERVAL`` CPU seconds instead: *self* is the share of samples a
function was running (its C calls included), *inclusive* the share it
was on the stack.  POSIX only (``setitimer``); the kernel rounds the
interval up to its tick (4 ms on a 250 Hz kernel).  Usage::

    PYTHONPATH=src python tools/sample_profile.py script.py [args...]
    PYTHONPATH=src python tools/sample_profile.py -m package.module [args...]
"""

from __future__ import annotations

import os
import runpy
import signal
import sys
import traceback
from collections import Counter

INTERVAL = 0.001  # CPU seconds between samples
TOP = 25  # rows of each table


def _label(code) -> str:
    return f"{os.path.basename(code.co_filename)}:{code.co_firstlineno}({code.co_name})"


def main() -> None:
    module = sys.argv[1:2] == ["-m"]
    args = sys.argv[2:] if module else sys.argv[1:]
    if not args:
        sys.exit(__doc__)
    own, inclusive = Counter(), Counter()

    def sample(_signum, frame) -> None:
        own[_label(frame.f_code)] += 1
        inclusive.update({_label(f.f_code) for f, _ in traceback.walk_stack(frame)})

    sys.argv = args
    signal.signal(signal.SIGPROF, sample)
    signal.setitimer(signal.ITIMER_PROF, INTERVAL, INTERVAL)
    try:
        if module:
            runpy.run_module(args[0], run_name="__main__", alter_sys=True)
        else:
            runpy.run_path(args[0], run_name="__main__")
    finally:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        total = sum(own.values()) or 1
        for title, counts in (("self", own), ("inclusive", inclusive)):
            print(f"\n{title:>9}  of {total} samples", file=sys.stderr)
            for name, count in counts.most_common(TOP):
                print(f"{100 * count / total:8.1f}%  {name}", file=sys.stderr)


if __name__ == "__main__":
    main()
