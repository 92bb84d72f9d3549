"""Calibrated timing, rep loop and robust statistics of the benchmark.

Raw wall time on the shared reference box is not repeatable (the same
4k-viewer join body read 2.41 / 2.07 / 2.08 / 1.77 s in four consecutive
invocations), so every host-time metric is reported in *calibrated
seconds*: the section's wall time divided by how slow a fixed
pure-Python kernel ran immediately before and after it, scaled by
:data:`spec.CALIB_REF_S`.  Raw seconds and every kernel sample stay in
the result beside the calibrated value.
"""

from __future__ import annotations

import gc
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Sequence, Tuple

import spec


class _Cell:
    __slots__ = ("key", "weight", "links")

    def __init__(self, key: int, weight: int) -> None:
        self.key = key
        self.weight = weight
        self.links: List[int] = []


def calibration_kernel(rounds: int = spec.CALIB_ROUNDS) -> int:
    """A fixed deterministic mix of what the simulator's hot paths do.

    String-keyed dict traffic, small-object allocation, list growth,
    integer arithmetic and a keyed sort -- the instruction mix of the
    join pipeline, so a slow spell of the box slows both alike.  Returns
    a checksum so the work cannot be optimised away.
    """
    checksum = 0
    for round_index in range(rounds):
        state = 12345 + round_index
        table: Dict[str, _Cell] = {}
        cells: List[_Cell] = []
        for _ in range(2500):
            state = (state * 1103515245 + 12345) & 0x7FFFFFFF
            cell = _Cell(state, state % 97)
            cells.append(cell)
            table[f"node-{state % 1800:05d}"] = cell
        cells.sort(key=lambda item: (item.weight, item.key))
        for position, cell in enumerate(cells):
            target = table.get(f"node-{(cell.key >> 3) % 1800:05d}")
            if target is not None:
                target.links.append(position)
            checksum = (checksum + cell.weight * position) & 0xFFFFFFFF
        checksum ^= sum(len(cell.links) for cell in table.values())
    return checksum


@dataclass(frozen=True)
class Timing:
    """One timed section: raw wall seconds and its two kernel samples."""

    wall_s: float
    calib_s: Tuple[float, float]

    @property
    def cal_s(self) -> float:
        """The section in calibrated seconds."""
        return self.wall_s * spec.CALIB_REF_S / statistics.fmean(self.calib_s)

    def to_json(self) -> Dict[str, object]:
        return {"wall_s": self.wall_s, "calib_s": list(self.calib_s), "cal_s": self.cal_s}


class Stopwatch:
    """Times sections between two runs of the calibration kernel."""

    def __init__(
        self,
        clock: Callable[[], float] = time.perf_counter,
        kernel: Callable[[], object] = calibration_kernel,
    ) -> None:
        self.clock = clock
        self._kernel = kernel

    def kernel_s(self) -> float:
        """One kernel sample, with the collector off.

        The kernel allocates; a generation-2 collection it happened to
        trigger would cost in proportion to the simulated world left on
        the heap and make the sample measure the heap, not the box.
        """
        gc.disable()
        try:
            started = self.clock()
            self._kernel()
            return self.clock() - started
        finally:
            gc.enable()

    @contextmanager
    def bracket(self) -> Iterator["Bracket"]:
        """Sections timed inside share one kernel sample before and one after."""
        group = Bracket(self.clock)
        before = self.kernel_s()
        yield group
        after = self.kernel_s()
        group.timings.update(
            (name, Timing(wall_s=wall, calib_s=(before, after)))
            for name, wall in group.walls.items()
        )


class Bracket:
    """``bracket(name, body)`` times one section; ``timings`` fill on exit."""

    def __init__(self, clock: Callable[[], float]) -> None:
        self._clock = clock
        self.walls: Dict[str, float] = {}
        self.timings: Dict[str, Timing] = {}

    def __call__(self, name: str, body: Callable[[], object]) -> object:
        """Run ``body`` once; GC is collected first and left enabled."""
        gc.collect()
        started = self._clock()
        result = body()
        self.walls[name] = self._clock() - started
        return result


@dataclass
class Rep:
    """Everything one rep of one workload measured and checked."""

    #: Timed sections by name ("setup", "body", ...), raw and calibrated.
    timings: Dict[str, Timing]
    #: Host-time end-to-end metrics of this rep, in calibrated units.
    host: Dict[str, float]
    #: Seed-exact end-to-end metrics (simulated time, ratios).
    exact: Dict[str, float]
    #: Placement digests, written out so two commits can be compared.
    digests: Dict[str, str]
    attempted: int
    failed: int
    #: Verification verdicts by check name.
    checks: Dict[str, bool]
    #: Inputs of layer metrics that only the untraced reps can supply.
    extra: Dict[str, object] = field(default_factory=dict)


def summarize(values: Sequence[float], unit: str) -> Dict[str, object]:
    """Median, quartiles (``statistics.quantiles(n=4)``) and count of per-rep values."""
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {
        "value": median,
        "unit": unit,
        "q1": q1,
        "q3": q3,
        "n": len(values),
        "samples": list(values),
    }


def run_reps(
    rep: Callable[[], Rep],
    *,
    min_reps: int,
    seconds: float,
    clock: Callable[[], float] = time.perf_counter,
) -> List[Rep]:
    """Timed reps while another one fits in ``seconds``, never under ``min_reps``."""
    reps: List[Rep] = []
    started = clock()
    while True:
        reps.append(rep())
        elapsed = clock() - started
        if len(reps) >= min_reps and elapsed + elapsed / len(reps) > seconds:
            return reps
