"""Process-parallel execution of sweep points.

One sweep point is one scenario run; points are independent, so a
Figure-15b-style scale curve runs N-wide across worker processes instead
of serially.  Execution is deterministic regardless of parallelism: every
point carries its own derived seeds, workers receive fully resolved
:class:`~repro.experiments.sweep.grid.SweepPoint` objects, and results
come back in point order whatever the completion order was.

A point that raises is captured -- traceback and all -- as a failed
:class:`PointResult` instead of poisoning the pool, so one pathological
parameter combination cannot take down a 100-point sweep.
"""

from __future__ import annotations

import time
import traceback
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.experiments.runner import run_random_scenario, run_telecast_scenario
from repro.experiments.sweep.grid import SweepPoint, SweepSpec, _jsonable
from repro.experiments.sweep.store import ResultsStore, SweepRecord, git_describe, now


@dataclass(frozen=True)
class PointResult:
    """Outcome of executing one sweep point."""

    point_id: str
    sweep_name: str
    index: int
    system: str
    params: Dict[str, object]
    config_hash: str
    wall_clock_s: float
    metrics: Dict[str, float] = field(default_factory=dict)
    viewers_per_lsc: Dict[str, int] = field(default_factory=dict)
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        """Whether the scenario ran to completion."""
        return self.error is None

    def to_record(self, git: str, created_at: float) -> SweepRecord:
        """Convert to the persisted store representation."""
        extra: Dict[str, object] = {}
        if self.viewers_per_lsc:
            extra["viewers_per_lsc"] = dict(self.viewers_per_lsc)
        return SweepRecord(
            sweep=self.sweep_name,
            point_id=self.point_id,
            system=self.system,
            params=_jsonable(self.params),
            config_hash=self.config_hash,
            git=git,
            created_at=created_at,
            wall_clock_s=self.wall_clock_s,
            metrics=dict(self.metrics),
            error=self.error,
            extra=extra,
        )


def execute_point(point: SweepPoint) -> PointResult:
    """Run one sweep point, capturing any failure as data.

    Module-level (not a closure) so :class:`ProcessPoolExecutor` can
    pickle it to worker processes.  A point records no mid-run snapshots:
    its record carries the summary of the finished run only.
    """
    started = time.perf_counter()
    metrics: Dict[str, float] = {}
    viewers_per_lsc: Dict[str, int] = {}
    error = None
    try:
        if point.system == "telecast":
            result = run_telecast_scenario(point.config, snapshot_every=None)
        elif point.system == "random":
            result = run_random_scenario(point.config, snapshot_every=None)
        else:
            raise ValueError(f"unknown system {point.system!r}")
        metrics, viewers_per_lsc = result.summary(), result.viewers_per_lsc
    except Exception:
        error = traceback.format_exc()
    return PointResult(
        point_id=point.point_id,
        sweep_name=point.sweep_name,
        index=point.index,
        system=point.system,
        params=point.params(),
        config_hash=point.config_hash,
        wall_clock_s=time.perf_counter() - started,
        metrics=metrics,
        viewers_per_lsc=viewers_per_lsc,
        error=error,
    )


@dataclass
class SweepResult:
    """All point results of one sweep run, in point order."""

    spec: SweepSpec
    results: List[PointResult] = field(default_factory=list)
    jobs: int = 1
    wall_clock_s: float = 0.0
    #: Paths records were appended to (one per sweep family, usually one).
    stored_in: List[str] = field(default_factory=list)

    def ok(self) -> List[PointResult]:
        """Points that ran to completion."""
        return [result for result in self.results if result.ok]

    def failed(self) -> List[PointResult]:
        """Points that raised (error carries the traceback)."""
        return [result for result in self.results if not result.ok]

    def metrics_by_point(self) -> Dict[str, Dict[str, float]]:
        """point_id -> metrics summary of successful points."""
        return {result.point_id: dict(result.metrics) for result in self.ok()}


def run_sweep(
    spec: SweepSpec,
    *,
    jobs: int = 1,
    store: Optional[ResultsStore] = None,
    progress: Optional[Callable[[PointResult], None]] = None,
) -> SweepResult:
    """Execute every point of a sweep, optionally persisting the records.

    ``jobs <= 1`` runs in-process (no pool, easiest to debug); larger
    values fan points out over a :class:`ProcessPoolExecutor`.  Results
    are identical either way -- parallelism only changes wall-clock time.
    """
    points = spec.expand()
    started = time.perf_counter()
    if jobs <= 1 or len(points) <= 1:
        results = []
        for point in points:
            result = execute_point(point)
            if progress is not None:
                progress(result)
            results.append(result)
    else:
        with ProcessPoolExecutor(max_workers=min(jobs, len(points))) as pool:
            results = []
            for result in pool.map(execute_point, points):
                if progress is not None:
                    progress(result)
                results.append(result)
    sweep_result = SweepResult(
        spec=spec,
        results=results,
        jobs=jobs,
        wall_clock_s=time.perf_counter() - started,
    )
    if store is not None:
        describe = git_describe()
        created = now()
        paths = []
        for result in results:
            paths.append(str(store.append(result.to_record(describe, created))))
        sweep_result.stored_in = sorted(set(paths))
    return sweep_result
