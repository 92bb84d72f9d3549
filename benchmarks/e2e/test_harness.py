"""Self-test of the benchmark harness (not part of the tier-1 ``testpaths``).

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e -q``.
"""

from __future__ import annotations

import inspect
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import compare  # noqa: E402
import harness  # noqa: E402
import run  # noqa: E402
import spec  # noqa: E402
from layers import SPAN_POINTS  # noqa: E402
from tracer import SpanPoint, Tracer  # noqa: E402


class FakeClock:
    """A clock that only moves when the code under test 'works'."""

    def __init__(self, scale: float = 1.0) -> None:
        self.now = 0.0
        self.scale = scale

    def __call__(self) -> float:
        return self.now

    def work(self, amount: float) -> None:
        self.now += amount * self.scale


def _bindings():
    """Every attribute the tracer may rebind, with the object bound now."""
    seen = {}
    for point in SPAN_POINTS:
        seen[(id(point.owner), point.attr)] = (
            point.owner, point.attr, inspect.getattr_static(point.owner, point.attr))
    for name, module in list(sys.modules.items()):
        if name.startswith("repro"):
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value):
                    seen[(id(module), attr)] = (module, attr, value)
    return list(seen.values())


def test_tracer_restores_every_rebound_attribute_when_the_body_raises():
    from repro.core import bandwidth, controllers

    before = _bindings()
    with pytest.raises(RuntimeError, match="boom"):
        with Tracer(SPAN_POINTS) as tracer:
            # A by-name import is rebound in the importing module too.
            assert controllers.allocate_inbound is bandwidth.allocate_inbound
            assert controllers.allocate_inbound.__wrapped__ is not None
            with tracer.root("body"):
                raise RuntimeError("boom")
    for owner, attr, original in before:
        assert inspect.getattr_static(owner, attr) is original, f"{owner}.{attr} left rebound"


class _Synthetic:
    def __init__(self, clock: FakeClock) -> None:
        self.clock = clock

    def outer(self) -> str:
        self.clock.work(5)
        self.inner()
        self.clock.work(2)
        self.inner()
        return "done"

    def inner(self) -> None:
        self.clock.work(10)


def test_self_time_is_duration_minus_children():
    clock = FakeClock()
    points = [
        SpanPoint("synthetic", _Synthetic, "outer", op=True,
                  outcome=lambda result, _args: result),
        SpanPoint("synthetic", _Synthetic, "inner", keep=True),
    ]
    tracer = Tracer(points, sample_every=1, clock=clock)
    subject = _Synthetic(clock)
    with tracer:
        subject.outer()  # outside every root: not measured
        with tracer.root("body"):
            clock.work(3)
            subject.outer()
    assert _Synthetic.outer.__name__ == "outer" and not hasattr(_Synthetic.outer, "__wrapped__")
    stats = tracer.stats()
    assert (stats["_Synthetic.outer"].calls, stats["_Synthetic.inner"].calls) == (1, 2)
    assert stats["_Synthetic.outer"].total_ns == 27
    assert stats["_Synthetic.outer"].self_ns == 7
    assert stats["_Synthetic.inner"].self_ns == stats["_Synthetic.inner"].total_ns == 20
    assert stats["root:body"].total_ns == 30 and stats["root:body"].self_ns == 3
    assert tracer.outcomes["_Synthetic.outer"] == {"done": 1}
    assert tracer.durations["_Synthetic.inner"] == [10, 10]
    # One sampled op: the outer span parents both inner spans.
    outer_id = next(s[0] for s in tracer.spans if s[1] == 0)
    assert [s[4] for s in tracer.spans if s[1] == 1] == [outer_id, outer_id]
    assert {s[5] for s in tracer.spans} == {0}


@pytest.mark.parametrize("scale", [0.5, 1.0, 7.0])
def test_calibrated_time_is_invariant_when_the_clock_is_scaled(scale):
    clock = FakeClock(scale)
    watch = harness.Stopwatch(clock=clock, kernel=lambda: clock.work(0.2))
    with watch.bracket() as bracket:
        bracket("body", lambda: clock.work(3.0))
    timing = bracket.timings["body"]
    assert timing.wall_s == pytest.approx(3.0 * scale)
    assert timing.cal_s == pytest.approx(3.0 / 0.2 * spec.CALIB_REF_S)


def test_run_reps_never_goes_under_min_reps_and_stops_when_no_rep_fits():
    clock = FakeClock()

    def rep():
        clock.work(4.0)
        return object()

    assert len(harness.run_reps(rep, min_reps=5, seconds=1.0, clock=clock)) == 5
    assert len(harness.run_reps(rep, min_reps=1, seconds=20.0, clock=clock)) == 5


def test_compare_verdicts():
    def entry(samples):
        return harness.summarize(samples, "1/s")

    base = entry([100, 101, 99, 100, 100])
    assert compare.host_verdict(base, entry([99, 100, 98, 99, 100]), "higher", 0.10) == "within-bound"
    assert compare.host_verdict(base, entry([80, 81, 79, 80, 80]), "higher", 0.10) == "worse"
    assert compare.host_verdict(base, entry([120, 121, 119, 120, 120]), "higher", 0.10) == "better"
    noisy = entry([100, 130, 80, 100, 70])
    assert compare.host_verdict(noisy, entry([95, 120, 85, 99, 75]), "higher", 0.10) == "unresolved"
    assert compare.host_verdict(base, entry([120, 121, 119, 120, 120]), "lower", 0.10) == "worse"


def test_benchmark_json_is_the_spec():
    path = os.path.join(run.REPO_ROOT, "BENCHMARK.json")
    with open(path, encoding="utf-8") as handle:
        assert json.load(handle) == spec.benchmark_json()
    names = [m["name"] for m in spec.CONTRACT_END_TO_END + spec.contract_layer_metrics()]
    assert len(names) == len(set(names))
    assert all(len(w["why"]) <= 200 for w in spec.benchmark_json()["workloads"])


@pytest.mark.parametrize("workload", list(spec.WORKLOADS))
def test_exact_metrics_and_digests_identical_with_trace_on_and_off(workload, tmp_path):
    record = run.run_workload(
        workload,
        seed=spec.HELD_OUT_SEED,
        scale=0.1,
        min_reps=2,
        seconds=0.0,
        passes=("end_to_end", "per_layer"),
        out_dir=str(tmp_path),
    )
    assert record["checks"]["trace_matches_untraced"]
    assert record["checks"]["digests_repeat"] and record["checks"]["exact_metrics_repeat"]
    assert record["correct"] and record["ops_failed"] == 0
    assert set(record["per_layer"]) == set(spec.PER_LAYER)
    assert record["per_layer"]["trace.unattributed_ratio"]["value"] <= 0.15
    for payload in (run.contract_line(record, trace=False), run.contract_line(record, trace=True)):
        assert set(json.loads(payload)) == {"correct", "attempted", "failed", "metrics"}
    with open(os.path.join(str(tmp_path), f"trace-{workload}.jsonl"), encoding="utf-8") as handle:
        spans = [json.loads(line) for line in handle]
    assert spans and all(span["end_ns"] >= span["start_ns"] for span in spans)
