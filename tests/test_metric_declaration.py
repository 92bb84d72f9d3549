"""Every metric is declared once, on ``SessionMetrics``, and cannot be forgotten.

``tests/golden/service_stats.json`` was captured at the parent of the
one-report change, when ``merge_from``, ``summary()``, the daemon's
``stats()`` and ``service_metrics()`` were four hand-kept lists: the
``deterministic_stats()`` mapping and the ``# TYPE`` lines of
``metrics_text()`` after one scripted dilation-0 session (join / fail /
leave / view_change / lsc_fail / advance / replay).  Driven by the
declaration they must return a superset with equal values and kinds.
The other tests enumerate the dataclass by reflection, so a field added
without a declaration fails here rather than vanishing from the shard
merge, the summary, the daemon or the exporter.

Regenerate the golden (only for an intentional change) with
``PYTHONPATH=src python tests/test_metric_declaration.py``.
"""

from __future__ import annotations

import dataclasses
import json
import math
import re
from pathlib import Path

from reference_oracles import deterministic_stats
from repro.metrics import collectors as declared
from repro.metrics.collectors import SessionMetrics, SystemSnapshot
from repro.service.daemon import ServeConfig, ServiceDaemon
from repro.service.metrics_export import service_metrics

GOLDEN_PATH = Path(__file__).parent / "golden" / "service_stats.json"
ARCHITECTURE = Path(__file__).parent.parent / "docs" / "ARCHITECTURE.md"

SCRIPT = (
    [f"join viewer-{index:05d} {index % 4}" for index in range(40)]
    + ["advance 10"]
    + [f"fail viewer-{index:05d}" for index in (2, 9, 17, 23, 31)]
    + [f"leave viewer-{index:05d}" for index in (1, 8, 15, 22)]
    + ["view_change viewer-00005 2", "advance 30", "lsc_fail LSC-0", "advance 30"]
    + ["replay 20", "advance 5"]
)

#: The two means ``stats()`` used to compute with ``fmean`` and
#: ``summary()`` with ``sum/len``; the summary's value is the one kept.
ONE_ULP_KEYS = ("qoe_continuity_mean", "qoe_playable_continuity_mean")

COUNTERS = [f.name for f in dataclasses.fields(SessionMetrics) if f.type == "int"]
SERIES = [
    f.name for f in dataclasses.fields(SessionMetrics) if f.type == "ReservoirSample"
]
#: The stem every series is reported under, spelled out: the declaration
#: derives it from the field name.
SERIES_KEYS = {
    "join_delays": "join_delay",
    "view_change_delays": "view_change_delay",
    "observed_join_delays": "observed_join_delay",
    "observed_view_change_delays": "observed_view_change_delay",
    "observed_repair_delays": "observed_repair_delay",
    "qoe_startup_delays": "qoe_startup_delay",
    "qoe_continuities": "qoe_continuity",
    "qoe_playable_continuities": "qoe_playable_continuity",
    "qoe_skews": "qoe_skew",
    "qoe_playout_skews": "qoe_playout_skew",
}


def golden_session() -> ServiceDaemon:
    """The scripted session the golden was captured from."""
    daemon = ServiceDaemon(
        ServeConfig(viewers=44, num_lscs=3, time_dilation=0.0, seed=5)
    )
    for line in SCRIPT:
        assert daemon.handle_line(line).startswith("ok"), line
    return daemon


def stats_of(daemon: ServiceDaemon) -> dict:
    """``deterministic_stats()`` as a client reads it off the wire."""
    return json.loads(json.dumps(deterministic_stats(daemon)))


def type_lines(daemon: ServiceDaemon) -> list:
    return sorted(
        line for line in daemon.metrics_text().splitlines() if line.startswith("# TYPE")
    )


def test_stats_and_metric_kinds_are_a_superset_of_the_golden():
    golden = json.loads(GOLDEN_PATH.read_text())
    daemon = golden_session()
    stats = stats_of(daemon)
    for key, expected in golden["stats"].items():
        if key in ONE_ULP_KEYS:
            assert abs(stats[key] - expected) <= math.ulp(expected), key
        else:
            assert stats[key] == expected, key
    assert set(golden["types"]) <= set(type_lines(daemon))


def test_the_golden_session_exercises_every_record_method():
    metrics = golden_session().state.system.metrics
    assert metrics.abrupt_departures and metrics.lsc_failovers
    assert metrics.view_change_delays and metrics.observed_repair_delays
    assert metrics.data_frames_sent and metrics.failover_migrated_viewers


def _distinct_metrics(offset: int) -> SessionMetrics:
    """A ``SessionMetrics`` whose every field holds a distinct non-default value."""
    metrics = SessionMetrics()
    for index, name in enumerate(COUNTERS, start=1):
        setattr(metrics, name, offset + index)
    for index, name in enumerate(SERIES, start=1):
        getattr(metrics, name).extend([offset + index, offset + index + 0.5])
    metrics.qoe_dbuff = offset + 0.25
    metrics.snapshots.append(
        SystemSnapshot(offset, offset, offset, 0, float(offset), 1.0)
    )
    metrics.phase_timings.update({"join": float(offset), f"only-{offset}": 1.0})
    return metrics


def test_every_field_is_a_counter_a_series_or_one_of_three_known_others():
    names = {f.name for f in dataclasses.fields(SessionMetrics)}
    assert names == set(COUNTERS) | set(SERIES) | {
        "qoe_dbuff", "snapshots", "phase_timings",
    }
    assert len(COUNTERS) == 25 and len(SERIES) == 10


def test_merge_from_folds_every_field():
    left, right = _distinct_metrics(100), _distinct_metrics(1000)
    expected_series = {
        name: list(getattr(left, name)) + list(getattr(right, name)) for name in SERIES
    }
    left.merge_from(right)
    for index, name in enumerate(COUNTERS, start=1):
        assert getattr(left, name) == 1100 + 2 * index, name
    for name in SERIES:
        assert list(getattr(left, name)) == expected_series[name], name
    assert [snapshot.num_viewers for snapshot in left.snapshots] == [100, 1000]
    assert left.phase_timings == {"join": 1100.0, "only-100": 1.0, "only-1000": 1.0}
    assert left.qoe_dbuff == 1000.25
    # A shard that ran no replay has no d_buff to offer; the merge keeps ours.
    left.merge_from(SessionMetrics())
    assert left.qoe_dbuff == 1000.25


def test_every_counter_and_series_reaches_stats_and_the_exporter():
    daemon = golden_session()
    metrics = daemon.state.system.metrics
    stats = daemon.stats()
    samples = {
        (family.name, tuple(labels.items())): value
        for family in service_metrics(stats)
        for labels, value in family.samples
    }
    for name in COUNTERS:
        value = getattr(metrics, name)
        assert stats[name] == value, name
        stem, _, last = name.rpartition("_")
        assert (
            samples.get((f"repro_{name}_total", ())) == value
            # The two repair paths share one family, told apart by a label.
            or samples.get((f"repro_{stem}_total", (("path", last),))) == value
        ), name
    assert set(declared.SERIES) == {SERIES_KEYS[name] for name in SERIES}
    for name in SERIES:
        key, series = SERIES_KEYS[name], getattr(metrics, name)
        assert stats[f"{key}_count"] == series.count and series.count > 0, key
        unit = "" if "continuity" in key else "_seconds"
        for quantile, value in stats[f"{key}_quantiles"].items():
            sample = (f"repro_{key}{unit}", (("quantile", f"{quantile:g}"),))
            assert samples[sample] == value, sample
    for key, value in metrics.summary().items():
        assert stats[key] == value, key


def test_the_architecture_metric_table_lists_exactly_the_exported_families():
    section = ARCHITECTURE.read_text().split("### Metric names", 1)[1]
    table = section.split("\n\n", 2)[1]
    documented = {}
    for row in table.splitlines()[2:]:
        names, kind, _meaning = [cell.strip() for cell in row.strip("|").split(" | ")]
        for name in re.findall(r"`(repro_\w+)", names):
            documented[name] = kind
    daemon = golden_session()
    exported = {
        family.name: family.kind for family in service_metrics(daemon.stats())
    }
    assert documented == exported


if __name__ == "__main__":
    session = golden_session()
    GOLDEN_PATH.write_text(
        json.dumps(
            {"stats": stats_of(session), "types": type_lines(session)},
            indent=2,
            sort_keys=True,
        )
        + "\n"
    )
    print(f"wrote {GOLDEN_PATH}")
