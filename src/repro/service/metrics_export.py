"""Prometheus text-format exposition of the live session metrics.

The daemon serves ``GET /metrics`` from the same TCP port as the op
protocol; this module turns a stats mapping (produced by
:meth:`repro.service.daemon.ServiceDaemon.stats`) into the Prometheus
`text exposition format v0.0.4 <https://prometheus.io/docs/instrumenting/exposition_formats/>`_:
one ``# HELP`` and ``# TYPE`` block per metric family, counters suffixed
``_total``, quantiles as labelled gauge samples.

Kept free of socket and daemon imports so the renderer is trivially
unit-testable: ``session_stats(metrics)`` flattens a ``SessionMetrics``
into stats keys, ``service_metrics(stats)`` maps the stats dict to typed
:class:`Metric` families, ``render_metrics`` serialises them.  Which
session counters and series exist, and their help texts, is read off the
declaration on :class:`~repro.metrics.collectors.SessionMetrics`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.metrics.collectors import COUNTERS, SERIES, SessionMetrics
from repro.metrics.stats import percentile
from repro.util.rusage import peak_rss_kib

#: Quantiles exported for every latency distribution.
_QUANTILES = (0.5, 0.95, 0.99)


@dataclass(frozen=True)
class Metric:
    """One metric family: name, kind, help text and labelled samples."""

    name: str
    kind: str  # "counter" | "gauge"
    help: str
    samples: Tuple[Tuple[Mapping[str, str], float], ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if self.kind not in ("counter", "gauge"):
            raise ValueError(f"kind must be 'counter' or 'gauge', got {self.kind!r}")
        if self.kind == "counter" and not self.name.endswith("_total"):
            raise ValueError(f"counter {self.name!r} must end in '_total'")


def _escape_label_value(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_value(value: float) -> str:
    if value != value:  # NaN
        return "NaN"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def render_metrics(metrics: Sequence[Metric]) -> str:
    """Serialise metric families into the Prometheus text format."""
    lines: List[str] = []
    for metric in metrics:
        lines.append(f"# HELP {metric.name} {metric.help}")
        lines.append(f"# TYPE {metric.name} {metric.kind}")
        for labels, value in metric.samples:
            if labels:
                rendered = ",".join(
                    f'{key}="{_escape_label_value(str(val))}"'
                    for key, val in sorted(labels.items())
                )
                lines.append(f"{metric.name}{{{rendered}}} {_format_value(value)}")
            else:
                lines.append(f"{metric.name} {_format_value(value)}")
    return "\n".join(lines) + "\n"


def _single(value: float) -> Tuple[Tuple[Mapping[str, str], float], ...]:
    return (({}, float(value)),)


def _quantile_samples(
    percentiles: Mapping[float, float]
) -> Tuple[Tuple[Mapping[str, str], float], ...]:
    return tuple(
        ({"quantile": f"{q:g}"}, float(value)) for q, value in sorted(percentiles.items())
    )


def quantiles_of(samples: Sequence[float]) -> Dict[float, float]:
    """The exported quantiles of one sample series (empty -> empty)."""
    if not samples:
        return {}
    return {q: percentile(samples, q * 100.0) for q in _QUANTILES}


def session_stats(metrics: SessionMetrics) -> Dict[str, object]:
    """The session part of the daemon's stats mapping.

    ``metrics.summary()`` plus, read off the declaration, every counter
    under its field name (also the ones the summary withholds) and, per
    sample series, ``<key>_count`` and -- once it has samples --
    ``<key>_quantiles``.
    """
    stats: Dict[str, object] = dict(metrics.summary())
    for name in COUNTERS:
        stats[name] = getattr(metrics, name)
    for key, series in SERIES.items():
        samples = getattr(metrics, series.name)
        quantiles = quantiles_of(samples)
        if quantiles:
            stats[f"{key}_quantiles"] = quantiles
        stats[f"{key}_count"] = samples.count
    return stats


#: The families that are not a declared counter or series of
#: ``SessionMetrics``: daemon state and derived session ratios, as
#: ``(family, kind, help, stats key)``.
_DAEMON_FAMILIES: Tuple[Tuple[str, str, str, str], ...] = (
    ("repro_uptime_seconds", "gauge", "Wall-clock seconds since the daemon started",
     "uptime_seconds"),
    ("repro_sim_time_seconds", "gauge", "Current simulation-clock time", "sim_time"),
    ("repro_time_dilation", "gauge", "Simulated seconds per wall-clock second",
     "time_dilation"),
    ("repro_event_loop_lag_seconds", "gauge",
     "Wall-clock duration of the last simulator advance (pacing lag)",
     "event_loop_lag_seconds"),
    ("repro_connected_viewers", "gauge", "Viewers currently holding a session",
     "connected_viewers"),
    ("repro_viewer_pool_size", "gauge", "Provisioned viewer population of the world",
     "pool_size"),
    ("repro_acceptance_ratio", "gauge", "Cumulative accepted/requested stream ratio",
     "acceptance_ratio"),
    ("repro_request_acceptance_ratio", "gauge", "Fraction of viewer requests accepted",
     "request_acceptance_ratio"),
    ("repro_requests_total", "counter", "Join and view-change requests processed",
     "requests_total"),
    ("repro_control_messages_in_flight", "gauge",
     "Control messages sent but not yet delivered", "control_messages_in_flight"),
    ("repro_pending_events", "gauge", "Events queued on the simulator", "pending_events"),
    ("repro_snapshots_total", "counter", "Snapshots written to disk", "snapshots_taken"),
    ("repro_rss_bytes", "gauge", "Resident set size of the daemon process", "rss_bytes"),
)


def service_metrics(stats: Mapping[str, object]) -> List[Metric]:
    """Map one daemon stats mapping to Prometheus metric families.

    ``stats`` is the flat dict :meth:`ServiceDaemon.stats` builds; keys
    that are absent simply omit their family, so the exporter works with
    partial stats (e.g. in unit tests).  The session families come from
    the ``SessionMetrics`` declaration: one counter family per declared
    counter (or one labelled sample of the family it names), and per
    series a ``{quantile}`` gauge plus a ``_mean`` gauge where the
    summary reports a mean.
    """
    metrics: List[Metric] = [
        Metric(name, kind, help_text, _single(float(stats[key])))  # type: ignore[arg-type]
        for name, kind, help_text, key in _DAEMON_FAMILIES
        if key in stats
    ]
    if "ops_total" in stats:
        ops = stats["ops_total"]
        metrics.append(
            Metric(
                "repro_ops_total",
                "counter",
                "Protocol ops processed, by op kind",
                tuple(
                    ({"op": op}, float(count))
                    for op, count in sorted(ops.items())  # type: ignore[union-attr]
                ),
            )
        )
    families: Dict[str, Metric] = {}
    for name, counter in COUNTERS.items():
        if name not in stats:
            continue
        # A labelled counter is one sample of the family its stem names.
        label = counter.metadata["label"]
        stem, value = name.rsplit("_", 1) if label else (name, "")
        family = f"repro_{stem}_total"
        sample = ({label: value} if label else {}, float(stats[name]))  # type: ignore[arg-type]
        earlier = families[family].samples if family in families else ()
        families[family] = Metric(
            family, "counter", counter.metadata["help"], earlier + (sample,)
        )
    metrics.extend(families.values())
    for key, series in SERIES.items():
        help_text = series.metadata["help"]
        quantile_map = stats.get(f"{key}_quantiles")
        if quantile_map:
            # Delays and skews are simulated seconds; continuities are ratios.
            unit = "_seconds" if key.endswith(("delay", "skew")) else ""
            metrics.append(
                Metric(
                    f"repro_{key}{unit}",
                    "gauge",
                    help_text,
                    _quantile_samples(quantile_map),  # type: ignore[arg-type]
                )
            )
        if f"{key}_mean" in stats:
            metrics.append(
                Metric(
                    f"repro_{key}_mean",
                    "gauge",
                    f"{help_text} (mean)",
                    _single(float(stats[f"{key}_mean"])),  # type: ignore[arg-type]
                )
            )
    return metrics


def rss_bytes() -> Optional[int]:
    """Current resident set size of this process, if measurable.

    Reads ``/proc/self/status`` (Linux).  Elsewhere it falls back to
    ``resource.getrusage``'s ``ru_maxrss``, which is the *peak* resident
    set, not the current one; ``None`` when neither source exists.
    """
    try:
        with open("/proc/self/status", encoding="ascii", errors="replace") as handle:
            for line in handle:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1]) * 1024
    except OSError:
        pass
    peak_kib = peak_rss_kib()
    return None if peak_kib is None else peak_kib * 1024
