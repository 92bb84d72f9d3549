"""Metric collection and statistics helpers for 4D TeleCast experiments."""

from repro.metrics.collectors import SessionMetrics, SystemSnapshot
from repro.metrics.stats import describe, fraction_at_most, percentile

__all__ = [
    "SessionMetrics",
    "SystemSnapshot",
    "describe",
    "fraction_at_most",
    "percentile",
]
