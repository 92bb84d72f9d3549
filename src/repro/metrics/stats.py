"""Small statistics helpers (fractions, percentiles, summaries).

The evaluation figures of the paper are either line series (acceptance
ratio vs. a swept parameter) or CDFs (layers, accepted streams, join /
view-change delay); these helpers summarise the raw sample lists a CDF
figure holds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence


def fraction_at_most(samples: Sequence[float], threshold: float) -> float:
    """Fraction of samples <= ``threshold`` (0.0 for an empty sample set)."""
    if not samples:
        return 0.0
    return sum(1 for s in samples if s <= threshold) / len(samples)


def percentile(samples: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0-100) using linear interpolation."""
    if not samples:
        raise ValueError("cannot compute a percentile of an empty sample set")
    if not (0.0 <= q <= 100.0):
        raise ValueError("q must be in [0, 100]")
    ordered = sorted(samples)
    if len(ordered) == 1:
        return ordered[0]
    rank = (q / 100.0) * (len(ordered) - 1)
    low = int(math.floor(rank))
    high = int(math.ceil(rank))
    if low == high:
        return ordered[low]
    weight = rank - low
    return ordered[low] * (1.0 - weight) + ordered[high] * weight


@dataclass(frozen=True)
class SampleSummary:
    """Summary statistics of a sample set."""

    count: int
    mean: float
    minimum: float
    maximum: float
    p50: float
    p95: float


def describe(samples: Sequence[float]) -> SampleSummary:
    """Summarise a non-empty sample set."""
    if not samples:
        raise ValueError("cannot describe an empty sample set")
    return SampleSummary(
        count=len(samples),
        mean=sum(samples) / len(samples),
        minimum=min(samples),
        maximum=max(samples),
        p50=percentile(samples, 50.0),
        p95=percentile(samples, 95.0),
    )
