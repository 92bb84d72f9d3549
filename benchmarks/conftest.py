"""Shared fixtures for the figure-reproduction benchmark harness.

``bench_figures.py`` regenerates every figure of the paper's evaluation,
prints the series it plots and asserts its qualitative shape.
The default population is the paper's maximum of 1000 viewers; set
``REPRO_BENCH_VIEWERS`` to a smaller value for a quicker (but less
faithful) run -- the shape assertions are calibrated for the full scale
and may not hold for very small populations.
"""

from __future__ import annotations

import os

import pytest

from repro.experiments.config import PAPER_CONFIG, ExperimentConfig


def _bench_viewers() -> int:
    value = os.environ.get("REPRO_BENCH_VIEWERS", "1000")
    try:
        viewers = int(value)
    except ValueError as exc:  # pragma: no cover - defensive
        raise ValueError(f"REPRO_BENCH_VIEWERS must be an integer, got {value!r}") from exc
    if viewers <= 0:
        raise ValueError("REPRO_BENCH_VIEWERS must be > 0")
    return viewers


@pytest.fixture(scope="session")
def bench_config() -> ExperimentConfig:
    """The paper's configuration scaled to the benchmark population size.

    The CDN capacity is scaled proportionally to the population so that
    the capped experiments keep the paper's supply/demand balance
    (6000 Mbps for 1000 viewers).
    """
    return PAPER_CONFIG.with_scaled_population(_bench_viewers())


@pytest.fixture(scope="session")
def bench_step(bench_config: ExperimentConfig) -> int:
    """Snapshot interval (in joins) used by the scaling figures."""
    return max(50, bench_config.num_viewers // 10)
