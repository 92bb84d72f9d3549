"""Every figure of the paper's evaluation: regenerate, print, check its shape.

One test per entry of :data:`repro.experiments.figures.FIGURES` (``-k 13c``
selects one): run the registry's driver once under ``benchmark.pedantic``,
print the table the CLI prints, assert the figure's qualitative shape (one
``_check_<id>`` per figure, its docstring quoting the paper observation).
``DRIVER_KWARGS`` is the subset of outbound-bandwidth curves each Figure 13
panel is checked on.
"""

from __future__ import annotations

import pytest

from repro.experiments.figures import FIGURES
from repro.traces.workload import BandwidthDistribution

_fixed = BandwidthDistribution.fixed
_uniform = BandwidthDistribution.uniform

DRIVER_KWARGS = {
    "13a": {
        "bandwidth_settings": (
            *map(_fixed, (0.0, 6.0, 10.0)),
            _uniform(0.0, 12.0),
            _uniform(2.0, 10.0),
            _uniform(4.0, 14.0),
        )
    },
    "13b": {
        "bandwidth_settings": (
            *map(_fixed, (0.0, 4.0, 8.0, 10.0)),
            _uniform(0.0, 12.0),
            _uniform(4.0, 14.0),
        )
    },
    "13c": {
        "bandwidth_settings": (
            *map(_fixed, (0.0, 4.0, 6.0, 8.0)),
            _uniform(0.0, 12.0),
            _uniform(4.0, 14.0),
        )
    },
}


def _check_13a(figure, bench_config):
    """Paper observation: with no viewer contribution every request is served by
    the CDN (12 Mbps per viewer, i.e. 12000 Mbps at 1000 viewers); when viewer
    outbound bandwidth grows the CDN requirement falls, reaching roughly half
    the total demand when outbound capacity is uniform in 0-12 Mbps.
    """
    demand = bench_config.demand_mbps
    no_contribution = figure.series_by_label("C_obw=0")
    # With zero outbound contribution the CDN carries the full demand.
    assert no_contribution.final_value() == demand

    # The CDN requirement decreases monotonically with viewer contribution.
    final_values = {series.label: series.final_value() for series in figure.series}
    assert final_values["C_obw=6"] < final_values["C_obw=0"]
    assert final_values["C_obw=10"] < final_values["C_obw=6"]
    # The paper's headline: a 0-12 Mbps population needs roughly half the
    # full demand from the CDN (about 6000 Mbps at 1000 viewers).
    assert 0.4 * demand <= final_values["C_obw=0-12"] <= 0.7 * demand

    # Every curve grows (weakly) with the number of viewers.
    for series in figure.series:
        assert all(b >= a for a, b in zip(series.values, series.values[1:]))


def _check_13b(figure, bench_config):
    """Paper observation: with the CDN capped at 6000 Mbps, the fraction of
    requests served by the CDN falls as viewers contribute more outbound
    bandwidth; when every viewer contributes at least 8 Mbps (or 4-14 Mbps
    uniformly), 55% or more of the requests are served by the P2P layer.
    """
    final = {series.label: series.final_value() for series in figure.series}
    # With no contribution, everything that is served comes from the CDN.
    assert final["C_obw=0"] == 1.0
    # More viewer contribution means a smaller CDN share.
    assert final["C_obw=4"] > final["C_obw=8"] > final["C_obw=10"]
    # The paper's crossover: at >= 8 Mbps per viewer the P2P layer serves
    # the majority (55% or more) of the requests.
    assert final["C_obw=8"] <= 0.45
    assert final["C_obw=4-14"] <= 0.45


def _check_13c(figure, bench_config):
    """Paper observation: with the CDN bounded to 6000 Mbps, the acceptance ratio
    is low when viewers contribute nothing (the CDN alone cannot carry the
    demand), grows with viewer contribution, and becomes perfect when every
    viewer contributes at least 8 Mbps or when contributions are uniform in
    4-14 Mbps.
    """
    final = {series.label: series.final_value() for series in figure.series}
    # No contribution: the capped CDN can only carry about half the demand.
    assert final["C_obw=0"] < 0.7
    # Acceptance improves monotonically with contribution.
    assert final["C_obw=0"] < final["C_obw=4"] < final["C_obw=8"]
    # The paper's headline: perfect acceptance at >= 8 Mbps and for 4-14 Mbps.
    assert final["C_obw=8"] >= 0.99
    assert final["C_obw=4-14"] >= 0.99


def _check_14a(figure, bench_config):
    """Paper observation: with outbound capacity uniform in 0-12 Mbps, about 30%
    of viewers receive all their accepted streams in Layer-0 (directly from
    the CDN) and about 80% are in Layer-4 or less; the tail extends to roughly
    Layer-18.
    """
    samples = figure.samples["max_layer"]
    assert samples, "no connected viewers in the layer experiment"
    # A substantial fraction of viewers watches everything fresh (Layer-0).
    assert figure.fraction_at_most("max_layer", 0.0) >= 0.1
    # Most viewers stay within a handful of layers (paper: ~80% <= Layer-4).
    assert figure.fraction_at_most("max_layer", 4.0) >= 0.6
    # The layer bound implied by d_max is never exceeded.
    assert max(samples) <= bench_config.layer_config().max_layer_index


def _check_14b(figure, bench_config):
    """Paper observation: with a 6000 Mbps CDN and 0-12 Mbps outbound capacity,
    most viewers (above 70%) receive all 6 streams of their view; about 15% of
    viewers receive none because of the bandwidth limitation; every connected
    viewer receives at least one stream per producer site.
    """
    samples = figure.samples["accepted_streams"]
    assert samples
    full_view = bench_config.streams_per_view
    fraction_full = sum(1 for value in samples if value >= full_view) / len(samples)
    fraction_none = sum(1 for value in samples if value == 0) / len(samples)
    # Most viewers receive the complete view (paper: above 70%).
    assert fraction_full >= 0.6
    # A minority is rejected outright by the bandwidth limitation (paper: ~15%).
    assert fraction_none <= 0.35
    # Connected viewers never receive fewer streams than producer sites.
    connected = [value for value in samples if value > 0]
    assert all(value >= bench_config.num_sites for value in connected)


def _check_14c(figure, bench_config):
    """Paper observation: the viewer join (registration, bandwidth allocation,
    topology formation, stream subscription) completes within about 1.5
    seconds; a view change is served within about 500 ms because the new
    streams are delivered from the CDN while the background join completes.
    """
    joins = figure.samples["join_delay"]
    changes = figure.samples["view_change_delay"]
    assert joins and changes
    # Join completes within the paper's ~1.5 s envelope.
    assert max(joins) <= 2.0
    assert figure.fraction_at_most("join_delay", 1.5) >= 0.95
    # View changes are served quickly from the CDN (paper: within 500 ms).
    assert figure.fraction_at_most("view_change_delay", 0.5) >= 0.9
    # View changes are faster than full joins.
    assert (sum(changes) / len(changes)) < (sum(joins) / len(joins))


def _check_15a(figure, bench_config):
    """Paper observation: sweeping the per-viewer outbound bandwidth from 0 to
    10 Mbps at 1000 viewers, 4D TeleCast's priority-based allocation and
    degree push-down increase the acceptance ratio by about 20% over the
    Random scheme in the contended region; the two coincide when viewers
    contribute nothing (everything comes from the CDN in both).
    """
    telecast = figure.series_by_label("TeleCast")
    random_series = figure.series_by_label("Random")
    # With zero outbound bandwidth both systems are CDN-only and identical.
    assert abs(telecast.values[0] - random_series.values[0]) < 0.02
    # TeleCast never loses to Random (allowing for simulation noise).
    for telecast_value, random_value in zip(telecast.values, random_series.values):
        assert telecast_value >= random_value - 0.02
    # In the contended region TeleCast wins by a clear margin (paper: ~20%).
    best_gap = max(
        telecast_value - random_value
        for telecast_value, random_value in zip(telecast.values, random_series.values)
    )
    assert best_gap >= 0.08
    # TeleCast's acceptance grows monotonically with viewer contribution.
    assert all(b >= a - 1e-9 for a, b in zip(telecast.values, telecast.values[1:]))


def _check_15b(figure, bench_config):
    """Paper observation: with viewers contributing 2-14 Mbps of outbound
    bandwidth, 4D TeleCast sustains a 98-99% acceptance ratio as the audience
    grows to 1000 viewers, while the Random scheme degrades into the 80-88%
    range.
    """
    telecast = figure.series_by_label("TeleCast")
    random_series = figure.series_by_label("Random")
    # TeleCast sustains near-perfect acceptance at the largest population.
    assert telecast.final_value() >= 0.97
    # Random degrades below TeleCast as the population grows.
    assert random_series.final_value() <= telecast.final_value() - 0.05
    # Random's acceptance does not improve with scale (weakly decreasing trend).
    assert random_series.final_value() <= random_series.values[0] + 1e-9
    # TeleCast never loses to Random at any population size.
    for telecast_value, random_value in zip(telecast.values, random_series.values):
        assert telecast_value >= random_value - 0.02


@pytest.mark.parametrize("figure_id", sorted(FIGURES))
def test_figure(figure_id, benchmark, bench_config, bench_step):
    spec = FIGURES[figure_id]
    figure = benchmark.pedantic(
        spec.run,
        args=(bench_config, bench_step),
        kwargs=DRIVER_KWARGS.get(figure_id, {}),
        rounds=1,
        iterations=1,
    )
    print()
    print(spec.format(figure))
    globals()[f"_check_{figure_id}"](figure, bench_config)
