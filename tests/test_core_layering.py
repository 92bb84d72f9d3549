"""Tests for the delay layer hierarchy (Section V-B1)."""

import math

import pytest

from reference_oracles import compute_layer
from repro.core.layering import DelayLayerConfig, subscription_frame_number


def shareable_layer_range(
    config, parent_end_to_end_delay, propagation_delay, processing_delay
):
    """Layer Property 1: the layer interval a parent can serve a child at.

    A viewer with end-to-end delay ``d`` for a stream can share layers
    ``floor((d - Delta + d_prop + delta)/tau)`` through
    ``floor((d - Delta + d_prop + d_cache + d_buff + delta)/tau)`` to a
    child at propagation distance ``d_prop``.
    """
    low = compute_layer(
        config, parent_end_to_end_delay, propagation_delay, processing_delay
    )
    high_delay = (
        parent_end_to_end_delay
        - config.delta
        + propagation_delay
        + config.cache_duration
        + config.buffer_duration
        + processing_delay
    )
    high = max(0, int(math.floor(high_delay / config.tau)))
    return (low, high)


def layers_are_synchronous(config, layers):
    """Layer Property 2: streams render synchronously iff their layer spread <= kappa."""
    if not layers:
        return True
    return max(layers) - min(layers) <= config.kappa


class TestDelayLayerConfig:
    def test_paper_defaults(self):
        config = DelayLayerConfig()
        assert config.tau == pytest.approx(0.15)
        assert config.max_layer_index == 33
        # The default cache size follows d_cache = d_max - Delta - d_buff.
        assert config.cache_duration == pytest.approx(4.7)

    def test_layer_delay_bounds(self):
        config = DelayLayerConfig()
        low = config.delay_for_layer(2)
        high = config.delay_for_layer(2, offset=config.tau)
        assert low == pytest.approx(60.3)
        assert high == pytest.approx(60.45)

    def test_layer_for_delay(self):
        config = DelayLayerConfig()
        assert config.layer_for_delay(60.0) == 0
        assert config.layer_for_delay(60.10) == 0
        assert config.layer_for_delay(60.16) == 1
        assert config.layer_for_delay(61.0) == 6
        assert config.layer_for_delay(30.0) == 0  # before Delta clamps to 0

    def test_delay_for_layer_and_offset(self):
        config = DelayLayerConfig()
        assert config.delay_for_layer(0) == pytest.approx(60.0)
        assert config.delay_for_layer(3) == pytest.approx(60.45)
        assert config.delay_for_layer(3, offset=config.tau) == pytest.approx(60.6)
        with pytest.raises(ValueError):
            config.delay_for_layer(1, offset=1.0)

    def test_acceptable_layer_bound(self):
        config = DelayLayerConfig()
        assert config.is_acceptable_layer(0)
        assert config.is_acceptable_layer(33)
        assert not config.is_acceptable_layer(34)
        assert not config.is_acceptable_layer(-1)

    def test_kappa_must_be_at_least_two(self):
        with pytest.raises(ValueError):
            DelayLayerConfig(kappa=1)

    def test_dmax_must_exceed_delta(self):
        with pytest.raises(ValueError):
            DelayLayerConfig(delta=60.0, d_max=60.0)

    def test_custom_cache_duration_respected(self):
        config = DelayLayerConfig(cache_duration=25.0)
        assert config.cache_duration == 25.0


class TestEquation1:
    def test_cdn_fed_child_is_layer_zero(self):
        config = DelayLayerConfig()
        # Parent delay Delta with zero extra cost stays in layer 0.
        assert compute_layer(config, 60.0, 0.0, 0.0) == 0

    def test_one_hop_adds_one_layer(self):
        config = DelayLayerConfig()
        assert compute_layer(config, 60.0, 0.05, 0.1) == 1

    def test_two_hops_accumulate(self):
        config = DelayLayerConfig()
        # A parent already one hop deep (just past the Layer-1 boundary)
        # pushes its child past the Layer-2 boundary.
        first_hop_delay = 60.0 + 0.16
        assert compute_layer(config, first_hop_delay, 0.05, 0.1) == 2

    def test_never_negative(self):
        config = DelayLayerConfig()
        assert compute_layer(config, 10.0, 0.0, 0.0) == 0

    def test_rejects_negative_inputs(self):
        config = DelayLayerConfig()
        with pytest.raises(ValueError):
            compute_layer(config, -1.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            compute_layer(config, 60.0, -0.1, 0.0)


class TestEquation2:
    def test_layer_zero_subscription_close_to_live_edge(self):
        config = DelayLayerConfig()
        n_prime = subscription_frame_number(config, 1000, 10.0, 0, 0.05, 0.1, offset_fraction=0.0)
        # Roughly Delta + tau behind the newest frame, minus the hop terms.
        assert 1000 - (60.15) * 10 <= n_prime <= 1000 - 58 * 10

    def test_deeper_layer_requests_older_frames(self):
        config = DelayLayerConfig()
        fresh = subscription_frame_number(config, 1000, 10.0, 0, 0.05, 0.1)
        stale = subscription_frame_number(config, 1000, 10.0, 10, 0.05, 0.1)
        assert stale < fresh

    def test_offset_positions_inside_layer(self):
        config = DelayLayerConfig()
        bottom = subscription_frame_number(config, 1000, 10.0, 4, 0.05, 0.1, offset_fraction=0.0)
        top = subscription_frame_number(config, 1000, 10.0, 4, 0.05, 0.1, offset_fraction=1.0)
        assert top - bottom == pytest.approx(config.tau * 10.0, abs=1.0)

    def test_clamped_to_valid_frame_numbers(self):
        config = DelayLayerConfig()
        assert subscription_frame_number(config, 5, 10.0, 30, 0.05, 0.1) >= 0
        assert subscription_frame_number(config, 5, 10.0, 0, 0.05, 0.1) <= 5

    def test_invalid_arguments(self):
        config = DelayLayerConfig()
        with pytest.raises(ValueError):
            subscription_frame_number(config, 100, 0.0, 0, 0.0, 0.0)
        with pytest.raises(ValueError):
            subscription_frame_number(config, 100, 10.0, 0, 0.0, 0.0, offset_fraction=2.0)
        with pytest.raises(ValueError):
            subscription_frame_number(config, -1, 10.0, 0, 0.0, 0.0)


class TestLayerProperties:
    def test_layer_property_1_range(self):
        config = DelayLayerConfig(cache_duration=25.0)
        low, high = shareable_layer_range(config, 60.0, 0.05, 0.1)
        assert low == 1
        # The parent can serve much deeper layers out of its cache.
        assert high >= low + int(25.0 / config.tau) - 1

    def test_layer_property_1_cdn_like_parent(self):
        config = DelayLayerConfig()
        low, high = shareable_layer_range(config, 60.0, 0.0, 0.0)
        assert low == 0
        assert high > 0

    def test_layer_property_2_synchronous_within_kappa(self):
        config = DelayLayerConfig(kappa=2)
        assert layers_are_synchronous(config, (3, 4, 5))
        assert layers_are_synchronous(config, (7,))
        assert layers_are_synchronous(config, ())

    def test_layer_property_2_violated_beyond_kappa(self):
        config = DelayLayerConfig(kappa=2)
        assert not layers_are_synchronous(config, (0, 3))
        assert not layers_are_synchronous(config, (1, 2, 9))

    def test_layer_property_2_matches_buffer_bound(self):
        config = DelayLayerConfig()
        # kappa layers correspond to exactly d_buff seconds of skew.
        assert config.kappa * config.tau == pytest.approx(config.buffer_duration)
