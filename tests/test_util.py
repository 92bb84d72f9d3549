"""Tests for unit conversions and validation helpers."""

import math

import pytest

from repro.util import units, validation


class TestUnits:
    def test_mbps_to_kbps(self):
        assert units.mbps_to_kbps(2.0) == 2000.0

    def test_kbps_to_mbps(self):
        assert units.kbps_to_mbps(400.0) == 0.4

    def test_milliseconds(self):
        assert units.milliseconds(300) == pytest.approx(0.3)

    def test_ms_round_trip(self):
        assert units.s_to_ms(units.ms_to_s(250.0)) == pytest.approx(250.0)

    def test_seconds_identity(self):
        assert units.seconds(65) == 65.0

    def test_bits_for_duration(self):
        assert units.bits_for_duration(2.0, 10.0) == 20.0

    def test_megabits_from_bytes(self):
        assert units.megabits(125_000) == pytest.approx(1.0)


class TestValidation:
    def test_require_passes(self):
        validation.require(True, "never raised")

    def test_require_raises(self):
        with pytest.raises(ValueError, match="boom"):
            validation.require(False, "boom")

    def test_require_positive_accepts(self):
        assert validation.require_positive(1.5, "x") == 1.5

    def test_require_positive_rejects_zero(self):
        with pytest.raises(ValueError):
            validation.require_positive(0, "x")

    def test_require_positive_rejects_negative(self):
        with pytest.raises(ValueError):
            validation.require_positive(-3, "x")

    def test_require_non_negative_accepts_zero(self):
        assert validation.require_non_negative(0.0, "x") == 0.0

    def test_require_non_negative_rejects(self):
        with pytest.raises(ValueError):
            validation.require_non_negative(-0.1, "x")

    def test_nan_is_neither_positive_nor_non_negative(self):
        # Every comparison with NaN is false, so ``value <= 0`` let it through.
        with pytest.raises(ValueError, match="x must be > 0, got nan"):
            validation.require_positive(math.nan, "x")
        with pytest.raises(ValueError, match="x must be >= 0, got nan"):
            validation.require_non_negative(math.nan, "x")
    def test_require_in_range_inclusive(self):
        assert validation.require_in_range(5, 0, 5, "x") == 5

    def test_require_in_range_exclusive_rejects_boundary(self):
        with pytest.raises(ValueError):
            validation.require_in_range(5, 0, 5, "x", inclusive=False)

    def test_require_in_range_rejects_outside(self):
        with pytest.raises(ValueError):
            validation.require_in_range(9, 0, 5, "x")

    def test_require_type_accepts(self):
        assert validation.require_type("abc", str, "x") == "abc"

    def test_require_type_rejects(self):
        with pytest.raises(TypeError):
            validation.require_type("abc", int, "x")

    def test_error_message_contains_name(self):
        with pytest.raises(ValueError, match="bandwidth"):
            validation.require_positive(-1, "bandwidth")
