"""Tests for the validation helpers."""

import math

import pytest

from repro.util import validation


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

    def test_error_message_contains_name(self):
        with pytest.raises(ValueError, match="bandwidth"):
            validation.require_positive(-1, "bandwidth")
