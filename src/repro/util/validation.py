"""Small argument-validation helpers.

The simulator is driven by experiment configurations that users write by
hand, so mis-typed parameters (negative bandwidths, a delay bound smaller
than the CDN delay, ...) are a realistic failure mode.  These helpers turn
such mistakes into immediate, readable ``ValueError`` exceptions at
construction time instead of silent nonsense results hours into a sweep.
"""

from __future__ import annotations


def require(condition: bool, message: str) -> None:
    """Raise :class:`ValueError` with ``message`` unless ``condition`` holds."""
    if not condition:
        raise ValueError(message)


def require_positive(value: float, name: str) -> float:
    """Validate that ``value`` is strictly positive and return it.

    Written as ``not value > 0`` so that NaN, which fails every
    comparison, is refused too.
    """
    if not value > 0:
        raise ValueError(f"{name} must be > 0, got {value!r}")
    return value


def require_non_negative(value: float, name: str) -> float:
    """Validate that ``value`` is >= 0 and return it (NaN is refused)."""
    if not value >= 0:
        raise ValueError(f"{name} must be >= 0, got {value!r}")
    return value
