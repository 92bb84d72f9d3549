"""Small argument-validation helpers.

The simulator is driven by experiment configurations that users write by
hand, so mis-typed parameters (negative bandwidths, a delay bound smaller
than the CDN delay, ...) are a realistic failure mode.  These helpers turn
such mistakes into immediate, readable ``ValueError``/``TypeError``
exceptions at construction time instead of silent nonsense results hours
into a sweep.
"""

from __future__ import annotations

from typing import Any, Tuple, Type, Union


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


def require_in_range(
    value: float, low: float, high: float, name: str, *, inclusive: bool = True
) -> float:
    """Validate that ``value`` lies in ``[low, high]`` (or ``(low, high)``)."""
    if inclusive:
        ok = low <= value <= high
        bounds = f"[{low}, {high}]"
    else:
        ok = low < value < high
        bounds = f"({low}, {high})"
    if not ok:
        raise ValueError(f"{name} must be in {bounds}, got {value!r}")
    return value


def require_type(
    value: Any, expected: Union[Type, Tuple[Type, ...]], name: str
) -> Any:
    """Validate that ``value`` is an instance of ``expected`` and return it."""
    if not isinstance(value, expected):
        raise TypeError(
            f"{name} must be an instance of {expected!r}, got {type(value).__name__}"
        )
    return value
