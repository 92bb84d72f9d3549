"""Unit conventions and conversion helpers.

Throughout the code base the following conventions hold:

* **time** is expressed in *seconds* (floats),
* **bandwidth** is expressed in *megabits per second* (Mbps, floats),
* **data sizes** are expressed in *megabits* unless a function says
  otherwise.

The helpers in this module exist mostly to make call sites self-documenting
(``milliseconds(300)`` reads better than ``0.3``) and to centralise the few
conversions the simulator needs.
"""

from __future__ import annotations

#: Type aliases used in signatures for readability.  They are plain floats;
#: the names only document the intended unit.
Mbps = float
Kbps = float
Gbps = float
Seconds = float
Milliseconds = float


def mbps_to_kbps(value: float) -> float:
    """Convert megabits per second to kilobits per second."""
    return value * 1000.0


def kbps_to_mbps(value: float) -> float:
    """Convert kilobits per second to megabits per second."""
    return value / 1000.0


def seconds(value: float) -> float:
    """Identity helper marking a literal as seconds."""
    return float(value)


def milliseconds(value: float) -> float:
    """Convert milliseconds to seconds (the canonical time unit)."""
    return float(value) / 1000.0


def ms_to_s(value: float) -> float:
    """Convert milliseconds to seconds."""
    return float(value) / 1000.0


def s_to_ms(value: float) -> float:
    """Convert seconds to milliseconds."""
    return float(value) * 1000.0


def bits_for_duration(rate_mbps: float, duration_s: float) -> float:
    """Return the number of megabits a flow at ``rate_mbps`` carries in ``duration_s`` seconds."""
    return rate_mbps * duration_s


def megabits(value_bytes: float) -> float:
    """Convert a size in bytes to megabits."""
    return value_bytes * 8.0 / 1_000_000.0
