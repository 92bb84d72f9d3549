"""Streams, stream identifiers and 3D frames.

Each 3DTI producer site hosts multiple cameras; each camera captures the
local scene from a particular angle and produces one *stream* of 3D frames
(Section II-B).  A stream ``S_i`` is a sequence of frames
``{f^(i,n1)_t1, f^(i,n2)_t2, ...}`` where ``t`` is the capture timestamp and
``n`` the frame number (Section II-E).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Tuple

from repro.util.validation import require_positive


class StreamId(NamedTuple):
    """Globally unique stream identifier: (producer site, camera index).

    Stream ids key every hot dict of the control plane (routing tables,
    subscriptions, trees), so the type is tuple-backed: hashing, equality
    and ordering run in C and are exactly those of the plain tuple
    ``(site_id, camera_index)`` -- which an id therefore also compares
    equal to.  The hash derives from the fields on every call, so a
    pickled id hashes correctly in a process with another string-hash
    seed.
    """

    site_id: str
    camera_index: int

    def __str__(self) -> str:
        return f"S{self.camera_index}@{self.site_id}"


@dataclass(frozen=True)
class Stream:
    """A single 3D camera stream.

    Attributes
    ----------
    stream_id:
        Identity of the stream (site + camera index).
    orientation:
        Unit vector ``S.w`` giving the spatial orientation of the camera in
        the horizontal plane.  Used by the differentiation function.
    bandwidth_mbps:
        Network bandwidth the stream consumes.  The paper states 3DTI
        streams range from 400 Kbps to 5 Mbps and uses 2 Mbps per stream in
        the evaluation.
    frame_rate:
        Frames per second produced by the camera.
    """

    stream_id: StreamId
    orientation: Tuple[float, float]
    bandwidth_mbps: float = 2.0
    frame_rate: float = 10.0

    def __post_init__(self) -> None:
        require_positive(self.bandwidth_mbps, "bandwidth_mbps")
        require_positive(self.frame_rate, "frame_rate")
        norm = math.hypot(*self.orientation)
        if not math.isclose(norm, 1.0, rel_tol=1e-6, abs_tol=1e-6):
            raise ValueError(
                f"orientation must be a unit vector, got norm {norm:.6f}"
            )

    @property
    def site_id(self) -> str:
        """Producer site the stream originates from."""
        return self.stream_id.site_id

    @property
    def frame_size_megabits(self) -> float:
        """Average size of a single 3D frame, in megabits."""
        return self.bandwidth_mbps / self.frame_rate

    def frame_interval(self) -> float:
        """Seconds between consecutive frames."""
        return 1.0 / self.frame_rate


@dataclass(frozen=True, order=True)
class Frame:
    """A single 3D frame of a stream."""

    stream_id: StreamId
    frame_number: int
    capture_time: float
    size_megabits: float = 0.2

    def __post_init__(self) -> None:
        if self.frame_number < 0:
            raise ValueError("frame_number must be >= 0")
        if self.capture_time < 0:
            raise ValueError("capture_time must be >= 0")
        require_positive(self.size_megabits, "size_megabits")


def orientation_from_angle(angle_radians: float) -> Tuple[float, float]:
    """Unit orientation vector along ``angle_radians`` (a camera's or a view's)."""
    return (math.cos(angle_radians), math.sin(angle_radians))
