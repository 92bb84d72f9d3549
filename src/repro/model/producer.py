"""Producer sites: cameras, gateway and view construction.

A producer site (Figure 2(a)) hosts multiple 3D cameras, all connected to a
rendezvous gateway.  Communication with the outside world (the CDN in 4D
TeleCast) happens only through the gateway.  The number of producers in a
session is small and static; inter-producer communication uses the existing
randomized dissemination of TEEVE and is out of scope here -- what matters
for 4D TeleCast is the set of streams each site offers and how a requested
view orientation maps onto them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.model.stream import Stream, StreamId, orientation_from_angle
from repro.model.view import LocalView, Orientation, make_local_view
from repro.util.validation import require_positive


@dataclass(frozen=True)
class Camera:
    """A single 3D camera of a producer site."""

    index: int
    orientation: Tuple[float, float]

    def __post_init__(self) -> None:
        if self.index < 0:
            raise ValueError("camera index must be >= 0")


@dataclass
class ProducerSite:
    """A 3DTI content producer site.

    Attributes
    ----------
    site_id:
        Short identifier, e.g. ``"A"``.
    cameras:
        The site's cameras, typically arranged in a ring around the captured
        scene.
    stream_bandwidth_mbps:
        Bandwidth of each camera stream (2 Mbps in the paper's evaluation).
    frame_rate:
        Frame rate of each camera stream.
    """

    site_id: str
    cameras: List[Camera]
    stream_bandwidth_mbps: float = 2.0
    frame_rate: float = 10.0
    _streams: Dict[int, Stream] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        if not self.site_id:
            raise ValueError("site_id must be non-empty")
        if not self.cameras:
            raise ValueError("a producer site needs at least one camera")
        require_positive(self.stream_bandwidth_mbps, "stream_bandwidth_mbps")
        require_positive(self.frame_rate, "frame_rate")
        for camera in self.cameras:
            self._streams[camera.index] = Stream(
                stream_id=StreamId(site_id=self.site_id, camera_index=camera.index),
                orientation=camera.orientation,
                bandwidth_mbps=self.stream_bandwidth_mbps,
                frame_rate=self.frame_rate,
            )

    @property
    def streams(self) -> List[Stream]:
        """All camera streams of the site, ordered by camera index."""
        return [self._streams[camera.index] for camera in self.cameras]

    @property
    def stream_ids(self) -> List[StreamId]:
        """Identifiers of all camera streams."""
        return [stream.stream_id for stream in self.streams]

    def stream(self, camera_index: int) -> Stream:
        """Return the stream of a specific camera."""
        return self._streams[camera_index]

    def local_view(self, orientation: Orientation, *, max_streams: int = 0) -> LocalView:
        """Compute the local view for a requested view orientation.

        This applies the differentiation function and cut-off of
        Section II-B to the site's streams.
        """
        return make_local_view(
            self.streams, orientation, site_id=self.site_id, max_streams=max_streams
        )


def make_ring_site(
    site_id: str,
    num_cameras: int,
    *,
    stream_bandwidth_mbps: float = 2.0,
    frame_rate: float = 10.0,
) -> ProducerSite:
    """Create a producer site whose cameras are evenly spaced around a ring.

    This matches the physical TEEVE setup (cameras surrounding the captured
    scene at regular angular offsets) and is the producer configuration used
    for all experiments: the paper's evaluation uses 2 sites with 8 cameras
    each.
    """
    if num_cameras <= 0:
        raise ValueError("num_cameras must be > 0")
    cameras = [
        Camera(index=i, orientation=orientation_from_angle(2.0 * math.pi * i / num_cameras))
        for i in range(num_cameras)
    ]
    return ProducerSite(
        site_id=site_id,
        cameras=cameras,
        stream_bandwidth_mbps=stream_bandwidth_mbps,
        frame_rate=frame_rate,
    )


def make_default_producers(
    num_sites: int = 2,
    cameras_per_site: int = 8,
    *,
    stream_bandwidth_mbps: float = 2.0,
    frame_rate: float = 10.0,
) -> List[ProducerSite]:
    """Create the paper's default producer configuration (2 sites x 8 cameras)."""
    if num_sites <= 0:
        raise ValueError("num_sites must be > 0")
    site_names = [chr(ord("A") + i) for i in range(num_sites)]
    return [
        make_ring_site(
            name,
            cameras_per_site,
            stream_bandwidth_mbps=stream_bandwidth_mbps,
            frame_rate=frame_rate,
        )
        for name in site_names
    ]
