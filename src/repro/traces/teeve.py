"""Synthetic TEEVE-like 3DTI session traces.

The paper's evaluation replays stream traces from a real TEEVE session in
which "two remote participants virtually fight with each other using light
sabers", with every stream bounded by a 2 Mbps bandwidth requirement.  The
trace itself is not public; the quantities the simulation consumes are the
per-stream frame timing and frame sizes, i.e. the bandwidth process.

:class:`TeeveSessionTrace` generates those processes synthetically: each
camera emits frames at a (slightly jittered) nominal rate, with frame sizes
drawn from a truncated normal around the nominal size and modulated by a
slow "activity" wave that mimics motion intensity peaks during the
performance.  The long-run bandwidth of each stream stays at or below the
configured bound, matching the paper's 2 Mbps envelope.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.model.producer import ProducerSite
from repro.model.stream import Frame, Stream, StreamId
from repro.sim.rng import SeededRandom
from repro.util.validation import require_positive


@dataclass
class TeeveSessionConfig:
    """Parameters of the synthetic TEEVE session generator.

    Attributes
    ----------
    duration:
        Length of the generated session, in seconds.
    size_jitter:
        Relative standard deviation of individual frame sizes.
    rate_jitter:
        Relative jitter of frame inter-arrival times.
    activity_period:
        Period (seconds) of the slow activity wave modulating frame sizes;
        models the alternation between calm and intense motion phases of
        the light-saber fight.
    activity_amplitude:
        Relative amplitude of the activity wave (0 disables it).
    """

    duration: float = 60.0
    size_jitter: float = 0.15
    rate_jitter: float = 0.05
    activity_period: float = 12.0
    activity_amplitude: float = 0.2

    def __post_init__(self) -> None:
        require_positive(self.duration, "duration")
        if not (0.0 <= self.size_jitter < 1.0):
            raise ValueError("size_jitter must be in [0, 1)")
        if not (0.0 <= self.rate_jitter < 1.0):
            raise ValueError("rate_jitter must be in [0, 1)")
        require_positive(self.activity_period, "activity_period")
        if not (0.0 <= self.activity_amplitude < 1.0):
            raise ValueError("activity_amplitude must be in [0, 1)")


class TeeveSessionTrace:
    """Generator of per-stream frame sequences for a set of producer sites."""

    def __init__(
        self,
        producers: Sequence[ProducerSite],
        *,
        config: Optional[TeeveSessionConfig] = None,
        rng: Optional[SeededRandom] = None,
    ) -> None:
        if not producers:
            raise ValueError("at least one producer site is required")
        self.producers = list(producers)
        self.config = config or TeeveSessionConfig()
        self._rng = rng or SeededRandom(0)
        self._streams: Dict[StreamId, Stream] = {}
        for site in self.producers:
            for stream in site.streams:
                self._streams[stream.stream_id] = stream

    @property
    def streams(self) -> List[Stream]:
        """All streams covered by the trace."""
        return list(self._streams.values())

    def frames_for_stream(
        self, stream_id: StreamId, max_frames: Optional[int] = None
    ) -> List[Frame]:
        """Generate the frame sequence of one stream, or its first ``max_frames``.

        The sequence is deterministic for a given generator instance and
        stream (each stream consumes an independent forked RNG).  The
        fork salt is a CRC of the stream's printable id rather than
        ``hash()``: string hashing is salted per process, and the sweep
        engine runs points in worker processes whose QoE records must be
        reproducible anywhere.  Generation stops at ``max_frames``; the
        draws before it are the same, so the result is a prefix of the
        full sequence.
        """
        if max_frames is not None and max_frames < 0:
            raise ValueError("max_frames_per_stream must be >= 0 or None")
        stream = self._streams[stream_id]
        rng = self._rng.fork(zlib.crc32(str(stream_id).encode("utf-8")) & 0xFFFF)
        cfg = self.config
        frames: List[Frame] = []
        nominal_interval = stream.frame_interval()
        nominal_size = stream.frame_size_megabits
        time = 0.0
        number = 0
        while time < cfg.duration and number != max_frames:
            activity = 1.0 + cfg.activity_amplitude * math.sin(
                2.0 * math.pi * time / cfg.activity_period
            )
            size = nominal_size * activity
            if cfg.size_jitter > 0:
                size *= max(0.1, 1.0 + rng.gauss(0.0, cfg.size_jitter))
            # Never exceed the per-stream bandwidth bound over a frame interval.
            size = min(size, stream.bandwidth_mbps * nominal_interval)
            frames.append(
                Frame(
                    stream_id=stream_id,
                    frame_number=number,
                    capture_time=time,
                    size_megabits=size,
                )
            )
            interval = nominal_interval
            if cfg.rate_jitter > 0:
                interval *= 1.0 + rng.uniform(-cfg.rate_jitter, cfg.rate_jitter)
            time += interval
            number += 1
        return frames
