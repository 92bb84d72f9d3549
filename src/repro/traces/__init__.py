"""Synthetic 3DTI activity traces and viewer workloads.

The paper drives its evaluation with (a) stream traces captured from a
TEEVE "light saber" gaming session and (b) viewer populations of 10--1000
nodes with varying outbound bandwidth.  Neither artifact is public, so this
package generates statistically equivalent substitutes:

* :mod:`repro.traces.teeve` -- per-camera frame processes with the
  bandwidth envelope the paper reports (streams bounded by 2 Mbps),
* :mod:`repro.traces.workload` -- viewer arrival/departure processes,
  outbound-bandwidth distributions, view popularity and view-change events,
  including flash crowds (large simultaneous arrivals).
"""

from repro.traces.teeve import TeeveSessionConfig, TeeveSessionTrace
from repro.traces.workload import (
    BandwidthDistribution,
    ChurnConfig,
    ChurnWorkload,
    ViewerEvent,
    ViewerWorkload,
    WorkloadConfig,
)

__all__ = [
    "TeeveSessionConfig",
    "TeeveSessionTrace",
    "BandwidthDistribution",
    "ChurnConfig",
    "ChurnWorkload",
    "ViewerEvent",
    "ViewerWorkload",
    "WorkloadConfig",
]
