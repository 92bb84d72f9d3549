"""Network substrate.

The paper obtains pairwise viewer delays from 4-hour PlanetLab ping traces.
That dataset is not redistributable, so this package provides a synthetic
substitute with the same statistical shape: nodes are grouped into
geographic regions, intra-region one-way delays are low (a few to tens of
milliseconds) and inter-region delays are substantially larger, both drawn
from log-normal distributions.

The rest of the system only ever reads pairwise one-way delays and region
labels, so the substitution exercises the identical code paths.
"""

from repro.net.latency import DelayModel, LatencyMatrix
from repro.net.planetlab import PlanetLabTraceConfig, generate_planetlab_matrix
from repro.net.regions import Region, RegionMap

__all__ = [
    "DelayModel",
    "LatencyMatrix",
    "PlanetLabTraceConfig",
    "generate_planetlab_matrix",
    "Region",
    "RegionMap",
]
