"""3DTI component, stream and view models (Section II of the paper).

This package contains the passive data model of a 3DTI session:

* :mod:`repro.model.stream` -- streams, stream identifiers and 3D frames,
* :mod:`repro.model.view` -- the stream differentiation function ``df``,
  per-site priority indices ``eta``, cut-off thresholds, local views and
  global views (the "4D content"),
* :mod:`repro.model.producer` -- producer sites with multiple cameras and a
  gateway,
* :mod:`repro.model.viewer` -- viewer nodes with their gateway buffer and
  cache,
* :mod:`repro.model.cdn` -- the content-distribution network: distribution
  storage and one bounded aggregate outbound capacity.
"""

from repro.model.cdn import CDN, CDN_NODE_ID
from repro.model.producer import Camera, ProducerSite
from repro.model.stream import Frame, Stream, StreamId
from repro.model.view import (
    GlobalView,
    LocalView,
    Orientation,
    differentiation,
    global_priority_order,
    make_local_view,
)
from repro.model.viewer import StreamBuffer, Viewer

__all__ = [
    "CDN",
    "CDN_NODE_ID",
    "Camera",
    "ProducerSite",
    "Frame",
    "Stream",
    "StreamId",
    "GlobalView",
    "LocalView",
    "Orientation",
    "differentiation",
    "global_priority_order",
    "make_local_view",
    "StreamBuffer",
    "Viewer",
]
