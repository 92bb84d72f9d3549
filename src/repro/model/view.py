"""Views, the stream differentiation function and stream priorities.

Section II-B of the paper defines how a viewer's *view* maps to streams:

* the differentiation function ``df(S, v) = S.w . v.w`` scores how well a
  stream's camera orientation matches the view orientation,
* within a site, streams are ranked by ``df``; the rank is the priority
  index ``eta`` (1 = most important),
* a cut-off threshold ``df_th`` removes the unimportant streams of a local
  view,
* global priorities across sites are computed from ``eta - df``; streams
  with a **lower** ``eta - df`` value have **higher** priority,
* one local view per producer site composes the global view -- the
  "4D content".
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, FrozenSet, Iterable, List, Sequence, Tuple

from repro.model.stream import Stream, StreamId

#: A unit vector in the horizontal plane.
Orientation = Tuple[float, float]


def differentiation(stream: Stream, view_orientation: Orientation) -> float:
    """The stream differentiation function ``df(S, v) = S.w . v.w``.

    Higher values mean the camera faces the same way the viewer is looking,
    i.e. the stream is more important for this view.
    """
    sx, sy = stream.orientation
    vx, vy = view_orientation
    return sx * vx + sy * vy


@dataclass(frozen=True)
class PrioritizedStream:
    """A stream annotated with its importance in a particular view.

    Attributes
    ----------
    stream:
        The underlying camera stream.
    df:
        Value of the differentiation function for the view.
    eta:
        Priority index of the stream inside its local site (1 = best match).
    """

    stream: Stream
    df: float
    eta: int

    @property
    def stream_id(self) -> StreamId:
        """Identifier of the underlying stream."""
        return self.stream.stream_id

    @property
    def global_priority_key(self) -> float:
        """The paper's cross-site priority value ``eta - df`` (lower = higher priority)."""
        return self.eta - self.df


@dataclass(frozen=True)
class LocalView:
    """The subset of one producer site's streams selected for a view.

    Streams are stored in decreasing importance (increasing ``eta``), i.e.
    ``streams[0]`` is the site's highest-priority stream for this view; the
    paper requires at least this stream to be delivered for the viewer
    request to be accepted.
    """

    site_id: str
    orientation: Orientation
    streams: Tuple[PrioritizedStream, ...]

    def __post_init__(self) -> None:
        if not self.streams:
            raise ValueError(f"local view for site {self.site_id} has no streams")
        for entry in self.streams:
            if entry.stream.site_id != self.site_id:
                raise ValueError(
                    f"stream {entry.stream_id} does not belong to site {self.site_id}"
                )
        etas = [entry.eta for entry in self.streams]
        if etas != sorted(etas):
            raise ValueError("local view streams must be ordered by eta (priority)")

    @property
    def stream_ids(self) -> Tuple[StreamId, ...]:
        """Identifiers of the selected streams, most important first."""
        return tuple(entry.stream_id for entry in self.streams)

    @property
    def highest_priority_stream(self) -> PrioritizedStream:
        """The single stream that must be served for the request to be accepted."""
        return self.streams[0]

    def __len__(self) -> int:
        return len(self.streams)


def make_local_view(
    site_streams: Sequence[Stream],
    view_orientation: Orientation,
    *,
    cutoff_threshold: float = 0.0,
    site_id: str = "",
    max_streams: int = 0,
) -> LocalView:
    """Build a :class:`LocalView` by ranking and cutting off a site's streams.

    Parameters
    ----------
    site_streams:
        All camera streams of the producer site.
    view_orientation:
        The unit vector ``v.w`` of the viewer's requested view.
    cutoff_threshold:
        ``df_th``: streams with ``df`` strictly below the threshold are
        dropped from the view.  At least one stream is always retained (the
        best match) even if all fall below the threshold, because a viewer
        request is only meaningful if each site contributes one stream.
    site_id:
        Site identifier; inferred from the streams when omitted.
    max_streams:
        Optional hard cap on the number of streams per local view (0 means
        no cap).  The paper's evaluation uses 3 streams per site.
    """
    if not site_streams:
        raise ValueError("site_streams must not be empty")
    inferred_site = site_id or site_streams[0].site_id
    for stream in site_streams:
        if stream.site_id != inferred_site:
            raise ValueError(
                f"all streams must belong to site {inferred_site}, got {stream.stream_id}"
            )

    scored = sorted(
        ((differentiation(stream, view_orientation), stream) for stream in site_streams),
        key=lambda pair: (-pair[0], pair[1].stream_id),
    )
    selected: List[PrioritizedStream] = []
    for rank, (df_value, stream) in enumerate(scored, start=1):
        if selected and df_value < cutoff_threshold:
            break
        if max_streams and len(selected) >= max_streams:
            break
        selected.append(PrioritizedStream(stream=stream, df=df_value, eta=rank))
    return LocalView(
        site_id=inferred_site,
        orientation=view_orientation,
        streams=tuple(selected),
    )


@dataclass(frozen=True)
class GlobalView:
    """A global view (4D content): one local view per producer site.

    ``view_id`` identifies the view for grouping purposes: viewers
    requesting the same ``view_id`` form one view group and share overlay
    trees (Section III-B).
    """

    view_id: str
    local_views: Tuple[LocalView, ...]

    def __post_init__(self) -> None:
        if not self.local_views:
            raise ValueError("a global view requires at least one local view")
        sites = [lv.site_id for lv in self.local_views]
        if len(set(sites)) != len(sites):
            raise ValueError("a global view may contain at most one local view per site")

    @property
    def site_count(self) -> int:
        """Number of producer sites contributing to the view (``n`` in the paper)."""
        return len(self.local_views)

    # A view is immutable, so the orderings every join asks for are
    # derived once per view, not once per join.

    @cached_property
    def prioritized_streams(self) -> Tuple[PrioritizedStream, ...]:
        """All streams of the view in global priority order (best first)."""
        return global_priority_order(self.local_views)

    @cached_property
    def streams(self) -> Tuple[Stream, ...]:
        """All streams of the view in global priority order."""
        return tuple(entry.stream for entry in self.prioritized_streams)

    @cached_property
    def stream_by_id(self) -> Dict[StreamId, Stream]:
        """Every stream of the view by its identifier."""
        return {stream.stream_id: stream for stream in self.streams}

    @cached_property
    def stream_ids(self) -> Tuple[StreamId, ...]:
        """Stream identifiers of the view in global priority order."""
        return tuple(entry.stream_id for entry in self.prioritized_streams)

    @property
    def highest_priority_per_site(self) -> Dict[str, StreamId]:
        """Map of site -> the site's most important stream for this view."""
        return {
            lv.site_id: lv.highest_priority_stream.stream_id
            for lv in self.local_views
        }

    @cached_property
    def must_have_stream_ids(self) -> FrozenSet[StreamId]:
        """Every site's most important stream: a request delivering fewer is refused."""
        return frozenset(self.highest_priority_per_site.values())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GlobalView):
            return NotImplemented
        return set(self.stream_ids) == set(other.stream_ids)

    def __hash__(self) -> int:
        return hash(frozenset(self.stream_ids))

    def __len__(self) -> int:
        return sum(len(lv) for lv in self.local_views)


def global_priority_order(
    local_views: Iterable[LocalView],
) -> Tuple[PrioritizedStream, ...]:
    """Order streams of several local views by the global priority ``eta - df``.

    Lower ``eta - df`` means higher priority.  Ties are broken by the stream
    identifier so the ordering is total and deterministic.
    """
    entries: List[PrioritizedStream] = []
    for lv in local_views:
        entries.extend(lv.streams)
    return tuple(
        sorted(entries, key=lambda e: (e.global_priority_key, e.stream_id))
    )
