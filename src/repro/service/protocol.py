"""The line-oriented op protocol of the service daemon.

One op per line, UTF-8, newline-terminated.  The daemon answers every op
with exactly one line: ``ok[ <detail>]`` or ``err <reason>``, so clients
can pipeline thousands of ops over one connection and read the same
number of responses back.  Grammar (square brackets = optional)::

    join <viewer_id> [<view_index>]   admit a pool viewer (async: queues a
                                      JoinRequest control message)
    leave <viewer_id>                 graceful departure notice
    view_change <viewer_id> <view_index>
    fail <viewer_id>                  abrupt crash (silent; transport reset)
    lsc_fail <lsc_id>                 controller crash (applies immediately)
    advance <seconds>                 advance simulation time explicitly
                                      (the deterministic lever when the
                                      daemon runs with time dilation 0);
                                      the daemon refuses one that spans
                                      more than MAX_ADVANCE_SWEEPS (10 000)
                                      heartbeat periods
    replay <frames_per_stream>        run a data-plane frame replay over
                                      the current overlay (populates QoE)
    snapshot [<path>]                 persist full session state to disk
    check                             run the invariant catalog; ok only
                                      when every check holds
    stats                             one-line JSON state summary
    ping                              liveness probe
    quit                              shut the daemon down

Ops that enqueue control messages (`join`, `leave`, `view_change`,
`fail`) are acknowledged when the intent enters the control plane, not
when it is applied -- admission races are decided by message arrival
order on the simulated clock, exactly as in the batch event-driven
driver.

The same TCP port also speaks just enough HTTP for scrapers: a request
line starting with ``GET`` is answered with the Prometheus text
exposition on ``/metrics``, the JSON summary on ``/stats``, or 404.

This module is pure parsing/formatting so it can be unit-tested without
sockets; :mod:`repro.service.daemon` owns the transport.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.traces.workload import ViewerEvent

#: Every op kind the parser accepts.
OP_KINDS = (
    "join",
    "leave",
    "view_change",
    "fail",
    "lsc_fail",
    "advance",
    "replay",
    "snapshot",
    "check",
    "stats",
    "ping",
    "quit",
)

#: Op kind -> workload event kind, for the ops that become typed events.
EVENT_KINDS = {
    "join": "join",
    "leave": "depart",
    "view_change": "view_change",
    "fail": "fail",
    "lsc_fail": "lsc_fail",
}

#: Workload event kind -> op kind (live replay of pre-baked schedules).
_OP_OF_EVENT = {event: op for op, event in EVENT_KINDS.items()}


class ProtocolError(ValueError):
    """A line that does not parse as a valid op."""


@dataclass(frozen=True)
class Op:
    """One parsed protocol op."""

    kind: str
    viewer_id: Optional[str] = None
    view_index: int = 0
    seconds: float = 0.0
    frames: int = 0
    path: Optional[str] = None

    def to_event(self, time: float) -> ViewerEvent:
        """The typed workload event of a session op, stamped at ``time``."""
        event_kind = EVENT_KINDS.get(self.kind)
        if event_kind is None:
            raise ProtocolError(f"op {self.kind!r} is not a session event")
        return ViewerEvent(
            time=time,
            kind=event_kind,
            viewer_id=self.viewer_id or "",
            view_index=self.view_index,
        )


def _require_args(parts: Sequence[str], minimum: int, maximum: int) -> None:
    given = len(parts) - 1
    if not (minimum <= given <= maximum):
        expected = (
            f"{minimum}" if minimum == maximum else f"{minimum}-{maximum}"
        )
        raise ProtocolError(
            f"op {parts[0]!r} takes {expected} argument(s), got {given}"
        )


def _parse_int(text: str, what: str, *, minimum: int = 0) -> int:
    try:
        value = int(text)
    except ValueError:
        raise ProtocolError(f"{what} must be an integer, got {text!r}") from None
    if value < minimum:
        raise ProtocolError(f"{what} must be >= {minimum}, got {value}")
    return value


def parse_op(line: str) -> Op:
    """Parse one protocol line into an :class:`Op` (raises ProtocolError)."""
    parts = line.strip().split()
    if not parts:
        raise ProtocolError("empty op line")
    kind = parts[0]
    if kind not in OP_KINDS:
        raise ProtocolError(f"unknown op {kind!r}")
    if kind in ("stats", "check", "ping", "quit"):
        _require_args(parts, 0, 0)
        return Op(kind=kind)
    if kind == "join":
        _require_args(parts, 1, 2)
        view = _parse_int(parts[2], "view_index") if len(parts) == 3 else 0
        return Op(kind=kind, viewer_id=parts[1], view_index=view)
    if kind == "view_change":
        _require_args(parts, 2, 2)
        return Op(
            kind=kind,
            viewer_id=parts[1],
            view_index=_parse_int(parts[2], "view_index"),
        )
    if kind in ("leave", "fail", "lsc_fail"):
        _require_args(parts, 1, 1)
        return Op(kind=kind, viewer_id=parts[1])
    if kind == "advance":
        _require_args(parts, 1, 1)
        try:
            seconds = float(parts[1])
        except ValueError:
            raise ProtocolError(f"seconds must be a number, got {parts[1]!r}") from None
        if not 0 <= seconds < float("inf"):
            raise ProtocolError(f"seconds must be finite and >= 0, got {seconds}")
        return Op(kind=kind, seconds=seconds)
    if kind == "replay":
        _require_args(parts, 1, 1)
        return Op(kind=kind, frames=_parse_int(parts[1], "frames_per_stream", minimum=1))
    if kind == "snapshot":
        _require_args(parts, 0, 1)
        return Op(kind=kind, path=parts[1] if len(parts) == 2 else None)
    raise ProtocolError(f"unhandled op {kind!r}")  # pragma: no cover - exhaustive


def format_op(op: Op) -> str:
    """Render an op back into its wire line (inverse of :func:`parse_op`)."""
    if op.kind == "join":
        return f"join {op.viewer_id} {op.view_index}"
    if op.kind == "view_change":
        return f"view_change {op.viewer_id} {op.view_index}"
    if op.kind in ("leave", "fail", "lsc_fail"):
        return f"{op.kind} {op.viewer_id}"
    if op.kind == "advance":
        return f"advance {op.seconds:g}"
    if op.kind == "replay":
        return f"replay {op.frames}"
    if op.kind == "snapshot":
        return f"snapshot {op.path}" if op.path else "snapshot"
    return op.kind


def op_of_event(event: ViewerEvent) -> Op:
    """The live op replaying one pre-baked workload event.

    This is how the adversarial scenario presets become live traffic: a
    generated schedule (flash crowd, outage, oscillation) is converted
    event by event and streamed at the daemon, with ``advance`` ops
    supplying the inter-event time.
    """
    return Op(
        kind=_OP_OF_EVENT[event.kind],
        viewer_id=event.viewer_id,
        view_index=event.view_index,
    )
