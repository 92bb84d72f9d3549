"""Durable snapshot/restore of a live service session.

A snapshot is the *entire* session object graph -- the
:class:`~repro.core.telecast.TeleCastSystem` with every LSC, tree,
subscription and CDN reservation, the
:class:`~repro.core.session.EventDrivenSession` driver with its heartbeat
ledger (beats are settled from it, not queued), and the
:class:`~repro.sim.engine.Simulator` with every
scheduled-but-unfired event (in-flight control messages included) --
serialised with :mod:`pickle` behind a small self-describing header.
Restoring re-materialises the graph exactly, so a restored daemon
continues with byte-identical placement decisions: an in-flight
``JoinAck`` that crossed the snapshot point is delivered at its original
simulated timestamp in the new process.

File format (version :data:`SNAPSHOT_VERSION`; it moves whenever the
pickled layout of a persisted type does, so an older file is refused by
name instead of failing inside :mod:`pickle`)::

    line 1: JSON header {"magic", "version", "sim_time", "sha256",
                         "created_at", "python"}
    rest:   the pickled ServiceState payload

The header's SHA-256 of the payload is verified on load, so a truncated
or corrupted snapshot fails loudly instead of restoring half a session.

Pickling the full graph is only sound because every scheduled callback
is a module-level callable, bound method or ``functools.partial`` of
one -- a property the in-flight regression tests pin down (the control
channel's delivery closure was rewritten to a module-level class for
exactly this reason).
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import time
from typing import Any, Dict, Tuple

SNAPSHOT_MAGIC = "repro-service-snapshot"
SNAPSHOT_VERSION = 13


class SnapshotError(RuntimeError):
    """A snapshot file that cannot be written or restored."""


def _header(payload: bytes, sim_time: float) -> Dict[str, Any]:
    return {
        "magic": SNAPSHOT_MAGIC,
        "version": SNAPSHOT_VERSION,
        "sim_time": sim_time,
        "sha256": hashlib.sha256(payload).hexdigest(),
        "created_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "python": "pickle-p4",
    }


def dump_state(state: Any) -> bytes:
    """Pickle one session state graph (protocol 4, process-portable)."""
    try:
        return pickle.dumps(state, protocol=4)
    except Exception as exc:
        raise SnapshotError(f"session state is not snapshottable: {exc}") from exc


def load_state(payload: bytes) -> Any:
    """Unpickle one session state graph."""
    try:
        return pickle.loads(payload)
    except Exception as exc:
        raise SnapshotError(f"snapshot payload does not restore: {exc}") from exc


def save_snapshot(path: str, state: Any, *, sim_time: float) -> Dict[str, Any]:
    """Write ``state`` to ``path`` atomically; return the header written.

    The payload is staged to ``<path>.tmp`` and renamed into place, so a
    crash mid-write never leaves a half snapshot at the published path.
    """
    payload = dump_state(state)
    header = _header(payload, sim_time)
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    staging = f"{path}.tmp"
    with open(staging, "wb") as handle:
        handle.write(json.dumps(header, sort_keys=True).encode("ascii") + b"\n")
        handle.write(payload)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(staging, path)
    return header


def load_snapshot(path: str) -> Tuple[Any, Dict[str, Any]]:
    """Read a snapshot file; return ``(state, header)``.

    Raises :class:`SnapshotError` on a bad magic/version, a payload whose
    digest does not match the header, or an unpicklable payload.
    """
    try:
        with open(path, "rb") as handle:
            header_line = handle.readline()
            payload = handle.read()
    except OSError as exc:
        raise SnapshotError(f"cannot read snapshot {path!r}: {exc}") from exc
    try:
        header = json.loads(header_line.decode("ascii"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SnapshotError(f"snapshot {path!r} has no valid header") from exc
    if header.get("magic") != SNAPSHOT_MAGIC:
        raise SnapshotError(f"snapshot {path!r}: bad magic {header.get('magic')!r}")
    if header.get("version") != SNAPSHOT_VERSION:
        raise SnapshotError(
            f"snapshot {path!r}: unsupported version {header.get('version')!r}"
        )
    digest = hashlib.sha256(payload).hexdigest()
    if digest != header.get("sha256"):
        raise SnapshotError(f"snapshot {path!r}: payload digest mismatch (truncated?)")
    return load_state(payload), header
