"""Canonical placement digests of a running TeleCast system.

Two systems with byte-identical overlay placement must produce identical
digests regardless of dict iteration history, process identity or which
machine computed them -- that property makes the digest the oracle of
both the snapshot/restore parity tests (:mod:`repro.service`) and the
shard-parallel parity gate (:mod:`repro.parallel`): a sharded run is
correct exactly when every LSC's digest matches the same LSC's digest in
the single-process multi-LSC run.  Rows stream into the hash in batches:
a digest never holds the audience's edge list or its JSON text.
"""

from __future__ import annotations

import hashlib
import json
from itertools import chain, islice
from typing import Dict, Iterable, Iterator, Tuple

#: Rows per ``json.dumps`` call: bounds the digest's transient memory.
_BATCH_ROWS = 1024


def _edge_rows(lsc) -> Iterator[Tuple]:
    """Every subscription edge of one LSC as a canonical tuple, sorted.

    One row per (viewer, stream) subscription, read off the viewer's tree
    node: parent, delay layer, CDN flag and the two delay figures rounded
    to nanoseconds (so a digest never depends on sub-float-epsilon noise
    that a different summation order could introduce -- with identical
    placement the values are bit-identical anyway).
    """
    for viewer_id in sorted(lsc.sessions):
        subscriptions = lsc.sessions[viewer_id].subscriptions
        for stream_id in sorted(subscriptions, key=str):
            node = subscriptions[stream_id]
            yield (
                lsc.lsc_id,
                viewer_id,
                str(stream_id),
                node.parent_id,
                node.layer,
                node.via_cdn,
                round(node.end_to_end_delay, 9),
                round(node.effective_delay, 9),
            )


def _digest(lscs: Iterable) -> str:
    """SHA-256 of ``json.dumps(rows)`` over the LSCs' rows, fed in batches."""
    sha = hashlib.sha256(b"[")
    rows = chain.from_iterable(map(_edge_rows, lscs))
    separator = ""
    while batch := list(islice(rows, _BATCH_ROWS)):
        # Each batch's list text without its brackets, comma-joined.
        text = json.dumps(batch, separators=(",", ":"))[1:-1]
        sha.update((separator + text).encode("ascii"))
        separator = ","
    sha.update(b"]")
    return sha.hexdigest()


def lsc_placement_digest(lsc) -> str:
    """SHA-256 digest of one LSC's placement state."""
    return _digest((lsc,))


def per_lsc_placement_digests(system) -> Dict[str, str]:
    """Placement digest of every registered LSC, keyed by LSC id.

    The unit of comparison of the shard-parallel parity gate: each LSC
    lives wholly inside one shard, so its digest is computable by the
    worker hosting it and comparable against the same controller of a
    single-process run.
    """
    return {
        lsc.lsc_id: lsc_placement_digest(lsc)
        for lsc in sorted(system.gsc.lscs, key=lambda item: item.lsc_id)
    }


def placement_digest(system) -> str:
    """One digest over the whole system's placement state.

    Covers every (LSC, viewer, stream) subscription edge in sorted order;
    the primary oracle of the service snapshot/restore parity tests.
    """
    return _digest(sorted(system.gsc.lscs, key=lambda item: item.lsc_id))
