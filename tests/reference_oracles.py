"""Executable specs that only the tests read.

Each of these lived in ``src/`` although nothing there called it: the
suites use them as oracles, so they sit beside their tests instead.

* :func:`priority_monotonic` -- the paper's outbound-allocation
  invariant (``tests/test_core_bandwidth.py``, ``tests/test_properties.py``).
* :func:`compute_layer` -- Equation 1 with its argument checks: the
  property suite compares the two copies inlined in ``src/`` against it
  (``tests/test_core_layering.py``, ``tests/test_properties.py``).
* :func:`minimum_layer_for` -- Equation 1 for one parent/child pair
  (``tests/test_core_subscription.py``, ``tests/test_properties.py``).
* :func:`deterministic_stats` -- a daemon's ``stats`` minus the
  wall-clock and process-local keys: the snapshot and heartbeat parity
  suites compare two daemons through it.
* :func:`gilbert_elliott_walk` -- a lossy link's fates, one frame at a
  time from frame 0, which
  :meth:`repro.sim.transport.DataChannel.fates` must match for any
  window of frames (``tests/test_properties.py``,
  ``tests/test_dataplane_sim.py``).
"""

from __future__ import annotations

import hashlib
import math
from typing import Dict, List, Sequence

from repro.core.bandwidth import _EPSILON, OutboundAllocation, PrioritizedStream
from repro.core.layering import DelayLayerConfig
from repro.model.cdn import CDN_NODE_ID
from repro.net.latency import DelayModel
from repro.service.daemon import VOLATILE_STATS_KEYS
from repro.util.validation import require_non_negative


def priority_monotonic(
    accepted: Sequence[PrioritizedStream], allocation: OutboundAllocation
) -> bool:
    """Check the paper's invariant: higher priority => no less allocated outbound.

    The round-robin allocator satisfies it by construction.
    """
    previous = None
    for entry in accepted:
        current = allocation.per_stream_mbps.get(entry.stream_id, 0.0)
        if previous is not None and current > previous + _EPSILON:
            return False
        previous = current
    return True


def compute_layer(
    config: DelayLayerConfig,
    parent_end_to_end_delay: float,
    propagation_delay: float,
    processing_delay: float,
) -> int:
    """Equation (1): the lowest layer index a viewer can achieve for a stream.

    ``Layer_u_Si = floor((d_parent_Si - Delta + d_prop + delta) / tau)``.

    The result is clamped to be non-negative: a viewer can never be in a
    higher (fresher) layer than the CDN's Layer-0.
    """
    require_non_negative(parent_end_to_end_delay, "parent_end_to_end_delay")
    require_non_negative(propagation_delay, "propagation_delay")
    require_non_negative(processing_delay, "processing_delay")
    raw = (
        parent_end_to_end_delay
        - config.delta
        + propagation_delay
        + processing_delay
    ) / config.tau
    return max(0, int(math.floor(raw)))


def minimum_layer_for(
    config: DelayLayerConfig,
    delay_model: DelayModel,
    viewer_id: str,
    parent_id: str,
    parent_effective_delay: float,
) -> int:
    """Equation 1 applied to one parent/child pair.

    CDN-fed viewers always achieve Layer-0 (the paper assumes
    ``d_CDN + d_prop + delta = Delta``).
    """
    if parent_id == CDN_NODE_ID:
        return 0
    return compute_layer(
        config,
        parent_effective_delay,
        delay_model.propagation(parent_id, viewer_id),
        delay_model.processing_delay,
    )


def deterministic_stats(daemon) -> Dict[str, object]:
    """``daemon.stats()`` minus the wall-clock/process-local keys.

    Two daemons that processed the same stateful op script -- one
    straight through, one via snapshot/kill/restore -- must return
    identical mappings here.
    """
    return {
        key: value
        for key, value in daemon.stats().items()
        if key not in VOLATILE_STATS_KEYS
    }


def gilbert_elliott_walk(flip: float, recover: float, key: bytes, count: int) -> List[bool]:
    """Fates of frames ``0 .. count - 1`` of the lossy link keyed ``key``.

    One frame at a time, the channel counting down what is left of its
    current state's sojourn: it starts GOOD, and on entering a state
    draws how many frames it stays there, GOOD for ``Geom0(flip)``
    delivered frames, BAD for ``Geom1(recover)`` lost ones (no draw at
    ``recover == 1.0``, the i.i.d. limit).  Each sojourn takes the next
    little-endian 64-bit word ``w`` of ``key``'s SHAKE-128 stream as the
    uniform ``u = (w // 2**11 + 1) / 2**53`` and inverts the geometric
    law: ``floor(log(u) / log1p(-p))``.  A frame costs at most two
    sojourns, so the walk reads at most ``2 * count + 1`` words.
    """
    stream = hashlib.shake_128(key).digest(8 * (2 * count + 1))
    words = iter(
        int.from_bytes(stream[at : at + 8], "little") for at in range(0, len(stream), 8)
    )

    def geometric(p: float) -> int:
        uniform = (next(words) // 2**11 + 1) / 2**53
        return math.floor(math.log(uniform) / math.log1p(-p))

    fates: List[bool] = []
    good, bad = geometric(flip), 0
    while len(fates) < count:
        if good:
            fates.append(False)
            good -= 1
            continue
        if not bad:
            bad = 1 if recover == 1.0 else 1 + geometric(recover)
        fates.append(True)
        bad -= 1
        if not bad:
            good = geometric(flip)
    return fates
