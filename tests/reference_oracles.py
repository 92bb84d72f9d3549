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
* :func:`gilbert_elliott_walk` -- the two-state loss channel one frame
  at a time, which :class:`repro.sim.transport.LossProcess` must match
  draw for draw (``tests/test_properties.py``,
  ``tests/test_dataplane_sim.py``).
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence, Tuple

from repro.core.bandwidth import _EPSILON, OutboundAllocation, PrioritizedStream
from repro.core.layering import DelayLayerConfig
from repro.model.cdn import CDN_NODE_ID
from repro.net.latency import DelayModel
from repro.service.daemon import VOLATILE_STATS_KEYS
from repro.sim.rng import SeededRandom
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


def gilbert_elliott_walk(
    flip: float, recover: float, rng: SeededRandom, count: int, bad: bool = False
) -> Tuple[List[bool], bool]:
    """Fates of ``count`` frames of a two-state channel, and its last state.

    One frame at a time: a BAD frame first recovers with probability
    ``recover``, and a GOOD frame flips to BAD (and is lost) with
    probability ``flip``.  A transition of
    probability 0 or 1 consumes no draw, so at ``recover == 1.0`` the
    walk spends one uniform per frame: the i.i.d. draw.
    """
    fates = []
    for _ in range(count):
        if bad:
            if recover < 1.0 and rng.random() >= recover:
                fates.append(True)
                continue
            bad = False
        if flip > 0.0 and rng.random() < flip:
            bad = True
        fates.append(bad)
    return fates, bad
