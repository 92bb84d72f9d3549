"""The delay layer hierarchy (Section V-B1).

Layers discretise end-to-end stream delay at viewers.  Layer width is
``tau = d_buff / kappa`` with ``kappa >= 2``.  Viewers at Layer-y receive a
stream with end-to-end delay in ``[Delta + y*tau, Delta + (y+1)*tau)`` where
``Delta`` is the constant producer-to-CDN-to-first-child delay.  Layer-0 is
the freshest layer; CDN-fed viewers always sit in Layer-0.

The module implements:

* Equation (1): the layer of a stream at a viewer given its parent's
  end-to-end delay, the propagation delay from the parent and the parent's
  processing delay,
* Equation (2): the frame number a viewer must subscribe at to move into a
  target layer,
* Layer Property 1: which layers a parent can serve from its buffer+cache,
* the maximum acceptable layer index implied by ``d_max``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.util.validation import require_non_negative, require_positive


@dataclass(frozen=True)
class DelayLayerConfig:
    """Static parameters of the delay-layer hierarchy.

    Attributes
    ----------
    delta:
        ``Delta``: end-to-end delay of CDN-served streams (60 s in the
        paper's evaluation).
    buffer_duration:
        ``d_buff``: gateway buffer length (300 ms).
    kappa:
        Number of layers a synchronous view may span; ``tau = d_buff/kappa``.
        The paper requires ``kappa >= 2`` and uses ``kappa = 2``.
    d_max:
        Maximum acceptable capture-to-display delay at a viewer (65 s).
    cache_duration:
        ``d_cache``: gateway cache length.  The paper sets
        ``d_cache = d_max - Delta - d_buff`` so any viewer can serve any
        acceptable layer; the default of ``None`` applies that rule.
    """

    delta: float = 60.0
    buffer_duration: float = 0.3
    kappa: int = 2
    d_max: float = 65.0
    cache_duration: float = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        require_non_negative(self.delta, "delta")
        require_positive(self.buffer_duration, "buffer_duration")
        if self.kappa < 2:
            raise ValueError(f"kappa must be >= 2, got {self.kappa}")
        require_positive(self.d_max, "d_max")
        if math.isinf(self.d_max):
            # No layer bound: the largest layer index would be infinite.
            raise ValueError(f"d_max must be finite, got {self.d_max}")
        if self.d_max <= self.delta:
            raise ValueError(
                f"d_max ({self.d_max}) must exceed the CDN delay Delta ({self.delta})"
            )
        if self.cache_duration is None:
            object.__setattr__(
                self,
                "cache_duration",
                max(0.0, self.d_max - self.delta - self.buffer_duration),
            )
        require_non_negative(self.cache_duration, "cache_duration")
        # Derived constants are read on every layer computation of every
        # join; precompute them once (the config is frozen).
        object.__setattr__(self, "_tau", self.buffer_duration / self.kappa)
        object.__setattr__(
            self,
            "_max_layer_index",
            int(math.floor((self.d_max - self.delta) / self._tau)),
        )

    @property
    def tau(self) -> float:
        """Layer width ``tau = d_buff / kappa`` (seconds)."""
        return self._tau

    @property
    def max_layer_index(self) -> int:
        """Largest acceptable layer index, ``floor((d_max - Delta) / tau)``."""
        return self._max_layer_index

    def layer_for_delay(self, end_to_end_delay: float) -> int:
        """Layer index a given end-to-end delay falls into (clamped at 0)."""
        require_non_negative(end_to_end_delay, "end_to_end_delay")
        if end_to_end_delay <= self.delta:
            return 0
        return int(math.floor((end_to_end_delay - self.delta) / self.tau))

    def delay_for_layer(self, layer: int, *, offset: float = 0.0) -> float:
        """Nominal end-to-end delay of a viewer positioned in Layer-``layer``.

        ``offset`` in ``[0, tau)`` positions the viewer inside the layer; the
        subscription process uses ``offset = tau`` (i.e. the top of the next
        layer boundary) during push-down so that subsequent push-downs fade
        out, mirroring the paper's choice of the ``R`` term.
        """
        require_non_negative(layer, "layer")
        if not (0.0 <= offset <= self.tau + 1e-12):
            raise ValueError(f"offset must be in [0, tau], got {offset}")
        return self.delta + layer * self.tau + offset

    def is_acceptable_layer(self, layer: int) -> bool:
        """Whether Layer-``layer`` respects the ``d_max`` bound."""
        return 0 <= layer <= self.max_layer_index


def subscription_frame_number(
    config: DelayLayerConfig,
    latest_frame_number: int,
    frame_rate: float,
    target_layer: int,
    propagation_delay: float,
    processing_delay: float,
    *,
    offset_fraction: float = 1.0,
) -> int:
    """Equation (2): the frame number to request to move into ``target_layer``.

    ``n' = n - (Delta + (x+1)*tau)*r + (d_prop + delta)*r + d_prop*r + R``
    where ``R`` is an offset in ``[0, tau*r]``; ``offset_fraction`` selects
    ``R = offset_fraction * tau * r``.  The paper uses ``R = tau*r`` during
    layer push-down so the push-down fades out along the child chain.

    The result is clamped to ``[0, latest_frame_number]``.
    """
    require_positive(frame_rate, "frame_rate")
    require_non_negative(target_layer, "target_layer")
    if not (0.0 <= offset_fraction <= 1.0):
        raise ValueError("offset_fraction must be in [0, 1]")
    if latest_frame_number < 0:
        raise ValueError("latest_frame_number must be >= 0")
    tau = config.tau
    offset = offset_fraction * tau * frame_rate
    n_prime = (
        latest_frame_number
        - (config.delta + (target_layer + 1) * tau) * frame_rate
        + (propagation_delay + processing_delay) * frame_rate
        + propagation_delay * frame_rate
        + offset
    )
    return max(0, min(latest_frame_number, int(round(n_prime))))
