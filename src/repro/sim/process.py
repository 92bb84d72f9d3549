"""Periodic processes on top of the event engine.

The control plane of 4D TeleCast contains several periodically repeating
activities -- viewers monitor stream end-to-end delays, the GSC refreshes
producer metadata, the adaptation component re-evaluates delay layers.
:class:`PeriodicProcess` captures that pattern once.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.sim.engine import EventHandle, Simulator
from repro.util.validation import require_positive


class PeriodicProcess:
    """Invoke a callback every ``period`` seconds until stopped.

    Parameters
    ----------
    sim:
        The simulator driving the process.
    period:
        Interval between invocations, in seconds.
    callback:
        Zero-argument callable invoked at every tick, the first one
        period after construction.
    """

    def __init__(self, sim: Simulator, period: float, callback: Callable[[], None]) -> None:
        require_positive(period, "period")
        self._sim = sim
        self._period = period
        self._callback = callback
        self._running = True
        self._handle: Optional[EventHandle] = sim.schedule(period, self._tick)

    def _tick(self) -> None:
        if not self._running:
            return
        self._callback()
        if self._running:
            self._handle = self._sim.schedule(self._period, self._tick)

    def stop(self) -> None:
        """Stop the process; any pending tick is cancelled."""
        self._running = False
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None
