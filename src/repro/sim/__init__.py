"""Discrete-event simulation substrate.

The paper evaluates 4D TeleCast "using a discrete event simulator"
(Section VII).  This package rebuilds that substrate: a deterministic,
seedable event loop (:class:`~repro.sim.engine.Simulator`) with
cancellable events, periodic processes and the control/data transport.
"""

from repro.sim.engine import EventHandle, Simulator
from repro.sim.process import PeriodicProcess
from repro.sim.rng import SeededRandom
from repro.sim.transport import ControlChannel, ControlMessage

__all__ = [
    "EventHandle",
    "Simulator",
    "PeriodicProcess",
    "SeededRandom",
    "ControlChannel",
    "ControlMessage",
]
