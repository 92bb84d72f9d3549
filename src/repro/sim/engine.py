"""A small, deterministic discrete-event simulation engine.

The engine is intentionally minimal: a priority queue of timestamped
callbacks, a simulation clock, and cancellation handles.  Determinism is a
first-class requirement (experiments must be exactly repeatable from a
seed), so ties in time are broken by a monotonically increasing sequence
number -- events scheduled earlier run earlier.

Example
-------
>>> sim = Simulator()
>>> fired = []
>>> _ = sim.schedule(1.0, lambda: fired.append(sim.now))
>>> _ = sim.schedule(0.5, lambda: fired.append(sim.now))
>>> sim.run()
2
>>> fired
[0.5, 1.0]
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import Any, Callable, List, Optional

from repro.util.validation import require_non_negative


# A heap entry is a plain list ``[time, seq, callback, state]``:
# ``heapq`` orders lists element-wise in C, and ``seq`` is unique, so the
# comparison is decided by ``(time, seq)`` and never reaches the callback.
# The list is mutable because cancellation and firing flip ``state`` in
# place while an :class:`EventHandle` shares the entry with the heap.
_TIME, _SEQ, _CALLBACK, _STATE = range(4)
_PENDING, _CANCELLED, _FIRED = range(3)


class EventHandle:
    """Handle returned by :meth:`Simulator.schedule` allowing cancellation.

    Example
    -------
    >>> sim = Simulator()
    >>> fired = []
    >>> handle = sim.schedule(1.0, lambda: fired.append("x"))
    >>> handle.cancel()
    True
    >>> sim.run()
    0
    >>> fired
    []
    """

    __slots__ = ("_entry",)

    def __init__(self, entry: list) -> None:
        self._entry = entry

    @property
    def time(self) -> float:
        """Scheduled firing time of the event."""
        return self._entry[_TIME]

    @property
    def cancelled(self) -> bool:
        """Whether the event was cancelled before it fired."""
        return self._entry[_STATE] == _CANCELLED

    @property
    def fired(self) -> bool:
        """Whether the event's callback has already run."""
        return self._entry[_STATE] == _FIRED

    def cancel(self) -> bool:
        """Cancel the event; it will be skipped when dequeued.

        Cancelling an event that already fired (or was already cancelled)
        is a no-op; the handle then still reports ``fired=True`` /
        ``cancelled=False`` truthfully rather than pretending the past was
        undone.  Returns ``True`` only when this call actually prevented
        the event from running.

        Example
        -------
        >>> sim = Simulator()
        >>> handle = sim.schedule(1.0, lambda: None)
        >>> sim.run()
        1
        >>> handle.cancel()  # already fired: a no-op
        False
        >>> handle.cancelled
        False
        >>> handle.fired
        True
        """
        if self._entry[_STATE] != _PENDING:
            return False
        self._entry[_STATE] = _CANCELLED
        return True


class Simulator:
    """Deterministic discrete-event simulator."""

    def __init__(self) -> None:
        self._now = 0.0
        self._queue: List[list] = []
        self._seq = itertools.count()
        self._fired = 0

    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    @property
    def pending(self) -> int:
        """Number of events still queued (including cancelled ones)."""
        return len(self._queue)

    @property
    def fired(self) -> int:
        """Total number of events executed so far."""
        return self._fired

    def next_time(self) -> float:
        """Time of the earliest pending event, or ``math.inf`` if none.

        Cancelled entries at the head are discarded, as :meth:`run` would.

        >>> sim = Simulator()
        >>> sim.next_time()
        inf
        >>> sim.schedule(1.0, lambda: None).cancel()
        True
        >>> _ = sim.schedule(2.0, lambda: None)
        >>> sim.next_time()
        2.0
        """
        while self._queue and self._queue[0][_STATE] == _CANCELLED:
            heapq.heappop(self._queue)
        return self._queue[0][_TIME] if self._queue else math.inf

    def schedule(self, delay: float, callback: Callable[[], Any]) -> EventHandle:
        """Schedule ``callback`` to run ``delay`` seconds from now.

        Returns an :class:`EventHandle` that can be used to cancel the event
        before it fires.

        Example
        -------
        >>> sim = Simulator()
        >>> handle = sim.schedule(2.5, lambda: None)
        >>> handle.time
        2.5
        >>> sim.run()
        1
        >>> sim.now
        2.5
        """
        require_non_negative(delay, "delay")
        return self._push(self._now + delay, callback)

    def schedule_at(self, time: float, callback: Callable[[], Any]) -> EventHandle:
        """Schedule ``callback`` at exactly ``time`` (absolute, >= now).

        The entry carries ``time`` itself, not ``now + (time - now)``,
        which can differ from it in the last bit and would then miss an
        inclusive ``run(until=time)`` boundary.
        """
        if time < self._now:
            raise ValueError(
                f"cannot schedule event in the past: {time} < now={self._now}"
            )
        return self._push(time, callback)

    def _push(self, time: float, callback: Callable[[], Any]) -> EventHandle:
        entry = [time, next(self._seq), callback, _PENDING]
        heapq.heappush(self._queue, entry)
        return EventHandle(entry)

    def run(self, until: Optional[float] = None) -> int:
        """Run events until the queue drains or ``until`` is reached.

        Returns the number of events executed by this call.  When ``until``
        is given, the clock is advanced to exactly ``until`` even if the last
        event fired earlier, so back-to-back ``run(until=...)`` calls behave
        like contiguous epochs.  A NaN ``until`` would never stop the run.
        """
        if until is not None and math.isnan(until):
            raise ValueError("until must be a number, got nan")
        # The engine's hot loop: peek, pop and fire inline (no per-event
        # method call).
        queue = self._queue
        pop = heapq.heappop
        executed = 0
        while queue:
            entry = queue[0]
            if entry[_STATE] == _CANCELLED:
                pop(queue)
                continue
            if until is not None and entry[_TIME] > until:
                break
            pop(queue)
            self._now = entry[_TIME]
            entry[_STATE] = _FIRED
            entry[_CALLBACK]()
            self._fired += 1
            executed += 1
        if until is not None and until > self._now:
            self._now = until
        return executed
