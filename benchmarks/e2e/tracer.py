"""Outside-in tracer: times calls into the repo's public functions.

The program under test does not trace itself, so the layer numbers come
from here: for the duration of one rep the tracer rebinds public
callables (module functions, methods on classes) to timing wrappers and
restores every one afterwards, even when the body raises.  A module
function imported by name elsewhere (``allocate_inbound`` in
``core.controllers``) is rebound in every ``repro`` module that holds it.

Each span has a name, start, end, parent span and the id of the
top-level op that caused it.  Self time is the span's duration minus the
time its child spans cover.  Aggregates (calls, total, self, outcome
counts read from return values) are kept for every span; full spans are
kept in memory for one top-level op in ``sample_every`` and written out
as JSONL when the rep ends.

The wrapper's own bookkeeping runs inside the *parent's* interval, so a
layer that makes many traced calls reads slower than it is;
``trace.overhead_ratio`` bounds that error.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple, Union

#: What an outcome reader may return: a counter name (adds one), or
#: ``(name, amount)`` pairs; ``None`` counts nothing.
Outcome = Union[None, str, Sequence[Tuple[str, float]]]


@dataclass(frozen=True)
class SpanPoint:
    """One public callable to time: ``owner.attr`` reported under ``layer``."""

    layer: str
    #: The module or class holding the callable.
    owner: object
    attr: str
    #: Entering this span outside any op starts a new top-level op.
    op: bool = False
    #: Keep every call's duration (for percentiles and growth).
    keep: bool = False
    #: Reads outcome counters off ``(return value, positional args)``.
    outcome: Optional[Callable[[object, tuple], Outcome]] = None

    @property
    def name(self) -> str:
        """``Class.method`` or ``module.function`` (last module component)."""
        owner = getattr(self.owner, "__qualname__", None) or self.owner.__name__.rsplit(".", 1)[-1]
        return f"{owner}.{self.attr}"


@dataclass
class SpanStats:
    """Aggregate of one span name over a traced rep."""

    layer: str
    calls: int = 0
    total_ns: int = 0
    self_ns: int = 0


class Tracer:
    """Installs timing wrappers on :class:`SpanPoint` s for one ``with`` block."""

    def __init__(
        self,
        points: Sequence[SpanPoint],
        *,
        sample_every: int = 50,
        clock: Callable[[], int] = time.perf_counter_ns,
    ) -> None:
        self._points = list(points)
        self._sample_every = sample_every
        self._clock = clock
        #: ``[calls, total_ns, self_ns]`` per point index, then per root.
        self._stats: List[List[int]] = []
        self._names: List[str] = []
        self._layers: List[str] = []
        self.outcomes: Dict[str, Dict[str, float]] = {}
        self.durations: Dict[str, List[int]] = {}
        #: Open spans: ``[index, start_ns, child_ns, span_id, parent_span_id]``.
        self._stack: List[List[int]] = []
        self._restore: List[Tuple[object, str, object]] = []
        self._roots: Dict[str, int] = {}
        self._op: Optional[int] = None
        self._sampling = False
        self.ops_seen = 0
        self._next_span = 0
        #: Sampled spans: ``(span_id, index, start_ns, end_ns, parent_id, op_id)``.
        self.spans: List[Tuple[int, int, int, int, int, int]] = []

    # -- install / restore -------------------------------------------------

    def __enter__(self) -> "Tracer":
        try:
            for point in self._points:
                self._install(point)
        except BaseException:
            self._restore_all()
            raise
        return self

    def __exit__(self, *_exc) -> None:
        self._restore_all()

    def _restore_all(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def _new_index(self, name: str, layer: str) -> int:
        self._stats.append([0, 0, 0])
        self._names.append(name)
        self._layers.append(layer)
        return len(self._stats) - 1

    def _install(self, point: SpanPoint) -> None:
        raw = inspect.getattr_static(point.owner, point.attr)
        if not inspect.isfunction(raw):
            raise TypeError(f"{point.name} is not a plain function; cannot trace it")
        index = self._new_index(point.name, point.layer)
        wrapper = self._wrap(index, raw, point)
        self._rebind(point.owner, point.attr, raw, wrapper)
        if inspect.ismodule(point.owner):
            # ``from x import f`` copies: rebind wherever the program holds one.
            for module_name, module in list(sys.modules.items()):
                if module is point.owner or not module_name.startswith("repro"):
                    continue
                for attr, value in list(vars(module).items()):
                    if value is raw:
                        self._rebind(module, attr, raw, wrapper)

    def _rebind(self, owner: object, attr: str, original: object, wrapper: object) -> None:
        self._restore.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def _wrap(self, index: int, fn: Callable, point: SpanPoint) -> Callable:
        tracer = self
        stack = self._stack
        stats = self._stats[index]
        clock = self._clock
        spans = self.spans
        every = self._sample_every
        starts_op = point.op
        read_outcome = point.outcome
        durations = self.durations.setdefault(point.name, []) if point.keep else None
        counters = self.outcomes.setdefault(point.name, {}) if read_outcome else None

        def traced(*args, **kwargs):
            if not stack:
                # Outside every root (untimed verification, world builds
                # for a later body): not part of the measurement.
                return fn(*args, **kwargs)
            opened = starts_op and tracer._op is None
            if opened:
                tracer._op = tracer.ops_seen
                tracer._sampling = tracer.ops_seen % every == 0
                tracer.ops_seen += 1
            if tracer._sampling:
                span_id = tracer._next_span
                tracer._next_span += 1
                parent_id = stack[-1][3]
            else:
                span_id = parent_id = -1
            frame = [index, 0, 0, span_id, parent_id]
            stack.append(frame)
            frame[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[1]
                stats[0] += 1
                stats[1] += duration
                stats[2] += duration - frame[2]
                stack[-1][2] += duration
                if durations is not None:
                    durations.append(duration)
                if span_id >= 0:
                    spans.append((span_id, index, frame[1], end, parent_id, tracer._op))
                if opened:
                    tracer._op = None
                    tracer._sampling = False
            if read_outcome is not None:
                outcome = read_outcome(result, args)
                if outcome is not None:
                    if outcome.__class__ is str:
                        counters[outcome] = counters.get(outcome, 0) + 1
                    else:
                        for key, amount in outcome:
                            counters[key] = counters.get(key, 0) + amount
            return result

        traced.__name__ = getattr(fn, "__name__", point.attr)
        traced.__doc__ = fn.__doc__
        traced.__wrapped__ = fn
        return traced

    # -- roots ---------------------------------------------------------------

    @contextmanager
    def root(self, name: str) -> Iterator[None]:
        """A top-level span (``setup``, ``body``): the frame of unattributed time."""
        index = self._roots.get(name)
        if index is None:
            index = self._roots[name] = self._new_index(f"root:{name}", "root")
        frame = [index, 0, 0, -1, -1]
        self._stack.append(frame)
        frame[1] = self._clock()
        try:
            yield
        finally:
            end = self._clock()
            self._stack.pop()
            duration = end - frame[1]
            stats = self._stats[index]
            stats[0] += 1
            stats[1] += duration
            stats[2] += duration - frame[2]

    # -- results ---------------------------------------------------------------

    def stats(self) -> Dict[str, SpanStats]:
        """Aggregates by span name (roots are ``root:<name>``)."""
        return {
            name: SpanStats(layer=layer, calls=calls, total_ns=total, self_ns=self_ns)
            for name, layer, (calls, total, self_ns) in zip(
                self._names, self._layers, self._stats
            )
        }

    def write_jsonl(self, path: str) -> int:
        """Write the sampled spans, one JSON object a line; return the count."""
        origin = min((span[2] for span in self.spans), default=0)
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, index, start, end, parent_id, op_id in sorted(self.spans):
                handle.write(
                    json.dumps(
                        {
                            "span": span_id,
                            "name": self._names[index],
                            "layer": self._layers[index],
                            "start_ns": start - origin,
                            "end_ns": end - origin,
                            "parent": parent_id if parent_id >= 0 else None,
                            "op": op_id,
                        },
                        separators=(",", ":"),
                    )
                    + "\n"
                )
        return len(self.spans)
