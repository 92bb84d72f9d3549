"""A deterministic guard for the simulated replay's per-chunk overhead.

Wall-clock gains do not survive a shared CI runner; counts do.  One
lossy replay (the 30-viewer, one-LSC overlay of
``tests/test_dataplane_sim.py``, 60 frames a stream, 2 % loss, the
observed-delay refresh every 2.5 s, seed 7) runs with the drain's heap
pops, its FIFO departure columns and its chunk sends counted per drain
window.  Two bounds are checked in every window:

* **heap pops <= live edges** (the edges on the heap when the window
  opens): an edge is popped once per window, its chunks up to the next
  control event walked on the stream's capture-time column.  Popping and
  pushing back every :data:`~repro.core.dataplane.BATCH_QUANTUM` chunk
  cost one pop a chunk: 432, 288 and 144 pops in the three windows
  here, over 144 live edges;
* **FIFO recurrences <= distinct (stream, link ``free_at``) states**
  among the window's sends: the departure column
  (:func:`~repro.core.dataplane._departures`) reads nothing
  edge-specific, so every edge whose link is in the same state shares
  one: 16 columns a window here, where each of the 144 sends re-ran
  the recurrence before.

The replay must still do its work: every window sends more edges than
it computes columns for, and the frame counts are pinned.
"""

from __future__ import annotations

from collections import Counter

from repro.core import dataplane
from repro.core.dataplane import DataPlaneConfig, SimulatedDataPlane
from repro.experiments.config import PAPER_CONFIG
from repro.experiments.runner import build_scenario, build_telecast_system
from repro.sim.rng import SeededRandom
from repro.traces.teeve import TeeveSessionTrace

OVERLAY = PAPER_CONFIG.with_scaled_population(30, num_lscs=1)

PLANE = DataPlaneConfig(
    loss_rate=0.02, refresh_interval=2.5, max_frames_per_stream=60, seed=7
)

#: Frames sent and lost by the replay (a change here is a change of
#: what the replay does, not of what it costs).
FRAMES_SENT = 8640
FRAMES_LOST = 178


class _CountedPlane(SimulatedDataPlane):
    """Records, per drain window, the live edges and the counters' deltas."""

    def __init__(self, *args, counts: Counter, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.counts = counts
        self.windows = []

    def _drain(self) -> None:
        live = len(self._due)
        before = Counter(self.counts)
        self.counts["states"] = set()
        super()._drain()
        self.windows.append(
            {
                "live": live,
                "pops": self.counts["pops"] - before["pops"],
                "columns": self.counts["columns"] - before["columns"],
                "sends": self.counts["sends"] - before["sends"],
                "states": len(self.counts["states"]),
            }
        )


def _counted_replay(monkeypatch):
    counts = Counter()
    heappop, departures, send_chunk = (
        dataplane.heappop,
        dataplane._departures,
        dataplane._send_chunk,
    )

    def counted_pop(heap):
        counts["pops"] += 1
        return heappop(heap)

    def counted_departures(*args, **kwargs):
        counts["columns"] += 1
        return departures(*args, **kwargs)

    def counted_send(channel, link, edge, *args, **kwargs):
        counts["sends"] += 1
        counts["states"].add((edge.stream_id, link.free_at))
        return send_chunk(channel, link, edge, *args, **kwargs)

    monkeypatch.setattr(dataplane, "heappop", counted_pop)
    monkeypatch.setattr(dataplane, "_departures", counted_departures)
    monkeypatch.setattr(dataplane, "_send_chunk", counted_send)
    scenario = build_scenario(OVERLAY)
    system = build_telecast_system(scenario)
    system.run_workload(scenario.viewers, scenario.events, scenario.views)
    trace = TeeveSessionTrace(scenario.producers, rng=SeededRandom(OVERLAY.seed))
    plane = _CountedPlane(system, trace, PLANE, counts=counts)
    report = plane.run()
    return plane.windows, report


def test_a_window_pops_each_edge_once_and_shares_its_departure_columns(monkeypatch):
    windows, report = _counted_replay(monkeypatch)
    assert (report.frames_sent, report.frames_lost) == (FRAMES_SENT, FRAMES_LOST)
    assert len(windows) >= 3
    for window in windows:
        assert window["pops"] <= window["live"], window
        assert window["columns"] <= window["states"], window
        assert window["columns"] < window["sends"], window
