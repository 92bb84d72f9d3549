"""Tests for the discrete-event simulation engine."""

import pytest

from repro.sim.engine import Simulator
from repro.sim.process import PeriodicProcess


class TestScheduling:
    def test_starts_at_time_zero(self):
        assert Simulator().now == 0.0

    def test_events_fire_in_time_order(self):
        sim = Simulator()
        fired = []
        sim.schedule(2.0, lambda: fired.append("late"))
        sim.schedule(1.0, lambda: fired.append("early"))
        sim.run()
        assert fired == ["early", "late"]

    def test_ties_break_by_scheduling_order(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append("first"))
        sim.schedule(1.0, lambda: fired.append("second"))
        sim.run()
        assert fired == ["first", "second"]

    def test_clock_advances_to_event_time(self):
        sim = Simulator()
        seen = []
        sim.schedule(3.5, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [3.5]
        assert sim.now == 3.5

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            Simulator().schedule(-1.0, lambda: None)

    def test_schedule_at_absolute_time(self):
        sim = Simulator()
        seen = []
        sim.schedule_at(4.0, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [4.0]

    def test_schedule_at_past_rejected(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run()
        with pytest.raises(ValueError):
            sim.schedule_at(0.5, lambda: None)

    def test_events_scheduled_during_events(self):
        sim = Simulator()
        fired = []

        def outer():
            fired.append("outer")
            sim.schedule(1.0, lambda: fired.append("inner"))

        sim.schedule(1.0, outer)
        sim.run()
        assert fired == ["outer", "inner"]
        assert sim.now == 2.0


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        sim = Simulator()
        fired = []
        handle = sim.schedule(1.0, lambda: fired.append("x"))
        handle.cancel()
        sim.run()
        assert fired == []
        assert handle.cancelled

    def test_cancel_is_idempotent(self):
        sim = Simulator()
        handle = sim.schedule(1.0, lambda: None)
        assert handle.cancel() is True
        assert handle.cancel() is False
        assert sim.run() == 0

    def test_cancel_after_fire_is_a_noop(self):
        sim = Simulator()
        fired = []
        handle = sim.schedule(1.0, lambda: fired.append("x"))
        assert sim.run() == 1
        assert handle.fired
        assert handle.cancel() is False
        assert not handle.cancelled
        assert handle.fired
        assert fired == ["x"]

    def test_cancel_within_callback_of_same_time(self):
        # Two events at the same timestamp: the first cancels the second,
        # which must then be skipped even though it was already queued.
        sim = Simulator()
        fired = []
        second = sim.schedule(1.0, lambda: fired.append("second"))
        first = sim.schedule(0.5, lambda: second.cancel())
        sim.run()
        assert fired == []
        assert first.fired and not second.fired

    def test_fired_flag_tracks_execution(self):
        sim = Simulator()
        handle = sim.schedule(1.0, lambda: None)
        assert not handle.fired
        sim.run()
        assert handle.fired

    def test_handle_exposes_time(self):
        sim = Simulator()
        handle = sim.schedule(2.5, lambda: None)
        assert handle.time == 2.5


class TestRun:
    def test_run_until_stops_before_later_events(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append(1))
        sim.schedule(5.0, lambda: fired.append(5))
        executed = sim.run(until=2.0)
        assert executed == 1
        assert fired == [1]
        assert sim.now == 2.0
        sim.run()
        assert fired == [1, 5]

    def test_run_until_advances_clock_without_events(self):
        sim = Simulator()
        sim.run(until=10.0)
        assert sim.now == 10.0

    def test_fired_counter(self):
        sim = Simulator()
        for i in range(4):
            sim.schedule(i, lambda: None)
        sim.run()
        assert sim.fired == 4

    def test_callbacks_see_fire_order_and_times(self):
        sim = Simulator()
        fired = []
        sim.schedule(2.0, lambda: fired.append(("b", sim.now)))
        sim.schedule(1.0, lambda: fired.append(("a", sim.now)))
        assert sim.run(until=1.0) == 1
        assert fired == [("a", 1.0)]
        assert sim.run() == 1
        assert fired == [("a", 1.0), ("b", 2.0)]


    def test_run_refuses_a_nan_until(self):
        # No event time compares greater than NaN: the run would never
        # stop against a self-rescheduling event.
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append(sim.now))
        with pytest.raises(ValueError, match="nan"):
            sim.run(until=float("nan"))
        assert fired == [] and sim.now == 0.0
        assert sim.run(until=1.0) == 1


class TestEdgeCases:
    def test_run_until_fires_events_exactly_at_boundary(self):
        # run(until=t) is inclusive: an event at exactly t executes and the
        # clock lands on t, while anything strictly later stays queued.
        sim = Simulator()
        fired = []
        sim.schedule(2.0, lambda: fired.append("at-boundary"))
        sim.schedule(2.0000001, lambda: fired.append("after"))
        executed = sim.run(until=2.0)
        assert executed == 1
        assert fired == ["at-boundary"]
        assert sim.now == 2.0
        assert sim.pending == 1

    def test_run_until_boundary_event_scheduled_from_callback(self):
        # A callback firing at t that schedules another zero-delay event at
        # t: the new event is still within `until` and fires in the same run.
        sim = Simulator()
        fired = []

        def outer():
            fired.append("outer")
            sim.schedule(0.0, lambda: fired.append("inner"))

        sim.schedule(3.0, outer)
        assert sim.run(until=3.0) == 2
        assert fired == ["outer", "inner"]

    def test_cancel_of_already_cancelled_handle_is_stable(self):
        sim = Simulator()
        handle = sim.schedule(1.0, lambda: None)
        assert handle.cancel() is True
        # The second (and any further) cancel is a no-op that neither
        # revives the event nor flips any state.
        assert handle.cancel() is False
        assert handle.cancel() is False
        assert handle.cancelled and not handle.fired
        assert sim.run() == 0
        assert handle.cancelled and not handle.fired

    def test_fifo_ties_across_schedules_made_inside_callbacks(self):
        # Tie-breaking is global scheduling order, not callback nesting:
        # events queued *before* a callback runs keep priority over
        # same-time events that callback schedules, and events scheduled
        # from inside one firing callback preserve their relative order.
        sim = Simulator()
        order = []

        def burst():
            order.append("burst")
            sim.schedule(1.0, lambda: order.append("inner-a"))
            sim.schedule(1.0, lambda: order.append("inner-b"))

        sim.schedule(1.0, burst)
        sim.schedule(2.0, lambda: order.append("pre-scheduled"))
        sim.run()
        assert order == ["burst", "pre-scheduled", "inner-a", "inner-b"]

    def test_zero_delay_chain_from_callback_runs_this_step(self):
        sim = Simulator()
        order = []

        def chain(depth):
            order.append(depth)
            if depth < 3:
                sim.schedule(0.0, lambda: chain(depth + 1))

        sim.schedule(5.0, lambda: chain(0))
        sim.run()
        assert order == [0, 1, 2, 3]
        assert sim.now == 5.0


class TestHeapEntries:
    def test_same_time_unorderable_callbacks_fire_fifo(self):
        # The heap orders entries by (time, seq) alone; it must never fall
        # through to comparing callbacks, which define no ordering.
        class Unorderable:
            def __init__(self, name, fired):
                self.name, self.fired = name, fired

            def __call__(self):
                self.fired.append(self.name)

        sim = Simulator()
        fired = []
        for name in "abcdef":
            sim.schedule(1.0, Unorderable(name, fired))
        assert sim.run() == 6
        assert fired == list("abcdef")

    def test_cancelled_head_is_skipped_under_run_until(self):
        sim = Simulator()
        fired = []
        head = sim.schedule(1.0, lambda: fired.append("head"))
        sim.schedule(2.0, lambda: fired.append("next"))
        sim.schedule(5.0, lambda: fired.append("later"))
        head.cancel()
        assert sim.run(until=3.0) == 1
        assert fired == ["next"]
        assert sim.now == 3.0
        assert sim.pending == 1

    def test_schedule_at_fires_at_exactly_the_requested_time(self):
        # now + (t - now) differs from t in the last bit for e.g.
        # now=0.2, t=0.9, which used to push a boundary event an ulp past
        # an inclusive run(until=t).
        for a in range(1, 50):
            for b in range(a, 100):
                now, at = a / 10, b / 10
                sim = Simulator()
                sim.run(until=now)
                fired = []
                handle = sim.schedule_at(at, lambda: fired.append(sim.now))
                assert handle.time == at
                assert sim.run(until=at) == 1
                assert fired == [at]


class TestPeriodicProcess:
    def test_ticks_at_period(self):
        sim = Simulator()
        ticks = []
        PeriodicProcess(sim, 1.0, lambda: ticks.append(sim.now))
        sim.run(until=3.5)
        assert ticks == [1.0, 2.0, 3.0]

    def test_stop_prevents_future_ticks(self):
        sim = Simulator()
        ticks = []
        process = PeriodicProcess(sim, 1.0, lambda: ticks.append(sim.now))
        sim.run(until=2.5)
        process.stop()
        sim.run(until=10.0)
        assert ticks == [1.0, 2.0]
        assert not process._running

    def test_invalid_period_rejected(self):
        with pytest.raises(ValueError):
            PeriodicProcess(Simulator(), 0.0, lambda: None)
