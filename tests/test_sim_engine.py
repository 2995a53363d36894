"""Unit tests for the discrete-event engine."""

import pytest

from repro.sim.engine import Engine, SimulationError


def test_runs_events_in_time_order():
    eng = Engine()
    seen = []
    eng.schedule(10.0, seen.append, "b")
    eng.schedule(5.0, seen.append, "a")
    eng.schedule(20.0, seen.append, "c")
    eng.run()
    assert seen == ["a", "b", "c"]
    assert eng.now == 20.0


def test_fifo_among_simultaneous_events():
    eng = Engine()
    seen = []
    for i in range(10):
        eng.schedule(1.0, seen.append, i)
    eng.run()
    assert seen == list(range(10))


def test_cancel_skips_event():
    eng = Engine()
    seen = []
    ev = eng.schedule(1.0, seen.append, "x")
    eng.schedule(2.0, seen.append, "y")
    ev.cancel()
    eng.run()
    assert seen == ["y"]


def test_cancel_is_idempotent():
    eng = Engine()
    ev = eng.schedule(1.0, lambda: None)
    assert not ev.cancelled
    ev.cancel()
    ev.cancel()
    assert ev.cancelled
    eng.run()
    assert eng.events_dispatched == 0


def test_run_until_stops_clock_exactly():
    eng = Engine()
    seen = []
    eng.schedule(5.0, seen.append, 1)
    eng.schedule(15.0, seen.append, 2)
    eng.run(until=10.0)
    assert seen == [1]
    assert eng.now == 10.0
    eng.run()
    assert seen == [1, 2]


def test_run_until_advances_clock_when_idle():
    eng = Engine()
    eng.run(until=100.0)
    assert eng.now == 100.0


def test_events_scheduled_during_dispatch_run():
    eng = Engine()
    seen = []

    def first():
        seen.append("first")
        eng.schedule(1.0, seen.append, "second")

    eng.schedule(1.0, first)
    eng.run()
    assert seen == ["first", "second"]
    assert eng.now == 2.0


def test_call_soon_runs_at_current_time():
    eng = Engine()
    times = []

    def outer():
        eng.call_soon(lambda: times.append(eng.now))

    eng.schedule(7.0, outer)
    eng.run()
    assert times == [7.0]


def test_negative_delay_rejected():
    eng = Engine()
    with pytest.raises(SimulationError):
        eng.schedule(-1.0, lambda: None)


def test_scheduling_in_past_rejected():
    eng = Engine()
    eng.schedule(10.0, lambda: None)
    eng.run()
    with pytest.raises(SimulationError):
        eng.at(5.0, lambda: None)


def test_max_events_limit():
    eng = Engine()
    for i in range(10):
        eng.schedule(float(i + 1), lambda: None)
    eng.run(max_events=3)
    assert eng.events_dispatched == 3
    assert eng.pending() == 7


def test_step_returns_false_when_idle():
    eng = Engine()
    assert eng.step() is False
    eng.schedule(1.0, lambda: None)
    assert eng.step() is True
    assert eng.step() is False


def test_engine_not_reentrant():
    eng = Engine()
    errors = []

    def nested():
        try:
            eng.run()
        except SimulationError as exc:
            errors.append(exc)

    eng.schedule(1.0, nested)
    eng.run()
    assert len(errors) == 1


def test_pending_excludes_cancelled():
    eng = Engine()
    events = [eng.schedule(float(i), lambda: None) for i in range(6)]
    for ev in events[::2]:
        ev.cancel()
    assert eng.pending() == 3
    eng.run()
    assert eng.pending() == 0
    assert eng.events_dispatched == 3


def test_fifo_among_equal_times_includes_call_soon():
    eng = Engine()
    seen = []

    def first():
        seen.append("first")
        eng.call_soon(seen.append, "soon-1")
        eng.schedule(0.0, seen.append, "zero-delay")
        eng.call_soon(seen.append, "soon-2")

    eng.schedule(3.0, first)
    eng.at(3.0, seen.append, "at")
    eng.schedule(3.0, seen.append, "schedule")
    eng.run()
    assert seen == ["first", "at", "schedule", "soon-1", "zero-delay",
                    "soon-2"]


def test_cancelled_head_is_skipped_by_run():
    eng = Engine()
    seen = []
    eng.schedule(1.0, seen.append, "head").cancel()
    eng.schedule(2.0, seen.append, "next")
    eng.run()
    assert seen == ["next"]
    assert eng.events_dispatched == 1
    assert eng.now == 2.0


def test_cancelled_head_is_skipped_by_run_until():
    eng = Engine()
    seen = []
    eng.schedule(1.0, seen.append, "head").cancel()
    eng.schedule(5.0, seen.append, "late")
    eng.run(until=3.0)
    assert seen == []
    assert eng.now == 3.0
    assert eng.pending() == 1
    eng.run(until=6.0)
    assert seen == ["late"]
    assert eng.events_dispatched == 1


def test_cancelled_head_is_skipped_by_step():
    eng = Engine()
    seen = []
    eng.schedule(1.0, seen.append, "head").cancel()
    eng.schedule(2.0, seen.append, "next")
    assert eng.step() is True
    assert seen == ["next"]
    assert eng.now == 2.0
    assert eng.step() is False


def test_event_reads_back_what_was_scheduled():
    eng = Engine()
    eng.schedule(2.0, lambda: None)
    eng.run()

    def callback(a, b):
        pass

    ev = eng.schedule(1.5, callback, "x", 7)
    assert ev.time == 3.5
    assert ev.fn is callback
    assert ev.args == ("x", 7)
    soon = eng.call_soon(callback, 1, 2)
    assert (soon.time, soon.fn, soon.args) == (2.0, callback, (1, 2))
    assert ev.seq < soon.seq
    ev.cancel()
    assert ev.args == ("x", 7)  # still readable, e.g. to recover a request


def test_seq_counts_every_scheduled_event_including_cancelled():
    eng = Engine()
    eng.schedule(1.0, lambda: None).cancel()
    eng.at(2.0, lambda: None)
    eng.call_soon(lambda: None).cancel()
    assert eng._seq == 3
    eng.run()
    assert eng._seq == 3
    assert eng.events_dispatched == 1
