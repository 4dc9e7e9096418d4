"""Discrete-event scheduler."""

import pytest

from repro.common.errors import SimulationError
from repro.common.events import Scheduler


def test_events_fire_in_time_order():
    sched = Scheduler()
    order = []
    sched.at(10, lambda: order.append("b"))
    sched.at(5, lambda: order.append("a"))
    sched.at(20, lambda: order.append("c"))
    sched.run()
    assert order == ["a", "b", "c"]
    assert sched.now == 20


def test_same_time_events_fire_in_insertion_order():
    sched = Scheduler()
    order = []
    for i in range(5):
        sched.at(7, lambda i=i: order.append(i))
    sched.run()
    assert order == [0, 1, 2, 3, 4]


def test_after_is_relative_to_now():
    sched = Scheduler()
    times = []
    sched.at(10, lambda: sched.after(5, lambda: times.append(sched.now)))
    sched.run()
    assert times == [15]


def test_cannot_schedule_in_the_past():
    sched = Scheduler()
    sched.at(10, lambda: None)
    sched.run()
    with pytest.raises(SimulationError):
        sched.at(5, lambda: None)


def test_negative_delay_rejected():
    sched = Scheduler()
    with pytest.raises(SimulationError):
        sched.after(-1, lambda: None)


def test_until_condition_stops_run():
    sched = Scheduler()
    fired = []
    for t in (1, 2, 3, 4):
        sched.at(t, lambda t=t: fired.append(t))
    sched.run(until=lambda: len(fired) >= 2)
    assert fired == [1, 2]
    assert sched.pending() == 2


def test_max_cycles_guard():
    sched = Scheduler()

    def reschedule():
        sched.after(10, reschedule)

    sched.after(0, reschedule)
    with pytest.raises(SimulationError, match="max_cycles"):
        sched.run(max_cycles=100)


def test_max_events_guard():
    sched = Scheduler()

    def reschedule():
        sched.after(0, reschedule)

    sched.after(0, reschedule)
    with pytest.raises(SimulationError, match="max_events"):
        sched.run(max_events=50)


def test_events_fired_counts():
    sched = Scheduler()
    for t in range(5):
        sched.at(t, lambda: None)
    sched.run()
    assert sched.events_fired == 5


def test_step_returns_false_when_empty():
    assert Scheduler().step() is False


# -- stop-condition boundary semantics ------------------------------------


def test_until_true_before_first_event():
    sched = Scheduler()
    fired = []
    sched.at(1, lambda: fired.append(1))
    sched.run(until=lambda: True)
    assert fired == []
    assert sched.pending() == 1


def test_max_cycles_event_exactly_at_limit_fires():
    sched = Scheduler()
    fired = []
    sched.at(100, lambda: fired.append(sched.now))
    sched.run(max_cycles=100)  # at the limit is not past it
    assert fired == [100]


def test_max_cycles_final_event_past_limit_drains():
    # The guard is checked before each step, so a last event past the
    # limit still fires and the run ends when the queue drains.
    sched = Scheduler()
    fired = []
    sched.at(150, lambda: fired.append(sched.now))
    sched.run(max_cycles=100)
    assert fired == [150]


def test_max_cycles_raises_only_with_work_remaining():
    sched = Scheduler()
    fired = []
    sched.at(150, lambda: fired.append(sched.now))
    sched.at(160, lambda: fired.append(sched.now))
    with pytest.raises(SimulationError, match="max_cycles=100"):
        sched.run(max_cycles=100)
    assert fired == [150]  # the crossing event fired; the next did not


def test_max_events_exact_budget_plus_one_drains():
    # The guard trips on *exceeding* the budget with work remaining, so
    # limit+1 queued events still drain without an error...
    sched = Scheduler()
    for t in range(4):
        sched.at(t, lambda: None)
    sched.run(max_events=3)
    assert sched.events_fired == 4


def test_max_events_raise_count():
    # ...and a longer backlog raises right after the limit+1-th event.
    sched = Scheduler()
    for t in range(10):
        sched.at(t, lambda: None)
    with pytest.raises(SimulationError, match="max_events=3"):
        sched.run(max_events=3)
    assert sched.events_fired == 4


def test_max_events_budget_is_per_run():
    sched = Scheduler()
    for t in range(3):
        sched.at(t, lambda: None)
    sched.run(max_events=5)
    for t in range(3, 6):
        sched.at(t, lambda: None)
    sched.run(max_events=5)  # fresh budget despite 6 total fired
    assert sched.events_fired == 6


def test_run_no_args_drains_fast_path():
    # run() with no stop condition or limits drains the queue through
    # the same inlined loop; counters must stay exact.
    sched = Scheduler()
    fired = []
    for t in (5, 1, 3):
        sched.at(t, lambda t=t: fired.append(t))
    sched.run()
    assert fired == [1, 3, 5]
    assert sched.events_fired == 3
    assert sched.now == 5
    assert sched.pending() == 0


def test_run_fast_path_callbacks_can_schedule():
    # Callbacks scheduling further events mid-drain keep firing (the
    # hoisted queue alias is the same list heappush appends to).
    sched = Scheduler()
    fired = []

    def chain(n):
        fired.append(n)
        if n < 4:
            sched.after(1, lambda: chain(n + 1))

    sched.at(0, lambda: chain(0))
    sched.run()
    assert fired == [0, 1, 2, 3, 4]


def test_run_inlined_loop_reads_now_in_callbacks():
    # self._now must be written before each callback even in the
    # inlined loops — callbacks schedule relative to it.
    sched = Scheduler()
    seen = []
    sched.at(7, lambda: seen.append(sched.now))
    sched.run(max_cycles=100)
    assert seen == [7]
