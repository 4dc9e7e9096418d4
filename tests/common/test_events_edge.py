"""Scheduler edge cases beyond the basics."""

import pytest

from repro.common.events import Scheduler


def test_event_scheduled_during_event_fires_same_time():
    sched = Scheduler()
    order = []

    def outer():
        order.append("outer")
        sched.at(sched.now, lambda: order.append("inner"))

    sched.at(5, outer)
    sched.run()
    assert order == ["outer", "inner"]


def test_interleaved_times_stable():
    sched = Scheduler()
    order = []
    sched.at(10, lambda: order.append("a10"))
    sched.at(5, lambda: order.append("b5"))
    sched.at(10, lambda: order.append("c10"))
    sched.at(5, lambda: order.append("d5"))
    sched.run()
    assert order == ["b5", "d5", "a10", "c10"]


def test_now_advances_monotonically():
    sched = Scheduler()
    seen = []
    for t in (3, 1, 2):
        sched.at(t, lambda: seen.append(sched.now))
    sched.run()
    assert seen == sorted(seen) == [1, 2, 3]


def test_pending_counts():
    sched = Scheduler()
    fired = []
    sched.at(1, lambda: fired.append(1))
    sched.at(2, lambda: fired.append(2))
    assert sched.pending() == 2
    sched.run(until=lambda: fired)
    assert sched.pending() == 1


def test_exception_in_callback_propagates():
    sched = Scheduler()

    def boom():
        raise RuntimeError("boom")

    sched.at(1, boom)
    with pytest.raises(RuntimeError):
        sched.run()
