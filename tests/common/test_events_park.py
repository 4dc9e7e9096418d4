"""Parked retry chains against the event chains they stand for.

``Scheduler.park``/``wake`` replace a callback that reschedules itself
every ``period`` cycles until a flag is set (the core's larx waits use
a period of 2; the random programs mix periods 1 to 3).  Each test runs
one event program twice: on one scheduler every chain is that real
``after`` chain, on the other it is parked.  Events and woken callbacks
must fire in the same order at the same cycles, and each wake must
return the number of retries the real chain ran before the one that
fired its callback.
"""

from dataclasses import dataclass, field

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import SimulationError
from repro.common.events import Scheduler

PERIOD = 2
#: Program events a run creates at most (roots included).
CAP = 40


@dataclass
class Program:
    """Events at ``roots`` delays, and what the i-th event to fire does.

    ``children[i]`` are the delays the i-th event to fire schedules
    children at (events past the list schedule none).  Chain ``j``
    opens inside the ``opens[j][0]``-th event, before its
    ``opens[j][1]``-th child, and is woken inside the ``wakes[j][0]``-th
    event, before its ``wakes[j][1]``-th child (a slot past the last
    child is after it); ``None`` never wakes it.
    Chain ``j`` retries every ``periods[j]`` cycles (default
    :data:`PERIOD`).
    """

    roots: list[int]
    children: list[list[int]] = field(default_factory=list)
    opens: list[tuple[int, int]] = field(default_factory=list)
    wakes: list[tuple[int, int] | None] = field(default_factory=list)
    periods: list[int] = field(default_factory=list)

    def period(self, j: int) -> int:
        return self.periods[j] if j < len(self.periods) else PERIOD

    def actions(self, i: int) -> list[tuple[str, int]]:
        kids = self.children[i] if i < len(self.children) else []
        last = len(kids)
        out = []
        for slot in range(last + 1):
            # A slot past the last child acts after all of them.
            out += [("open", j) for j, o in enumerate(self.opens)
                    if o[0] == i and min(o[1], last) == slot]
            out += [("wake", j) for j, w in enumerate(self.wakes)
                    if w is not None and w[0] == i and min(w[1], last) == slot]
            if slot < last:
                out.append(("child", kids[slot]))
        return out


def run(program: Program, parked: bool):
    """Fire ``program``; return (log, retries per woken chain, scheduler)."""
    sched = Scheduler()
    log: list[tuple[str, int, int]] = []
    retries: dict[int, int] = {}
    chains: dict[int, object] = {}
    fired = [0]
    created = [0]
    # Program events and woken callbacks scheduled but not yet fired.
    outstanding = [0]

    def schedule(delay: int) -> None:
        if created[0] < CAP:
            outstanding[0] += 1
            sched.after(delay, lambda n=created[0]: event(n))
            created[0] += 1

    def woken(j: int) -> None:
        outstanding[0] -= 1
        log.append(("woken", j, sched.now))

    def event(n: int) -> None:
        outstanding[0] -= 1
        log.append(("event", n, sched.now))
        i = fired[0]
        fired[0] += 1
        for action, arg in program.actions(i):
            if action == "child":
                schedule(arg)
            elif action == "open":
                period = program.period(arg)
                chains[arg] = sched.park(period) if parked else open_real(arg, period)
            elif arg in chains:
                outstanding[0] += 1
                if parked:
                    retries[arg] = sched.wake(chains[arg], lambda j=arg: woken(j))
                else:
                    chains[arg]["woken"] = True

    def open_real(j: int, period: int) -> dict:
        state = {"woken": False}

        def retry(n: int) -> None:
            if state["woken"]:
                retries[j] = n
                woken(j)
            else:
                sched.after(period, lambda: retry(n + 1))

        sched.after(period, lambda: retry(0))
        return state

    for delay in program.roots:
        schedule(delay)
    if parked:
        sched.run()
    else:
        # A never-woken real chain retries forever: stop once nothing
        # else is left, as the parked run does.
        sched.run(until=lambda: outstanding[0] == 0)
    return log, retries, sched


def assert_same(program: Program) -> Scheduler:
    real_log, real_retries, _ = run(program, parked=False)
    log, retries, sched = run(program, parked=True)
    assert log == real_log
    assert retries == real_retries
    assert sched.events_fired == len(log)
    assert sched.pending() == 0
    return sched


@st.composite
def programs(draw) -> Program:
    roots = draw(st.lists(st.integers(0, 4), min_size=1, max_size=2))
    # Mostly one child: a thin queue leaves gaps of several cycles,
    # in which a chain retries more than once.
    sizes = st.sampled_from((0, 1, 1, 1, 1, 1, 2, 2))
    children = draw(st.lists(
        sizes.flatmap(lambda n: st.lists(st.integers(0, 4), min_size=n, max_size=n)),
        min_size=12, max_size=CAP,
    ))
    # Chains open a few events apart, so that they often retry in the
    # same gaps; half the programs wake them all in one event, where
    # their callbacks can fall in one cycle.
    opens, periods = [], []
    at = draw(st.integers(0, 4))
    for _ in range(draw(st.integers(1, 3))):
        opens.append((at, draw(st.integers(0, 2))))
        periods.append(draw(st.sampled_from((PERIOD, PERIOD, 1, 3))))
        at += draw(st.integers(0, 2))
    if draw(st.booleans()):
        at += draw(st.integers(0, 6))
        wakes = [(at, draw(st.integers(0, 2))) for _ in opens]
    else:
        wakes = []
        for open_at, slot in opens:
            later = draw(st.one_of(st.none(), st.integers(0, 10)))
            if later is None:
                wakes.append(None)
            else:
                wake_slot = draw(st.integers(slot if later == 0 else 0, 2))
                wakes.append((open_at + later, wake_slot))
    return Program(roots, children, opens, wakes, periods)


@settings(max_examples=1000, deadline=None)
@given(programs())
def test_parked_chains_fire_like_real_chains(program):
    assert_same(program)


def test_two_chains_retry_in_the_same_gap():
    # Both chains open in event 0 with no event scheduled between them,
    # so they retry at the same cycles in the same gaps.  Event 2 wakes
    # chain 1, schedules a child, then wakes chain 0: the callbacks
    # still fire in the chains' order.
    program = Program(
        roots=[0],
        children=[[0, 3], [3], [1]],
        opens=[(0, 0), (0, 0)],
        wakes=[(2, 1), (2, 0)],
    )
    assert_same(program)
    log, retries, _ = run(program, parked=True)
    assert [e for e in log if e[0] == "woken"] == [("woken", 0, 4), ("woken", 1, 4)]
    assert retries == {0: 1, 1: 1}


@pytest.mark.parametrize(
    ("children", "periods", "wakes", "woken"),
    [
        # Chain 0 retries at t=4, 6, 8 and chain 1 at t=6, 8 before
        # event 3 (t=9).  At t=6 chain 1's retry is its first and comes
        # before chain 0's, whose successor was scheduled in this gap,
        # so chain 1 keeps the lead at t=10, though woken second.
        ([[4, 2], [], [5], [1]], [2, 2], [(3, 0), (3, 1)],
         [("woken", 1, 10), ("woken", 0, 10)]),
        # Period 3 for chain 0: its retry at t=5 runs before chain 1's
        # first at t=6, so at t=8 chain 0 comes first, though woken
        # second.
        ([[4, 2], [], [4], [1]], [3, 2], [(3, 1), (3, 0)],
         [("woken", 0, 8), ("woken", 1, 8)]),
    ],
)
def test_successors_in_one_cycle_keep_their_retries_order(
    children, periods, wakes, woken
):
    # Chain 0 opens at t=2 behind the event at t=4, which opens chain
    # 1; event 3 wakes both, in the order ``wakes`` gives.
    program = Program(
        roots=[0], children=children, opens=[(1, 0), (2, 0)],
        wakes=wakes, periods=periods,
    )
    assert_same(program)
    log, _, _ = run(program, parked=True)
    assert [e for e in log if e[0] == "woken"] == woken


def test_a_retry_places_the_next_one():
    # Event 0 parks, then schedules event 1 for t=2: the retry at t=2
    # runs before event 1, so its successor at t=4 comes before event
    # 1's child, and event 2 (that child) wakes the chain too late for
    # it.  Placed by the seq count after event 1 instead, the retry at
    # t=4 would come after the child and fire the callback at t=4.
    program = Program(
        roots=[0], children=[[2], [2]], opens=[(0, 0)], wakes=[(2, 0)],
    )
    assert_same(program)
    log, retries, _ = run(program, parked=True)
    assert log[-1] == ("woken", 0, 6)
    assert retries == {0: 2}


def test_parked_and_woken_in_one_event():
    program = Program(roots=[1], children=[[1]], opens=[(0, 0)], wakes=[(0, 1)])
    assert_same(program)
    log, retries, _ = run(program, parked=True)
    assert log == [("event", 0, 1), ("event", 1, 2), ("woken", 0, 3)]
    assert retries == {0: 0}


@pytest.mark.parametrize(
    ("children", "opens", "woken_at", "retries"),
    [
        # The park comes before the child is scheduled: at t=2 the retry
        # runs before the child, so the callback waits for the next one.
        ([[2]], [(0, 0)], 4, 1),
        # The child is scheduled first: the retry at t=2 comes after
        # the waking child, in the same cycle.
        ([[2]], [(0, 1)], 2, 0),
    ],
)
def test_wake_in_the_cycle_of_a_retry(children, opens, woken_at, retries):
    program = Program(roots=[0], children=children, opens=opens, wakes=[(1, 0)])
    assert_same(program)
    log, got, _ = run(program, parked=True)
    assert log == [("event", 0, 0), ("event", 1, 2), ("woken", 0, woken_at)]
    assert got == {0: retries}


def test_run_returns_when_only_parked_retries_remain():
    assert_same(Program(roots=[0, 3], opens=[(0, 0)], wakes=[None]))
    sched = Scheduler()
    chain = []
    sched.at(0, lambda: chain.append(sched.park(PERIOD)))
    sched.at(3, lambda: None)
    sched.run()
    assert (sched.now, sched.events_fired, sched.pending()) == (3, 2, 0)
    # The chain is still open: its retry at t=2 ran, and a wake puts
    # the callback in place of the one at t=4.
    fired = []
    assert sched.wake(chain[0], lambda: fired.append(sched.now)) == 1
    sched.run()
    assert fired == [4]


def test_period_must_be_positive():
    with pytest.raises(SimulationError, match="period"):
        Scheduler().park(0)
