"""Discrete-event scheduler.

The simulator is event driven: cores, caches, and the bus schedule
callbacks at future cycle times.  Events at the same cycle fire in
insertion order (a stable tiebreak), which the atomic-bus coherence
model relies on for transaction serialization.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Callable

from repro.common.errors import SimulationError


class Scheduler:
    """A priority-queue discrete-event scheduler keyed by cycle time."""

    def __init__(self):
        self._queue: list[tuple[int, int, Callable[[], None]]] = []
        self._seq = 0
        self._now = 0
        self._events_fired = 0

    @property
    def now(self) -> int:
        """Current simulation time in cycles."""
        return self._now

    @property
    def events_fired(self) -> int:
        """Total number of events executed so far."""
        return self._events_fired

    def pending(self) -> int:
        """Number of events still queued."""
        return len(self._queue)

    def at(self, time: int, callback: Callable[[], None]) -> None:
        """Schedule ``callback`` to fire at absolute cycle ``time``."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule event in the past: {time} < now {self._now}"
            )
        heappush(self._queue, (time, self._seq, callback))
        self._seq += 1

    def after(self, delay: int, callback: Callable[[], None]) -> None:
        """Schedule ``callback`` to fire ``delay`` cycles from now."""
        if delay < 0:
            raise SimulationError(f"negative delay: {delay}")
        self.at(self._now + delay, callback)

    def step(self) -> bool:
        """Fire the next event.  Returns False if the queue is empty."""
        queue = self._queue
        if not queue:
            return False
        time, _, callback = heappop(queue)
        self._now = time
        self._events_fired += 1
        callback()
        return True

    def run(
        self,
        until: Callable[[], bool] | None = None,
        max_cycles: int | None = None,
        max_events: int | None = None,
    ) -> None:
        """Run events until the queue drains or a stop condition holds.

        ``until`` is checked before every event; ``max_cycles`` and
        ``max_events`` are hard safety limits that raise
        :class:`SimulationError` when exceeded (they indicate livelock).

        This is the simulator's hottest loop (every event of every run
        passes through it), so the body is inlined rather than calling
        :meth:`step`, with the queue and ``heappop`` hoisted to locals.
        ``self._now``/``self._events_fired`` are still written before
        each callback — callbacks read them through ``now``/
        ``events_fired`` (heartbeats, tracers, ``at()`` validation).
        """
        queue = self._queue
        pop = heappop
        start_events = self._events_fired
        while queue:
            if until is not None and until():
                return
            if max_cycles is not None and self._now > max_cycles:
                raise SimulationError(f"exceeded max_cycles={max_cycles}")
            if max_events is not None and self._events_fired - start_events > max_events:
                raise SimulationError(f"exceeded max_events={max_events}")
            time, _, callback = pop(queue)
            self._now = time
            self._events_fired += 1
            callback()
