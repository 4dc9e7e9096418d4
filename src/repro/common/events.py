"""Discrete-event scheduler.

The simulator is event driven: cores, caches, and the bus schedule
callbacks at future cycle times.  Events at the same cycle fire in
insertion order (a stable tiebreak), which the atomic-bus coherence
model relies on for transaction serialization.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Callable

from repro.common.errors import SimulationError

#: Rank ``k`` of a parked retry adds ``k / _RANKS`` to a seq, which a
#: float holds exactly for any seq below 2**33.
_RANKS = 1 << 20


class Scheduler:
    """A priority-queue discrete-event scheduler keyed by cycle time.

    An event's key is ``(time, seq)``, where ``seq`` counts the events
    scheduled before it: events at the same cycle fire in insertion
    order.  A *parked* chain (:meth:`park`) stands for a callback that
    reschedules itself every ``period`` cycles, and insertion order
    holds for its retries too: each one runs at the key an ``after``
    call from the retry before it would have had, but as arithmetic
    in the run loop, not as an event.  ``events_fired`` counts the
    events that fire, so a parked chain's retries are not in it.
    """

    def __init__(self):
        self._queue: list[tuple[int, float, Callable[[], None]]] = []
        self._seq = 0
        self._now = 0
        self._events_fired = 0
        # Open parked chains, a heap of ``[(time, seq), period, retries]``
        # keyed by the next retry.
        self._parked: list[list] = []
        # Retries scheduled since the seq count last moved.
        self._rank_seq = -1
        self._rank = 0

    @property
    def now(self) -> int:
        """Current simulation time in cycles."""
        return self._now

    @property
    def events_fired(self) -> int:
        """Total number of events executed so far."""
        return self._events_fired

    def pending(self) -> int:
        """Number of events still queued (parked chains are not events)."""
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

    def park(self, period: int) -> list:
        """Open a chain of retries every ``period`` cycles that fires no events.

        It stands for ``after(period, retry)`` where each retry does
        nothing but call ``after(period, retry)`` again, until
        :meth:`wake` puts a real callback in the place of the next one.
        The first retry takes the key that ``after`` would have given it
        here.  Returns the chain's handle for :meth:`wake`.
        """
        if period < 1:
            raise SimulationError(f"park period must be positive: {period}")
        time = self._now + period
        chain = [(time, self._virtual_seq()), period, 0]
        heappush(self._parked, chain)
        return chain

    def wake(self, chain: list, callback: Callable[[], None]) -> int:
        """Close a parked ``chain``: ``callback`` fires at its next retry's key.

        That is the first retry after the running event, so ``callback``
        fires at the cycle, and in the same-cycle order, at which that
        retry would have run.  Returns how many retries ran before it.
        """
        parked = self._parked
        parked.remove(chain)
        heapify(parked)
        time, seq = chain[0]
        heappush(self._queue, (time, seq, callback))
        return chain[2]

    def _virtual_seq(self) -> float:
        """The seq of a retry scheduled here, as ``after`` would give it.

        A real event scheduled later gets ``self._seq`` or more, and
        every earlier one less: ``self._seq - 1 + rank / _RANKS`` lies
        between them.  ``rank`` counts the retries scheduled while
        ``self._seq`` has not moved, so they keep their order and never
        tie.
        """
        seq = self._seq
        if seq != self._rank_seq:
            self._rank_seq = seq
            self._rank = 0
        self._rank += 1
        if self._rank == _RANKS:
            raise SimulationError(f"{_RANKS} parked retries between two events")
        return seq - 1 + self._rank / _RANKS

    def _run_parked(self, head: tuple) -> None:
        """Run every parked retry whose key comes before the event ``head``.

        No event fires in between, so ``self._seq`` stays put, and a
        retry scheduled here comes after every queued event of its
        cycle.  So a chain whose first retry here is at ``time`` also
        retries every ``period`` cycles before ``head``'s cycle, and
        only its next retry, at that cycle or later, needs a key.  Next
        retries that share a cycle take their keys in the order their
        scheduling retries ran.  That is the earlier cycle first.  Within
        one cycle it is the chain whose retries here began later: at its
        first retry, the other chain's retry of that cycle was one
        scheduled here, after every queued key.  Then the older key.
        """
        parked = self._parked
        end = head[0]
        if len(parked) == 1:
            chain = parked[0]
            (time, _), period = chain[0], chain[1]
            runs = -((time - end) // period) or 1
            chain[2] += runs
            chain[0] = (time + runs * period, self._virtual_seq())
            return
        landed = []
        while parked and parked[0][0] < head:
            chain = heappop(parked)
            (time, seq), period = chain[0], chain[1]
            runs = -((time - end) // period) or 1
            chain[2] += runs
            last = time + (runs - 1) * period
            landed.append((last + period, last, -time, seq, chain))
        landed.sort()
        for time, _, _, _, chain in landed:
            chain[0] = (time, self._virtual_seq())
            heappush(parked, chain)

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
        Parked retries never fire, so the run returns once only they
        are left.

        This is the simulator's hottest loop (every event of every run
        passes through it), so the queue and ``heappop`` are hoisted to
        locals and the event fire is inlined.  ``self._now``/
        ``self._events_fired`` are still written before each callback —
        callbacks read them through ``now``/``events_fired``
        (heartbeats, tracers, ``at()`` validation).
        """
        queue = self._queue
        parked = self._parked
        pop = heappop
        start_events = self._events_fired
        while queue:
            if until is not None and until():
                return
            if max_cycles is not None and self._now > max_cycles:
                raise SimulationError(f"exceeded max_cycles={max_cycles}")
            if max_events is not None and self._events_fired - start_events > max_events:
                raise SimulationError(f"exceeded max_events={max_events}")
            if parked and parked[0][0] < queue[0]:
                self._run_parked(queue[0])
            time, _, callback = pop(queue)
            self._now = time
            self._events_fired += 1
            callback()
