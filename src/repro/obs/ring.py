"""One bounded ring for every observability buffer.

A :class:`Ring` is a FIFO that keeps at most ``capacity`` items and
counts every item it overwrites, so a bounded buffer never loses a
row silently: the tracer's ``--trace-ring``, the service's global
event log, each job trace and the telemetry samples are all rings,
and the service exports their overwrite counts as
``repro_ring_dropped_total{ring=...}``.
``capacity=None`` keeps everything and never drops.

Appends and reads take the ring's own lock, so one thread may append
while another reads (the service appends from executor threads and
renders ``/metrics`` and ``/telemetry`` on the event loop).
"""

from __future__ import annotations

import threading
from collections import deque
from itertools import islice
from typing import Generic, Iterable, Iterator, TypeVar

T = TypeVar("T")


class Ring(Generic[T]):
    """Bounded FIFO that counts every item it overwrites."""

    def __init__(self, capacity: int | None = None):
        if capacity is not None and capacity <= 0:
            raise ValueError(f"ring capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._items: deque[T] = deque(maxlen=capacity)
        self._dropped = 0

    def append(self, item: T) -> None:
        """Add ``item`` as the newest, overwriting the oldest when full."""
        with self._lock:
            if len(self._items) == self.capacity:
                self._dropped += 1
            self._items.append(item)

    def extend(self, items: Iterable[T], dropped: int = 0) -> None:
        """Append ``items`` in order.

        ``dropped`` adds items a bounded producer already lost before
        handing over the rest (a worker's own trace ring), so the
        count stays the total this buffer's contents are missing.
        """
        items = list(items)
        with self._lock:
            if self.capacity is not None:
                self._dropped += max(
                    0, len(self._items) + len(items) - self.capacity,
                )
            self._dropped += dropped
            self._items.extend(items)

    @property
    def dropped(self) -> int:
        """Items overwritten (or lost upstream) since the ring was made."""
        with self._lock:
            return self._dropped

    def __iter__(self) -> Iterator[T]:
        """Iterate over a snapshot of the held items, oldest first, so
        appends cannot disturb the reader."""
        with self._lock:
            return iter(list(self._items))

    def tail(self, n: int) -> list[T]:
        """The newest ``n`` items, oldest first, read without copying
        the rest of the ring."""
        with self._lock:
            newest = list(islice(reversed(self._items), n))
        newest.reverse()
        return newest

    def __len__(self) -> int:
        with self._lock:
            return len(self._items)
