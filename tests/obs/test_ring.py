"""Ring: the bound, the overwrite count, unbounded mode, concurrency."""

from __future__ import annotations

import sys
import threading

import pytest

from repro.obs.ring import Ring


class TestBound:
    def test_keeps_newest_and_counts_every_overwrite(self):
        ring = Ring(3)
        for i in range(5):
            ring.append(i)
        assert list(ring) == [2, 3, 4]
        assert len(ring) == 3
        assert ring.dropped == 2

    def test_extend_counts_overflow_and_upstream_drops(self):
        ring = Ring(3)
        ring.append(0)
        ring.extend([1, 2, 3, 4], dropped=5)
        assert list(ring) == [2, 3, 4]
        # Two overwritten here, five lost before the rows arrived.
        assert ring.dropped == 7

    def test_capacity_none_never_drops(self):
        ring = Ring(None)
        for i in range(10_000):
            ring.append(i)
        ring.extend(range(10))
        assert len(ring) == 10_010
        assert ring.capacity is None
        assert ring.dropped == 0

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError, match="positive"):
            Ring(0)

    def test_iteration_reads_a_snapshot(self):
        ring = Ring(4)
        ring.extend([1, 2])
        for item in ring:
            ring.append(item)  # no "mutated during iteration"
        assert list(ring) == [1, 2, 1, 2]

    @pytest.mark.parametrize("capacity", [5, None])
    def test_tail_is_the_newest_items_in_order(self, capacity):
        ring = Ring(capacity)
        ring.extend(range(8))
        held = len(ring)
        for n in (1, 3, held, held + 4):
            assert ring.tail(n) == list(ring)[-n:], n
        assert ring.tail(0) == []
        assert Ring(3).tail(2) == []


class TestConcurrency:
    def test_appends_while_reading_lose_no_count(self):
        # More writers than cores, a reader snapshotting throughout and
        # a tiny switch interval: a lost update on the overwrite count
        # breaks held + dropped == appended, and a torn snapshot breaks
        # each writer's order inside it.
        ring: Ring[tuple[int, int]] = Ring(64)
        writers, per_writer = 4, 5_000
        stop = threading.Event()
        errors: list[BaseException] = []

        def write(w: int) -> None:
            for i in range(per_writer):
                ring.append((w, i))

        def read() -> None:
            try:
                while not stop.is_set():
                    snapshot = list(ring)
                    assert len(snapshot) <= 64
                    for w in range(writers):
                        seq = [i for ww, i in snapshot if ww == w]
                        assert seq == sorted(seq)
            except BaseException as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            reader = threading.Thread(target=read)
            threads = [
                threading.Thread(target=write, args=(w,))
                for w in range(writers)
            ]
            reader.start()
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            stop.set()
            reader.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not reader.is_alive()
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert len(ring) == 64
        assert len(ring) + ring.dropped == writers * per_writer
