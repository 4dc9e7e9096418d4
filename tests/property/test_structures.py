"""Property tests on standalone data structures."""

from hypothesis import given
from hypothesis import strategies as st

from repro.cpu.core import SlotCursor
from repro.memory.stale import StaleStorage


@given(
    width=st.integers(1, 8),
    earliest=st.lists(st.integers(0, 1000), min_size=1, max_size=200),
)
def test_slot_cursor_monotonic_and_width_bounded(width, earliest):
    cursor = SlotCursor(width)
    times = [cursor.next_at(e) for e in earliest]
    # Monotonic non-decreasing.
    assert all(a <= b for a, b in zip(times, times[1:]))
    # Never earlier than requested.
    assert all(t >= e for t, e in zip(times, earliest))
    # Width bound: no cycle hands out more than `width` slots.
    from collections import Counter

    assert max(Counter(times).values()) <= width


@given(
    capacity=st.integers(0, 8),
    ops=st.lists(
        st.tuples(
            st.sampled_from(["put", "get", "drop"]),
            st.integers(0, 15),
        ),
        max_size=100,
    ),
)
def test_stale_storage_capacity_and_consistency(capacity, ops):
    storage = StaleStorage(capacity)
    shadow: dict[int, list[int]] = {}
    for op, key in ops:
        base = key * 64
        if op == "put":
            words = [key] * 8
            storage.put(base, words)
            shadow[base] = words
        elif op == "get":
            got = storage.get(base)
            if got is not None:
                # Anything returned must be the last value put.
                assert got == shadow[base]
        else:
            storage.drop(base)
            shadow.pop(base, None)
        assert len(storage) <= max(capacity, 0)


@given(st.lists(st.integers(0, 30), min_size=1, max_size=60))
def test_stale_storage_lru_keeps_recent(keys):
    storage = StaleStorage(4)
    for key in keys:
        storage.put(key * 64, [key] * 8)
    # The most recently inserted key is always retained (capacity > 0).
    assert storage.get(keys[-1] * 64) == [keys[-1]] * 8
