"""Set-associative cache array."""

import gc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coherence.states import LineState
from repro.common.addressing import words_per_line
from repro.common.config import CacheConfig, scaled_config
from repro.common.errors import SimulationError
from repro.memory.cache import CacheLine, SetAssocCache
from repro.system.system import System
from repro.workloads import get_benchmark


def make_cache(size=1024, ways=2, line=64):
    return SetAssocCache(CacheConfig(size, ways, line_size=line), "test")


def test_lookup_miss_returns_none():
    c = make_cache()
    assert c.lookup(0x1000) is None


def test_allocate_then_lookup():
    c = make_cache()
    line, evicted = c.allocate(0x1000)
    assert evicted is None
    assert c.lookup(0x1000) is line
    assert line.state is LineState.I
    assert line.data == [0] * 8


def test_allocate_resident_line_rejected():
    c = make_cache()
    c.allocate(0x1000)
    with pytest.raises(SimulationError):
        c.allocate(0x1000)


def test_set_conflict_evicts_lru():
    c = make_cache(size=256, ways=2)  # 2 sets of 2 ways
    step = 2 * 64  # same set every step
    a, _ = c.allocate(0x0000)
    b, _ = c.allocate(0x0000 + step)
    a.state = LineState.S
    b.state = LineState.S
    c.touch(a)  # a more recently used than b
    _, evicted = c.allocate(0x0000 + 2 * step)
    assert evicted is not None
    assert evicted.base == 0x0000 + step  # LRU victim


def test_invalid_lines_preferred_as_victims():
    c = make_cache(size=256, ways=2)
    step = 2 * 64
    a, _ = c.allocate(0x0000)
    b, _ = c.allocate(step)
    a.state = LineState.I  # stale residue (LVP food)
    b.state = LineState.M
    c.touch(a)  # even though a is more recently used...
    _, evicted = c.allocate(2 * step)
    assert evicted.base == 0x0000  # ...the invalid line goes first


def test_eviction_snapshot_preserves_data():
    c = make_cache(size=128, ways=1)
    line, _ = c.allocate(0x0000)
    line.state = LineState.M
    line.data[3] = 99
    line.dirty_mask = 1 << 3
    _, evicted = c.allocate(0x0000 + 2 * 64)  # only 2 sets; same set = +128
    if evicted is None:
        _, evicted = c.allocate(0x0000 + 4 * 64)
    assert evicted.base == 0x0000
    assert evicted.state is LineState.M
    assert evicted.data[3] == 99
    assert evicted.dirty


def test_evict_explicit():
    c = make_cache()
    line, _ = c.allocate(0x40)
    line.state = LineState.S
    view = c.evict(0x40)
    assert view.base == 0x40
    assert c.lookup(0x40) is None
    assert c.evict(0x40) is None


def test_valid_line_count():
    c = make_cache()
    a, _ = c.allocate(0)
    b, _ = c.allocate(64)
    a.state = LineState.M
    b.state = LineState.T  # stale: not valid
    assert c.valid_line_count() == 1
    assert len(c) == 2


def test_resident_lines_iterates_all_tagged():
    c = make_cache()
    c.allocate(0)
    c.allocate(64)
    assert {line.base for line in c.resident_lines()} == {0, 64}


def test_predictor_fields_reset_on_eviction_reuse():
    c = make_cache(size=128, ways=1)
    line, _ = c.allocate(0)
    line.pred_conf = 7
    line.pred_state = 2
    line.state = LineState.S
    c.allocate(128)  # evicts base 0
    new_line, _ = c.allocate(256)  # reuses a way
    assert new_line.pred_conf == 0
    assert new_line.pred_state == 0


@settings(max_examples=50)
@given(st.lists(st.integers(min_value=0, max_value=63), min_size=1, max_size=200))
def test_cache_never_exceeds_capacity_and_keeps_unique_tags(addrs):
    c = make_cache(size=512, ways=2)
    for i in addrs:
        base = i * 64
        if c.lookup(base) is None:
            line, _ = c.allocate(base)
            line.state = LineState.S
    assert len(c) <= c.config.num_lines
    bases = [line.base for line in c.resident_lines()]
    assert len(bases) == len(set(bases))
    # Every resident line is found by lookup at its own base.
    for base in bases:
        assert c.lookup(base).base == base


class EagerCache:
    """Reference: every way built up front, the first empty way by index.

    This is how the cache chose victims before it built ways on first
    use; the lazy cache must pick the same way at every step.
    """

    def __init__(self, config: CacheConfig):
        self.config = config
        self.sets = [
            [CacheLine(words_per_line(config.line_size)) for _ in range(config.ways)]
            for _ in range(config.num_sets)
        ]
        self.by_base: dict[int, CacheLine] = {}
        self.tick = 0

    def touch(self, line: CacheLine) -> None:
        self.tick += 1
        line.lru = self.tick

    def allocate(self, base: int) -> tuple[int, CacheLine, tuple | None]:
        """Return ``(way index, line, evicted view)``."""
        ways = self.sets[(base // self.config.line_size) % self.config.num_sets]
        victim = next((w for w in ways if w.base is None), None)
        if victim is None:
            stale = [w for w in ways if not w.state.valid]
            victim = min(stale or ways, key=lambda w: w.lru)
        evicted = None
        if victim.base is not None:
            del self.by_base[victim.base]
            evicted = view(victim)
            victim.reset()
        victim.base = base
        victim.data = [0] * len(victim.data)
        self.by_base[base] = victim
        self.touch(victim)
        return ways.index(victim), victim, evicted

    def evict(self, base: int) -> tuple | None:
        line = self.by_base.pop(base, None)
        if line is None:
            return None
        evicted = view(line)
        line.reset()
        return evicted


def view(line) -> tuple | None:
    """What an eviction hands the caller, as a comparable tuple."""
    if line is None:
        return None
    visible = list(line.visible) if line.visible is not None else None
    return (line.base, line.state, list(line.data), line.dirty_mask, visible)


CACHE_OPS = st.lists(
    st.tuples(
        st.sampled_from(["allocate", "touch", "state", "evict"]),
        st.integers(min_value=0, max_value=11),  # 12 lines over 2 sets of 4
        st.sampled_from(list(LineState)),
        st.integers(min_value=0, max_value=7),  # word to write
    ),
    max_size=120,
)


@settings(max_examples=200, deadline=None)
@given(CACHE_OPS)
def test_lazy_ways_pick_the_victims_an_eager_array_picks(ops):
    config = CacheConfig(512, 4, line_size=64)  # 2 sets x 4 ways
    lazy = SetAssocCache(config, "lazy")
    eager = EagerCache(config)
    # Each lazy way, by set, in the order it was built: the eager way
    # with the same index must be the one chosen.
    built: dict[int, list[CacheLine]] = {}
    for op, i, state, word in ops:
        base = i * 64
        line = lazy.lookup(base)
        ref = eager.by_base.get(base)
        assert (line is None) == (ref is None)
        if op == "allocate" and line is None:
            line, evicted = lazy.allocate(base)
            index, ref, ref_evicted = eager.allocate(base)
            ways = built.setdefault(lazy.set_index(base), [])
            if line not in ways:
                ways.append(line)
            assert ways.index(line) == index
            assert view(evicted) == ref_evicted
        elif op == "evict":
            assert view(lazy.evict(base)) == eager.evict(base)
        elif line is not None and op == "touch":
            lazy.touch(line)
            eager.touch(ref)
        elif line is not None and op == "state":
            for target in (line, ref):
                target.state = state
                target.data[word] += 1
                target.dirty_mask |= 1 << word
                target.visible = list(target.data) if word % 2 else None
        assert sorted(w.base for w in lazy.resident_lines()) == sorted(eager.by_base)


def test_fresh_system_builds_no_cache_line():
    config = scaled_config()
    assert config.n_procs == 4
    gc.collect()
    before = sum(isinstance(o, CacheLine) for o in gc.get_objects())
    system = System(config, get_benchmark("locks", scale=0.02), seed=1)
    after = sum(isinstance(o, CacheLine) for o in gc.get_objects())
    assert after == before
    assert all(len(node.l1) == 0 for node in system.nodes)
    assert all(len(ctrl.l2) == 0 for ctrl in system.controllers)
