"""Set-associative cache arrays with per-word data and dirty bits.

Lines keep their data when they become invalid (``I``/``T``) — this is
the *tag-match invalid* residue that LVP speculates from (§3) and that
T-state validates re-install (§2).  Replacement prefers truly empty
ways, then invalid-with-data ways, then LRU among valid lines, so stale
residue never displaces live data.

The Enhanced-MESTI useful-validate predictor stores its two state bits
and confidence counter directly in the L2 tags (§2.4.2); they live here
as ``pred_state``/``pred_conf`` fields and travel with the line.
"""

from __future__ import annotations

from typing import Iterator

from repro.common.addressing import words_per_line
from repro.common.config import CacheConfig
from repro.common.errors import SimulationError
from repro.coherence.states import LineState

# Predictor Mealy-machine states (Figure 4B), stored in the L2 tags.
PRED_START = 0
PRED_TS_DETECTED = 1
PRED_UPGRADE_WAIT = 2


class CacheLine:
    """One cache line: tag, coherence state, data words, dirty bits."""

    __slots__ = (
        "base",
        "state",
        "data",
        "dirty_mask",
        "lru",
        "visible",
        "diverged",
        "pred_state",
        "pred_conf",
        "validate_suppressed",
    )

    def __init__(self, n_words: int):
        self.base: int | None = None
        self.state: LineState = LineState.I
        self.data: list[int] = [0] * n_words
        self.dirty_mask: int = 0
        self.lru: int = 0
        # Owner-side copy of the last globally visible value (ideal
        # temporal-silence detection); None when unknown.
        self.visible: list[int] | None = None
        # True once a store has made the data diverge from the visible
        # value: temporal silence is a *reversion*, so detection only
        # fires on the diverged -> equal transition (an update-silent
        # store on a never-diverged line is not a silent pair).
        self.diverged: bool = False
        # Useful-validate predictor storage (E-MESTI, in the L2 tags).
        self.pred_state: int = PRED_START
        self.pred_conf: int = 0
        # Snoop-aware validate policy: suppress validates for this
        # ownership episode because no remote copy existed.
        self.validate_suppressed: bool = False

    @property
    def has_data(self) -> bool:
        """True if the tag matches a real line (valid or stale residue)."""
        return self.base is not None

    def reset(self) -> None:
        """Return the way to the truly-empty condition."""
        self.base = None
        self.state = LineState.I
        self.dirty_mask = 0
        self.visible = None
        self.diverged = False
        self.pred_state = PRED_START
        self.pred_conf = 0
        self.validate_suppressed = False

    def words(self) -> list[int]:
        """Return a copy of the line's data words."""
        return list(self.data)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        base = f"{self.base:#x}" if self.base is not None else "empty"
        return f"CacheLine({base} {self.state.value} dirty={self.dirty_mask:#x})"


class SetAssocCache:
    """A set-associative cache of :class:`CacheLine` with LRU replacement.

    Ways are built on first use: a set's list appears on its first
    :meth:`allocate`, and a way is appended only when none of the
    set's ways is empty.  An eager array hands out empty ways in index
    order and this one in creation order, which is the same order, so
    victim choice is unchanged — but a system whose run touches a
    handful of lines never builds the other thousands.
    """

    def __init__(self, config: CacheConfig, name: str = "cache"):
        config.validate(name)
        self.config = config
        self.name = name
        self._n_words = words_per_line(config.line_size)
        self._n_ways = config.ways
        self._set_mask = config.num_sets - 1
        self._line_shift = config.line_size.bit_length() - 1
        self._sets: list[list[CacheLine] | None] = [None] * config.num_sets
        self._by_base: dict[int, CacheLine] = {}
        self._tick = 0

    @property
    def n_words(self) -> int:
        """Data words per line."""
        return self._n_words

    def set_index(self, base: int) -> int:
        """Return the set index for a line-aligned address."""
        return (base >> self._line_shift) & self._set_mask

    def lookup(self, base: int) -> CacheLine | None:
        """Return the line holding ``base`` (any state, incl. stale), or None."""
        return self._by_base.get(base)

    def touch(self, line: CacheLine) -> None:
        """Mark ``line`` most recently used."""
        self._tick += 1
        line.lru = self._tick

    def allocate(self, base: int) -> tuple[CacheLine, CacheLine | None]:
        """Claim a way for ``base``; return ``(line, evicted)``.

        ``evicted`` is a detached copy-like view of the victim (the same
        object, observed *before* it is reset) when a line with data was
        displaced, else None.  The caller must process any writeback
        before the next allocation to the same set.
        """
        existing = self._by_base.get(base)
        if existing is not None:
            raise SimulationError(f"{self.name}: allocate of resident line {base:#x}")
        index = self.set_index(base)
        ways = self._sets[index]
        if ways is None:
            ways = self._sets[index] = []
        victim = self._choose_victim(ways)
        evicted: CacheLine | None = None
        if victim.has_data:
            del self._by_base[victim.base]
            evicted = _EvictedLine(victim)
            victim.reset()
        victim.base = base
        victim.state = LineState.I
        victim.dirty_mask = 0
        victim.data = [0] * self._n_words
        self._by_base[base] = victim
        self.touch(victim)
        return victim, evicted

    def _choose_victim(self, ways: list[CacheLine]) -> CacheLine:
        for way in ways:
            if way.base is None:
                return way
        if len(ways) < self._n_ways:
            way = CacheLine(self._n_words)
            ways.append(way)
            return way
        stale = [w for w in ways if not w.state.valid]
        return min(stale or ways, key=lambda w: w.lru)

    def evict(self, base: int) -> CacheLine | None:
        """Forcibly remove ``base``; return its pre-reset view or None."""
        line = self._by_base.pop(base, None)
        if line is None:
            return None
        view = _EvictedLine(line)
        line.reset()
        return view

    def resident_lines(self) -> Iterator[CacheLine]:
        """Iterate over all lines with a tag (any state)."""
        return iter(self._by_base.values())

    def valid_line_count(self) -> int:
        """Number of lines holding architecturally valid data."""
        return sum(1 for line in self._by_base.values() if line.state.valid)

    def __len__(self) -> int:
        return len(self._by_base)


class _EvictedLine:
    """A detached snapshot of an evicted line (state/data at eviction)."""

    __slots__ = ("base", "state", "data", "dirty_mask", "visible")

    def __init__(self, line: CacheLine):
        self.base = line.base
        self.state = line.state
        self.data = list(line.data)
        self.dirty_mask = line.dirty_mask
        self.visible = list(line.visible) if line.visible is not None else None

    @property
    def dirty(self) -> bool:
        """True if this snapshot was a dirty copy."""
        return self.state.dirty

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"EvictedLine({self.base:#x} {self.state.value})"
