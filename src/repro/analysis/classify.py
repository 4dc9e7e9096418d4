"""Miss classification (the taxonomy of the paper's Figure 1).

Each L2 miss is classified per node:

* **cold** — the node never held the line;
* **capacity** — the node held it and displaced it locally;
* **communication** — the node's copy was invalidated by a remote
  store (the misses every technique in the paper targets).

Communication misses are sub-classified when the data arrives, by
comparing it against the snapshot taken at invalidation:

* **tss** — the whole line matches: a temporally (or update) silent
  sharing miss, avoidable in principle by MESTI, SLE, or LVP;
* **false** — the referenced word matches but the line changed
  elsewhere: false sharing, capturable by LVP (§3.1);
* **true** — the referenced word changed: true sharing (LVP can still
  capture the subset where the access pattern gives it time, §3.1).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.common.stats import ScopedStats


class _Residency(enum.Enum):
    NEVER = "never"
    RESIDENT = "resident"
    EVICTED = "evicted"
    INVALIDATED = "invalidated"


@dataclass
class _LineHistory:
    residency: _Residency = _Residency.NEVER
    snapshot: list[int] | None = None
    pending_word: int | None = None  # word of an in-flight comm miss


class MissClassifier:
    """Tracks per-(node, line) history and classifies every miss."""

    def __init__(self, stats: ScopedStats, n_procs: int):
        self._stats = stats
        self._history: list[dict[int, _LineHistory]] = [dict() for _ in range(n_procs)]
        self._m_miss = {
            cls: stats.counter(f"miss.{cls}") for cls in ("cold", "capacity", "comm")
        }
        self._m_total = stats.counter("miss.total")
        self._m_comm = {
            cause: stats.counter(f"miss.comm.{cause}") for cause in ("tss", "false", "true")
        }

    def _entry(self, node: int, base: int) -> _LineHistory:
        per_node = self._history[node]
        entry = per_node.get(base)
        if entry is None:
            entry = _LineHistory()
            per_node[base] = entry
        return entry

    # -- hooks from the node memory system ------------------------------

    def on_miss(self, node: int, base: int, word: int) -> str:
        """Classify a miss at request time; returns the class name."""
        entry = self._entry(node, base)
        if entry.residency is _Residency.NEVER:
            kind = "cold"
        elif entry.residency is _Residency.INVALIDATED:
            kind = "comm"
            entry.pending_word = word
        else:
            kind = "capacity"
        self._m_miss[kind].inc()
        self._m_total.inc()
        return kind

    def on_fill(self, node: int, base: int, data: list[int]) -> str | None:
        """The miss data arrived; finish comm-miss sub-classification.

        Returns the communication-miss cause (``"tss"``/``"false"``/
        ``"true"``), or None when the fill was not a classified
        communication miss — the provenance layer attaches this to the
        ``mem.miss`` event and the miss span.
        """
        entry = self._entry(node, base)
        sub = None
        if (
            entry.residency is _Residency.INVALIDATED
            and entry.pending_word is not None
            and entry.snapshot is not None
        ):
            if data == entry.snapshot:
                sub = "tss"
            elif data[entry.pending_word] == entry.snapshot[entry.pending_word]:
                sub = "false"
            else:
                sub = "true"
            self._m_comm[sub].inc()
        entry.residency = _Residency.RESIDENT
        entry.snapshot = None
        entry.pending_word = None
        return sub

    def on_local_evict(self, node: int, base: int) -> None:
        """The node displaced the line locally (capacity/conflict)."""
        entry = self._entry(node, base)
        if entry.residency is _Residency.RESIDENT:
            entry.residency = _Residency.EVICTED

    def on_remote_invalidate(self, node: int, base: int, words: list[int]) -> None:
        """A remote store invalidated the node's copy; snapshot the data."""
        entry = self._entry(node, base)
        entry.residency = _Residency.INVALIDATED
        entry.snapshot = list(words)

    # -- results ---------------------------------------------------------

    def total_misses(self) -> float:
        """Total misses classified so far."""
        return self._stats.get("miss.total")
