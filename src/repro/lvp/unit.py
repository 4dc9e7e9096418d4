"""The LVP unit (paper §3).

On a miss whose line is still resident with a matching tag but invalid
state (I with data residue, or MESTI's T), the stale word is delivered
to the core as a value prediction; the core proceeds speculatively but
cannot retire the load until the coherent data arrives and the MSHR
verifies the prediction.  Each MSHR tracks which words were
speculatively delivered and the oldest attached operation; any
mismatch squashes at that oldest op (the paper's deliberately
single-index, slightly pessimistic recovery, §3.2).  Comparing only
the *accessed* words — not the whole line — is what lets LVP capture
false sharing misses.
"""

from __future__ import annotations

from repro.common.config import LVPConfig
from repro.common.stats import ScopedStats
from repro.coherence.states import LineState
from repro.memory.cache import CacheLine
from repro.memory.mshr import MSHREntry
from repro.obs.tracer import NULL_TRACER


class LVPUnit:
    """Per-node value prediction from tag-match invalid lines."""

    def __init__(
        self,
        config: LVPConfig,
        stats: ScopedStats,
        tracer=NULL_TRACER,
        node_id: int = 0,
    ):
        self.config = config
        self._stats = stats
        self._tracer = tracer
        self._node_id = node_id
        self._m_verified = stats.counter("lvp.correct")
        self._m_squashed = stats.counter("lvp.mispredictions")

    def candidate(self, line: CacheLine | None, word_index: int) -> int | None:
        """A usable stale value for a missing load, or None."""
        if not self.config.enabled or line is None or not line.has_data:
            return None
        if line.state is LineState.I:
            return line.data[word_index]
        if line.state is LineState.T and self.config.predict_in_t_state:
            return line.data[word_index]
        return None

    def resolve(self, entry: MSHREntry, data: list[int], core) -> None:
        """Verify an MSHR's speculative deliveries against real data.

        On full agreement every consumer is released to commit; on any
        mismatch the machine squashes at the oldest attached op.
        """
        # Consumers squashed by an earlier (unrelated) mispredict are
        # dead: their replays re-execute through the now-filled cache,
        # so only live consumers participate in this resolution.
        live = [
            d for d in entry.spec_deliveries
            if not getattr(d.consumer, "dead", False)
        ]
        if not live:
            return
        mismatched = [d for d in live if data[d.word_index] != d.value]
        if mismatched:
            self._m_squashed.inc(len(live))
            oldest = min(live, key=lambda d: d.consumer.seq)
            self._tracer.emit(
                "lvp.squash", node=self._node_id, base=entry.base,
                deliveries=len(live), mismatched=len(mismatched),
                span=entry.span,
            )
            core.lvp_mispredict(oldest.consumer)
        else:
            self._m_verified.inc(len(live))
            self._tracer.emit(
                "lvp.verify", node=self._node_id, base=entry.base,
                deliveries=len(live), span=entry.span,
            )
            for delivery in live:
                core.lvp_verified(delivery.consumer)
