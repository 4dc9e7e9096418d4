"""Address-based useful-validate predictor (paper Figure 4, §2.4).

Per-line predictor storage (two Mealy-machine state bits plus a
saturating confidence counter) lives directly in the L2 tags — the
fields travel with each :class:`~repro.memory.cache.CacheLine` — so the
mechanism requires no PC or core-side information and can be built
entirely outside the processor (§5.1.1).

State machine (Figure 4B):

* ``Start`` --TS detect--> ``TS Detected``; the confidence counter is
  read at this transition (*) to decide whether to broadcast a validate.
* ``TS Detected`` --external request--> ``Start``, confidence **+**
  (the temporal silence was useful: a remote processor wanted the line).
* ``TS Detected`` --local intermediate-value store--> ``L2 Upgrade
  Request``; the upgrade's *useful snoop response* then gives
  confidence **+** (asserted: someone consumed the validated data) or
  **-** (not asserted: the validate was useless), returning to
  ``Start``.  This is what makes training *continuous* even while
  validates are successfully eliminating the misses that would
  otherwise train the predictor (§2.4.1).
"""

from __future__ import annotations

from repro.common.config import PredictorConfig
from repro.common.stats import ScopedStats
from repro.memory.cache import (
    PRED_START,
    PRED_TS_DETECTED,
    PRED_UPGRADE_WAIT,
    CacheLine,
)
from repro.obs.tracer import NULL_TRACER


class UsefulValidatePredictor:
    """Drives the per-line confidence state stored in the L2 tags."""

    def __init__(
        self,
        config: PredictorConfig,
        stats: ScopedStats,
        tracer=NULL_TRACER,
        node_id: int = 0,
    ):
        config.validate()
        self.config = config
        self._stats = stats
        self._tracer = tracer
        self._node_id = node_id
        self._m_ts_detects = stats.counter("ts_detects")
        self._m_send = stats.counter("validates_sent")
        self._m_suppress = stats.counter("validates_suppressed")
        self._m_useful_external = stats.counter("useful_by_external_req")
        self._m_useful_snoop = stats.counter("useful_by_snoop_response")
        self._m_useless_snoop = stats.counter("useless_by_snoop_response")

    def init_line(self, line: CacheLine) -> None:
        """Cold-allocate predictor storage for a newly filled line."""
        line.pred_state = PRED_START
        line.pred_conf = self.config.initial_confidence

    def on_ts_detect(self, line: CacheLine, span: int | None = None) -> bool:
        """Temporal silence detected: return True to broadcast a validate.

        This is the (*) transition in Figure 4: the confidence counter
        is read, and the machine moves to ``TS Detected`` either way.
        ``span`` tags the decision with its validate-episode span.
        """
        line.pred_state = PRED_TS_DETECTED
        send = line.pred_conf >= self.config.threshold
        self._m_ts_detects.inc()
        (self._m_send if send else self._m_suppress).inc()
        self._tracer.emit(
            "predictor.decide", node=self._node_id, base=line.base,
            conf=line.pred_conf, send=send, span=span,
        )
        return send

    def on_external_request(self, line: CacheLine) -> None:
        """A remote request arrived while the line was temporally silent."""
        if line.pred_state == PRED_TS_DETECTED:
            self._bump(line, self.config.increment)
            line.pred_state = PRED_START
            self._m_useful_external.inc()
            self._tracer.emit(
                "predictor.train", node=self._node_id, base=line.base,
                conf=line.pred_conf, cause="external_request",
            )

    def on_intermediate_store_upgrade(self, line: CacheLine) -> None:
        """A non-update-silent store hit a validated (shared) line."""
        if line.pred_state == PRED_TS_DETECTED:
            line.pred_state = PRED_UPGRADE_WAIT

    def on_upgrade_response(self, line: CacheLine, useful: bool) -> None:
        """The upgrade's snoop responses arrived; train on usefulness."""
        if line.pred_state != PRED_UPGRADE_WAIT:
            return
        if useful:
            self._bump(line, self.config.increment)
            self._m_useful_snoop.inc()
        else:
            self._bump(line, -self.config.decrement)
            self._m_useless_snoop.inc()
        line.pred_state = PRED_START
        self._tracer.emit(
            "predictor.train", node=self._node_id, base=line.base,
            conf=line.pred_conf,
            cause="useful_snoop" if useful else "useless_snoop",
        )

    def on_intermediate_store_exclusive(self, line: CacheLine) -> None:
        """A non-update-silent store hit while we retained exclusivity.

        This happens when the previous temporal silence did not
        broadcast a validate (confidence below threshold): no upgrade
        occurs, so no snoop response is available; the machine simply
        returns to Start.  Recovery to validating relies on external
        requests observed during future TS episodes.
        """
        if line.pred_state == PRED_TS_DETECTED:
            line.pred_state = PRED_START

    def _bump(self, line: CacheLine, delta: int) -> None:
        line.pred_conf = max(0, min(self.config.saturation, line.pred_conf + delta))
