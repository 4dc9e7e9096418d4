"""Per-node coherence controller.

Owns the node's L2 (the coherence point), applies the protocol logic to
local requests and remote snoops, detects temporal silence on stores,
and runs the validate policy.  The node's L1/MSHR/store-path timing
lives in :class:`repro.memory.hierarchy.NodeMemory`, which drives this
controller; the split keeps protocol state transitions testable in
isolation from timing.

Data model notes:

* The L2 line holds the node's authoritative copy of the data; the L1
  is a tag/dirty-bit subset (inclusive), so snoops never need an
  L1 sync step.
* ``line.visible`` tracks the last *globally visible* value of a line
  held by this node (set at fill, updated when the node's dirty data is
  flushed to a remote requester).  Ideal temporal-silence detection
  compares against it; the explicit Figure-5 detector is consulted
  instead when configured.
* Dirty evictions update memory immediately at the eviction point (the
  WRITEBACK transaction is issued for timing, traffic accounting, and
  remote-T invalidation only), which keeps the atomic-grant model free
  of write-ordering races.
"""

from __future__ import annotations

from typing import Callable

from repro.common.config import MachineConfig, StaleDetectionMode
from repro.common.errors import ProtocolError
from repro.common.stats import ScopedStats
from repro.coherence.bus import SnoopBus
from repro.coherence.messages import BusTransaction, TxnKind
from repro.coherence.policies import make_validate_policy
from repro.coherence.protocol import SnoopQuery, make_protocol
from repro.coherence.states import LineState
from repro.memory.cache import CacheLine, SetAssocCache
from repro.memory.mainmem import MainMemory
from repro.memory.stale import ExplicitStaleDetector
from repro.obs.tracer import NULL_TRACER


class CoherenceController:
    """L2 + protocol FSM + validate policy for one node."""

    def __init__(
        self,
        node_id: int,
        config: MachineConfig,
        bus: SnoopBus,
        memory: MainMemory,
        stats: ScopedStats,
        tracer=NULL_TRACER,
    ):
        self.node_id = node_id
        self.config = config
        self.bus = bus
        self.memory = memory
        self.stats = stats
        self.tracer = tracer
        self.l2 = SetAssocCache(config.l2, f"P{node_id}.L2")
        self.protocol = make_protocol(config.protocol)
        self.policy = make_validate_policy(
            config.protocol.validate_policy,
            config.protocol.predictor,
            stats.scoped("predictor"),
            tracer=tracer,
            node_id=node_id,
        )
        # Validate-to-reuse distance: cycle of the last revalidation of
        # each line, consumed at the node's next local touch of it.
        self._revalidated_at: dict[int, int] = {}
        # Intermediate-value distance per diverged line (traced runs
        # only; stays empty — and free — under NULL_TRACER).
        self._ivd: dict[int, int] = {}
        self._reuse_hist = stats.histogram("validate_reuse_distance")
        # Paper-level counters (Table 2 / Figure 8 inputs): temporally
        # silent stores, validate fate.
        self._m_ts_stores = stats.counter("ts_stores")
        self._m_validates_broadcast = stats.counter("validates_broadcast")
        self._m_validates_suppressed = stats.counter("validates_suppressed")
        self._m_validates_cancelled = stats.counter("validates_cancelled")
        self._m_revalidations = stats.counter("revalidations")
        self.stale_detector: ExplicitStaleDetector | None = None
        if config.protocol.stale_detection is StaleDetectionMode.EXPLICIT:
            self.stale_detector = ExplicitStaleDetector(
                config.l1, config.protocol.stale_storage_bytes, stats.scoped("stale")
            )
        self.reservation: int | None = None
        # Hooks installed by NodeMemory / the SLE engine.  The
        # invalidation hook receives the line's data at the moment of
        # invalidation (the snapshot miss classification compares
        # against, and the value remote T copies saved).
        self.on_line_invalidated: Callable[[int, list[int]], None] | None = None
        self.on_line_evicted: Callable[[int], None] | None = None
        self.on_remote_txn: Callable[[BusTransaction], None] | None = None
        bus.attach(self)

    # ------------------------------------------------------------------
    # Local (requester) side
    # ------------------------------------------------------------------

    def lookup(self, base: int) -> CacheLine | None:
        """The L2 line for ``base`` (any state, including stale residue)."""
        return self.l2.lookup(base)

    def local_access(self, line: CacheLine) -> None:
        """Bookkeeping for a local hit (LRU touch, VS demotion)."""
        self.l2.touch(line)
        if self._revalidated_at:
            revalidated = self._revalidated_at.pop(line.base, None)
            if revalidated is not None:
                self._reuse_hist.record(self.bus.scheduler.now - revalidated)
        demote = getattr(self.protocol, "on_local_access", None)
        if demote is not None:
            demote(line)

    def issue(
        self,
        kind: TxnKind,
        base: int,
        on_done: Callable[[BusTransaction, list[int] | None], None],
        on_granted: Callable[[], None] | None = None,
        parent: int | None = None,
    ) -> None:
        """Issue a Read/ReadX/Upgrade.

        The state change installs at the atomic grant; ``on_granted``
        (if given) then fires synchronously — store paths apply their
        writes there.  ``on_done`` fires at the timing-model completion
        (address latency, or data delivery for Read/ReadX).  ``parent``
        links the transaction's trace span under a causing span (e.g.
        the MSHR miss span).
        """
        txn = BusTransaction(
            kind=kind, base=base, requester=self.node_id, grant_callback=on_granted
        )
        txn.span = self.tracer.span_begin(
            "txn", node=self.node_id, base=base, parent=parent,
            txn=kind.value,
        )
        self.bus.request(txn, lambda t, data: self._complete(t, data, on_done))

    def on_grant(self, txn: BusTransaction, data: list[int] | None) -> None:
        """Install our own transaction's state change at the atomic point.

        Done at grant (not data delivery) so transactions granted in
        between observe — and can invalidate — the new copy; otherwise
        a Read's fill could install data made stale by an intervening
        remote ReadX.
        """
        if txn.kind in (TxnKind.READ, TxnKind.READX):
            self._install_fill(txn, data)
        elif txn.kind is TxnKind.UPGRADE:
            self._install_upgrade(txn)
        if txn.grant_callback is not None:
            txn.grant_callback()

    def _complete(
        self,
        txn: BusTransaction,
        data: list[int] | None,
        on_done: Callable[[BusTransaction, list[int] | None], None],
    ) -> None:
        on_done(txn, data)

    def _install_fill(self, txn: BusTransaction, data: list[int] | None) -> None:
        assert data is not None
        line = self.l2.lookup(txn.base)
        fresh = line is None
        pre_state = None if fresh else line.state
        if fresh:
            line = self._allocate(txn.base)
        line.state = self.protocol.fill_state(txn.kind, txn.result)
        self.tracer.emit(
            "cache.transition", node=self.node_id, base=txn.base,
            frm=pre_state.value if pre_state is not None else None,
            to=line.state.value, via=txn.kind.value, span=txn.span,
        )
        line.data = list(data)
        line.dirty_mask = 0
        line.visible = list(data)
        line.diverged = False
        line.validate_suppressed = False
        self.l2.touch(line)
        if fresh:
            self.policy.on_line_filled(line)
        if txn.kind is TxnKind.READX:
            self.policy.on_invalidating_response(line, txn.result)

    def pre_grant(self, txn: BusTransaction) -> bool:
        """Fix up or cancel our own transaction at its grant instant.

        An Upgrade whose shared copy was invalidated while it sat in
        the bus queue is converted to a ReadX (as a real split
        transaction bus would retry it); a Validate whose line changed
        underneath (we were invalidated, or we upgraded and stored a
        new value first) is cancelled, since remote T copies could no
        longer match it.
        """
        if txn.kind is TxnKind.UPGRADE:
            line = self.l2.lookup(txn.base)
            if line is None or line.state not in (
                LineState.S,
                LineState.O,
                LineState.VS,
            ):
                txn.kind = TxnKind.READX
                self.stats.add("upgrade_converted_to_readx")
            return True
        if txn.kind is TxnKind.VALIDATE:
            line = self.l2.lookup(txn.base)
            ok = line is not None and line.state in (LineState.S, LineState.O)
            if not ok:
                self._m_validates_cancelled.inc()
            return ok
        return True

    def _install_upgrade(self, txn: BusTransaction) -> None:
        line = self.l2.lookup(txn.base)
        if line is None or line.state not in (LineState.S, LineState.O, LineState.VS):
            raise ProtocolError(
                f"P{self.node_id} completed an Upgrade for {txn.base:#x} "
                f"without a shared copy (pre_grant should have converted it)"
            )
        self.tracer.emit(
            "cache.transition", node=self.node_id, base=txn.base,
            frm=line.state.value, to=LineState.M.value, via=txn.kind.value,
            span=txn.span,
        )
        line.state = LineState.M
        line.dirty_mask = 0
        self.l2.touch(line)
        self.policy.on_invalidating_response(line, txn.result)
        self.policy.on_upgrade_response(line, useful=txn.result.shared)

    def evict_line(self, base: int) -> bool:
        """Forcibly evict ``base`` from the L2 (replay/verification hook).

        Runs the full eviction path — dirty write-back transaction,
        stale-detector and node notifications — exactly as a capacity
        eviction would.  Returns False if the line was not resident.
        """
        view = self.l2.evict(base)
        if view is None:
            return False
        self._handle_eviction(view)
        return True

    def _allocate(self, base: int) -> CacheLine:
        line, evicted = self.l2.allocate(base)
        if evicted is not None:
            self._handle_eviction(evicted)
        return line

    def _handle_eviction(self, evicted) -> None:
        self.stats.add("l2.evictions")
        if self._revalidated_at:
            self._revalidated_at.pop(evicted.base, None)
        if self.on_line_evicted is not None:
            self.on_line_evicted(evicted.base)
        if self.stale_detector is not None:
            self.stale_detector.on_invalidate(evicted.base)
        if self.reservation == evicted.base:
            self.reservation = None
        if evicted.dirty:
            # Memory is updated instantly (see module docstring); the
            # bus transaction models timing/traffic and invalidates
            # remote T copies.
            self.memory.write_line(evicted.base, evicted.data)
            txn = BusTransaction(
                kind=TxnKind.WRITEBACK,
                base=evicted.base,
                requester=self.node_id,
                data=list(evicted.data),
            )
            txn.span = self.tracer.span_begin(
                "txn", node=self.node_id, base=evicted.base,
                txn=TxnKind.WRITEBACK.value,
            )
            self.bus.request(txn)

    # ------------------------------------------------------------------
    # Store-side value locality (update silence, temporal silence)
    # ------------------------------------------------------------------

    def before_nonsilent_store(self, line: CacheLine, needs_upgrade: bool) -> None:
        """Hook fired for every non-update-silent store to a valid line."""
        self.policy.on_intermediate_store(line, needs_upgrade)

    def after_store(self, line: CacheLine) -> None:
        """Detect temporal silence after a store wrote ``line`` (M state).

        If the line's full contents now equal the last globally visible
        value (per the configured detection mechanism), temporal
        silence is detected; the validate policy decides whether to
        broadcast (§2.2–2.4).
        """
        if line.state is not LineState.M:
            return
        candidate = self._ts_candidate(line)
        if candidate is None:
            return
        if line.data != candidate:
            line.diverged = True
            # Intermediate-value distance (paper Figure 2): count the
            # non-reverting stores between divergence and reversion.
            # Traced runs only — the untraced path keeps the dict empty.
            if self.tracer is not NULL_TRACER:
                self._ivd[line.base] = self._ivd.get(line.base, 0) + 1
            return
        if not line.diverged:
            return  # never diverged: not a reversion, nothing to validate
        line.diverged = False
        ivd = self._ivd.pop(line.base, 0) if self._ivd else 0
        # Counted for every protocol (Table 2 reports temporally silent
        # stores); only T-state protocols can act on the detection.
        self._m_ts_stores.inc()
        if not self.protocol.has_temporal:
            return
        # The validate episode span opens at the TS detect, before the
        # policy decision, so the predictor's decide event is tagged
        # with it; it closes at suppression here, or at the VALIDATE
        # transaction's grant/cancel on the interconnect.
        span = self.tracer.span_begin(
            "validate", node=self.node_id, base=line.base, ivd=ivd,
        )
        if self.policy.should_validate(line, span=span):
            self._broadcast_validate(line, span=span, ivd=ivd)
        else:
            self._m_validates_suppressed.inc()
            self.tracer.emit(
                "validate.suppressed", node=self.node_id, base=line.base,
                span=span, ivd=ivd,
            )
            self.tracer.span_end(span, node=self.node_id, base=line.base,
                                 outcome="suppressed")

    def _ts_candidate(self, line: CacheLine) -> list[int] | None:
        if self.stale_detector is not None:
            return self.stale_detector.candidate(line.base)
        return line.visible

    def _broadcast_validate(
        self, line: CacheLine, span: int | None = None, ivd: int = 0
    ) -> None:
        line.state = self.protocol.post_validate_state()
        line.dirty_mask = 0
        line.visible = list(line.data)
        line.diverged = False
        if self.protocol.validate_writes_back:
            self.memory.write_line(line.base, line.data)
        txn = BusTransaction(
            kind=TxnKind.VALIDATE, base=line.base, requester=self.node_id,
            span=span,
        )
        self.bus.request(txn)
        self._m_validates_broadcast.inc()
        self.tracer.emit(
            "validate.broadcast", node=self.node_id, base=line.base,
            to=line.state.value, span=span, ivd=ivd,
        )

    # ------------------------------------------------------------------
    # Reservations (larx/stcx)
    # ------------------------------------------------------------------

    def set_reservation(self, base: int) -> None:
        """Arm the load-linked reservation for ``base``."""
        self.reservation = base

    def reservation_valid(self, base: int) -> bool:
        """True if the reservation covers ``base``."""
        return self.reservation == base

    def clear_reservation(self) -> None:
        """Drop the reservation (successful stcx)."""
        self.reservation = None

    # ------------------------------------------------------------------
    # Remote (snooper) side — called by the bus at the atomic point
    # ------------------------------------------------------------------

    def snoop_query(self, txn: BusTransaction) -> SnoopQuery:
        """Phase 1: shared/supply responses for a remote transaction."""
        line = self.l2.lookup(txn.base)
        if line is None:
            return SnoopQuery()
        return self.protocol.snoop_query(line, txn.kind)

    def supply_data(self, txn: BusTransaction) -> list[int]:
        """Flush the dirty line's data to the requester."""
        line = self.l2.lookup(txn.base)
        if line is None or not line.state.dirty:
            raise ProtocolError(
                f"P{self.node_id} asked to supply {txn.base:#x} without dirty data"
            )
        self.stats.add("flushes")
        return list(line.data)

    def snoop_apply(self, txn: BusTransaction) -> None:
        """Phase 2: apply this cache's state transition."""
        if self.on_remote_txn is not None:
            self.on_remote_txn(txn)
        line = self.l2.lookup(txn.base)
        if line is None:
            return
        pre_state = line.state
        if txn.kind in (TxnKind.READ, TxnKind.READX, TxnKind.UPGRADE):
            self.policy.on_external_request(line, txn.kind)
        supplied = txn.result.dirty_owner == self.node_id
        self.protocol.snoop_apply(line, txn.kind, txn.result)
        if line.state is not pre_state:
            self.tracer.emit(
                "cache.transition", node=self.node_id, base=txn.base,
                frm=pre_state.value, to=line.state.value,
                via=f"snoop:{txn.kind.value}", span=txn.span,
            )
        self._post_snoop_effects(txn, line, pre_state, supplied)

    def _post_snoop_effects(
        self,
        txn: BusTransaction,
        line: CacheLine,
        pre_state: LineState,
        supplied: bool,
    ) -> None:
        base = txn.base
        if txn.kind is TxnKind.READ and supplied and pre_state is LineState.M:
            # Our dirty value just became globally visible.
            if not self.protocol.has_owned:
                self.memory.write_line(base, line.data)
            if self.stale_detector is not None:
                self.stale_detector.on_visibility(base, line.data)
        if txn.kind.invalidating and self.reservation == base:
            # Reservations break on any remote invalidation of the
            # reserved line — including one arriving while our own fill
            # is still in flight (the larx set it at request time).
            self.reservation = None
        if txn.kind.invalidating and pre_state.valid:
            # We lost the line: drop L1 copy and the explicit stale
            # candidate; notify the node (SLE conflicts, miss
            # classification snapshots).
            if self._revalidated_at:
                self._revalidated_at.pop(base, None)
            if self.stale_detector is not None:
                self.stale_detector.on_invalidate(base)
            if self.on_line_invalidated is not None:
                self.on_line_invalidated(base, list(line.data))
        if txn.kind is TxnKind.VALIDATE and pre_state is LineState.T:
            # Re-installed: the saved value is the globally visible one.
            line.visible = list(line.data)
            self._m_revalidations.inc()
            self._revalidated_at[base] = self.bus.scheduler.now
            self.tracer.emit(
                "validate.revalidate", node=self.node_id, base=base,
                by=txn.requester, to=line.state.value, span=txn.span,
            )
