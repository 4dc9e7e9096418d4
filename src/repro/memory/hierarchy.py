"""Per-node memory system: L1, MSHRs, and the core-facing access paths.

``NodeMemory`` composes the node's L1 tag array (an inclusive subset of
the L2 — the authoritative data lives in the L2 line, so snoops never
need an L1 sync), the MSHR file, the LVP speculative-delivery hooks,
and the latency model, delegating every coherence decision to the
node's :class:`~repro.coherence.controller.CoherenceController`.

Access results are returned synchronously for hits ("fast path": no
scheduler event) and via callbacks for misses.
"""

from __future__ import annotations

from typing import Callable

from repro.common.addressing import line_address, word_index
from repro.common.config import MachineConfig
from repro.common.errors import SimulationError
from repro.common.events import Scheduler
from repro.common.stats import ScopedStats
from repro.coherence.controller import CoherenceController
from repro.coherence.messages import BusTransaction, TxnKind
from repro.coherence.states import LineState
from repro.lvp.unit import LVPUnit
from repro.memory.cache import CacheLine, SetAssocCache
from repro.memory.mshr import MSHRFile
from repro.obs.tracer import NULL_TRACER

StoreCallback = Callable[[], None]
BoolCallback = Callable[[bool], None]


class NodeMemory:
    """The memory system of one processor node."""

    def __init__(
        self,
        node_id: int,
        config: MachineConfig,
        scheduler: Scheduler,
        controller: CoherenceController,
        stats: ScopedStats,
        classifier=None,
        tracer=NULL_TRACER,
    ):
        self.node_id = node_id
        self.config = config
        self.scheduler = scheduler
        self.ctrl = controller
        self.stats = stats
        self.classifier = classifier
        self.tracer = tracer
        self.l1 = SetAssocCache(config.l1, f"P{node_id}.L1")
        self.mshrs = MSHRFile(config.core.mshrs)
        self.lvp = LVPUnit(config.lvp, stats, tracer=tracer, node_id=node_id)
        self._miss_hist = stats.histogram("miss_latency")
        self._m_lvp_predictions = stats.counter("lvp.predictions")
        self._m_update_silent = stats.counter("stores.update_silent")
        self._deferred: list[Callable[[], None]] = []
        self.core = None  # set by the system builder; narrow interface
        self.sle_engine = None  # optional, set by the system builder
        # Optional access-trace subscriber: called as
        # trace(node, kind, addr, value) for every load/store/stcx the
        # core performs (see repro.analysis.trace).
        self.trace: Callable[[int, str, int, int], None] | None = None
        controller.on_line_invalidated = self._on_invalidated
        controller.on_line_evicted = self._on_l2_evicted
        controller.on_remote_txn = self._on_remote_txn

    # ------------------------------------------------------------------
    # Loads
    # ------------------------------------------------------------------

    def load(
        self, addr: int, winop, reserve: bool = False, allow_spec: bool = True
    ) -> tuple[str, int, int | None]:
        """Access path for a load (or larx, with ``reserve``).

        Returns ``("hit", latency, value)``, ``("spec", latency,
        value)`` for an LVP speculative delivery (the core must mark
        the op unverified; resolution arrives via ``core.lvp_verified``
        / ``core.lvp_mispredict``), or ``("pending", 0, None)`` with
        ``core.load_completed(winop, value)`` fired later.
        """
        base = line_address(addr, self.config.line_size)
        widx = word_index(addr, self.config.line_size)
        if self.trace is not None:
            self.trace(self.node_id, "larx" if reserve else "load", addr, 0)
        entry = self.mshrs.get(base)
        if entry is not None:
            # An outstanding miss for this line: even if the state was
            # already installed at the bus grant, the data is still in
            # flight — merge and complete at delivery.  Tag-match
            # invalid residue still feeds LVP for merged loads (the
            # MSHR tracks every speculatively-delivered word, §3.2).
            line = self.ctrl.lookup(base)
            if reserve:
                line_valid = line is not None and line.state.valid
                if not entry.granted or line_valid:
                    # Sound pairings only: reservation armed at/before
                    # the value-observation grant, or the line is still
                    # valid (any later invalidation will clear it).  A
                    # granted-then-invalidated fill delivers a stale
                    # value; leaving the reservation unarmed makes the
                    # paired stcx fail and the program retry.
                    self.ctrl.set_reservation(base)
            spec_value = self._lvp_candidate(line, widx) if allow_spec else None
            entry.add_waiter(self._load_waiter(winop, base, widx, reserve, spec_value))
            if spec_value is not None:
                entry.record_speculation(widx, spec_value, winop)
                self._m_lvp_predictions.inc()
                self.tracer.emit(
                    "lvp.predict", node=self.node_id, base=base,
                    word=widx, value=spec_value, span=entry.span,
                )
                return ("spec", self.config.l1.latency + self.config.l2.latency,
                        spec_value)
            return ("pending", 0, None)
        line = self.ctrl.lookup(base)
        if line is not None and line.state.valid:
            latency = self._hit_latency(base, line)
            self.ctrl.local_access(line)
            if reserve:
                self.ctrl.set_reservation(base)
            return ("hit", latency, line.data[widx])

        self.stats.add("l2.load_misses")
        cls = self._classify_miss(base, widx)
        if reserve:
            # The reservation arms at request time and is broken by any
            # invalidating grant that serializes before the stcx's own
            # grant — LL/SC resolves entirely at the coherence point.
            self.ctrl.set_reservation(base)
        spec_value = self._lvp_candidate(line, widx) if allow_spec else None
        self._miss(
            base,
            is_store=False,
            waiter=self._load_waiter(winop, base, widx, reserve, spec_value),
            spec=(widx, spec_value, winop) if spec_value is not None else None,
            cls=cls,
        )
        if spec_value is not None:
            self._m_lvp_predictions.inc()
            entry = self.mshrs.get(base)
            self.tracer.emit(
                "lvp.predict", node=self.node_id, base=base,
                word=widx, value=spec_value,
                span=entry.span if entry is not None else None,
            )
            latency = self.config.l1.latency + self.config.l2.latency
            return ("spec", latency, spec_value)
        return ("pending", 0, None)

    def _load_waiter(self, winop, base: int, widx: int, reserve: bool, spec_value):
        def waiter(data: list[int]) -> None:
            if spec_value is None:
                delay = self.config.l1.latency
                self.scheduler.after(
                    delay, lambda: self.core.load_completed(winop, data[widx])
                )
            # Speculatively-delivered loads were completed at predict
            # time; verification is handled by the MSHR resolution.

        return waiter

    def _lvp_candidate(self, line: CacheLine | None, widx: int) -> int | None:
        """Tag-match invalid data usable as a value prediction (§3.1)."""
        return self.lvp.candidate(line, widx)

    # ------------------------------------------------------------------
    # Stores
    # ------------------------------------------------------------------

    def store(self, addr: int, value: int, pc: int, on_done: StoreCallback) -> int | None:
        """Drain one committed store into the hierarchy.

        Returns the latency for a synchronous completion, or None with
        ``on_done()`` fired at the (future) completion time.
        """
        base = line_address(addr, self.config.line_size)
        widx = word_index(addr, self.config.line_size)
        if self.trace is not None:
            self.trace(self.node_id, "store", addr, value)
        if self.mshrs.get(base) is not None:
            self.mshrs.get(base).add_waiter(
                lambda data: self._rerun_store(addr, value, pc, on_done)
            )
            return None
        line = self.ctrl.lookup(base)
        valid = line is not None and line.state.valid
        silent = valid and line.data[widx] == value

        if silent:
            self._m_update_silent.inc()
            if self.config.protocol.squash_silent_stores:
                # Verified silent: commits without ownership or
                # invalidation (update silent sharing, [21]).
                self.ctrl.local_access(line)
                self.stats.add("stores.silent_squashed")
                return self._hit_latency(base, line)

        if valid:
            if not silent:
                self.ctrl.before_nonsilent_store(
                    line, needs_upgrade=not line.state.writable
                )
            if line.state.writable:
                self._do_write(line, base, widx, value)
                return self._hit_latency(base, line)
            # S / O / VS: upgrade for ownership; the write applies
            # atomically at the grant, completion is timing only.
            self.ctrl.issue(
                TxnKind.UPGRADE,
                base,
                lambda txn, data: on_done(),
                on_granted=lambda: self._grant_write(base, widx, value),
            )
            return None

        # Miss (I / T / absent): ReadX, then write at the grant.
        self.stats.add("l2.store_misses")
        cls = self._classify_miss(base, widx)
        self._miss(
            base,
            is_store=True,
            waiter=lambda data: on_done(),
            on_granted=lambda: self._grant_write(base, widx, value),
            cls=cls,
        )
        return None

    def _rerun_store(self, addr: int, value: int, pc: int, on_done: StoreCallback) -> None:
        """Re-run a store that was merged behind an outstanding miss."""
        latency = self.store(addr, value, pc, on_done)
        if latency is not None:
            self.scheduler.after(latency, on_done)

    def _grant_write(self, base: int, widx: int, value: int) -> None:
        """Apply a store at its transaction's grant (ownership is fresh)."""
        line = self.ctrl.lookup(base)
        if line is None or not line.state.writable:
            raise SimulationError(
                f"grant-time write without ownership of {base:#x}"
            )
        self._do_write(line, base, widx, value)

    def _do_write(self, line: CacheLine, base: int, widx: int, value: int) -> None:
        """Perform the architectural write plus silence bookkeeping."""
        if line.state is LineState.E:
            line.state = LineState.M
        if line.state is not LineState.M:
            raise SimulationError(f"write to non-writable line {line!r}")
        line.data[widx] = value
        line.dirty_mask |= 1 << widx
        self._fill_l1(base, line, dirty=True)
        self.stats.add("stores.performed")
        self.ctrl.after_store(line)

    # ------------------------------------------------------------------
    # larx / stcx and SLE support
    # ------------------------------------------------------------------

    def stcx(self, addr: int, value: int, pc: int, on_done: BoolCallback) -> int | None:
        """Store-conditional: succeeds only if the reservation held.

        Returns latency for a synchronous result, else None with
        ``on_done(success)`` fired later.
        """
        base = line_address(addr, self.config.line_size)
        widx = word_index(addr, self.config.line_size)
        if self.trace is not None:
            self.trace(self.node_id, "stcx", addr, value)
        if not self.ctrl.reservation_valid(base):
            self.stats.add("stcx.failed")
            return self._finish_bool(on_done, False)
        entry = self.mshrs.get(base)
        if entry is not None:
            entry.add_waiter(lambda data: self.stcx(addr, value, pc, on_done))
            return None
        line = self.ctrl.lookup(base)
        if line is not None and line.state.writable:
            self.ctrl.before_nonsilent_store(line, needs_upgrade=False)
            self._do_write(line, base, widx, value)
            self.ctrl.clear_reservation()
            self.stats.add("stcx.succeeded")
            return self._finish_bool(on_done, True, self._hit_latency(base, line))

        # The conditional store resolves at the coherence point: the
        # reservation is checked — and the write applied — atomically
        # at the ownership grant, exactly as LL/SC hardware does.
        # Under contention, the first contender granted wins; the
        # others observe cleared reservations and fail (no livelock).
        outcome = {"ok": False}

        def at_grant() -> None:
            if not self.ctrl.reservation_valid(base):
                self.stats.add("stcx.failed")
                return
            inner = self.ctrl.lookup(base)
            self._do_write(inner, base, widx, value)
            self.ctrl.clear_reservation()
            self.stats.add("stcx.succeeded")
            outcome["ok"] = True

        if line is not None and line.state.valid:
            self.ctrl.before_nonsilent_store(line, needs_upgrade=True)
            self.ctrl.issue(
                TxnKind.UPGRADE, base,
                lambda txn, data: on_done(outcome["ok"]),
                on_granted=at_grant,
            )
            return None
        # Reservation valid but line invalid is rare (a T-state residue
        # whose invalidation predated the larx fill); refetch exclusive.
        self._miss(
            base, is_store=True,
            waiter=lambda data: on_done(outcome["ok"]),
            on_granted=at_grant,
        )
        return None

    def _finish_bool(self, on_done: BoolCallback, ok: bool, latency: int | None = None) -> int:
        latency = latency if latency is not None else self.config.l1.latency
        on_done(ok)
        return latency

    def prefetch_exclusive(self, addr: int, on_done: StoreCallback) -> int | None:
        """Acquire M ownership of a line without writing (SLE prefetch)."""
        base = line_address(addr, self.config.line_size)
        entry = self.mshrs.get(base)
        if entry is not None:
            entry.add_waiter(lambda data: self._rerun_prefetch(addr, on_done))
            return None
        line = self.ctrl.lookup(base)
        if line is not None and line.state.writable:
            return self.config.l1.latency
        self.stats.add("sle.exclusive_prefetches")
        if line is not None and line.state.valid:
            self.ctrl.issue(TxnKind.UPGRADE, base, lambda txn, data: on_done())
            return None
        self._miss(base, is_store=True, waiter=lambda data: on_done())
        return None

    def _rerun_prefetch(self, addr: int, on_done: StoreCallback) -> None:
        """Re-run a prefetch that was merged behind an outstanding miss."""
        latency = self.prefetch_exclusive(addr, on_done)
        if latency is not None:
            on_done()

    def apply_store_now(self, addr: int, value: int, pc: int) -> None:
        """Zero-latency write used by SLE's atomic region commit.

        Ownership must already be held (the engine prefetches exclusive
        and aborts on any conflicting snoop before committing).
        """
        base = line_address(addr, self.config.line_size)
        widx = word_index(addr, self.config.line_size)
        line = self.ctrl.lookup(base)
        valid = line is not None and line.state.valid
        if valid and line.data[widx] == value:
            self._m_update_silent.inc()
        if line is None or not line.state.writable:
            raise SimulationError(
                f"SLE atomic commit without ownership of {base:#x}"
            )
        if valid:
            self.ctrl.before_nonsilent_store(line, needs_upgrade=False)
        self._do_write(line, base, widx, value)

    def atomic_rmw(
        self, addr: int, expect: int, new: int, on_done: BoolCallback
    ) -> None:
        """Compare-and-swap used by the SLE fallback lock acquisition.

        Acquires ownership, then atomically compares the word against
        ``expect`` and writes ``new`` on a match.
        """
        self._atomic(
            addr,
            lambda word: (new, True) if word == expect else (None, False),
            on_done,
            lambda: self.atomic_rmw(addr, expect, new, on_done),
        )

    def atomic_add(self, addr: int, delta: int, on_done: Callable[[int], None]) -> None:
        """Atomic fetch-and-add (always succeeds once ownership is held).

        Used by the SLE fallback for non-lock larx/stcx idioms (atomic
        increments): architecturally equivalent to a successful
        load-linked / store-conditional retry loop.
        """
        self._atomic(
            addr,
            lambda word: (word + delta, word + delta),
            on_done,
            lambda: self.atomic_add(addr, delta, on_done),
        )

    def _atomic(
        self, addr: int, update: Callable[[int], tuple], on_done: Callable,
        pending: StoreCallback,
    ) -> None:
        """Read-modify-write ``addr``'s word atomically with ownership.

        ``update(word)`` returns ``(new, outcome)``: ``new`` is written
        unless it is None, and ``on_done(outcome)`` fires when the
        access completes.  A writable line applies at once; otherwise an
        Upgrade (valid line) or a ReadX (miss) acquires ownership and
        the update applies at its grant.  ``pending`` re-issues the
        access once a miss already pending on the line settles.
        """
        base = line_address(addr, self.config.line_size)
        widx = word_index(addr, self.config.line_size)
        entry = self.mshrs.get(base)
        if entry is not None:
            entry.add_waiter(lambda data: pending())
            return

        def apply(line: CacheLine):
            new, outcome = update(line.data[widx])
            if new is not None:
                self.ctrl.before_nonsilent_store(line, needs_upgrade=False)
                self._do_write(line, base, widx, new)
            return outcome

        line = self.ctrl.lookup(base)
        if line is not None and line.state.writable:
            on_done(apply(line))
            return
        granted = []  # the outcome, once applied at the grant

        def at_grant() -> None:
            granted.append(apply(self.ctrl.lookup(base)))

        if line is not None and line.state.valid:
            self.ctrl.issue(
                TxnKind.UPGRADE, base,
                lambda txn, data: on_done(granted[0]), on_granted=at_grant,
            )
        else:
            self._miss(
                base, is_store=True,
                waiter=lambda data: on_done(granted[0]), on_granted=at_grant,
            )

    # ------------------------------------------------------------------
    # Miss handling
    # ------------------------------------------------------------------

    def _miss(
        self, base: int, is_store: bool, waiter, spec=None, on_granted=None,
        cls=None,
    ) -> None:
        entry = self.mshrs.get(base)
        if entry is not None:
            if on_granted is not None:
                # A grant-time action cannot merge into an in-flight
                # transaction; re-issue the whole miss once it settles
                # (can happen when a deferred store drains behind a
                # racing load miss).
                entry.add_waiter(
                    lambda data: self._miss(
                        base, is_store, waiter, spec, on_granted, cls
                    )
                )
                return
            entry.add_waiter(waiter)
            if spec is not None:
                entry.record_speculation(spec[0], spec[1], spec[2])
            return
        if self.mshrs.full:
            self.stats.add("mshr.stalls")
            self._deferred.append(
                lambda: self._miss(base, is_store, waiter, spec, on_granted, cls)
            )
            return
        entry = self.mshrs.allocate(base, self.scheduler.now, is_store=is_store)
        entry.cls = cls
        entry.span = self.tracer.span_begin(
            "miss", node=self.node_id, base=base, store=is_store, cls=cls,
        )
        entry.add_waiter(waiter)
        if spec is not None:
            entry.record_speculation(spec[0], spec[1], spec[2])
        kind = TxnKind.READX if is_store else TxnKind.READ

        def granted() -> None:
            entry.granted = True
            if on_granted is not None:
                on_granted()

        self.ctrl.issue(
            kind, base, lambda txn, data: self._fill(base, data),
            on_granted=granted, parent=entry.span,
        )

    def _fill(self, base: int, data: list[int] | None) -> None:
        assert data is not None
        entry = self.mshrs.release(base)
        latency = self.scheduler.now - entry.issued_at
        self._miss_hist.record(latency)
        cause = None
        if self.classifier is not None:
            cause = self.classifier.on_fill(self.node_id, base, data)
        self.tracer.emit(
            "mem.miss", node=self.node_id, base=base,
            ts=entry.issued_at, dur=latency, store=entry.is_store,
            cls=entry.cls, cause=cause, span=entry.span,
        )
        self.tracer.span_end(entry.span, node=self.node_id, base=base,
                             cause=cause)
        line = self.ctrl.lookup(base)
        if line is not None:
            self._fill_l1(base, line, dirty=False)
        self._resolve_speculation(entry, data)
        for waiter in entry.waiters:
            waiter(data)
        deferred, self._deferred = self._deferred, []
        for thunk in deferred:
            thunk()

    def _resolve_speculation(self, entry, data: list[int]) -> None:
        self.lvp.resolve(entry, data, self.core)

    # ------------------------------------------------------------------
    # L1 management and latency
    # ------------------------------------------------------------------

    def _hit_latency(self, base: int, line: CacheLine) -> int:
        l1_line = self.l1.lookup(base)
        if l1_line is not None and l1_line.state.valid:
            self.l1.touch(l1_line)
            self.stats.add("l1.hits")
            return self.config.l1.latency
        self._fill_l1(base, line, dirty=False)
        self.stats.add("l2.hits")
        return self.config.l1.latency + self.config.l2.latency

    def _fill_l1(self, base: int, l2_line: CacheLine, dirty: bool) -> None:
        l1_line = self.l1.lookup(base)
        if l1_line is None:
            l1_line, evicted = self.l1.allocate(base)
            if evicted is not None and self.ctrl.stale_detector is not None:
                self.ctrl.stale_detector.on_l1_evict(
                    evicted.base, evicted.state is LineState.M
                )
            l1_line.state = LineState.S
            if self.ctrl.stale_detector is not None:
                self.ctrl.stale_detector.on_l1_fill(
                    base, l2_line.data, l2_was_dirty=l2_line.dirty_mask != 0
                )
        if dirty:
            l1_line.state = LineState.M
        self.l1.touch(l1_line)

    def _classify_miss(self, base: int, widx: int) -> str | None:
        if self.classifier is not None:
            return self.classifier.on_miss(self.node_id, base, widx)
        return None

    # ------------------------------------------------------------------
    # Controller notifications
    # ------------------------------------------------------------------

    def _on_invalidated(self, base: int, words: list[int]) -> None:
        self.l1.evict(base)
        if self.classifier is not None:
            self.classifier.on_remote_invalidate(self.node_id, base, words)
        if self.sle_engine is not None:
            self.sle_engine.on_local_line_invalidated(base)

    def _on_l2_evicted(self, base: int) -> None:
        self.l1.evict(base)
        if self.classifier is not None:
            self.classifier.on_local_evict(self.node_id, base)

    def _on_remote_txn(self, txn: BusTransaction) -> None:
        if self.sle_engine is not None:
            self.sle_engine.on_remote_txn(txn)
