"""The SLE elision engine (one per core).

Implements the in-core variant of §4.2: speculation support is the
existing window (ROB), so a critical section must fit within
``rob_threshold`` of it; speculative stores are buffered in the window
(never drain) with exclusive-ownership prefetches issued eagerly; the
region commits atomically when the release store (a store restoring
the larx-observed value to the lock address — the temporally silent
half of the pair) completes, applying all buffered stores at once.

Aborts and their handling:

* ``conflict``  — a remote transaction touched the speculative read or
  write set.  Up to ``restart_limit`` restarts re-elide; afterwards the
  engine falls back.
* ``no_release`` — the region hit the ROB threshold without finding a
  release (the dominant failure in full-system code: the larx/stcx
  idiom also implements atomic increments, list ops, ...; §4.1).
* ``serialize`` — an isync touching context-sensitive state (or any
  isync, when the §4.2.2 safety check is disabled).
* ``nested``    — another control op (nested lock, barrier spin) inside
  the region.

The elided stcx *architecturally commits* reporting success before the
region outcome is known; on a non-retried abort the engine *makes the
success true* before replaying the squashed region: for lock acquires
it spins a compare-and-swap until the lock is really taken, for atomic
read-modify-write idioms it applies the operation atomically (the
``sle_fallback`` recipe carried in the stcx metadata).  The program
therefore never observes a contradiction, and region replay is exact.
"""

from __future__ import annotations

import enum

from repro.common.addressing import line_address
from repro.common.config import MachineConfig
from repro.common.events import Scheduler
from repro.common.stats import ScopedStats
from repro.coherence.messages import BusTransaction, TxnKind
from repro.cpu.core import Core, Phase, WinOp
from repro.cpu.isa import OpKind
from repro.memory.hierarchy import NodeMemory
from repro.obs.tracer import NULL_TRACER
from repro.sle.confidence import ElisionConfidence
from repro.sle.idiom import IdiomTracker

_BACKOFF_START = 50
_BACKOFF_CAP = 800

#: The fixed abort-reason vocabulary (see the module docstring).
ABORT_REASONS = ("no_release", "conflict", "serialize", "nested")


class Mode(enum.Enum):
    """Engine lifecycle state."""
    IDLE = "idle"
    SPECULATING = "speculating"
    ACQUIRING = "acquiring"  # fallback acquisition after a failed elision


# ``active`` and ``on_fetch`` run for every op the core admits and
# completes, so they test these module globals: a lookup through the
# enum class costs several times a global read (see cpu/core.py).
_IDLE, _SPECULATING, _LARX = Mode.IDLE, Mode.SPECULATING, OpKind.LARX


class SLEEngine:
    """Drives elision for one core."""

    def __init__(
        self,
        config: MachineConfig,
        core: Core,
        node: NodeMemory,
        scheduler: Scheduler,
        stats: ScopedStats,
        tracer=NULL_TRACER,
    ):
        self.config = config
        self.core = core
        self.node = node
        self.scheduler = scheduler
        self.stats = stats
        self.tracer = tracer
        self._m_candidates = stats.counter("candidates")
        self._m_filtered = stats.counter("filtered_by_confidence")
        self._m_attempts = stats.counter("attempts")
        self._m_commits = stats.counter("successes")
        self._m_aborts = {
            reason: stats.counter(f"failure.{reason}") for reason in ABORT_REASONS
        }
        self._m_restarts = stats.counter("restarts")
        self._m_fallbacks = stats.counter("fallback_acquisitions")
        self.confidence = ElisionConfidence(config.sle, stats)
        self.idiom = IdiomTracker()
        self.max_region = max(4, int(config.sle.rob_threshold * config.core.rob_size))
        self.mode = Mode.IDLE
        # Region state (valid while SPECULATING / ACQUIRING):
        self.lock_addr = 0
        self.lock_base = 0
        self.free_value = 0
        self.held_value = 0
        self.stcx_pc = 0
        self.fallback: tuple | None = None
        self.restarts = 0
        self.region_ops: list[WinOp] = []
        # Stores and loads/larxes in ``region_ops``, dead ones included
        # until ``on_squash`` filters them: checkpoint mode's bounds.
        self.region_stores = 0
        self.region_loads = 0
        self.read_set: set[int] = set()
        self.write_set: set[int] = set()
        self.release_w: WinOp | None = None
        self.prefetch_outstanding = 0
        self._region_token: object = object()
        self._commit_token: object | None = None
        self._pending_stores: list = []  # checkpoint-mode abort replay
        self._reexec_charge = 0
        # Trace span covering the current elision region (None when
        # idle/untraced); stays open across conflict retries.
        self._span: int | None = None
        core.sle_engine = self
        node.sle_engine = self

    @property
    def active(self) -> bool:
        """True while the engine is speculating or acquiring a fallback."""
        return self.mode is not _IDLE

    # ------------------------------------------------------------------
    # Core fetch hook
    # ------------------------------------------------------------------

    def on_fetch(self, w: WinOp) -> None:
        """Observe a fetched op (region tracking, idiom notes, aborts)."""
        op = w.op
        if self.mode is _SPECULATING and self.release_w is None:
            self._on_region_fetch(w)
            if w.dead or self.mode is not _SPECULATING:
                return
        if self.mode is _IDLE and op.kind is _LARX:
            self.idiom.note_larx(w)

    def _on_region_fetch(self, w: WinOp) -> None:
        op = w.op
        kind = op.kind
        if kind in (OpKind.ISYNC, OpKind.SYNC):
            unsafe = kind is OpKind.ISYNC and (
                op.unsafe_ctx or not self.config.sle.isync_safety_check
            )
            if unsafe:
                self._abort("serialize", trigger=w)
                return
            # Safe: the serialization is elided inside the region
            # (§4.2.2) — treat as a buffered no-op.
            w.sle_buffered = True
            w.sle_blocked = True
            self.region_ops.append(w)
            return
        if kind is OpKind.END:
            self._abort("no_release", trigger=w)
            return
        if op.control:
            # Nested synchronization / control barrier to speculation.
            self._abort("nested", trigger=w)
            return
        checkpoint = self.config.sle.checkpoint_mode
        if (
            kind is OpKind.STORE
            and op.addr == self.lock_addr
            and op.value == self.free_value
        ):
            # The release: the temporally silent store completing the
            # atomic pair.  It is elided along with the acquire, and
            # held until the region commits in both modes: a release
            # retired early is lost to a later conflict abort, and the
            # younger ops behind it (the next acquire) would commit
            # while the region is still speculative.
            w.sle_blocked = True
            w.sle_buffered = True
            self.region_ops.append(w)
            self.region_stores += 1
            self.release_w = w
            self._try_commit_region()
            return
        # In-core buffering holds region ops in the window until the
        # atomic commit; checkpoint mode (§4.2.1, Rajwar) lets them
        # retire and bounds speculation by the store buffer instead.
        w.sle_blocked = not checkpoint
        self.region_ops.append(w)
        if kind is OpKind.STORE:
            w.sle_buffered = True
            self.region_stores += 1
            self.write_set.add(line_address(op.addr, self.config.line_size))
            self._prefetch(op.addr)
        elif kind in (OpKind.LOAD, OpKind.LARX):
            self.region_loads += 1
            self.read_set.add(line_address(op.addr, self.config.line_size))
        if checkpoint:
            if (
                self.region_stores > self.config.core.store_buffer
                or self.region_loads > self.config.l1.num_lines
            ):
                self._abort("no_release", trigger=w)
        elif len(self.region_ops) > self.max_region:
            self._abort("no_release", trigger=w)

    # ------------------------------------------------------------------
    # Store-conditional interception
    # ------------------------------------------------------------------

    def consider_stcx(self, w: WinOp) -> str:
        """Decide the fate of a store-conditional: 'no' | 'elide'."""
        if self.mode is not Mode.IDLE:
            return "no"
        larx = self.idiom.match(w)
        if larx is None:
            return "no"
        self._m_candidates.inc()
        recipe = w.op.meta.get("sle_fallback")
        if recipe is None:
            return "no"
        if not self.confidence.should_attempt(w.op.pc):
            self._m_filtered.inc()
            return "no"
        self._begin(w, larx, recipe)
        return "elide"

    def _begin(self, w: WinOp, larx: WinOp, recipe: tuple) -> None:
        self.mode = Mode.SPECULATING
        self.lock_addr = w.op.addr
        self.lock_base = line_address(w.op.addr, self.config.line_size)
        self.free_value = larx.value
        self.held_value = w.op.value
        self.stcx_pc = w.op.pc
        self.fallback = recipe
        self.restarts = 0
        self._reset_region()
        self._m_attempts.inc()
        self._span = self.tracer.span_begin(
            "sle.region", node=self.core.core_id, base=self.lock_base,
            pc=self.stcx_pc,
        )
        self.tracer.emit(
            "sle.attempt", node=self.core.core_id, base=self.lock_base,
            pc=self.stcx_pc, span=self._span,
        )

    def _reset_region(self) -> None:
        self.region_ops = []
        self.region_stores = 0
        self.region_loads = 0
        self.read_set = {self.lock_base}
        self.write_set = set()
        self.release_w = None
        self.prefetch_outstanding = 0
        self._region_token = object()
        self._commit_token = None

    # ------------------------------------------------------------------
    # Exclusive prefetches for speculative stores
    # ------------------------------------------------------------------

    def _prefetch(self, addr: int) -> None:
        token = self._region_token
        self.prefetch_outstanding += 1

        def done() -> None:
            if token is self._region_token:
                self.prefetch_outstanding -= 1
                self._try_commit_region()

        latency = self.node.prefetch_exclusive(addr, done)
        if latency is not None:
            self.prefetch_outstanding -= 1

    # ------------------------------------------------------------------
    # Region commit
    # ------------------------------------------------------------------

    def on_op_completed(self, w: WinOp) -> None:
        """Region-commit check on each completion while active."""
        if self.mode is Mode.SPECULATING and self.release_w is not None:
            self._try_commit_region()

    def _try_commit_region(self) -> None:
        if (
            self.mode is not Mode.SPECULATING
            or self.release_w is None
            or self.prefetch_outstanding
        ):
            return
        if any(r.phase is not Phase.DONE for r in self.region_ops):
            return
        now = self.scheduler.now
        when = max([now, *(r.complete_time for r in self.region_ops)])
        token = object()
        self._commit_token = token
        self.scheduler.at(when, lambda: self._do_commit(token))

    def _do_commit(self, token: object) -> None:
        if self.mode is not Mode.SPECULATING or self._commit_token is not token:
            return
        for r in self.region_ops:
            if r.sle_buffered and r.op.kind is OpKind.STORE and r is not self.release_w:
                self.node.apply_store_now(r.op.addr, r.op.value, r.op.pc)
        self.confidence.on_success(self.stcx_pc)
        self._m_commits.inc()
        self.stats.add("elided_region_ops", len(self.region_ops))
        self.tracer.emit(
            "sle.commit", node=self.core.core_id, base=self.lock_base,
            ops=len(self.region_ops), span=self._span,
        )
        self.tracer.span_end(
            self._span, node=self.core.core_id, base=self.lock_base,
            outcome="commit", ops=len(self.region_ops),
        )
        self._span = None
        ops = self.region_ops
        self._leave()
        self.core.release_region_ops(ops)

    def _leave(self) -> None:
        self.mode = Mode.IDLE
        self.fallback = None
        self._reset_region()

    # ------------------------------------------------------------------
    # Aborts and fallback
    # ------------------------------------------------------------------

    def on_remote_txn(self, txn: BusTransaction) -> None:
        """Conflict detection against the speculative read/write sets."""
        if self.mode is not Mode.SPECULATING:
            return
        base = txn.base
        if txn.kind in (TxnKind.READX, TxnKind.UPGRADE):
            if base in self.read_set or base in self.write_set:
                self._abort("conflict", trigger=None)
        elif txn.kind is TxnKind.READ and base in self.write_set:
            self._abort("conflict", trigger=None)

    def on_local_line_invalidated(self, base: int) -> None:
        """Conflict check when our own line is invalidated."""
        if self.mode is not Mode.SPECULATING:
            return
        if base in self.read_set or base in self.write_set:
            self._abort("conflict", trigger=None)

    def on_squash(self, removed: list[WinOp], reason: str) -> None:
        """An externally-caused squash (LVP) removed window ops."""
        if self.mode is not Mode.SPECULATING or reason == "sle":
            return
        if any(r.sle_blocked for r in removed):
            # Part of the region was torn out from under us; the
            # replayed ops will be re-tracked, so rebuild region state.
            survivors = [r for r in self.region_ops if not r.dead]
            self.region_ops = survivors
            self.region_stores = sum(
                1 for r in survivors if r.op.kind is OpKind.STORE
            )
            self.region_loads = sum(
                1 for r in survivors if r.op.kind in (OpKind.LOAD, OpKind.LARX)
            )
            self.read_set = {self.lock_base} | {
                line_address(r.op.addr, self.config.line_size)
                for r in survivors
                if r.op.kind in (OpKind.LOAD, OpKind.LARX) and r.op.addr is not None
            }
            self.write_set = {
                line_address(r.op.addr, self.config.line_size)
                for r in survivors
                if r.op.kind is OpKind.STORE
            }
            if self.release_w is not None and self.release_w.dead:
                self.release_w = None
                self._commit_token = None

    def _abort(self, reason: str, trigger: WinOp | None) -> None:
        self._m_aborts[reason].inc()
        self.tracer.emit(
            "sle.abort", node=self.core.core_id, base=self.lock_base,
            reason=reason, restarts=self.restarts, span=self._span,
        )
        self.confidence.on_failure(self.stcx_pc, reason)
        checkpoint = self.config.sle.checkpoint_mode
        # Retired region stores cannot be squashed; they are re-applied
        # ("replayed") after the fallback acquisition, charging the
        # checkpoint-restore and re-execution time.
        retired_stores = [
            r for r in self.region_ops
            if checkpoint and r.retired and not r.dead
            and r.op.kind is OpKind.STORE and r is not self.release_w
        ]
        retired_count = sum(
            1 for r in self.region_ops if r.retired and not r.dead
        )
        target: WinOp | None = None
        for r in self.region_ops:
            if not r.dead and not r.retired:
                target = r
                break
        if target is None:
            target = trigger if (trigger is not None and not trigger.retired) else None
        resume = self.scheduler.now + self.config.core.squash_penalty
        if target is not None:
            self.core.squash_from(target, resume, "sle")
        retry = (
            not checkpoint
            and reason == "conflict"
            and self.restarts < self.config.sle.restart_limit
        )
        if retry:
            self.restarts += 1
            self._m_restarts.inc()
            self._reset_region()
            # Aborts can originate inside a bus snoop; make sure the
            # core re-fetches the replayed region.
            self.scheduler.after(0, self.core.pump)
            return
        fallback = self.fallback
        self._pending_stores = [(r.op.addr, r.op.value, r.op.pc) for r in retired_stores]
        self._reexec_charge = (
            self.config.sle.checkpoint_restore_penalty
            + retired_count // max(1, self.config.core.width)
            if checkpoint else 0
        )
        self.mode = Mode.ACQUIRING
        self._reset_region()
        self.core.stall_fetch(True)
        self._m_fallbacks.inc()
        self.tracer.emit(
            "sle.fallback", node=self.core.core_id, base=self.lock_base,
            span=self._span,
        )
        self.tracer.span_end(
            self._span, node=self.core.core_id, base=self.lock_base,
            outcome="fallback", reason=reason,
        )
        self._span = None
        self._acquire(fallback, attempt=0)

    def _acquire(self, fallback: tuple, attempt: int) -> None:
        kind = fallback[0]
        if kind == "add":
            self.node.atomic_add(self.lock_addr, fallback[1], lambda _v: self._acquired())
            return

        def cas_done(ok: bool) -> None:
            if ok:
                self._acquired()
            else:
                backoff = min(_BACKOFF_START * (1 << attempt), _BACKOFF_CAP)
                self.stats.add("fallback_retries")
                self.scheduler.after(
                    backoff, lambda: self._acquire(fallback, attempt + 1)
                )

        self.node.atomic_rmw(self.lock_addr, self.free_value, self.held_value, cas_done)

    def _acquired(self) -> None:
        # Checkpoint mode: "replay" the already-retired region stores
        # now that the lock is really held, then charge the restore and
        # re-execution time before fetch resumes.
        pending = list(self._pending_stores)
        charge = self._reexec_charge
        self._pending_stores = []
        self._reexec_charge = 0

        def finish() -> None:
            """Terminal fragment: emit the END block."""
            self._leave()
            self.core.stall_fetch(False)

        def after_applies() -> None:
            if charge:
                self.scheduler.after(charge, finish)
            else:
                finish()

        self._apply_stores(pending, after_applies)

    def _apply_stores(self, stores: list, done) -> None:
        """Apply (addr, value, pc) stores in order, asynchronously."""
        if not stores:
            done()
            return
        addr, value, pc = stores[0]
        rest = stores[1:]
        latency = self.node.store(
            addr, value, pc, lambda: self._apply_stores(rest, done)
        )
        if latency is not None:
            self.scheduler.after(latency, lambda: self._apply_stores(rest, done))
