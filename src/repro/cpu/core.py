"""Window-based out-of-order core timing model.

The core dispatches micro-ops from its thread program into a finite
window (the ROB), tracks register dependencies for timing, overlaps
independent cache misses (MLP bounded by the MSHR file), and commits in
order at the machine width.  Two implementation tricks keep it fast
enough for whole-benchmark simulation in Python:

* **Virtual-time algebra** — ALU completion and commit times are pure
  arithmetic over dependence times and slot cursors; only *memory
  operations* and program-control handoffs create scheduler events, so
  event count scales with memory ops, not instructions.
* **ALU ops without window entries** — while the window is empty and
  no elision runs, fetch commits a run of ALU ops straight from the
  current block (``_commit_alu_run``): the same slot-cursor calls and
  register reads as the window path, with no ``WinOp``, dispatch or
  retire (docs/core_model.md, "ALU ops that skip the window").
* **Timing-only speculation** — LVP verification failures and SLE
  aborts squash and replay the younger window contents (charging the
  paper's squash/refetch penalties) but never corrupt architectural
  values, because control-driving results reach the thread program
  only at commit, behind any unverified speculation.

Interfaces with the rest of the system:

* ``NodeMemory`` calls back ``load_completed`` / ``lvp_verified`` /
  ``lvp_mispredict``.
* The optional SLE engine observes fetch (``on_fetch``), intercepts
  store-conditionals (``consider_stcx``), watches completions
  (``on_op_completed``), and uses ``squash_from`` / ``stall_fetch`` /
  ``stcx_resolved`` / ``release_region_ops`` to drive elision.
"""

from __future__ import annotations

import enum
from collections import deque
from typing import Callable

from repro.common.config import MachineConfig
from repro.common.errors import SimulationError
from repro.common.events import Scheduler
from repro.common.stats import ScopedStats
from repro.cpu.isa import MicroOp, OpKind
from repro.cpu.program import ThreadProgram
from repro.memory.hierarchy import NodeMemory
from repro.memory.storebuffer import StoreBuffer, StoreEntry


class Phase(enum.Enum):
    """Lifecycle of an in-flight window op."""

    WAITING = "waiting"  # register dependencies unresolved
    ISSUED = "issued"  # memory access outstanding
    DONE = "done"  # completion time known


# The per-op path tests phases and kinds by identity against these
# module globals: on CPython a lookup through the enum class costs
# several times a global read, and it would run several times per op.
_WAITING, _ISSUED, _DONE = Phase.WAITING, Phase.ISSUED, Phase.DONE
_ALU, _LOAD, _STORE, _LARX, _STCX, _ISYNC, _END = (
    OpKind.ALU, OpKind.LOAD, OpKind.STORE, OpKind.LARX, OpKind.STCX,
    OpKind.ISYNC, OpKind.END,
)


class WinOp:
    """One in-flight micro-op in the window."""

    __slots__ = (
        "op",
        "seq",
        "phase",
        "ready_time",
        "complete_time",
        "commit_time",
        "value",
        "spec_pending",
        "sle_blocked",
        "sle_buffered",
        "control_delivered",
        "retired",
        "dead",
        "unresolved",
        "dependents",
    )

    def __init__(self, op: MicroOp, seq: int):
        self.op = op
        self.seq = seq
        self.phase = _WAITING
        self.ready_time = 0
        self.complete_time = 0
        self.commit_time = 0
        self.value: int | None = None
        self.spec_pending = False  # LVP value awaiting verification
        self.sle_blocked = False  # inside an uncommitted elision region
        self.sle_buffered = False  # store held for atomic region commit
        self.control_delivered = False
        self.retired = False  # popped from the window (commit done)
        self.dead = False  # squashed; ignore late callbacks
        self.unresolved = 0
        self.dependents: list[WinOp] = []

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"WinOp(#{self.seq} {self.op!r} {self.phase.value})"


class SlotCursor:
    """Width-limited slot allocator (dispatch/commit bandwidth)."""

    def __init__(self, width: int):
        self.width = width
        self._cycle = 0
        self._used = 0

    def next_at(self, earliest: int) -> int:
        """Return the first slot time >= ``earliest``."""
        if earliest > self._cycle:
            self._cycle = earliest
            self._used = 1
            return earliest
        if self._used < self.width:
            self._used += 1
            return self._cycle
        self._cycle += 1
        self._used = 1
        return self._cycle


class Core:
    """One processor core executing one thread program."""

    def __init__(
        self,
        core_id: int,
        config: MachineConfig,
        scheduler: Scheduler,
        node: NodeMemory,
        program: ThreadProgram,
        stats: ScopedStats,
        on_finished: Callable[[], None] | None = None,
    ):
        self.core_id = core_id
        self.config = config
        self.cc = config.core
        self.scheduler = scheduler
        self.node = node
        self.program = program
        self.stats = stats
        self.on_finished = on_finished
        self.sle_engine = None  # installed by the system builder

        self.window: deque[WinOp] = deque()
        # In-window STORE/STCX ops by address, oldest first: forwarding
        # reads the youngest older entry instead of scanning the window.
        # Updated wherever the window changes (admit, commit, squash).
        self._stores: dict[int, list[WinOp]] = {}
        # Larx ops waiting for an older same-address store to leave the
        # window and the store buffer, each with its parked retry chain.
        self._drain_waits: list[tuple[WinOp, list]] = []
        self.reg_map: dict[int, "WinOp | int"] = {}
        self._retired_regs: dict[int, int] = {}
        self._replay: deque[MicroOp] = deque()
        self._block: list[MicroOp] | None = None
        self._block_pos = 0
        self._await_control: WinOp | None = None
        self._fetch_block: WinOp | None = None
        self._fetch_floor = 0
        self._fetch_slots = SlotCursor(self.cc.width)
        self._commit_slots = SlotCursor(self.cc.width)
        self.sb = StoreBuffer(self.cc.store_buffer)
        self._sb_ready: deque[int] = deque()  # FIFO-parallel commit times
        self._draining = False
        self._fetch_gate = False  # engine-imposed fetch stall
        self._last_commit_time = 0
        self._seq = 0
        # Ops ``_commit_alu_run`` took that the window path would still
        # hold at the window head: they fill window capacity until the
        # next ``_try_commit``.
        self._held = 0
        self.program_done = False
        self.finished = False
        self.committed = 0
        # Keyed by ``OpKind._value_``, a plain attribute: ``.value`` and
        # hashing the member are both Python-level calls.
        self._commit_counters = {
            kind._value_: stats.counter(f"commit.{kind.value}") for kind in OpKind
        }
        self._alu_commits = self._commit_counters[_ALU._value_]
        node.core = self

    # ------------------------------------------------------------------
    # Main pump: fetch + commit, called after every state change
    # ------------------------------------------------------------------

    def start(self) -> None:
        """Begin execution (schedule the first pump)."""
        self.scheduler.after(0, self.pump)

    def pump(self) -> None:
        """Advance fetch and commit as far as current state allows.

        Commit can unblock fetch (isync/sync retire, window slots) and
        fetch can enable commit (short ops completing synchronously),
        so the two alternate until neither makes progress.
        """
        if self.finished:
            return
        while True:
            before = (self._seq, self.committed)
            self._fetch()
            self._try_commit()
            if (self._seq, self.committed) == before:
                break
        self._check_finished()

    # ------------------------------------------------------------------
    # Fetch
    # ------------------------------------------------------------------

    def _fetch(self) -> None:
        engine = self.sle_engine
        while (
            not self.finished
            and not self._fetch_gate
            and self._await_control is None
            and self._fetch_block is None
            and len(self.window) + self._held < self.cc.rob_size
        ):
            if self._replay:
                self._admit(self._replay.popleft())
                continue
            block = self._block
            pos = self._block_pos
            if block is None or pos == len(block):
                if not self._next_block():
                    return
                continue
            op = block[pos]
            if (
                op.kind is _ALU
                and not op.control
                and not self.window
                and (engine is None or not engine.active)
            ):
                taken = self._commit_alu_run(block, pos)
                if taken:
                    self._block_pos = pos + taken
                    continue
            self._block_pos = pos + 1
            self._admit(op)

    def _next_block(self) -> bool:
        """Move fetch to the program's next block; False if it must wait."""
        if self._block is not None and self._block[-1].control:
            # The control result arrives at commit; fetch stalls.
            return False
        if self.program_done:
            return False
        block = self.program.next_block(None)
        if block is None:
            self.program_done = True
            return False
        self._block = block
        self._block_pos = 0
        return True

    def _commit_alu_run(self, block: list[MicroOp], pos: int) -> int:
        """Commit the run of ALU ops at ``block[pos:]``; return its length.

        Called with the window empty and the SLE engine absent or idle,
        so each op's producers have all retired and nothing older waits
        to commit.  The window path would complete the op at ``ready +
        latency`` and commit it first at its next ``_try_commit``; this
        makes the same slot-cursor calls and register reads in the same
        order without building a ``WinOp``.  The ops count against the
        window's capacity until that commit pass (``_held``), so fetch
        stops at the op it would have stopped at.
        """
        end = min(len(block), pos + self.cc.rob_size - self._held)
        fetch_at = self._fetch_slots.next_at
        commit_at = self._commit_slots.next_at
        floor = self._fetch_floor
        reg_map = self.reg_map
        retired_regs = self._retired_regs
        last = self._last_commit_time
        i = pos
        while i < end:
            op = block[i]
            if op.kind is not _ALU or op.control:
                break
            ready = fetch_at(floor) + 1
            for sreg in op.sregs:
                # Every producer has retired: the map holds its time.
                t = reg_map.get(sreg)
                if t is not None and t > ready:
                    ready = t
            done = ready + op.latency
            if op.dreg is not None:
                reg_map[op.dreg] = retired_regs[op.dreg] = done
            ct = commit_at(done)
            if ct > last:
                last = ct
            i += 1
        n = i - pos
        self._last_commit_time = last
        self._seq += n
        self.committed += n
        self._held += n
        self._alu_commits.inc(n)
        return n

    def _admit(self, op: MicroOp) -> None:
        w = WinOp(op, self._seq)
        self._seq += 1
        self.window.append(w)
        kind = op.kind
        if kind is _STORE or kind is _STCX:
            stores = self._stores.get(op.addr)
            if stores is None:
                self._stores[op.addr] = [w]
            else:
                stores.append(w)
        if self.sle_engine is not None:
            # The engine may mark the op (region membership, safe-isync
            # nop) or abort the active elision region, squashing through
            # this very op — in which case it is already back in the
            # replay queue and we stop processing it here.
            self.sle_engine.on_fetch(w)
            if w.dead:
                return
        fetch_time = self._fetch_slots.next_at(self._fetch_floor)
        w.ready_time = fetch_time + 1
        unresolved = 0
        for sreg in op.sregs:
            producer = self.reg_map.get(sreg)
            if isinstance(producer, WinOp):
                if producer.phase is _DONE:
                    w.ready_time = max(w.ready_time, producer.complete_time)
                else:
                    producer.dependents.append(w)
                    unresolved += 1
            elif producer is not None:
                w.ready_time = max(w.ready_time, producer)
        if op.dreg is not None:
            self.reg_map[op.dreg] = w
        if op.control:
            self._await_control = w
        if kind is _ISYNC and not w.sle_buffered:
            # Context serialization: fetch stalls until commit.
            # (Inside an elided region the engine marks the op
            # sle_buffered and speculation continues past it, §4.2.2.)
            # SYNC/lwsync is a light fence: store ordering is already
            # enforced by the FIFO store buffer, so it costs only its
            # pipeline slot.
            self._fetch_block = w
        w.unresolved = unresolved
        if unresolved == 0:
            self._dispatch(w)

    # ------------------------------------------------------------------
    # Dispatch / execute
    # ------------------------------------------------------------------

    def _dispatch(self, w: WinOp) -> None:
        kind = w.op.kind
        if kind is _ALU:
            self._complete_op(w, w.ready_time + w.op.latency)
        elif kind is _STORE:
            # A store completes when address+data are ready; memory is
            # touched at drain (or at SLE region commit).
            self._complete_op(w, w.ready_time)
        elif kind is _LOAD or kind is _LARX:
            self._at_ready(w, self._issue_load)
        elif kind is _STCX:
            self._at_ready(w, self._issue_stcx)
        else:  # ISYNC / SYNC / END
            self._complete_op(w, w.ready_time)

    def _at_ready(self, w: WinOp, action: Callable[[WinOp], None]) -> None:
        now = self.scheduler.now
        if w.ready_time <= now:
            # Synchronous: the enclosing pump loop observes any
            # completion/commit progress and continues fetching.
            action(w)
        else:
            self.scheduler.at(w.ready_time, lambda: self._ready_event(w, action))

    def _ready_event(self, w: WinOp, action: Callable[[WinOp], None]) -> None:
        if w.dead:
            return
        action(w)
        # The action may have completed ops and unblocked commit/fetch;
        # this event is a top-level entry point, so pump.
        self.pump()

    def _issue_load(self, w: WinOp) -> None:
        now = self.scheduler.now
        addr = w.op.addr
        is_load = w.op.kind is _LOAD
        if is_load:
            forwarded = self._forward(addr, w)
            if forwarded is not None:
                w.value = forwarded
                self.stats.add("loads.forwarded")
                self._complete_op(w, now + self.cc.forward_latency)
                self._try_commit()
                return
        elif self._forward(addr, w) is not None:
            # larx cannot take a forwarded value (the reservation must
            # be established at the coherence point), so it waits for
            # its own older same-address store to drain — uniprocessor
            # read-after-write ordering.  It retries every 2 cycles, on
            # a parked chain: ``_wake_drain_waits`` ends the chain once
            # the store is gone or the larx is squashed.
            self.stats.add("larx.drain_waits")
            self._drain_waits.append((w, self.scheduler.park(2)))
            return
        status, latency, value = self.node.load(
            addr, w, reserve=not is_load, allow_spec=is_load and not w.op.control
        )
        if status == "hit":
            w.value = value
            self._complete_op(w, now + latency)
            self._try_commit()
        elif status == "spec":
            w.value = value
            w.spec_pending = True
            self.stats.add("lvp.spec_loads")
            self._complete_op(w, now + latency)
            self._try_commit()
        else:
            w.phase = _ISSUED

    def _wake_drain_waits(self) -> None:
        """Wake each parked larx that can issue now or was squashed.

        Called wherever ``_forward`` can stop finding a larx's store
        (commit, drain, squash).  A woken larx issues at its next retry,
        the first one that would have found the store gone; every retry
        before that one counts as a drain wait.
        """
        waits = self._drain_waits
        for entry in list(waits):
            w, chain = entry
            if w.dead or self._forward(w.op.addr, w) is None:
                waits.remove(entry)
                retries = self.scheduler.wake(
                    chain, lambda w=w: None if w.dead else self._issue_load(w)
                )
                self.stats.add("larx.drain_waits", retries)

    def _forward(self, addr: int, w: WinOp) -> int | None:
        """Store-to-load forwarding from window stores and the SB."""
        stores = self._stores.get(addr)
        if stores is not None:
            for other in reversed(stores):
                if other.seq < w.seq:
                    # The youngest older same-address store forwards;
                    # a conditional's outcome is unknown yet, so decline.
                    return other.op.value if other.op.kind is _STORE else None
        return self.sb.forward(addr)

    def _issue_stcx(self, w: WinOp) -> None:
        if self.sle_engine is not None:
            verdict = self.sle_engine.consider_stcx(w)
            if verdict == "elide":
                # Elided: succeeds without any bus transaction (§4).
                w.value = 1
                self._complete_op(w, self.scheduler.now + 1)
                self._try_commit()
                return
            if verdict == "pending":
                # The engine completes this op via stcx_resolved().
                w.phase = _ISSUED
                return
        issued = [False]

        def cb(ok: bool) -> None:
            w.value = int(ok)
            if issued[0] and not w.dead:
                self._complete_op(w, self.scheduler.now)
                self.pump()

        latency = self.node.stcx(w.op.addr, w.op.value, w.op.pc, cb)
        issued[0] = True
        if latency is not None:
            self._complete_op(w, self.scheduler.now + latency)
            self._try_commit()

    # ------------------------------------------------------------------
    # Completion and dependence wakeup
    # ------------------------------------------------------------------

    def _complete_op(self, w: WinOp, time: int) -> None:
        if w.dead:
            return
        w.complete_time = time
        w.phase = _DONE
        if w.op.dreg is not None and self.reg_map.get(w.op.dreg) is w:
            self.reg_map[w.op.dreg] = time
        dependents, w.dependents = w.dependents, []
        for dep in dependents:
            if dep.dead:
                continue
            dep.ready_time = max(dep.ready_time, time)
            dep.unresolved -= 1
            if dep.unresolved == 0:
                self._dispatch(dep)
        if self.sle_engine is not None and self.sle_engine.active:
            self.sle_engine.on_op_completed(w)

    # -- memory-system callbacks ----------------------------------------

    def load_completed(self, w: WinOp, value: int) -> None:
        """A pending load's data arrived."""
        if w.dead:
            return
        w.value = value
        self._complete_op(w, self.scheduler.now)
        self.pump()

    def lvp_verified(self, w: WinOp) -> None:
        """LVP prediction for ``w`` confirmed; it may now commit."""
        if w.dead:
            return
        w.spec_pending = False
        self.stats.add("lvp.verified")
        self.pump()

    def lvp_mispredict(self, w: WinOp) -> None:
        """LVP prediction contradicted: machine squash at ``w`` (§3.2)."""
        if w.dead:
            return
        self.stats.add("lvp.squashes")
        self.squash_from(w, self.scheduler.now + self.cc.squash_penalty, "lvp")
        self.pump()

    # ------------------------------------------------------------------
    # Squash / replay
    # ------------------------------------------------------------------

    def squash_from(self, w: WinOp, resume_time: int, reason: str) -> None:
        """Remove ``w`` and all younger ops; they re-fetch from replay.

        The removed micro-ops are re-executed verbatim (straight-line
        replay is exact by the program discipline in DESIGN.md §5.4).
        """
        try:
            idx = self.window.index(w)
        except ValueError:
            raise SimulationError(f"squash target {w!r} not in window") from None
        removed = [self.window[i] for i in range(idx, len(self.window))]
        for _ in removed:
            self.window.pop()
        for r in reversed(removed):
            r.dead = True
            kind = r.op.kind
            if kind is _STORE or kind is _STCX:
                self._unindex_store(r, -1)
        if self._drain_waits:
            self._wake_drain_waits()
        self._replay.extendleft(r.op for r in reversed(removed))
        self._rebuild_reg_map()
        if self._await_control is not None and self._await_control.dead:
            self._await_control = None
        if self._fetch_block is not None and self._fetch_block.dead:
            self._fetch_block = None
        self._fetch_floor = max(self._fetch_floor, resume_time)
        self.stats.add(f"squash.{reason}")
        self.stats.add("squash.ops", len(removed))
        if self.sle_engine is not None:
            self.sle_engine.on_squash(removed, reason)

    def _rebuild_reg_map(self) -> None:
        new_map: dict[int, "WinOp | int"] = dict(self._retired_regs)
        for u in self.window:
            if u.op.dreg is not None:
                new_map[u.op.dreg] = u.complete_time if u.phase is _DONE else u
        self.reg_map = new_map

    def _unindex_store(self, w: WinOp, position: int) -> None:
        """Drop ``w`` from the store index.

        ``w`` is the oldest entry for its address at commit
        (``position`` 0) and the youngest at squash (-1).
        """
        addr = w.op.addr
        stores = self._stores[addr]
        stores.pop(position)
        if not stores:
            del self._stores[addr]

    # ------------------------------------------------------------------
    # Commit
    # ------------------------------------------------------------------

    def _try_commit(self) -> None:
        # The window path commits the held ops first, here.
        self._held = 0
        window = self.window
        while window:
            w = window[0]
            if w.phase is not _DONE or w.spec_pending or w.sle_blocked:
                return
            kind = w.op.kind
            if kind is _STORE and not w.sle_buffered and self.sb.full:
                return  # resumes when the SB drains
            ct = self._commit_slots.next_at(w.complete_time)
            w.commit_time = ct
            if ct > self._last_commit_time:
                self._last_commit_time = ct
            window.popleft()
            if kind is _STORE or kind is _STCX:
                self._unindex_store(w, 0)
                self._retire(w, ct)
                # Checked after the retire, which moves a plain store
                # into the store buffer, where ``_forward`` still finds it.
                if self._drain_waits:
                    self._wake_drain_waits()
            else:
                self._retire(w, ct)

    def _retire(self, w: WinOp, ct: int) -> None:
        op = w.op
        kind = op.kind
        w.retired = True
        self.committed += 1
        self._commit_counters[kind._value_].inc()
        if op.dreg is not None:
            self._retired_regs[op.dreg] = w.complete_time
            if self.reg_map.get(op.dreg) is w:
                self.reg_map[op.dreg] = w.complete_time
        if kind is _STORE and not w.sle_buffered:
            self.sb.push(StoreEntry(addr=op.addr, value=op.value, seq=w.seq, pc=op.pc))
            self._sb_ready.append(ct)
            self._schedule_drain()
        if op.control and not w.control_delivered:
            self._deliver_control(w, ct)
        if self._fetch_block is w:
            self._fetch_block = None
            self._fetch_floor = max(
                self._fetch_floor, ct + self.cc.fetch_redirect_penalty
            )
        if kind is _END:
            self.program_done = True

    # ------------------------------------------------------------------
    # Program control handoff
    # ------------------------------------------------------------------

    def _deliver_control(self, w: WinOp, ct: int) -> None:
        w.control_delivered = True
        if self._await_control is w:
            self._await_control = None
        self.scheduler.at(
            max(ct, self.scheduler.now),
            lambda: self._continue_program(w.value, ct),
        )

    def _continue_program(self, value: int | None, t: int) -> None:
        if self.finished:
            return
        block = self.program.next_block(value)
        if block is None:
            self.program_done = True
        else:
            self._block = block
            self._block_pos = 0
            self._fetch_floor = max(self._fetch_floor, t)
        self.pump()

    # ------------------------------------------------------------------
    # Store buffer drain
    # ------------------------------------------------------------------

    def _schedule_drain(self) -> None:
        if self._draining or self.sb.empty:
            return
        self._draining = True
        ready = self._sb_ready[0]
        now = self.scheduler.now
        if ready > now:
            self.scheduler.at(ready, self._drain_head)
        else:
            self._drain_head()

    def _drain_head(self) -> None:
        entry = self.sb.head()
        issued = [False]

        def on_done() -> None:
            if issued[0]:
                self._drain_finished()

        latency = self.node.store(entry.addr, entry.value, entry.pc, on_done)
        issued[0] = True
        if latency is not None:
            self.scheduler.after(latency, self._drain_finished)

    def _drain_finished(self) -> None:
        self.sb.pop()
        self._sb_ready.popleft()
        self._draining = False
        if self._drain_waits:
            self._wake_drain_waits()
        self.stats.add("sb.drained")
        self._schedule_drain()
        self.pump()

    # ------------------------------------------------------------------
    # SLE region support
    # ------------------------------------------------------------------

    def release_region_ops(self, ops: list[WinOp]) -> None:
        """Unblock committed-elision region ops (engine region commit)."""
        for w in ops:
            w.sle_blocked = False
        self.pump()

    def stcx_resolved(self, w: WinOp, success: bool) -> None:
        """The engine finished handling a store-conditional it took over."""
        if w.dead:
            return
        w.value = int(success)
        self._complete_op(w, self.scheduler.now)
        self.pump()

    def stall_fetch(self, gated: bool) -> None:
        """Gate/ungate fetch (engine fallback acquisition in progress)."""
        self._fetch_gate = gated
        if not gated:
            self._fetch_floor = max(self._fetch_floor, self.scheduler.now)
            self.pump()

    # ------------------------------------------------------------------
    # Termination
    # ------------------------------------------------------------------

    def _check_finished(self) -> None:
        if self.finished or not self.program_done:
            return
        engine_active = self.sle_engine is not None and self.sle_engine.active
        if self.window or not self.sb.empty or self._replay or engine_active:
            return
        if self._block is not None and self._block_pos < len(self._block):
            return
        self.finished = True
        # Commits are future-dated virtual times; the program's logical
        # end is the later of wall time and the last commit.
        self.stats.set("finish_time", max(self.scheduler.now, self._last_commit_time))
        self.stats.set("committed", self.committed)
        if self.on_finished is not None:
            self.on_finished()
