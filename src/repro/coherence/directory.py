"""Directory-based interconnect (the paper's §6 future-work variant).

"MESTI, LVP, and SLE can be implemented directly in directory-based
systems [31][20].  However, mechanisms for coherence prediction in
MESTI relying on the useful snoop response may need modification since
generating this response is more complicated..."  This module builds
that variant: a home directory per line tracks the owner, the sharer
set, and — the MESTI-specific addition — the **T-sharer set** (nodes
holding temporally-invalid copies), so that:

* invalidations contact only actual sharers (no broadcast);
* validates are *multicast to the T-sharers* instead of broadcast;
* the useful snoop response is computed at the home from the contacted
  sharers' responses (feasible here precisely because the directory
  knows whom to ask — the paper's concern for snooping-style broadcast
  responses).

Timing: requests indirect through the home (one extra hop,
``dir_hop_latency``); dirty data is forwarded owner→requester (3-hop
reads).  The serialization point is the home directory, modeled with
the same atomic-grant discipline as the bus: state everywhere changes
at the grant, data delivery is delayed.

The class is interface-compatible with
:class:`~repro.coherence.bus.SnoopBus` (``attach`` / ``request`` /
``n_clients``), so every controller, protocol, and policy works
unmodified — select it with ``MachineConfig.interconnect =
"directory"``.

Directory imprecision: silent evictions of S/T copies are invisible to
the home, so the sharer/T-sharer sets may include nodes that dropped
the line; contacting them is a harmless no-op, exactly as in real
imprecise directories.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.config import BusConfig
from repro.common.events import Scheduler
from repro.common.rng import SplitRng
from repro.common.stats import ScopedStats
from repro.coherence.bus import CompletionCallback, SnoopClient
from repro.coherence.messages import BusTransaction, TxnKind
from repro.memory.mainmem import MainMemory
from repro.obs.tracer import NULL_TRACER


@dataclass
class DirectoryEntry:
    """Home-node state for one line."""

    owner: int | None = None  # node holding M/E/O
    sharers: set[int] = field(default_factory=set)
    t_sharers: set[int] = field(default_factory=set)  # MESTI extension


class DirectoryNetwork:
    """Point-to-point interconnect with a home directory per line."""

    def __init__(
        self,
        scheduler: Scheduler,
        config: BusConfig,
        memory: MainMemory,
        stats: ScopedStats,
        jitter: int = 0,
        rng: SplitRng | None = None,
        hop_latency: int | None = None,
        tracer=NULL_TRACER,
    ):
        self.scheduler = scheduler
        self.config = config
        self.memory = memory
        self.stats = stats
        self.tracer = tracer
        self._jitter = jitter
        self._rng = rng or SplitRng("directory")
        # One extra hop through the home; default half the address
        # latency (the DSI/timestamp-snooping literature's indirection
        # cost the paper contrasts snooping against).
        self.hop_latency = hop_latency if hop_latency is not None else config.addr_latency
        self._clients: list[SnoopClient] = []
        self._home_free_at = 0
        self._data_free_at = 0
        self._entries: dict[int, DirectoryEntry] = {}
        self._queue_hist = stats.histogram("queue_depth")
        self._txn_counters = {
            kind: stats.counter(f"txn.{kind.value.lower()}") for kind in TxnKind
        }
        self._txn_cancelled = stats.counter("txn.cancelled")
        self._txn_total = stats.counter("txn.total")
        self._data_from_cache = stats.counter("txn.cache_to_cache")
        self._data_from_memory = stats.counter("txn.from_memory")

    # -- SnoopBus-compatible surface -------------------------------------

    def attach(self, client: SnoopClient) -> None:
        """Register a coherence controller on the interconnect."""
        self._clients.append(client)

    @property
    def n_clients(self) -> int:
        """Number of attached controllers."""
        return len(self._clients)

    def request(
        self, txn: BusTransaction, on_complete: CompletionCallback | None = None
    ) -> None:
        """Route a transaction through the line's home directory."""
        # Request hop to the home, then serialize on the home's
        # occupancy (the directory is the ordering point).
        arrive = self.scheduler.now + self.hop_latency
        grant = max(arrive, self._home_free_at)
        self._queue_hist.record(
            (grant - arrive) // self.config.addr_occupancy
        )
        self._home_free_at = grant + self.config.addr_occupancy
        self.scheduler.at(grant, lambda: self._execute(txn, on_complete))

    # -- internals --------------------------------------------------------

    def entry(self, base: int) -> DirectoryEntry:
        """The directory entry for ``base`` (created on demand)."""
        e = self._entries.get(base)
        if e is None:
            e = DirectoryEntry()
            self._entries[base] = e
        return e

    def _execute(self, txn: BusTransaction, on_complete: CompletionCallback | None) -> None:
        now = self.scheduler.now
        txn.grant_time = now
        requester = self._clients[txn.requester]
        if not requester.pre_grant(txn):
            self._txn_cancelled.inc()
            self.tracer.emit(
                "bus.cancel", node=txn.requester, base=txn.base,
                txn=txn.kind.value, span=txn.span,
            )
            self.tracer.span_end(txn.span, node=txn.requester, base=txn.base,
                                 cancelled=True)
            return
        self._txn_counters[txn.kind].inc()
        self._txn_total.inc()

        entry = self.entry(txn.base)
        targets = self._targets(entry, txn)
        self.stats.add("messages", 1 + len(targets))

        result = txn.result
        for node in targets:
            query = self._clients[node].snoop_query(txn)
            if query.assert_shared:
                result.shared = True
            if query.can_supply:
                result.dirty_owner = node
        if txn.kind is TxnKind.READ and not result.shared:
            # Clean sharers are not contacted on a read; the *home*
            # supplies the sharing indication so the requester fills S,
            # not E.  (On ReadX/Upgrade every sharer is contacted, so
            # the aggregated responses — including Validate_Shared's
            # deliberate withholding — stand on their own.)
            others = set(entry.sharers)
            if entry.owner is not None:
                others.add(entry.owner)
            others.discard(txn.requester)
            if others:
                result.shared = True

        data: list[int] | None = None
        if txn.kind.carries_data_response:
            if result.dirty_owner is not None:
                data = self._clients[result.dirty_owner].supply_data(txn)
                result.owner_data = data
                self._data_from_cache.inc()
            else:
                data = self.memory.read_line(txn.base)
                self._data_from_memory.inc()
        elif txn.kind is TxnKind.WRITEBACK:
            assert txn.data is not None
            self.memory.write_line(txn.base, txn.data)

        self.tracer.emit(
            "bus.grant", node=txn.requester, base=txn.base,
            txn=txn.kind.value, shared=result.shared,
            owner=result.dirty_owner, targets=len(targets), span=txn.span,
        )
        for node in targets:
            self._clients[node].snoop_apply(txn)
        requester.on_grant(txn, data)
        self._update_directory(entry, txn, result)

        done = now + self._completion_delay(txn, result)
        self.tracer.span_end(
            txn.span, node=txn.requester, base=txn.base,
            shared=result.shared, owner=result.dirty_owner, done=done,
        )
        if on_complete is not None:
            self.scheduler.at(done, lambda: on_complete(txn, data))

    def _targets(self, entry: DirectoryEntry, txn: BusTransaction) -> list[int]:
        """Which nodes the home must contact for this transaction."""
        req = txn.requester
        if txn.kind is TxnKind.READ:
            # Only a dirty owner needs contacting; clean sharers are
            # unaffected by a read.
            return [n for n in ((entry.owner,) if entry.owner is not None else ()) if n != req]
        if txn.kind in (TxnKind.READX, TxnKind.UPGRADE):
            out = set(entry.sharers) | set(entry.t_sharers)
            if entry.owner is not None:
                out.add(entry.owner)
            out.discard(req)
            return sorted(out)
        if txn.kind is TxnKind.VALIDATE:
            # The MESTI extension: multicast to tracked T-copies only.
            return sorted(set(entry.t_sharers) - {req})
        if txn.kind is TxnKind.WRITEBACK:
            # T-copies must observe the visibility event (conservative
            # single-saved-value rule).
            return sorted(set(entry.t_sharers) - {req})
        return []

    def _update_directory(self, entry: DirectoryEntry, txn: BusTransaction, result) -> None:
        req = txn.requester
        kind = txn.kind
        if kind is TxnKind.READ:
            entry.t_sharers.discard(req)
            if result.dirty_owner is not None:
                # A dirty flush made a new value globally visible.  The
                # home is not contacting T-sharers on reads, so instead
                # it stops tracking them: their saved copies can never
                # be re-installed (no future validate will reach them),
                # which preserves the single-saved-value rule safely —
                # they simply rot as LVP residue.  The MOESTI owner
                # retires to O and remains the forwarding point.
                entry.t_sharers.clear()
                entry.sharers.add(req)
            else:
                # Mirror the sharing indication sent to the requester:
                # the home discarded the requester itself (a stale
                # self-listing from a silent eviction must not force an
                # S fill), so the update must discard it too, or a
                # re-reading stale sharer fills E while the home thinks
                # nobody owns the line — and the next read would not
                # contact the E (or silently upgraded M) copy.
                others = set(entry.sharers)
                if entry.owner is not None:
                    others.add(entry.owner)
                others.discard(req)
                if not others:
                    # Sole copy: the requester filled exclusive; track
                    # it as the owner so its silent E->M upgrade keeps
                    # the directory accurate.
                    entry.sharers.discard(req)
                    entry.owner = req
                else:
                    if entry.owner is not None and entry.owner != req:
                        # Clean (E) owner demoted to a plain sharer.
                        entry.sharers.add(entry.owner)
                        entry.owner = None
                    entry.sharers.add(req)
        elif kind in (TxnKind.READX, TxnKind.UPGRADE):
            moved = (
                entry.sharers | {entry.owner}
                if entry.owner is not None
                else set(entry.sharers)
            )
            moved.discard(req)
            moved.discard(None)
            # Invalidated copies become T-copies under a T-protocol;
            # tracking them unconditionally is safe (imprecise supersets
            # only cost messages, never correctness).
            entry.t_sharers |= {n for n in moved if n is not None}
            entry.t_sharers.discard(req)
            entry.sharers.clear()
            entry.owner = req
        elif kind is TxnKind.VALIDATE:
            entry.sharers |= set(entry.t_sharers)
            entry.t_sharers.clear()
            entry.sharers.add(req)
            # The validating owner retires to O/S but remains the
            # forwarding point in MOESTI.
            entry.owner = req
        elif kind is TxnKind.WRITEBACK:
            if entry.owner == req:
                entry.owner = None
            entry.t_sharers.clear()

    def _completion_delay(self, txn: BusTransaction, result) -> int:
        jitter = self._rng.randrange(self._jitter + 1) if self._jitter else 0
        if not txn.kind.carries_data_response:
            # Home processing + acknowledgment hop back.
            return self.hop_latency + jitter
        now = self.scheduler.now
        start = max(now, self._data_free_at)
        self._data_free_at = start + self.config.data_occupancy
        base_delay = (start - now) + self.config.data_latency + jitter
        if result.dirty_owner is not None:
            # 3-hop: home forwarded the request to the owner.
            base_delay += self.hop_latency
        return base_delay
