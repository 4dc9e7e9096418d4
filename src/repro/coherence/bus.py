"""Split-transaction snooping bus with an atomic-grant coherence model.

Address transactions queue for the shared address bus (FIFO, one grant
per ``addr_occupancy`` cycles).  At grant time the transaction is
*atomic*: all remote caches are snoop-queried, the aggregate result is
applied everywhere, and memory updates happen instantly — so the
protocol has no transient states.  All latency is modeled around that
atomic point: the requester's completion fires ``addr_latency`` cycles
after grant for dataless transactions and after the data-network
delivery (min ``data_latency``, serialized at ``data_occupancy``) for
Read/ReadX.

Per-transaction jitter (``MachineConfig.latency_jitter``) injects the
small timing perturbations used by the Alameldeen–Wood variability
methodology the paper adopts for its 95% confidence intervals.

``_execute`` is the one atomic grant of every address transaction on
either interconnect.  The bus is its base case: every other controller
is snooped, no home answers for anyone, there is no bookkeeping and no
indirection hop.  :class:`~repro.coherence.directory.DirectoryNetwork`
overrides the three hooks (``_targets``, ``_home_shared``,
``_granted``) and sets ``hop``.
"""

from __future__ import annotations

from typing import Callable, Protocol

from repro.common.config import BusConfig
from repro.common.events import Scheduler
from repro.common.rng import SplitRng
from repro.common.stats import ScopedStats
from repro.coherence.messages import BusTransaction, TxnKind
from repro.memory.mainmem import MainMemory
from repro.obs.tracer import NULL_TRACER


class SnoopClient(Protocol):
    """What the bus needs from each attached coherence controller."""

    node_id: int

    def pre_grant(self, txn: BusTransaction) -> bool:
        """Fix up or cancel the requester's transaction at grant."""

    def on_grant(self, txn: BusTransaction, data: "list[int] | None") -> None:
        """Install the requester's state change at the atomic grant."""

    def snoop_query(self, txn: BusTransaction) -> "object":
        """Phase 1: shared/supply responses for a remote transaction."""

    def snoop_apply(self, txn: BusTransaction) -> None:
        """Phase 2: apply this cache's state transition."""

    def supply_data(self, txn: BusTransaction) -> list[int]:
        """Flush the dirty line's data to the requester."""


CompletionCallback = Callable[[BusTransaction, "list[int] | None"], None]


class SnoopBus:
    """The address network plus the data crossbar."""

    def __init__(
        self,
        scheduler: Scheduler,
        config: BusConfig,
        memory: MainMemory,
        stats: ScopedStats,
        jitter: int = 0,
        rng: SplitRng | None = None,
        tracer=NULL_TRACER,
    ):
        self.scheduler = scheduler
        self.config = config
        self.memory = memory
        self.stats = stats
        self.tracer = tracer
        self._jitter = jitter
        self._rng = rng or SplitRng("bus")
        self._clients: list[SnoopClient] = []
        # Indirection through a home node: added to a request's arrival
        # at the ordering point and to a forwarded (dirty-owner) read's
        # delivery.  The bus broadcasts directly.
        self.hop = 0
        self._addr_free_at = 0
        self._data_free_at = 0
        self._queue_hist = stats.histogram("queue_depth")
        # Per-kind transaction counters, resolved once: the bus grants
        # millions of transactions, so the hot path must not rebuild
        # counter names per grant.
        self._txn_counters = {
            kind: stats.counter(f"txn.{kind.value.lower()}") for kind in TxnKind
        }
        self._txn_cancelled = stats.counter("txn.cancelled")
        self._txn_total = stats.counter("txn.total")
        self._data_from_cache = stats.counter("txn.cache_to_cache")
        self._data_from_memory = stats.counter("txn.from_memory")

    def attach(self, client: SnoopClient) -> None:
        """Register a coherence controller on the bus."""
        self._clients.append(client)

    @property
    def n_clients(self) -> int:
        """Number of attached controllers."""
        return len(self._clients)

    def request(
        self, txn: BusTransaction, on_complete: CompletionCallback | None = None
    ) -> None:
        """Queue an address transaction; ``on_complete`` fires at completion."""
        self._queue(txn, on_complete, self.scheduler.now)

    def _queue(
        self, txn: BusTransaction, on_complete: CompletionCallback | None,
        arrive: int,
    ) -> None:
        """Serialize ``txn`` at the ordering point it reaches at ``arrive``."""
        grant = max(arrive, self._addr_free_at)
        # Queue depth in transactions ahead of this one (the wait for
        # the address bus, in occupancy slots).
        self._queue_hist.record((grant - arrive) // self.config.addr_occupancy)
        self._addr_free_at = grant + self.config.addr_occupancy
        self.scheduler.at(grant, lambda: self._execute(txn, on_complete))

    # -- what a home directory changes -------------------------------------

    def _targets(self, txn: BusTransaction) -> list[SnoopClient]:
        """The controllers snooped for ``txn``: every other one."""
        return [c for c in self._clients if c.node_id != txn.requester]

    def _home_shared(self, txn: BusTransaction) -> bool:
        """Whether the home reports an uncontacted sharer on a read."""
        return False

    def _granted(self, txn: BusTransaction) -> None:
        """Bookkeeping after the atomic grant (none on the bus)."""

    # ------------------------------------------------------------------

    def _execute(self, txn: BusTransaction, on_complete: CompletionCallback | None) -> None:
        now = self.scheduler.now
        txn.grant_time = now

        # Give the requester a pre-grant fixup opportunity: an Upgrade
        # whose shared copy was invalidated while queued converts to a
        # ReadX; a Validate whose line changed underneath is cancelled.
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

        result = txn.result
        targets = self._targets(txn)
        for client in targets:
            query = client.snoop_query(txn)
            if query.assert_shared:
                result.shared = True
            if query.can_supply:
                result.dirty_owner = client.node_id
        if txn.kind is TxnKind.READ and not result.shared:
            # A home contacts no clean sharer on a read, so it supplies
            # the sharing indication itself: the requester fills S, not
            # E.  (Invalidating transactions reach every sharer, so the
            # responses — including Validate_Shared's deliberate
            # withholding — stand on their own.)
            result.shared = self._home_shared(txn)

        # Capture the data payload at the atomic point, before state
        # transitions disturb it.
        data: list[int] | None = None
        if txn.kind.carries_data_response:
            if result.dirty_owner is not None:
                owner = self._clients[result.dirty_owner]
                data = owner.supply_data(txn)
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

        for client in targets:
            client.snoop_apply(txn)

        # The requester's state change is part of the atomic grant:
        # later transactions must observe the new owner/sharer.  Data
        # delivery (below) only models latency.
        requester.on_grant(txn, data)
        self._granted(txn)

        done = now + self._completion_delay(txn)
        self.tracer.span_end(
            txn.span, node=txn.requester, base=txn.base,
            shared=result.shared, owner=result.dirty_owner, done=done,
        )
        if on_complete is not None:
            self.scheduler.at(done, lambda: on_complete(txn, data))

    def _completion_delay(self, txn: BusTransaction) -> int:
        jitter = self._rng.randrange(self._jitter + 1) if self._jitter else 0
        if not txn.kind.carries_data_response:
            return self.config.addr_latency + jitter
        # Data network: a shared resource with per-transfer occupancy.
        now = self.scheduler.now
        start = max(now, self._data_free_at)
        self._data_free_at = start + self.config.data_occupancy
        delay = (start - now) + self.config.data_latency + jitter
        if txn.result.dirty_owner is not None:
            # A home forwarded the request to the owner (a 3-hop read).
            delay += self.hop
        return delay
