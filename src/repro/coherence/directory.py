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

Timing: requests indirect through the home (one extra hop of
``addr_latency``); dirty data is forwarded owner→requester (3-hop
reads).  The serialization point is the home directory, and the grant
is :meth:`SnoopBus._execute <repro.coherence.bus.SnoopBus._execute>`
itself: this class supplies only what a home changes — whom the grant
contacts, the home's sharing answer on a read, the home's bookkeeping,
and the hop — so every controller, protocol and policy works
unmodified.  Select it with ``MachineConfig.interconnect =
"directory"``.

The home's rules are static functions of a :class:`DirectoryEntry`
(:meth:`DirectoryNetwork.targets`, :meth:`DirectoryNetwork.home_shared`,
:meth:`DirectoryNetwork.update`); the model checker's abstract machine
calls the same functions, so the sharing rule exists once.

Directory imprecision: silent evictions of S/T copies are invisible to
the home, so the sharer/T-sharer sets may include nodes that dropped
the line; contacting them is a harmless no-op, exactly as in real
imprecise directories.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.coherence.bus import CompletionCallback, SnoopBus, SnoopClient
from repro.coherence.messages import BusTransaction, SnoopResult, TxnKind


@dataclass
class DirectoryEntry:
    """Home-node state for one line."""

    owner: int | None = None  # node holding M/E/O
    sharers: set[int] = field(default_factory=set)
    t_sharers: set[int] = field(default_factory=set)  # MESTI extension


class DirectoryNetwork(SnoopBus):
    """Point-to-point interconnect with a home directory per line."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # One extra hop through the home (the indirection cost the
        # DSI/timestamp-snooping literature contrasts snooping against).
        self.hop = self.config.addr_latency
        self._entries: dict[int, DirectoryEntry] = {}

    def request(
        self, txn: BusTransaction, on_complete: CompletionCallback | None = None
    ) -> None:
        """Route a transaction through the line's home directory."""
        # Request hop to the home, which serializes (the directory is
        # the ordering point).
        self._queue(txn, on_complete, self.scheduler.now + self.hop)

    def entry(self, base: int) -> DirectoryEntry:
        """The directory entry for ``base`` (created on demand)."""
        e = self._entries.get(base)
        if e is None:
            e = DirectoryEntry()
            self._entries[base] = e
        return e

    # -- the grant's hooks --------------------------------------------------

    def _targets(self, txn: BusTransaction) -> list[SnoopClient]:
        nodes = self.targets(self.entry(txn.base), txn)
        self.stats.add("messages", 1 + len(nodes))
        return [self._clients[n] for n in nodes]

    def _home_shared(self, txn: BusTransaction) -> bool:
        return self.home_shared(self.entry(txn.base), txn.requester)

    def _granted(self, txn: BusTransaction) -> None:
        self.update(self.entry(txn.base), txn, txn.result)

    # -- the home's rules ---------------------------------------------------

    @staticmethod
    def targets(entry: DirectoryEntry, txn: BusTransaction) -> list[int]:
        """Which nodes the home must contact for this transaction."""
        req = txn.requester
        if txn.kind is TxnKind.READ:
            # Only a dirty owner needs contacting; clean sharers are
            # unaffected by a read.
            return [entry.owner] if entry.owner not in (None, req) else []
        if txn.kind in (TxnKind.READX, TxnKind.UPGRADE):
            out = entry.sharers | entry.t_sharers
            if entry.owner is not None:
                out.add(entry.owner)
            out.discard(req)
            return sorted(out)
        if txn.kind in (TxnKind.VALIDATE, TxnKind.WRITEBACK):
            # The MESTI extension: a validate is multicast to tracked
            # T-copies only, and T-copies must observe a write-back's
            # visibility event (conservative single-saved-value rule).
            return sorted(entry.t_sharers - {req})
        return []

    @staticmethod
    def home_shared(entry: DirectoryEntry, req: int) -> bool:
        """Whether the home lists a node other than ``req`` as holding
        the line (owner or sharer) — the sharing answer on a read."""
        others = set(entry.sharers)
        if entry.owner is not None:
            others.add(entry.owner)
        others.discard(req)
        return bool(others)

    @staticmethod
    def update(entry: DirectoryEntry, txn: BusTransaction, result: SnoopResult) -> None:
        """The home's bookkeeping once ``txn`` has been granted."""
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
            elif not DirectoryNetwork.home_shared(entry, req):
                # Sole copy: the requester filled exclusive; track it as
                # the owner so its silent E->M upgrade keeps the
                # directory accurate.  This is the answer the grant sent
                # (a stale self-listing from a silent eviction must not
                # count), or a re-reading stale sharer fills E while the
                # home thinks nobody owns the line — and the next read
                # would not contact the E (or silently upgraded M) copy.
                entry.sharers.discard(req)
                entry.owner = req
            else:
                if entry.owner is not None and entry.owner != req:
                    # Clean (E) owner demoted to a plain sharer.
                    entry.sharers.add(entry.owner)
                    entry.owner = None
                entry.sharers.add(req)
        elif kind in (TxnKind.READX, TxnKind.UPGRADE):
            # Invalidated copies become T-copies under a T-protocol;
            # tracking them unconditionally is safe (imprecise supersets
            # only cost messages, never correctness).
            entry.t_sharers |= entry.sharers
            if entry.owner is not None:
                entry.t_sharers.add(entry.owner)
            entry.t_sharers.discard(req)
            entry.sharers.clear()
            entry.owner = req
        elif kind is TxnKind.VALIDATE:
            entry.sharers |= entry.t_sharers
            entry.t_sharers.clear()
            entry.sharers.add(req)
            # The validating owner retires to O/S but remains the
            # forwarding point in MOESTI.
            entry.owner = req
        elif kind is TxnKind.WRITEBACK:
            if entry.owner == req:
                entry.owner = None
            entry.t_sharers.clear()
