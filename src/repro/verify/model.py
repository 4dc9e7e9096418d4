"""Abstract system model for exhaustive protocol exploration.

The model is deliberately tiny — N nodes, L lines, two data values per
word — but it is *not* a re-implementation of the protocols: every
state decision is delegated to the node's real
:class:`~repro.coherence.protocol.ProtocolLogic` instance (snoop
queries, snoop applies, fill states, validate states), and directory
bookkeeping calls the real home rules,
:meth:`~repro.coherence.directory.DirectoryNetwork.targets`,
:meth:`~repro.coherence.directory.DirectoryNetwork.home_shared` and
:meth:`~repro.coherence.directory.DirectoryNetwork.update`, the same
static functions the interconnect's grant calls.  What the model
abstracts away is *timing*: the bus is already atomic at its grant
point, so collapsing each transaction to one atomic step preserves the
protocol-visible interleavings while making the state space finite and
small.

Global states are plain nested tuples (hashable, cheap to compare):

* per node, per line: ``None`` (no tag) or
  ``(state, data, visible, diverged)`` mirroring the
  :class:`~repro.memory.cache.CacheLine` fields the protocols read;
* per line: memory contents, the shadow *architectural* contents
  (what the last stores wrote — the value loads must observe), and the
  shadow *last globally visible* value (what a validate may lawfully
  re-install);
* with the directory interconnect, the per-line home entry
  ``(owner, sharers, t_sharers)``.

Core events are ``load``, ``store`` (a store of the current value *is*
a silent store; a store reverting a diverged line *is* a temporally
silent store — both emerge from the value alphabet), and ``evict``.
When a store detects temporal silence the validate-policy decision is
modeled as nondeterminism (``validate`` and ``quiet`` successors), so
the exploration soundly covers every policy in
:mod:`repro.coherence.policies`.
"""

from __future__ import annotations

from typing import Iterator

from repro.common.config import InterconnectKind, ProtocolConfig
from repro.common.errors import ProtocolError
from repro.coherence.directory import DirectoryEntry, DirectoryNetwork
from repro.coherence.messages import BusTransaction, TxnKind
from repro.coherence.protocol import PROTOCOLS, ProtocolLogic, make_protocol
from repro.coherence.states import LineState
from repro.memory.cache import CacheLine

# Line-aligned bases the model's lines map to (also used by the
# concrete replay bridge, keeping abstract and concrete traces in the
# same address space).
LINE_SIZE = 64
BASE_ADDR = 0x10000

# Event tuples: ("load", node, line, word)
#               ("store", node, line, word, value[, "validate"|"quiet"])
#               ("evict", node, line)
Event = tuple


class ModelViolation(Exception):
    """An invariant broken *during* an event (not a state predicate)."""

    def __init__(self, kind: str, detail: str):
        super().__init__(f"{kind}: {detail}")
        self.kind = kind
        self.detail = detail


class ProtocolSpec:
    """A named protocol variant (a :data:`PROTOCOLS` key) to check."""

    NAMES = tuple(PROTOCOLS)

    def __init__(self, name: str):
        name = name.lower()
        if name not in PROTOCOLS:
            raise ValueError(f"unknown protocol {name!r} (choose from {self.NAMES})")
        self.name = name

    def make_logic(self) -> ProtocolLogic:
        """Instantiate the real protocol logic for this variant."""
        return make_protocol(ProtocolConfig(**PROTOCOLS[self.name]))


def line_base(line: int) -> int:
    """Concrete line-aligned address for abstract line index ``line``."""
    return BASE_ADDR + line * LINE_SIZE


class AbstractMachine:
    """N-node, L-line, two-value model over a real ProtocolLogic."""

    def __init__(
        self,
        protocol: ProtocolLogic,
        n_nodes: int = 3,
        n_lines: int = 1,
        n_words: int = 1,
        values: tuple[int, ...] = (0, 1),
        interconnect: InterconnectKind = InterconnectKind.BUS,
    ):
        if not 2 <= n_nodes <= 16:
            raise ValueError("model supports 2-16 nodes")
        self.protocol = protocol
        self.n_nodes = n_nodes
        self.n_lines = n_lines
        self.n_words = n_words
        self.values = values
        self.interconnect = interconnect

    # ------------------------------------------------------------------
    # State construction and views
    # ------------------------------------------------------------------

    def initial(self):
        """All caches empty, memory (= arch = visible shadow) all zero."""
        zero = (0,) * self.n_words
        nodes = tuple(
            tuple(None for _ in range(self.n_lines)) for _ in range(self.n_nodes)
        )
        mem = tuple(zero for _ in range(self.n_lines))
        dirs = None
        if self.interconnect is InterconnectKind.DIRECTORY:
            dirs = tuple((None, frozenset(), frozenset()) for _ in range(self.n_lines))
        return (nodes, mem, mem, mem, dirs)

    @staticmethod
    def node_line(state, node: int, line: int):
        """The (state, data, visible, diverged) tuple, or None if absent."""
        return state[0][node][line]

    def _mk_line(self, nl, line: int) -> CacheLine:
        """Materialize a real CacheLine from an abstract node-line tuple."""
        obj = CacheLine(self.n_words)
        obj.base = line_base(line)
        obj.state = nl[0]
        obj.data = list(nl[1])
        obj.visible = list(nl[2]) if nl[2] is not None else None
        obj.diverged = nl[3]
        return obj

    @staticmethod
    def _pack(obj: CacheLine):
        return (
            obj.state,
            tuple(obj.data),
            tuple(obj.visible) if obj.visible is not None else None,
            obj.diverged,
        )

    @staticmethod
    def _with_node_line(nodes, i: int, line: int, nl):
        row = list(nodes[i])
        row[line] = nl
        out = list(nodes)
        out[i] = tuple(row)
        return tuple(out)

    @staticmethod
    def _with_line(per_line, line: int, value):
        out = list(per_line)
        out[line] = value
        return tuple(out)

    # ------------------------------------------------------------------
    # The atomic transaction (mini-bus / mini-directory)
    # ------------------------------------------------------------------

    def _transaction(self, state, req: int, line: int, kind: TxnKind,
                     wb_data: tuple[int, ...] | None = None):
        """Run one atomic-grant transaction; the requester's own line
        install (fill/upgrade) is left to the caller.

        Returns ``(nodes, mem, gvis, dirs, data, result)``.
        """
        nodes, mem, arch, gvis, dirs = state
        lines: dict[int, CacheLine] = {}
        for i in range(self.n_nodes):
            nl = nodes[i][line]
            if nl is not None:
                lines[i] = self._mk_line(nl, line)

        txn = BusTransaction(
            kind=kind, base=line_base(line), requester=req,
            data=list(wb_data) if wb_data is not None else None,
        )
        entry: DirectoryEntry | None = None
        if dirs is not None:
            d = dirs[line]
            entry = DirectoryEntry(
                owner=d[0], sharers=set(d[1]), t_sharers=set(d[2])
            )
            # The home's rules are the implementation's, not a
            # re-derivation.  Contacting a node that silently dropped
            # the line is a harmless no-op, as on the real interconnect.
            targets = [t for t in DirectoryNetwork.targets(entry, txn) if t in lines]
        else:
            targets = [t for t in lines if t != req]

        result = txn.result
        for t in targets:
            query = self.protocol.snoop_query(lines[t], kind)
            if query.assert_shared:
                result.shared = True
            if query.can_supply:
                result.dirty_owner = t
        if dirs is not None and kind is TxnKind.READ and not result.shared:
            # The home supplies the sharing indication for uncontacted
            # clean sharers (the interconnect's grant does the same).
            result.shared = DirectoryNetwork.home_shared(entry, req)

        mem_line = mem[line]
        gvis_line = gvis[line]
        data: tuple[int, ...] | None = None
        if kind.carries_data_response:
            if result.dirty_owner is not None:
                data = tuple(lines[result.dirty_owner].data)
                result.owner_data = list(data)
            else:
                data = mem_line
        elif kind is TxnKind.WRITEBACK:
            assert wb_data is not None
            mem_line = tuple(wb_data)

        pre_states = {t: lines[t].state for t in targets}
        for t in targets:
            self.protocol.snoop_apply(lines[t], kind, result)

        # Post-snoop effects, mirroring CoherenceController.
        for t in targets:
            pre, obj = pre_states[t], lines[t]
            if (kind is TxnKind.READ and result.dirty_owner == t
                    and pre is LineState.M and not self.protocol.has_owned):
                mem_line = tuple(obj.data)
            if kind is TxnKind.VALIDATE and pre is LineState.T:
                if tuple(obj.data) != gvis_line:
                    raise ModelViolation(
                        "validate-reinstall",
                        f"validate re-installed {tuple(obj.data)} at P{t} but "
                        f"the last globally visible value is {gvis_line}",
                    )
                obj.visible = list(obj.data)

        # Global-visibility shadow: a dirty flush or a write-back
        # publishes a value; nothing else does.
        if result.dirty_owner is not None and kind in (TxnKind.READ, TxnKind.READX):
            gvis_line = data
        elif kind is TxnKind.WRITEBACK:
            gvis_line = tuple(wb_data)

        for t in targets:
            nodes = self._with_node_line(nodes, t, line, self._pack(lines[t]))
        mem = self._with_line(mem, line, mem_line)
        gvis = self._with_line(gvis, line, gvis_line)
        if dirs is not None:
            DirectoryNetwork.update(entry, txn, result)
            dirs = self._with_line(
                dirs,
                line,
                (entry.owner, frozenset(entry.sharers), frozenset(entry.t_sharers)),
            )
        return nodes, mem, gvis, dirs, data, result

    # ------------------------------------------------------------------
    # Core events
    # ------------------------------------------------------------------

    def apply_load(self, state, node: int, line: int, word: int):
        """Apply one load; returns ``(new_state, observed_value)``."""
        nodes, mem, arch, gvis, dirs = state
        nl = nodes[node][line]
        if nl is not None and nl[0].readable:
            value = nl[1][word]
            if nl[0] is LineState.VS:
                obj = self._mk_line(nl, line)
                demote = getattr(self.protocol, "on_local_access", None)
                if demote is not None:
                    demote(obj)
                self.protocol.note_transition(
                    "local", "VS", "PrRd.hit", obj.state.value
                )
                nodes = self._with_node_line(nodes, node, line, self._pack(obj))
            return (nodes, mem, arch, gvis, dirs), value
        pre = "-" if nl is None else nl[0].value
        nodes, mem, gvis, dirs, data, result = self._transaction(
            state, node, line, TxnKind.READ
        )
        fill = self.protocol.fill_state(TxnKind.READ, result)
        self.protocol.note_transition(
            "local", pre, f"fill.Read.{fill.value}", fill.value
        )
        nodes = self._with_node_line(nodes, node, line, (fill, data, data, False))
        return (nodes, mem, arch, gvis, dirs), data[word]

    def apply_store(self, state, node: int, line: int, word: int, value: int,
                    decision: str | None = None):
        """Apply one store; returns the new state.

        ``decision`` resolves the validate-policy nondeterminism when
        the store detects temporal silence: ``"validate"`` broadcasts,
        ``"quiet"`` suppresses.  Passing ``None`` asserts the store is
        not expected to detect a reversion (raises otherwise) — use
        :meth:`store_outcomes` to enumerate successors.
        """
        nodes, mem, arch, gvis, dirs = state
        nl = nodes[node][line]
        if nl is not None and nl[0].writable:
            obj = self._mk_line(nl, line)
        elif nl is not None and nl[0].valid:
            # S / O / VS: upgrade for ownership (write at the grant).
            pre = nl[0].value
            nodes, mem, gvis, dirs, _, result = self._transaction(
                state, node, line, TxnKind.UPGRADE
            )
            self.protocol.note_transition("local", pre, "PrWr.Upgrade", "M")
            obj = self._mk_line(nodes[node][line], line)
            obj.state = LineState.M
            state = (nodes, mem, arch, gvis, dirs)
        else:
            # I / T / absent: ReadX, write at the grant.
            pre = "-" if nl is None else nl[0].value
            nodes, mem, gvis, dirs, data, result = self._transaction(
                state, node, line, TxnKind.READX
            )
            fill = self.protocol.fill_state(TxnKind.READX, result)
            self.protocol.note_transition(
                "local", pre, "fill.ReadX", fill.value
            )
            obj = CacheLine(self.n_words)
            obj.base = line_base(line)
            obj.state = fill
            obj.data = list(data)
            obj.visible = list(data)
            obj.diverged = False
            state = (nodes, mem, arch, gvis, dirs)
        return self._perform_write(state, node, line, word, value, obj, decision)

    def _perform_write(self, state, node, line, word, value, obj, decision):
        nodes, mem, arch, gvis, dirs = state
        if obj.state is LineState.E:
            self.protocol.note_transition("local", "E", "PrWr.hit", "M")
            obj.state = LineState.M
        if obj.state is not LineState.M:
            raise ModelViolation(
                "write-without-ownership",
                f"P{node} writing line {line} in state {obj.state.value}",
            )
        obj.data[word] = value
        arch = self._with_line(
            arch, line, tuple(
                value if w == word else arch[line][w] for w in range(self.n_words)
            ),
        )

        # Temporal-silence detection (CoherenceController.after_store).
        reverted = False
        if obj.data != obj.visible:
            obj.diverged = True
        elif obj.diverged:
            obj.diverged = False
            reverted = True
        if reverted != (decision is not None) and self.protocol.has_temporal:
            raise ModelViolation(
                "decision-mismatch",
                f"store expected decision={decision!r} but reverted={reverted}",
            )
        if reverted and self.protocol.has_temporal and decision == "validate":
            # Broadcast: owner retires per the protocol, then the
            # validate transaction re-installs remote T copies.
            if tuple(obj.data) != gvis[line]:
                raise ModelViolation(
                    "validate-not-visible",
                    f"P{node} validating {tuple(obj.data)} but the last "
                    f"globally visible value is {gvis[line]}",
                )
            post = self.protocol.post_validate_state()
            self.protocol.note_transition("local", "M", "PrWr.Validate", post.value)
            obj.state = post
            obj.visible = list(obj.data)
            obj.diverged = False
            if self.protocol.validate_writes_back:
                mem = self._with_line(mem, line, tuple(obj.data))
            nodes = self._with_node_line(nodes, node, line, self._pack(obj))
            state = (nodes, mem, arch, gvis, dirs)
            nodes, mem, gvis, dirs, _, _ = self._transaction(
                state, node, line, TxnKind.VALIDATE
            )
            return (nodes, mem, arch, gvis, dirs)
        nodes = self._with_node_line(nodes, node, line, self._pack(obj))
        return (nodes, mem, arch, gvis, dirs)

    def store_detects_reversion(self, state, node, line, word, value) -> bool:
        """Would this store fire temporal-silence detection?

        True only for a *reversion*: the written line becomes equal to
        the owner's last-globally-visible copy after having diverged.
        Governs whether the store event forks into validate/quiet
        successors.
        """
        nl = state[0][node][line]
        if nl is None or not self.protocol.has_temporal:
            return False
        if nl[0].writable:
            data, visible, diverged = list(nl[1]), nl[2], nl[3]
        elif nl[0].valid:
            data, visible, diverged = list(nl[1]), nl[2], nl[3]
        else:
            return False  # fresh ReadX fill: visible == data, never diverged
        data[word] = value
        return visible is not None and tuple(data) == tuple(visible) and diverged

    def apply_evict(self, state, node: int, line: int):
        """Apply one eviction; returns the new state."""
        nodes, mem, arch, gvis, dirs = state
        nl = nodes[node][line]
        if nl is None:
            raise ModelViolation("evict-absent", f"P{node} evicting absent line")
        self.protocol.note_transition("local", nl[0].value, "evict", "-")
        nodes = self._with_node_line(nodes, node, line, None)
        state = (nodes, mem, arch, gvis, dirs)
        if nl[0].dirty:
            # Memory updates at the eviction point; the WRITEBACK
            # transaction invalidates remote T copies (and, on the
            # directory, is routed to tracked T-sharers only).
            mem = self._with_line(mem, line, tuple(nl[1]))
            state = (nodes, mem, arch, gvis, dirs)
            nodes, mem, gvis, dirs, _, _ = self._transaction(
                state, node, line, TxnKind.WRITEBACK, wb_data=tuple(nl[1])
            )
            return (nodes, mem, arch, gvis, dirs)
        # Clean/stale copies drop silently (the directory is not told).
        return state

    # ------------------------------------------------------------------
    # Event enumeration
    # ------------------------------------------------------------------

    def apply(self, state, event: Event):
        """Apply one event tuple; returns ``(new_state, load_value|None)``."""
        kind = event[0]
        try:
            if kind == "load":
                return self.apply_load(state, event[1], event[2], event[3])
            if kind == "store":
                decision = event[5] if len(event) > 5 else None
                return (
                    self.apply_store(
                        state, event[1], event[2], event[3], event[4], decision
                    ),
                    None,
                )
            if kind == "evict":
                return self.apply_evict(state, event[1], event[2]), None
        except ProtocolError as exc:
            # A table hole / illegal transition inside the protocol
            # itself: surface it as a model violation (stuck state).
            raise ModelViolation("protocol-error", str(exc)) from exc
        raise ValueError(f"unknown event {event!r}")

    def events(self, state) -> Iterator[Event]:
        """Enumerate the enabled core events of ``state``.

        Loads that would be pure no-op hits (no state change, no
        transaction) are skipped: they cannot move the exploration.
        """
        nodes = state[0]
        for i in range(self.n_nodes):
            for line in range(self.n_lines):
                nl = nodes[i][line]
                load_changes = (
                    nl is None or not nl[0].readable or nl[0] is LineState.VS
                )
                if load_changes:
                    for w in range(self.n_words):
                        yield ("load", i, line, w)
                        if nl is not None and nl[0] is LineState.VS:
                            break  # the demotion is word-independent
                for w in range(self.n_words):
                    for v in self.values:
                        if self.store_detects_reversion(state, i, line, w, v):
                            yield ("store", i, line, w, v, "validate")
                            yield ("store", i, line, w, v, "quiet")
                        else:
                            yield ("store", i, line, w, v)
                if nl is not None:
                    yield ("evict", i, line)

    def successors(self, state) -> Iterator[tuple[Event, object]]:
        """Yield ``(event, next_state)`` for every enabled event."""
        for event in self.events(state):
            next_state, _ = self.apply(state, event)
            if next_state != state:
                yield event, next_state
